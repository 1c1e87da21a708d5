"""The 5-dimensional orthosymplectic superalgebra and its finite modules.

The algebra is built from its defining 3x3 supermatrices (one even index,
two odd) by ``algebra.matrix_structure``, with the supertrace form.
Modules are given by the actions of the odd raising/lowering pair e, f
and the Cartan element h; the even generators act as 2e^2 and 2f^2,
so three operator identities

    he - eh = 2e,   hf - fh = -2f,   ef + fe = h

together with the parity grading of e, f, h pin down the whole
representation property (every other basis-pair identity is an associative
consequence; see the test suite, which checks all fifteen pairs against
the structure constants on every fixture).

Module actions are sparse integer (or rational) columns; kernels, ranks and
span certificates all run on the sparse exact echelon engine of ``linalg``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .algebra import LieSuperalgebra, matrix_structure, plain_index_set
from .scalars import Rat, is_rat

OSP_LABELS = ("E+", "E-", "H", "F+", "F-")
OSP_PARITY = (0, 0, 0, 1, 1)

_SUPER_MATRICES = {
    "F+": ((0, 1, 0), (0, 0, 0), (1, 0, 0)),
    "F-": ((0, 0, 2), (-2, 0, 0), (0, 0, 0)),
    "H": ((0, 0, 0), (0, -2, 0), (0, 0, 2)),
    "E+": ((0, 0, 0), (0, 0, 0), (0, 2, 0)),
    "E-": ((0, 0, 0), (0, 0, -8), (0, 0, 0)),
}


class TripleError(ValueError):
    """A candidate (x, y, h) fails the super-triple requirements."""


class ModuleError(ValueError):
    """A module violates the representation property or a precondition."""


def osp12_standard() -> LieSuperalgebra:
    """The standard algebra on (E+, E-, H, F+, F-) with the supertrace form."""
    idx = plain_index_set(1, 2)
    order = idx.indices()  # 1, 1', 2': graded 0, 1, 1
    mats = [{(order[i], order[j], ()): Rat(v) for i, row in enumerate(_SUPER_MATRICES[l])
             for j, v in enumerate(row) if v} for l in OSP_LABELS]
    structure, gram = matrix_structure(mats, idx)
    h_index = OSP_LABELS.index("H")
    weights = {}
    for b in range(5):
        c = structure.get((h_index, b), {})
        weights[b] = (c.get(b, Rat(0)),)
    return LieSuperalgebra(
        basis_labels=OSP_LABELS,
        parity=OSP_PARITY,
        structure=structure,
        gram=gram,
        cartan=(h_index,),
        weights=weights,
    )


# ---------------------------------------------------------------------------
# super triples inside an ambient algebra


@dataclass(frozen=True)
class Sl2SuperTriple:
    x: dict
    y: dict
    h: dict
    kind: str  # "osp" (x, y odd) or "sl2" (x, y even)


def generated_subalgebra_rank(L: LieSuperalgebra, seeds: list[dict]) -> int:
    """Dimension of the subalgebra generated by the seed vectors."""
    ech = linalg.Echelon()
    frontier = []
    for v in seeds:
        if ech.add(dict(v)):
            frontier.append(dict(v))
    basis = list(frontier)
    while frontier:
        new = []
        for v in frontier:
            for w in basis:
                for cand in (L.bracket(v, w), L.bracket(w, v)):
                    if cand and ech.add(cand):
                        new.append(cand)
        basis.extend(new)
        frontier = new
    return ech.rank


def verify_triple(L: LieSuperalgebra, x: dict, y: dict, h: dict) -> Sl2SuperTriple:
    """Check the defining relations, homogeneity, and generation; classify."""
    for name, v in (("x", x), ("y", y), ("h", h)):
        if not v:
            raise TripleError(f"{name} is zero")
    px, py, ph = L.parity_of(x), L.parity_of(y), L.parity_of(h)
    if px is None or py is None or px != py:
        raise TripleError("x and y must be homogeneous of the same parity")
    if ph != 0:
        raise TripleError("h must be even and homogeneous")

    def expect(got, want, what):
        if got != want:
            raise TripleError(
                f"{what}: got {L.label_vector(got)}, expected {L.label_vector(want)}")

    expect(L.bracket(h, x), linalg.vscale(Rat(2), x), "[h,x] = 2x")
    expect(L.bracket(h, y), linalg.vscale(Rat(-2), y), "[h,y] = -2y")
    expect(L.bracket(x, y), h, "[x,y] = h")

    rank = generated_subalgebra_rank(L, [x, y, h])
    if rank != L.dim:
        raise TripleError(f"triple generates a subalgebra of dimension {rank},"
                          f" not the whole algebra of dimension {L.dim}")

    kind = "osp" if px == 1 else "sl2"
    if kind == "osp":
        xx = L.bracket(x, x)
        yy = L.bracket(y, y)
        expect(L.bracket(xx, x), {}, "[[x,x],x] = 0")
        ex = linalg.vscale(Rat(1, 4), xx)
        fy = linalg.vscale(Rat(-1, 4), yy)
        hh = linalg.vscale(Rat(1, 2), h)
        expect(L.bracket(hh, ex), linalg.vscale(Rat(2), ex), "[h/2, [x,x]/4] relation")
        expect(L.bracket(hh, fy), linalg.vscale(Rat(-2), fy), "[h/2, -[y,y]/4] relation")
        expect(L.bracket(ex, fy), hh, "derived sl2 pair bracket")
    return Sl2SuperTriple(x=dict(x), y=dict(y), h=dict(h), kind=kind)


# ---------------------------------------------------------------------------
# finite-dimensional modules

# bench/tracing.py counts elimination calls through these two names; both
# are the one sparse engine of linalg
DenseEchelon = linalg.Echelon
dense_kernel_tagged = linalg.nullspace


class Columns(tuple):
    """A square matrix as a tuple of sparse column dicts.

    ``m[j]`` is column j, as :func:`linalg.mat_vec` expects; ``m[i, j]``
    reads one entry, 0 where absent.
    """

    __slots__ = ()

    def __getitem__(self, key):
        if isinstance(key, tuple):
            i, j = key
            return tuple.__getitem__(self, j).get(i, 0)
        return tuple.__getitem__(self, key)


def _columns(mat, n: int, name: str) -> Columns:
    """An action matrix given as Columns or as n rows of n rational entries."""
    if isinstance(mat, Columns):
        if len(mat) != n:
            raise ModuleError(f"{name} has {len(mat)} columns, expected {n}")
        return mat
    rows = [list(row) for row in mat]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ModuleError(f"{name} is not a {n}x{n} matrix")
    cols: list[dict] = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if not is_rat(x):
                raise ModuleError(f"{name} entry ({i},{j}) is not rational: {x}")
            x = Rat(x)
            if x:
                cols[j][i] = int(x) if x.denominator == 1 else x
    return Columns(cols)


class Osp12Module:
    """A finite module given by the actions of e, f, h (exact sparse columns).

    The even generators act through the derived operators 2e^2 and 2f^2.
    ``parity[i]`` grades the i-th basis vector; e and f shift parity, h
    preserves it.  Actions may be given as nested rows of rationals.
    """

    def __init__(self, parity, act_e, act_f, act_h):
        self.parity = tuple(parity)
        if any(type(p) is not int or p not in (0, 1) for p in self.parity):
            raise ModuleError(f"parity must list 0 or 1 per basis vector, got {list(self.parity)}")
        self.dim = len(self.parity)
        self.act_e = _columns(act_e, self.dim, "act_e")
        self.act_f = _columns(act_f, self.dim, "act_f")
        self.act_h = _columns(act_h, self.dim, "act_h")

    @cached_property
    def act_ee(self) -> Columns:
        return _twice_square(self.act_e)

    @cached_property
    def act_ff(self) -> Columns:
        return _twice_square(self.act_f)

    def action(self, label: str) -> Columns:
        return {"E+": self.act_ee, "E-": self.act_ff, "H": self.act_h,
                "F+": self.act_e, "F-": self.act_f}[label]

    def parity_indices(self, p: int) -> list[int]:
        return [i for i in range(self.dim) if self.parity[i] == p]


def _twice_square(a: Columns) -> Columns:
    return Columns(linalg.vscale(2, linalg.mat_vec(a, col)) for col in a)


def check_representation(m: Osp12Module) -> str | None:
    """None if the representation property holds; else a failure description."""
    for name, mat, shift in (("e", m.act_e, 1), ("f", m.act_f, 1), ("h", m.act_h, 0)):
        bad = [(i, j) for j, col in enumerate(mat) for i in col
               if m.parity[i] != (m.parity[j] + shift) % 2]
        if bad:
            i, j = min(bad)
            return f"act_{name} breaks the parity grading at ({i},{j})"
    e, f, h = m.act_e, m.act_f, m.act_h
    # a b + sign * b a == c * rhs, checked column by column
    for msg, a, b, sign, c, rhs in (("he - eh != 2e", h, e, -1, 2, e),
                                    ("hf - fh != -2f", h, f, -1, -2, f),
                                    ("ef + fe != h", e, f, 1, 1, h)):
        for j in range(m.dim):
            lhs = linalg.mat_vec(a, b[j])
            linalg.vaxpy_inplace(lhs, sign, linalg.mat_vec(b, a[j]))
            if lhs != linalg.vscale(c, rhs[j]):
                return msg
    return None


def require_representation(m: Osp12Module) -> None:
    msg = check_representation(m)
    if msg is not None:
        raise ModuleError(msg)


def irreducible_module(lam: int, top_parity: int = 0) -> Osp12Module:
    """The irreducible module of highest h-eigenvalue lam (even, >= 0).

    Basis v_0..v_lam with f.v_i = v_{i+1}, h.v_i = (lam-2i) v_i and
    e.v_i = -i v_{i-1} (i even) or (lam-i+1) v_{i-1} (i odd); parities
    alternate starting from top_parity.  Dimension lam+1 (odd).
    """
    if lam < 0 or lam % 2:
        raise ModuleError(f"highest weight must be an even nonnegative integer, got {lam}")
    n = lam + 1
    act_f = Columns({i + 1: 1} if i + 1 < n else {} for i in range(n))
    act_e = Columns({i - 1: -i if i % 2 == 0 else lam - (i - 1)} if i else {}
                    for i in range(n))
    act_h = Columns({i: lam - 2 * i} if lam != 2 * i else {} for i in range(n))
    parity = tuple((top_parity + i) % 2 for i in range(n))
    return Osp12Module(parity, act_e, act_f, act_h)


def direct_sum(modules: list[Osp12Module]) -> Osp12Module:
    parity = []
    acts: dict = {"e": [], "f": [], "h": []}
    for m in modules:
        off = len(parity)
        parity.extend(m.parity)
        for key, mat in (("e", m.act_e), ("f", m.act_f), ("h", m.act_h)):
            acts[key].extend({k + off: c for k, c in col.items()} for col in mat)
    return Osp12Module(tuple(parity), *(Columns(acts[k]) for k in ("e", "f", "h")))


def scramble(m: Osp12Module, seed: int) -> Osp12Module:
    """Conjugate by a seeded random parity-preserving unimodular basis change.

    The change of basis S = E_k...E_1 is a product of shears and swaps
    inside each parity block, so it is integral with an integral inverse
    and the conjugated action matrices stay exact integers.  Each E is
    applied as a row operation and its inverse as a column operation:
    S A S^-1 = E_k...E_1 A E_1^-1...E_k^-1.
    """
    rng = random.Random(seed)
    n = m.dim
    classes = [m.parity_indices(0), m.parity_indices(1)]
    classes = [c for c in classes if len(c) >= 1]
    ops: list[tuple] = []
    for _ in range(2 * n):
        cls = rng.choice(classes)
        if len(cls) < 2:
            continue
        i, j = rng.sample(cls, 2)
        if rng.random() < 0.2:
            ops.append(("swap", i, j))
        else:
            ops.append(("shear", i, j, rng.choice((-2, -1, 1, 2))))
    mats = [[dict(col) for col in a] for a in (m.act_e, m.act_f, m.act_h)]
    for op in ops:
        for cols in mats:
            if op[0] == "swap":
                _, i, j = op
                cols[i], cols[j] = cols[j], cols[i]
                for col in cols:
                    a, b = col.pop(i, None), col.pop(j, None)
                    if a is not None:
                        col[j] = a
                    if b is not None:
                        col[i] = b
            else:
                _, i, j, c = op
                for col in cols:  # row i += c * row j
                    x = col.get(j)
                    if x:
                        linalg.add_entry(col, i, c * x)
                linalg.vaxpy_inplace(cols[j], -c, cols[i])  # column j -= c * column i
    return Osp12Module(m.parity, *map(Columns, mats))


def h_spectrum(m: Osp12Module) -> list:
    """The multiset (sorted list) of h-eigenvalues, verified exactly.

    Confirms that h is diagonalizable with even integer eigenvalues and that
    the multiset is symmetric under negation; raises ModuleError otherwise.
    """
    require_representation(m)
    rows = linalg.block_rows(m.act_h, range(m.dim))
    found: dict[int, int] = {}
    total = 0
    candidates = [0]
    for k in range(2, m.dim + 1, 2):
        candidates.extend((k, -k))
    for mu in candidates:
        if total == m.dim:
            break
        dim_mu = len(linalg.nullspace(linalg.minus_identity(rows, mu), m.dim))
        if dim_mu:
            found[mu] = dim_mu
            total += dim_mu
    if total != m.dim:
        raise ModuleError(
            "h is not diagonalizable with even integer eigenvalues: "
            f"found {total} of {m.dim} dimensions at {sorted(found)}")
    for mu, mult in found.items():
        if found.get(-mu, 0) != mult:
            raise ModuleError(f"spectrum is not symmetric at eigenvalue {mu}")
    out = []
    for mu in sorted(found, reverse=True):
        out.extend([mu] * found[mu])
    return out


def _chain(m: Osp12Module, start: dict) -> list[dict]:
    """start, f.start, f^2.start, ... until zero; error past 2 dim + 2 vectors."""
    out = []
    v = start
    while v:
        out.append(v)
        if len(out) > 2 * m.dim + 2:
            raise ModuleError("lowering chain did not terminate within the dimension cap")
        v = linalg.mat_vec(m.act_f, v)
    return out


def generated_g0_submodule(m: Osp12Module, u: dict, lam_u) -> list[dict]:
    """Span of the even-part submodule generated by f.u, as an explicit list.

    Requires h.u = lam_u u, (2e^2).u = 0, homogeneous u, and lam_u != -2.
    The returned vectors are the two lowering chains started at e.u and at
    f.(e.u) - (lam_u+2) u; their span is verified against the brute-force
    closure of {f.u} under the even action operators.
    """
    lam_u = Rat(lam_u)
    if lam_u == -2:
        raise ModuleError("lam_u = -2 is outside the construction's hypothesis")
    u = {i: c for i, c in u.items() if c}
    if not u:
        raise ModuleError("u must be nonzero")
    if len({m.parity[i] for i in u}) != 1:
        raise ModuleError("u must be homogeneous")
    if linalg.vsub(linalg.mat_vec(m.act_h, u), linalg.vscale(lam_u, u)):
        raise ModuleError("u is not an h-eigenvector of the stated eigenvalue")
    if linalg.mat_vec(m.act_ee, u):
        raise ModuleError("u is not annihilated by the even raising operator")

    eu = linalg.mat_vec(m.act_e, u)
    z = linalg.vsub(linalg.mat_vec(m.act_f, eu), linalg.vscale(lam_u + 2, u))
    vectors = []
    if eu:
        vectors.extend(_chain(m, eu)[0::2])
    if z:
        vectors.extend(_chain(m, z)[1::2])

    span = linalg.Echelon()
    for v in vectors:
        span.add(v)

    closure = linalg.Echelon()
    frontier = []
    fu = linalg.mat_vec(m.act_f, u)
    if closure.add(fu):
        frontier.append(fu)
    ops = (m.act_ee, m.act_ff, m.act_h)
    while frontier:
        new = []
        for v in frontier:
            for op in ops:
                w = linalg.mat_vec(op, v)
                if closure.add(w):
                    new.append(w)
        frontier = new
    if span.rank != closure.rank or not all(closure.contains(v) for v in vectors):
        raise ModuleError("explicit span differs from the brute-force closure")
    return vectors


def _half_h_tops(m: Osp12Module) -> list[tuple[int, dict]]:
    """Highest vectors of the even part under the even subalgebra.

    Returns (lam_j, w_j) pairs, lam_j the (h/2)-eigenvalue, eigenvalues in
    descending order, deterministic echelon representatives within each
    eigenspace.
    """
    even = m.parity_indices(0)
    if not even:
        return []
    tagged = linalg.nullspace(linalg.block_rows(m.act_ee, even), len(even))
    k = len(tagged)
    if k == 0:
        return []
    kernel = [{even[t]: c for t, c in v.items()} for _, v in tagged]
    # coordinates over the kernel basis are read off at its free columns
    free = [even[j] for j, _ in tagged]
    amat: list[dict] = [{} for _ in range(k)]  # h on the kernel, by rows
    for i, vec in enumerate(kernel):
        hv = linalg.mat_vec(m.act_h, vec)
        coords = [hv.get(c, 0) for c in free]
        resid = dict(hv)
        for t, c in enumerate(coords):
            linalg.vaxpy_inplace(resid, -c, kernel[t])
        if resid:
            raise ModuleError("h does not preserve the highest-vector kernel")
        for t, c in enumerate(coords):
            if c:
                amat[t][i] = c
    found: list[tuple[int, list[dict]]] = []
    total = 0
    for lam in range(0, m.dim + 1):
        if total == k:
            break
        eig = linalg.nullspace(linalg.minus_identity(amat, 2 * lam), k)
        if eig:
            found.append((lam, [c for _, c in eig]))
            total += len(eig)
    if total != k:
        raise ModuleError("even highest vectors do not split into integral eigenspaces")
    tops = []
    for lam, eigvecs in reversed(found):
        for c in eigvecs:
            w: dict = {}
            for i, x in c.items():
                linalg.vaxpy_inplace(w, x, kernel[i])
            tops.append((lam, w))
    return tops


def _trivial_odd_lines(m: Osp12Module) -> list[dict]:
    """Basis of the odd vectors killed by h and both even action operators."""
    odd = m.parity_indices(1)
    if not odd:
        return []
    stacked = [row for op in (m.act_h, m.act_ee, m.act_ff)
               for row in linalg.block_rows(op, odd)]
    return [{odd[t]: c for t, c in v.items()}
            for _, v in linalg.nullspace(stacked, len(odd))]


def _certify_summand(m: Osp12Module, lam: int, chain: list[dict]) -> None:
    """Verify the chain realizes the irreducible module of highest weight lam."""
    if lam % 2 or lam < 0:
        raise ModuleError(f"summand label {lam} is not an even nonnegative integer")
    if len(chain) != lam + 1:
        raise ModuleError(f"summand of label {lam} has {len(chain)} chain vectors")
    for i, v in enumerate(chain):
        if linalg.vsub(linalg.mat_vec(m.act_h, v), linalg.vscale(lam - 2 * i, v)):
            raise ModuleError(f"chain vector {i} is not an h-eigenvector of {lam - 2 * i}")
        expect = chain[i + 1] if i + 1 < len(chain) else {}
        if linalg.vsub(linalg.mat_vec(m.act_f, v), expect):
            raise ModuleError(f"f does not shift chain vector {i}")
        coeff = -i if i % 2 == 0 else lam - (i - 1)
        expect = linalg.vscale(coeff, chain[i - 1]) if i > 0 else {}
        if linalg.vsub(linalg.mat_vec(m.act_e, v), expect):
            raise ModuleError(f"e does not act with the expected coefficient at {i}")
        if len({m.parity[t] for t in v}) != 1:
            raise ModuleError(f"chain vector {i} is not homogeneous")


def decompose(m: Osp12Module, certify: bool = True) -> list[tuple[int, list[dict]]]:
    """Split a module into irreducible summands, certified exactly.

    Candidate summands come from the even part's highest vectors w (two
    lowering chains per w, from e.w and from f.(e.w) - (2 lam + 2) w) and
    from the trivial lines f.(e.v) - 2v attached to the odd kernel vectors
    v.  A greedy pass keeps the candidates that grow an exact rank
    certificate; the result is verified to be a direct sum of irreducible
    chains covering the whole space.  Chain vectors are sparse dicts.
    """
    require_representation(m)
    candidates: list[tuple[int, list[dict]]] = []
    for lam, w in _half_h_tops(m):
        y = linalg.mat_vec(m.act_e, w)
        if y:
            candidates.append((2 * lam + 2, _chain(m, y)))
        z = linalg.vsub(linalg.mat_vec(m.act_f, y), linalg.vscale(2 * lam + 2, w))
        if z:
            candidates.append((2 * lam, _chain(m, z)))
    for v in _trivial_odd_lines(m):
        x = linalg.vsub(linalg.mat_vec(m.act_f, linalg.mat_vec(m.act_e, v)),
                        linalg.vscale(2, v))
        if x:
            candidates.append((0, [x]))

    ech = linalg.Echelon()
    chosen: list[tuple[int, list[dict]]] = []
    for lam, chain in candidates:
        if len(chain) != lam + 1:
            raise ModuleError(
                f"candidate chain for label {lam} has length {len(chain)}")
        mark = ech.rank
        added = [ech.add(v) for v in chain]
        if all(added):
            chosen.append((lam, chain))
        elif any(added):
            raise ModuleError("candidate summand met the chosen span partially")
        else:
            assert ech.rank == mark
    if ech.rank != m.dim:
        raise ModuleError(
            f"summands span {ech.rank} of {m.dim} dimensions")
    chosen.sort(key=lambda t: -t[0])
    if certify:
        for lam, chain in chosen:
            _certify_summand(m, lam, chain)
    return chosen
