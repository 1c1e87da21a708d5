"""The 5-dimensional orthosymplectic superalgebra and its finite modules.

The algebra is built from its defining 3x3 supermatrices (one even index,
two odd) under the supercommutator, with the supertrace form.  Modules are
given by the actions of the odd raising/lowering pair e, f and the Cartan
element h; the even generators act as 2e^2 and 2f^2, so three operator
identities

    he - eh = 2e,   hf - fh = -2f,   ef + fe = h

together with the parity grading of e, f, h pin down the whole
representation property (every other basis-pair identity is an associative
consequence; see the test suite, which checks all fifteen pairs against
the structure constants on every fixture).

Dense exact matrices are numpy object arrays of rationals; kernels and
rank certificates use an exact reduced-echelon routine on such arrays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import LieSuperalgebra
from .scalars import Rat

OSP_LABELS = ("E+", "E-", "H", "F+", "F-")
OSP_PARITY = (0, 0, 0, 1, 1)

_SUPER_MATRICES = {
    "F+": ((0, 1, 0), (0, 0, 0), (1, 0, 0)),
    "F-": ((0, 0, 2), (-2, 0, 0), (0, 0, 0)),
    "H": ((0, 0, 0), (0, -2, 0), (0, 0, 2)),
    "E+": ((0, 0, 0), (0, 0, 0), (0, 2, 0)),
    "E-": ((0, 0, 0), (0, 0, -8), (0, 0, 0)),
}
_INDEX_PARITY = (0, 1, 1)  # grading of the defining 3-dim superspace


class TripleError(ValueError):
    """A candidate (x, y, h) fails the super-triple requirements."""


class ModuleError(ValueError):
    """A module violates the representation property or a precondition."""


# ---------------------------------------------------------------------------
# 3x3 matrix oracle


def mat3_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
                 for i in range(3))


def mat3_supercomm(a, pa, b, pb):
    sign = -1 if (pa and pb) else 1
    ab, ba = mat3_mul(a, b), mat3_mul(b, a)
    return tuple(tuple(ab[i][j] - sign * ba[i][j] for j in range(3)) for i in range(3))


def mat3_supertrace(a):
    return sum((-1 if _INDEX_PARITY[i] else 1) * a[i][i] for i in range(3))


def osp12_standard() -> LieSuperalgebra:
    """The standard algebra on (E+, E-, H, F+, F-) with the supertrace form."""
    mats = [_SUPER_MATRICES[l] for l in OSP_LABELS]
    # rows of the 9x5 coordinate system expressing a 3x3 matrix over the basis
    rows = []
    for i in range(3):
        for j in range(3):
            rows.append({b: Rat(mats[b][i][j]) for b in range(5) if mats[b][i][j]})
    structure = {}
    for a in range(5):
        for b in range(5):
            comm = mat3_supercomm(mats[a], OSP_PARITY[a], mats[b], OSP_PARITY[b])
            rhs = {}
            for i in range(3):
                for j in range(3):
                    if comm[i][j]:
                        rhs[3 * i + j] = Rat(comm[i][j])
            coeffs = linalg.solve(rows, 5, rhs)
            if coeffs is None:
                raise AssertionError("supercommutator left the span of the basis")
            if coeffs:
                structure[(a, b)] = coeffs
    gram = tuple(
        tuple(Rat(mat3_supertrace(mat3_mul(mats[a], mats[b]))) for b in range(5))
        for a in range(5))
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
# dense exact helpers (numpy object arrays)


def obj_matrix(rows) -> np.ndarray:
    m = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            m[i, j] = Rat(x) if isinstance(x, int) else x
    return m


def obj_zeros(n: int) -> np.ndarray:
    v = np.empty(n, dtype=object)
    v[:] = Rat(0)
    return v


def obj_eye(n: int) -> np.ndarray:
    m = np.empty((n, n), dtype=object)
    m[:, :] = Rat(0)
    for i in range(n):
        m[i, i] = Rat(1)
    return m


def first_nonzero(v) -> int | None:
    for i, x in enumerate(v):
        if x:
            return i
    return None


class DenseEchelon:
    """Reduced row echelon over exact scalars on numpy object vectors."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[tuple[int, np.ndarray]] = []  # (pivot, row), pivot entry 1

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: np.ndarray) -> np.ndarray:
        v = v.copy()
        for piv, row in self.rows:
            c = v[piv]
            if c:
                v = v - c * row
        return v

    def add(self, v: np.ndarray) -> bool:
        r = self.reduce(v)
        piv = first_nonzero(r)
        if piv is None:
            return False
        r = r * _scalar_inv(r[piv])
        for i, (p, row) in enumerate(self.rows):
            c = row[piv]
            if c:
                self.rows[i] = (p, row - c * r)
        self.rows.append((piv, r))
        return True

    def contains(self, v: np.ndarray) -> bool:
        return first_nonzero(self.reduce(v)) is None


def dense_kernel_tagged(m: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Exact kernel basis of an object-array matrix, as (free column, vector).

    Each kernel vector has entry 1 at its own free column and entry 0 at
    every other free column, so coordinates over this basis can be read off
    at the free columns.
    """
    nrows, ncols = m.shape
    ech: list[tuple[int, np.ndarray, np.ndarray]] = []  # (pivot, col, combo)
    out = []
    for j in range(ncols):
        v = m[:, j].copy()
        combo = obj_zeros(ncols)
        combo[j] = Rat(1)
        for piv, col, ccombo in ech:
            c = v[piv]
            if c:
                v = v - c * col
                combo = combo - c * ccombo
        piv = first_nonzero(v)
        if piv is None:
            out.append((j, combo))
            continue
        inv = _scalar_inv(v[piv])
        v = v * inv
        combo = combo * inv
        for i, (p, col, ccombo) in enumerate(ech):
            c = col[piv]
            if c:
                ech[i] = (p, col - c * v, ccombo - c * combo)
        ech.append((piv, v, combo))
    return out


def dense_kernel(m: np.ndarray) -> list[np.ndarray]:
    return [v for _, v in dense_kernel_tagged(m)]


def _scalar_inv(x):
    return x.inverse() if hasattr(x, "inverse") else Rat(1) / x


# ---------------------------------------------------------------------------
# finite-dimensional modules


class Osp12Module:
    """A finite module given by the actions of e, f, h (exact dense matrices).

    The even generators act through the derived operators 2e^2 and 2f^2.
    ``parity[i]`` grades the i-th basis vector; e and f shift parity, h
    preserves it.
    """

    def __init__(self, parity, act_e, act_f, act_h):
        self.parity = tuple(parity)
        self.dim = len(self.parity)
        self.act_e = act_e if isinstance(act_e, np.ndarray) else obj_matrix(act_e)
        self.act_f = act_f if isinstance(act_f, np.ndarray) else obj_matrix(act_f)
        self.act_h = act_h if isinstance(act_h, np.ndarray) else obj_matrix(act_h)
        for name, m in (("e", self.act_e), ("f", self.act_f), ("h", self.act_h)):
            if m.shape != (self.dim, self.dim):
                raise ModuleError(f"act_{name} has shape {m.shape}, expected square of {self.dim}")
        self._act_ee = None
        self._act_ff = None

    @property
    def act_ee(self) -> np.ndarray:
        if self._act_ee is None:
            self._act_ee = 2 * (self.act_e @ self.act_e)
        return self._act_ee

    @property
    def act_ff(self) -> np.ndarray:
        if self._act_ff is None:
            self._act_ff = 2 * (self.act_f @ self.act_f)
        return self._act_ff

    def action(self, label: str) -> np.ndarray:
        return {"E+": self.act_ee, "E-": self.act_ff, "H": self.act_h,
                "F+": self.act_e, "F-": self.act_f}[label]

    def parity_indices(self, p: int) -> list[int]:
        return [i for i in range(self.dim) if self.parity[i] == p]


def check_representation(m: Osp12Module) -> str | None:
    """None if the representation property holds; else a failure description."""
    for name, mat, shift in (("e", m.act_e, 1), ("f", m.act_f, 1), ("h", m.act_h, 0)):
        for i in range(m.dim):
            for j in range(m.dim):
                if mat[i, j] and m.parity[i] != (m.parity[j] + shift) % 2:
                    return f"act_{name} breaks the parity grading at ({i},{j})"
    he = m.act_h @ m.act_e
    eh = m.act_e @ m.act_h
    if not ((he - eh) == 2 * m.act_e).all():
        return "he - eh != 2e"
    hf = m.act_h @ m.act_f
    fh = m.act_f @ m.act_h
    if not ((hf - fh) == -2 * m.act_f).all():
        return "hf - fh != -2f"
    ef = m.act_e @ m.act_f
    fe = m.act_f @ m.act_e
    if not ((ef + fe) == m.act_h).all():
        return "ef + fe != h"
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
    act_f = np.empty((n, n), dtype=object); act_f[:, :] = Rat(0)
    act_e = np.empty((n, n), dtype=object); act_e[:, :] = Rat(0)
    act_h = np.empty((n, n), dtype=object); act_h[:, :] = Rat(0)
    for i in range(n):
        act_h[i, i] = Rat(lam - 2 * i)
        if i + 1 < n:
            act_f[i + 1, i] = Rat(1)
        if i > 0:
            act_e[i - 1, i] = Rat(-i) if i % 2 == 0 else Rat(lam - (i - 1))
    parity = tuple((top_parity + i) % 2 for i in range(n))
    return Osp12Module(parity, act_e, act_f, act_h)


def direct_sum(modules: list[Osp12Module]) -> Osp12Module:
    dim = sum(m.dim for m in modules)
    parity = []
    act = {k: np.empty((dim, dim), dtype=object) for k in ("e", "f", "h")}
    for k in act:
        act[k][:, :] = Rat(0)
    off = 0
    for m in modules:
        parity.extend(m.parity)
        act["e"][off:off + m.dim, off:off + m.dim] = m.act_e
        act["f"][off:off + m.dim, off:off + m.dim] = m.act_f
        act["h"][off:off + m.dim, off:off + m.dim] = m.act_h
        off += m.dim
    return Osp12Module(tuple(parity), act["e"], act["f"], act["h"])


def scramble(m: Osp12Module, seed: int) -> Osp12Module:
    """Conjugate by a seeded random parity-preserving unimodular basis change.

    The change of basis is a product of shears and swaps inside each parity
    block, so it is integral with an integral inverse and the conjugated
    action matrices stay exact integers.
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
    s = obj_eye(n)
    for op in ops:
        if op[0] == "swap":
            _, i, j = op
            s[[i, j]] = s[[j, i]]
        else:
            _, i, j, c = op
            s[i] = s[i] + c * s[j]
    sinv = obj_eye(n)
    for op in reversed(ops):
        if op[0] == "swap":
            _, i, j = op
            sinv[[i, j]] = sinv[[j, i]]
        else:
            _, i, j, c = op
            sinv[i] = sinv[i] - c * sinv[j]
    return Osp12Module(m.parity,
                       s @ m.act_e @ sinv,
                       s @ m.act_f @ sinv,
                       s @ m.act_h @ sinv)


def h_spectrum(m: Osp12Module) -> list:
    """The multiset (sorted list) of h-eigenvalues, verified exactly.

    Confirms that h is diagonalizable with even integer eigenvalues and that
    the multiset is symmetric under negation; raises ModuleError otherwise.
    """
    require_representation(m)
    found: dict[int, int] = {}
    total = 0
    candidates = [0]
    for k in range(2, m.dim + 1, 2):
        candidates.extend((k, -k))
    for mu in candidates:
        if total == m.dim:
            break
        shifted = m.act_h - mu * obj_eye(m.dim)
        dim_mu = len(dense_kernel(shifted))
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


def _chain(m: Osp12Module, start: np.ndarray, cap: int) -> list[np.ndarray]:
    """start, f.start, f^2.start, ... until zero; error past the cap."""
    out = []
    v = start
    while first_nonzero(v) is not None:
        out.append(v)
        if len(out) > cap:
            raise ModuleError("lowering chain did not terminate within the dimension cap")
        v = m.act_f @ v
    return out


def generated_g0_submodule(m: Osp12Module, u: np.ndarray, lam_u) -> list[np.ndarray]:
    """Span of the even-part submodule generated by f.u, as an explicit list.

    Requires h.u = lam_u u, (2e^2).u = 0, homogeneous u, and lam_u != -2.
    The returned vectors are the two lowering chains started at e.u and at
    f.(e.u) - (lam_u+2) u; their span is verified against the brute-force
    closure of {f.u} under the even action operators.
    """
    lam_u = Rat(lam_u)
    if lam_u == Rat(-2):
        raise ModuleError("lam_u = -2 is outside the construction's hypothesis")
    if first_nonzero(u) is None:
        raise ModuleError("u must be nonzero")
    parities = {m.parity[i] for i in range(m.dim) if u[i]}
    if len(parities) != 1:
        raise ModuleError("u must be homogeneous")
    if first_nonzero(m.act_h @ u - lam_u * u) is not None:
        raise ModuleError("u is not an h-eigenvector of the stated eigenvalue")
    if first_nonzero(m.act_ee @ u) is not None:
        raise ModuleError("u is not annihilated by the even raising operator")

    cap = 2 * m.dim + 2
    eu = m.act_e @ u
    z = m.act_f @ eu - (lam_u + 2) * u
    vectors = []
    if first_nonzero(eu) is not None:
        chain = _chain(m, eu, cap)
        vectors.extend(chain[0::2])
    if first_nonzero(z) is not None:
        chain = _chain(m, z, cap)
        vectors.extend(chain[1::2])

    span = DenseEchelon(m.dim)
    for v in vectors:
        span.add(v)

    closure = DenseEchelon(m.dim)
    frontier = []
    fu = m.act_f @ u
    if closure.add(fu):
        frontier.append(fu)
    ops = (m.act_ee, m.act_ff, m.act_h)
    while frontier:
        new = []
        for v in frontier:
            for op in ops:
                w = op @ v
                if closure.add(w):
                    new.append(w)
        frontier = new
    if span.rank != closure.rank or not all(closure.contains(v) for v in vectors):
        raise ModuleError("explicit span differs from the brute-force closure")
    return vectors


def _half_h_tops(m: Osp12Module) -> list[tuple[int, np.ndarray]]:
    """Highest vectors of the even part under the even subalgebra.

    Returns (lam_j, w_j) pairs, lam_j the (h/2)-eigenvalue, eigenvalues in
    descending order, deterministic echelon representatives within each
    eigenspace.
    """
    even = m.parity_indices(0)
    if not even:
        return []
    sub = np.ix_(even, even)
    raising = m.act_ee[sub]
    tagged = dense_kernel_tagged(raising)
    kernel = [v for _, v in tagged]
    k = len(kernel)
    if k == 0:
        return []
    # coordinates over the kernel basis are read off at its free columns
    free_cols = [j for j, _ in tagged]
    h_even = m.act_h[sub]
    amat = np.empty((k, k), dtype=object)
    amat[:, :] = Rat(0)
    for i, vec in enumerate(kernel):
        hv = h_even @ vec
        coords = [hv[c] for c in free_cols]
        resid = hv - sum(c * kernel[t] for t, c in enumerate(coords) if c)
        if first_nonzero(resid) is not None:
            raise ModuleError("h does not preserve the highest-vector kernel")
        for t, c in enumerate(coords):
            amat[t, i] = c
    found: list[tuple[int, list[np.ndarray]]] = []
    total = 0
    for lam in range(0, m.dim + 1):
        if total == k:
            break
        shifted = amat - 2 * lam * obj_eye(k)
        eig = dense_kernel(shifted)
        if eig:
            found.append((lam, eig))
            total += len(eig)
    if total != k:
        raise ModuleError("even highest vectors do not split into integral eigenspaces")
    tops = []
    for lam, eigvecs in sorted(found, key=lambda t: -t[0]):
        for c in eigvecs:
            w_even = sum(c[i] * kernel[i] for i in range(k) if c[i])
            w = obj_zeros(m.dim)
            for pos, idx in enumerate(even):
                w[idx] = w_even[pos]
            tops.append((lam, w))
    return tops


def _trivial_odd_lines(m: Osp12Module) -> list[np.ndarray]:
    """Basis of the odd vectors killed by h and both even action operators."""
    odd = m.parity_indices(1)
    if not odd:
        return []
    sub = np.ix_(odd, odd)
    stacked = np.concatenate([m.act_h[sub], m.act_ee[sub], m.act_ff[sub]], axis=0)
    kernel = dense_kernel(stacked)
    out = []
    for v in kernel:
        w = obj_zeros(m.dim)
        for pos, idx in enumerate(odd):
            w[idx] = v[pos]
        out.append(w)
    return out


def _certify_summand(m: Osp12Module, lam: int, chain: list[np.ndarray]) -> None:
    """Verify the chain realizes the irreducible module of highest weight lam."""
    if lam % 2 or lam < 0:
        raise ModuleError(f"summand label {lam} is not an even nonnegative integer")
    if len(chain) != lam + 1:
        raise ModuleError(f"summand of label {lam} has {len(chain)} chain vectors")
    for i, v in enumerate(chain):
        hv = m.act_h @ v
        if first_nonzero(hv - (lam - 2 * i) * v) is not None:
            raise ModuleError(f"chain vector {i} is not an h-eigenvector of {lam - 2 * i}")
        fv = m.act_f @ v
        expect = chain[i + 1] if i + 1 < len(chain) else obj_zeros(m.dim)
        if first_nonzero(fv - expect) is not None:
            raise ModuleError(f"f does not shift chain vector {i}")
        ev = m.act_e @ v
        coeff = Rat(-i) if i % 2 == 0 else Rat(lam - (i - 1))
        expect = coeff * chain[i - 1] if i > 0 else obj_zeros(m.dim)
        if first_nonzero(ev - expect) is not None:
            raise ModuleError(f"e does not act with the expected coefficient at {i}")
        pars = {m.parity[t] for t in range(m.dim) if v[t]}
        if len(pars) != 1:
            raise ModuleError(f"chain vector {i} is not homogeneous")


def decompose(m: Osp12Module, certify: bool = True) -> list[tuple[int, list[np.ndarray]]]:
    """Split a module into irreducible summands, certified exactly.

    Candidate summands come from the even part's highest vectors w (two
    lowering chains per w, from e.w and from f.(e.w) - (2 lam + 2) w) and
    from the trivial lines f.(e.v) - 2v attached to the odd kernel vectors
    v.  A greedy pass keeps the candidates that grow an exact rank
    certificate; the result is verified to be a direct sum of irreducible
    chains covering the whole space.
    """
    require_representation(m)
    candidates: list[tuple[int, list[np.ndarray]]] = []
    cap = 2 * m.dim + 2
    for lam, w in _half_h_tops(m):
        y = m.act_e @ w
        if first_nonzero(y) is not None:
            candidates.append((2 * lam + 2, _chain(m, y, cap)))
        z = m.act_f @ y - Rat(2 * lam + 2) * w
        if first_nonzero(z) is not None:
            candidates.append((2 * lam, _chain(m, z, cap)))
    for v in _trivial_odd_lines(m):
        x = m.act_f @ (m.act_e @ v) - 2 * v
        if first_nonzero(x) is not None:
            candidates.append((0, [x]))

    ech = DenseEchelon(m.dim)
    chosen: list[tuple[int, list[np.ndarray]]] = []
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


def decomposition_multiset(m: Osp12Module) -> list[int]:
    return sorted((lam for lam, _ in decompose(m)), reverse=True)
