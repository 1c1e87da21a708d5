"""Lie superalgebras presented by structure constants.

An algebra is a finite homogeneous basis, a parity per basis element, the
full bracket tensor [b_i, b_j] in basis coordinates, and optionally an
invariant bilinear form (Gram matrix), a Cartan subset of the basis, and a
weight table.  Verification routines check the defining axioms exactly and
return reports with first-failure witnesses; verify_eals adds the two
axioms of the extended affine class.  The supertraceless matrix model
(index sets I|J, matrices keyed by (row, col, degree)) builds the osp12
and sl(m|n) algebras.

Conventions: elements are sparse dicts over basis indices; |x| denotes the
parity of a homogeneous element; the graded Jacobi identity is used in its
cyclic form

    (-1)^{|x||z|}[[x,y],z] + (-1)^{|z||y|}[[z,x],y] + (-1)^{|y||x|}[[y,z],x] = 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from . import linalg
from .abelian import gadd, gneg
from .linalg import add_entry, vaxpy_inplace
from .reports import Report
from .scalars import (Rat, as_scalar, common_denominator, integer_over, scalar_key,
                      scalar_to_string, scalars_over, super_sign)


class NotAWeightBasisError(ValueError):
    """The declared weight table fails [h, b] = wt_b(h) b on some pair."""


@dataclass(frozen=True)
class LieSuperalgebra:
    basis_labels: tuple[str, ...]
    parity: tuple[int, ...]
    structure: dict  # (i, j) -> {k: scalar}; absent pair means zero bracket
    gram: tuple | None = None          # tuple of tuples of scalars
    cartan: tuple[int, ...] | None = None
    weights: dict | None = None        # basis index -> tuple over cartan order
    field: str = "Q"

    @property
    def dim(self) -> int:
        return len(self.basis_labels)

    @cached_property
    def integer_tables(self) -> tuple:
        """(rows, gram, D): the structure constants and Gram matrix as
        integers over one denominator D, compiled once on this object.

        rows[i][j] is a tuple of (k, n) with [b_i, b_j] = sum n/D b_k, and
        gram[i][j] is D times the Gram entry (gram is None without a form).
        Entries are ints, or GaussianInts for Gaussian constants.  D is the
        lcm of every denominator, 1 for each built-in algebra.
        """
        values = [c for row in self.structure.values() for c in row.values()]
        if self.gram is not None:
            values += [g for row in self.gram for g in row]
        D = common_denominator(values)
        rows = [[() for _ in range(self.dim)] for _ in range(self.dim)]
        for (i, j), row in self.structure.items():
            rows[i][j] = tuple((k, integer_over(c, D)) for k, c in row.items() if c)
        gram = None if self.gram is None else \
            tuple(tuple(integer_over(g, D) for g in row) for row in self.gram)
        return rows, gram, D

    def bracket_basis(self, i: int, j: int) -> dict:
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError(f"basis index out of range: ({i}, {j})")
        return self.structure.get((i, j), {})

    def bracket(self, x: dict, y: dict) -> dict:
        """Bilinear extension of the structure constants."""
        out: dict = {}
        for i, xi in x.items():
            if not (0 <= i < self.dim):
                raise IndexError(f"basis index out of range: {i}")
            for j, yj in y.items():
                cij = self.structure.get((i, j))
                if cij:
                    vaxpy_inplace(out, xi * yj, cij)
        for j in y:
            if not (0 <= j < self.dim):
                raise IndexError(f"basis index out of range: {j}")
        return out

    def form(self, x: dict, y: dict):
        if self.gram is None:
            raise ValueError("algebra has no bilinear form")
        total = Rat(0)
        for i, xi in x.items():
            row = self.gram[i]
            for j, yj in y.items():
                if row[j]:
                    total = total + xi * yj * row[j]
        return total

    def parity_of(self, v: dict):
        """0 or 1 for homogeneous nonzero v, None for zero or mixed."""
        seen = {self.parity[i] for i in v}
        return seen.pop() if len(seen) == 1 else None

    def label_vector(self, v: dict) -> str:
        terms = []
        for i in sorted(v):
            terms.append(f"{scalar_to_string(v[i])}*{self.basis_labels[i]}")
        return " + ".join(terms) if terms else "0"


@dataclass
class RootDatum:
    """Roots of a weight decomposition and the form transferred to them.

    Roots are tuples of scalars (values on the Cartan basis, in Cartan
    order).  t_alpha maps each root to the Cartan coefficient vector of its
    representative; the transferred form is (a, b) = t_a . gram . t_b.
    """

    cartan: tuple[int, ...]
    roots: tuple = ()
    even_roots: frozenset = frozenset()
    odd_roots: frozenset = frozenset()
    spaces: dict = field(default_factory=dict)       # root -> tuple of basis indices
    t_alpha: dict = field(default_factory=dict)      # root -> {cartan position: scalar}
    cartan_gram: tuple = ()

    def root_form(self, a, b):
        """Transferred form (a,b) = (t_a, t_b); equals sum t_a[l] * b[l]."""
        ta = self.t_alpha[a]
        total = Rat(0)
        for l, c in ta.items():
            total = total + c * b[l]
        return total

    def is_real(self, a) -> bool:
        return bool(self.root_form(a, a))

    @cached_property
    def zero(self):
        return tuple(Rat(0) for _ in self.cartan)


def _antisymmetry_failure(L: LieSuperalgebra):
    """The least (i, j), i <= j, with [b_i, b_j] != -(-1)^{|i||j|} [b_j, b_i].
    This search and the two below run on L.integer_tables over the nonzero
    entries, and the least failure is the first in itertools order; only
    its witness is evaluated in scalars."""
    rows, parity = L.integer_tables[0], L.parity
    return min(((i, j) for i, j in {(min(p), max(p)) for p in L.structure}
                if dict(rows[i][j]) != {k: -super_sign(parity[i], parity[j]) * n
                                        for k, n in rows[j][i]}), default=None)


def _jacobi_failure(L: LieSuperalgebra):
    """The least triple i <= j <= k with a nonzero cyclic Jacobi sum (module
    docstring) and that sum times D², or None: each nonzero term s [[a, b], c],
    s = (-1)^{|a||c|}, goes to the sorted one of (a, b, c), (b, c, a), (c, a, b)."""
    rows, parity = L.integer_tables[0], L.parity
    sums = linalg.vsum(((t, k), super_sign(parity[a], parity[c]) * n * m)
                       for (a, b) in L.structure for l, n in rows[a][b]
                       for c, row in enumerate(rows[l]) if row
                       for t in ((a, b, c), (b, c, a), (c, a, b)) if t[0] <= t[1] <= t[2]
                       for k, m in row)
    bad = min((t for t, _ in sums), default=None)
    return bad and (bad, {k: n for (t, k), n in sums.items() if t == bad})


def verify_superalgebra(L: LieSuperalgebra) -> Report:
    """Grading, anti-supercommutativity, and the graded Jacobi identity."""
    rep = Report(title="superalgebra axioms")
    labels, parity = L.basis_labels, L.parity
    rep.first_failure("bracket grading", (
        {"pair": (labels[i], labels[j]), "component": labels[k]}
        for (i, j), c in L.structure.items() for k, x in c.items()
        if x and parity[k] != (parity[i] + parity[j]) % 2))

    bad = _antisymmetry_failure(L)
    rep.check("anti-supercommutativity", bad is None, bad and {
        "pair": (labels[bad[0]], labels[bad[1]]),
        "residual": L.label_vector(linalg.vsub(L.bracket_basis(*bad), linalg.vscale(
            -super_sign(parity[bad[0]], parity[bad[1]]), L.bracket_basis(*bad[::-1]))))})

    bad = _jacobi_failure(L)
    rep.check("graded Jacobi identity", bad is None, bad and {
        "triple": [labels[t] for t in bad[0]],
        "residual": L.label_vector(scalars_over(bad[1], L.integer_tables[2] ** 2))})
    return rep


def _invariance_failure(L: LieSuperalgebra):
    """The least (i, j, k) with f([b_i, b_j], b_k) != f(b_i, [b_j, b_k]): each
    c_ab^l times the nonzero Gram row of l goes to (a, b, k), less times the
    nonzero Gram column of l to (h, a, b)."""
    rows, gram, _ = L.integer_tables
    gram_rows = [[(k, g) for k, g in enumerate(row) if g] for row in gram]
    gram_cols = [[(h, -1 * g) for h, g in enumerate(col) if g] for col in zip(*gram)]
    return min(linalg.vsum(term for (a, b) in L.structure for l, n in rows[a][b]
                           for term in itertools.chain(
                               (((a, b, k), n * g) for k, g in gram_rows[l]),
                               (((h, a, b), g * n) for h, g in gram_cols[l]))), default=None)


def verify_form(L: LieSuperalgebra) -> Report:
    """Supersymmetry, evenness, invariance, and nondegeneracy of the form."""
    if L.gram is None:
        raise ValueError("algebra has no bilinear form to verify")
    rep = Report(title="bilinear form")
    labels, parity, g, gram = L.basis_labels, L.parity, L.gram, L.integer_tables[1]
    nonzero = sorted({(i, j) for i, row in enumerate(gram) for j, x in enumerate(row) if x})
    rep.first_failure("supersymmetry", (
        {"pair": (labels[i], labels[j])}
        for i, j in sorted(set(nonzero) | {(j, i) for i, j in nonzero})
        if gram[i][j] != super_sign(parity[i], parity[j]) * gram[j][i]))
    rep.first_failure("evenness", (
        {"pair": (labels[i], labels[j])} for i, j in nonzero if parity[i] != parity[j]))

    bad = _invariance_failure(L)
    rep.check("invariance", bad is None, bad and {
        "triple": tuple(labels[t] for t in bad),
        "lhs": L.form(L.bracket_basis(bad[0], bad[1]), {bad[2]: Rat(1)}),
        "rhs": L.form({bad[0]: Rat(1)}, L.bracket_basis(bad[1], bad[2]))})

    rep.check("nondegeneracy", linalg.gram_nondegenerate([list(r) for r in g]), None)

    if L.cartan is not None:
        block = [[g[i][j] for j in L.cartan] for i in L.cartan]
        rep.check("nondegeneracy on the Cartan part",
                  linalg.gram_nondegenerate(block), None)

    if L.weights is not None and L.cartan is not None:
        w = L.weights
        rep.first_failure("weight spaces pair only across opposite weights", (
            {"pair": (labels[i], labels[j]), "weights": (w[i], w[j])}
            for i, j in nonzero if any(a + b for a, b in zip(w[i], w[j]))))
    return rep


def weight_decomposition(L: LieSuperalgebra) -> RootDatum:
    """Verify the declared weight table and assemble the root datum.

    Requires a Cartan subset (even, weight zero) and a weight per basis
    element; verifies [h, b] = wt_b(h) b for every Cartan h and basis b,
    then computes each root's Cartan representative by solving against the
    Cartan Gram block.
    """
    if L.cartan is None or L.weights is None:
        raise ValueError("weight decomposition needs cartan and weights")
    if L.gram is None:
        raise ValueError("weight decomposition needs the bilinear form")
    m = len(L.cartan)
    for pos, h in enumerate(L.cartan):
        if L.parity[h]:
            raise NotAWeightBasisError(f"Cartan element {L.basis_labels[h]} is odd")
        if any(L.weights[h]):
            raise NotAWeightBasisError(
                f"Cartan element {L.basis_labels[h]} has nonzero weight")
    for b in range(L.dim):
        wt = L.weights[b]
        if len(wt) != m:
            raise NotAWeightBasisError(f"weight of {L.basis_labels[b]} has wrong length")
        for pos, h in enumerate(L.cartan):
            got = L.bracket_basis(h, b)
            want = {b: Rat(1) * wt[pos]} if wt[pos] else {}
            if got != want:
                raise NotAWeightBasisError(
                    f"[{L.basis_labels[h]}, {L.basis_labels[b]}] = "
                    f"{L.label_vector(got)}, expected {L.label_vector(want)}")

    spaces: dict = {}
    even_roots, odd_roots = set(), set()
    for b in range(L.dim):
        wt = tuple(as_scalar(w) for w in L.weights[b])
        spaces.setdefault(wt, []).append(b)
        (odd_roots if L.parity[b] else even_roots).add(wt)

    cartan_gram = tuple(tuple(L.gram[i][j] for j in L.cartan) for i in L.cartan)
    gram_rows = [{j: c for j, c in enumerate(row) if c} for row in cartan_gram]
    solve = linalg.solver(gram_rows, m)
    t_alpha = {}
    for root in spaces:
        rhs = {l: root[l] for l in range(m) if root[l]}
        sol = solve(rhs)
        if sol is None:
            raise ValueError("form on the Cartan part does not represent root "
                             + str([str(x) for x in root]))
        t_alpha[root] = sol

    roots = tuple(sorted(spaces, key=lambda r: tuple(scalar_key(x) for x in r)))
    return RootDatum(
        cartan=tuple(L.cartan),
        roots=roots,
        even_roots=frozenset(even_roots),
        odd_roots=frozenset(odd_roots),
        spaces={r: tuple(sorted(spaces[r])) for r in roots},
        t_alpha=t_alpha,
        cartan_gram=cartan_gram,
    )


def t_alpha_vector(datum: RootDatum, root) -> dict:
    """t_alpha as a sparse vector over the algebra's basis indices."""
    return {datum.cartan[l]: c for l, c in datum.t_alpha[root].items() if c}


def even_part(L: LieSuperalgebra) -> LieSuperalgebra:
    """Restriction to the even basis indices (a plain Lie algebra)."""
    keep = [i for i in range(L.dim) if L.parity[i] == 0]
    reindex = {old: new for new, old in enumerate(keep)}
    structure = {}
    for (i, j), c in L.structure.items():
        if i in reindex and j in reindex:
            newc = {reindex[k]: x for k, x in c.items() if k in reindex and x}
            # components outside the even part cannot occur for a graded bracket
            if newc:
                structure[(reindex[i], reindex[j])] = newc
    gram = None
    if L.gram is not None:
        gram = tuple(tuple(L.gram[i][j] for j in keep) for i in keep)
    cartan = None
    if L.cartan is not None:
        cartan = tuple(reindex[i] for i in L.cartan if i in reindex)
    weights = None
    if L.weights is not None:
        weights = {reindex[i]: L.weights[i] for i in keep}
    return LieSuperalgebra(
        basis_labels=tuple(L.basis_labels[i] for i in keep),
        parity=tuple(0 for _ in keep),
        structure=structure,
        gram=gram,
        cartan=cartan,
        weights=weights,
        field=L.field,
    )


def structural_root_checks(L: LieSuperalgebra, datum: RootDatum) -> Report:
    """Exhaustive structural facts about the root system of a verified algebra."""
    rep = Report(title="structural root facts")
    zero = datum.zero
    roots = set(datum.roots)
    real = sorted((r for r in datum.roots if datum.is_real(r)), key=str)
    r0 = datum.even_roots
    r1 = datum.odd_roots

    def dbl(r):
        return tuple(x + x for x in r)

    rep.first_failure("odd real root doubles into an even root", (
        {"root": a} for a in real if a in r1 and dbl(a) not in r0))
    rep.first_failure("no real root doubles into an odd root", (
        {"root": a} for a in real if dbl(a) in r1))
    rep.first_failure("real roots with no double are even", (
        {"root": a} for a in real if dbl(a) not in roots and a not in r0))

    even = sorted(r0, key=str)
    rep.first_failure("isotropic even roots are orthogonal to all even roots", (
        {"roots": (a, b)} for a in even if not datum.root_form(a, a)
        for b in even if datum.root_form(a, b)))

    nonsingular = {a for a in datum.roots
                   if a != zero and not datum.root_form(a, a)
                   and any(datum.root_form(a, b) for b in datum.roots)}
    rep.first_failure("no nonzero even root is nonsingular-isotropic", (
        {"root": a} for a in sorted(nonsingular & r0, key=str)))

    if all(L.parity[i] == 0 for i in datum.spaces.get(zero, ())):
        rep.first_failure("no nonzero root is both even and odd", (
            {"root": a} for a in sorted((r0 & r1) - {zero}, key=str)))
    else:
        rep.skip("no nonzero root is both even and odd",
                 {"reason": "zero weight space is not purely even"})

    ordered = sorted(datum.roots, key=str)
    rep.first_failure("non-orthogonal roots connect by a step", (
        {"roots": (a, b)} for a in ordered for b in ordered
        if datum.root_form(a, b)
        and tuple(x + y for x, y in zip(a, b)) not in roots
        and tuple(y - x for x, y in zip(a, b)) not in roots))
    return rep


# ---------------------------------------------------------------------------
# the two axioms of the definition, decided on the integer tables: axiom 1
# by one lemma for the base, loop and twisted algebras (axiom1_pairs), axiom
# 2 for the base (the window verifiers derive it).


def axiom1_pairs(base: LieSuperalgebra, xs, ys, fixed=None) -> tuple:
    """(strong, weak): the first (x, y) of xs x ys, integer base vectors,
    whose B = sum x_b y_b' rows[b][b'] is in the Cartan, passes fixed if
    given, and is nonzero, resp. is nonzero or has F = sum x_b y_b'
    gram[b][b'] != 0; None where there is none.

    The axiom 1 lemma: by the loop formula [x⊗t^a, y⊗t^-a] = theta(a, -a)
    (B⊗1 + F a) / D, in the Cartan h⊗1 ⊕ V ⊕ V*, and by the twisted one
    [x⊗t^tau⊗t^i, y⊗t^-tau⊗t^-i] = theta(tau, -tau) (B⊗1 + F tau + i F c)
    / D, in h^#⊗1 ⊕ V ⊕ Fc (fixed: #B = B).  So the bracket is nonzero and
    in the Cartan iff theta != 0 and the pair is strong, or weak at a
    nonzero degree; the base is the rank-0 loop algebra.  The pair tables
    certify that the kernel is this formula on window pairs, so a verifier
    decides axiom 1 once per weight (and class pair), not per window key.
    """
    rows, gram, _ = base.integer_tables
    cartan, weak = set(base.cartan), None
    for x, y in itertools.product(xs, ys):
        B = linalg.vsum((k, c * d * n) for b, c in x.items() for b2, d in y.items()
                        for k, n in rows[b][b2])
        if B.keys() <= cartan and (fixed is None or fixed(B)):
            if B:
                return (x, y), weak or (x, y)
            if weak is None and sum(c * d * gram[b][b2] for b, c in x.items()
                                    for b2, d in y.items()):
                weak = (x, y)
    return None, weak


def axiom1_witnesses(L: LieSuperalgebra, datum: RootDatum) -> dict:
    """{(root, parity): (i, j)}, the first basis pair with 0 != [x_i, x_j] in
    the Cartan per nonzero root and parity: the strong pair of axiom1_pairs
    on the unit vectors of the root and its opposite; a missing key means
    no witness exists."""
    def units(root, par):
        return [{b: 1} for b in datum.spaces.get(root, ()) if L.parity[b] == par]
    strong = {(root, par): axiom1_pairs(L, units(root, par), units(gneg(root), par))[0]
              for root, par in itertools.product(datum.roots, (0, 1)) if root != datum.zero}
    return {key: (*pair[0], *pair[1]) for key, pair in strong.items() if pair}


def verify_eals(L: LieSuperalgebra, datum: RootDatum) -> Report:
    """The two extra axioms on top of a verified super-toral triple.

    (1) every nonzero root alpha (per parity) has a weight-basis pair with
        0 != [x_a, x_{-a}] in the Cartan, and every such witness satisfies
        [x_a, x_{-a}] = (x_a, x_{-a}) t_a;
    (2) for every real root and every weight basis vector x, ad_x is
        nilpotent (exponent bounded by dim L).

    Both read L's integer tables, rows[i][j] the terms (k, n) of D [x_i,
    x_j]: axiom 1 by the lemma of axiom1_pairs (axiom1_witnesses), axiom 2 by
    applying ad x_b to each basis vector y through rows[b][j], at most dim
    times until the vector vanishes; the k-th iterate is D^k (ad x_b)^k y.
    """
    rep = Report(title="extended affine axioms")
    witnesses = axiom1_witnesses(L, datum)
    rep.first_failure("axiom 1: sl2-pair witnesses at every nonzero root", (
        {"root": root, "parity": par}
        for root in datum.roots if root != datum.zero for par in (0, 1)
        if any(L.parity[i] == par for i in datum.spaces[root])
        and (root, par) not in witnesses))

    def witness_failures():
        for (root, par), (i, j) in sorted(witnesses.items(), key=lambda kv: str(kv[0])):
            br = L.bracket_basis(i, j)
            pairing = L.form({i: Rat(1)}, {j: Rat(1)})
            want = linalg.vscale(pairing, t_alpha_vector(datum, root))
            if br != want:
                yield {"root": root, "pair": (L.basis_labels[i], L.basis_labels[j]),
                       "bracket": L.label_vector(br), "expected": L.label_vector(want)}
    rep.first_failure("witness brackets equal (x,y) t_alpha", witness_failures())

    rows = L.integer_tables[0]

    def nilpotent(b):
        for y in range(L.dim):
            v = {y: 1}
            for _ in range(L.dim):
                v = linalg.vsum((k, n * c) for j, n in v.items() for k, c in rows[b][j])
                if not v:
                    break
            if v:
                return False
        return True
    rep.first_failure("axiom 2: ad-nilpotency at real roots", (
        {"root": root, "vector": L.basis_labels[b]}
        for root in datum.roots if datum.is_real(root) for b in datum.spaces[root]
        if not nilpotent(b)))

    rep.note("axiom 1 witnesses", {
        str([str(x) for x in root]) + f" parity {par}":
            (L.basis_labels[i], L.basis_labels[j])
        for (root, par), (i, j) in witnesses.items()})
    return rep


# ---------------------------------------------------------------------------
# the supertraceless matrix model: index sets


class DegenerateFormError(ValueError):
    """|I| = |J| with both finite: the supertrace form is degenerate."""


class FieldError(ValueError):
    """The operation needs a fourth primitive root of unity (field Qi)."""


@dataclass(frozen=True)
class SuperIndexSet:
    """I (even) and J (odd) index blocks, optionally barred and with zeros."""

    i_dot: int
    j_dot: int
    with_zero_i: bool = False
    with_zero_j: bool = False
    barred: bool = True

    def __post_init__(self):
        if self.i_dot < 1 or self.j_dot < 1:
            raise ValueError("index sets need at least one dotted index each")

    def i_indices(self) -> list[str]:
        out = ["0"] if self.with_zero_i else []
        out += [str(k) for k in range(1, self.i_dot + 1)]
        if self.barred:
            out += [f"{k}~" for k in range(1, self.i_dot + 1)]
        return out

    def j_indices(self) -> list[str]:
        out = ["0'"] if self.with_zero_j else []
        out += [f"{k}'" for k in range(1, self.j_dot + 1)]
        if self.barred:
            out += [f"{k}'~" for k in range(1, self.j_dot + 1)]
        return out

    def indices(self) -> list[str]:
        return self.i_indices() + self.j_indices()

    def parity(self, t: str) -> int:
        return 1 if "'" in t else 0

    def bar(self, t: str) -> str:
        if not self.barred:
            raise ValueError("index set carries no bar pairing")
        if t in ("0", "0'"):
            return t
        return t[:-1] if t.endswith("~") else t + "~"

    def has_zero(self) -> bool:
        return self.with_zero_i or self.with_zero_j

    def type_label(self) -> str:
        """BC(|I.|,|J.|) with a fixed zero index, C(|I.|,|J.|) without."""
        kind = "BC" if self.has_zero() else "C"
        return f"{kind}({self.i_dot},{self.j_dot})"


def plain_index_set(i_dot: int, j_dot: int) -> SuperIndexSet:
    return SuperIndexSet(i_dot=i_dot, j_dot=j_dot, barred=False)


# ---------------------------------------------------------------------------
# matrices with torus-element entries: {(row, col, degree): scalar}


def tm_mul(x: dict, y: dict) -> dict:
    """The matrix product, entry degrees added (the untwisted torus)."""
    out: dict = {}
    ycols: dict = {}
    for (r, c, deg), v in y.items():
        ycols.setdefault(r, []).append((c, deg, v))
    for (r, c, deg), v in x.items():
        for (c2, deg2, v2) in ycols.get(c, ()):
            add_entry(out, (r, c2, gadd(deg, deg2)), v * v2)
    return out


def tm_parity(x: dict, idx: SuperIndexSet):
    seen = {(idx.parity(r) + idx.parity(c)) % 2 for (r, c, _) in x}
    return seen.pop() if len(seen) == 1 else None


def tm_supercomm(x: dict, y: dict, idx: SuperIndexSet) -> dict:
    px, py = tm_parity(x, idx), tm_parity(y, idx)
    if px is None or py is None:
        raise ValueError("supercommutator needs parity-homogeneous matrices")
    out = tm_mul(x, y)
    linalg.vaxpy_inplace(out, -super_sign(px, py), tm_mul(y, x))
    return out


def supertrace(x: dict, idx: SuperIndexSet) -> dict:
    """Signed diagonal sum; a torus element {degree: scalar}."""
    out: dict = {}
    for (r, c, deg), v in x.items():
        if r == c:
            add_entry(out, deg, -v if idx.parity(r) else v)
    return out


# ---------------------------------------------------------------------------
# the supertraceless algebra over the base field


def sl_superalgebra(idx: SuperIndexSet, field: str = "Q") -> LieSuperalgebra:
    """Supertraceless matrices over the base field, with form, Cartan, weights.

    Basis: off-diagonal matrix units in index order, then the supertraceless
    consecutive-difference diagonal combinations (the Cartan).  The form is
    the supertrace form (x, y) = str(xy).
    """
    order = idx.indices()
    ni, nj = len(idx.i_indices()), len(idx.j_indices())
    if ni == nj:
        raise DegenerateFormError(
            f"|I| = |J| = {ni}: the supertrace form is degenerate on sl")
    mats = basis_matrices(idx)
    cartan = tuple(range(len(order) * (len(order) - 1), len(mats)))
    labels = [f"E[{r},{c}]" for m in mats[:cartan[0]] for (r, c, _) in m]
    labels += [f"D[{t}|{u}]" for t, u in zip(order, order[1:])]
    structure, gram = matrix_structure(mats, idx)

    eps = _epsilons(idx, mats, cartan)
    weights = {}
    for b, m in enumerate(mats):
        if b in cartan:
            weights[b] = tuple(Rat(0) for _ in cartan)
            continue
        (r, c, _) = next(iter(m))
        weights[b] = tuple(x - y for x, y in zip(eps[r], eps[c]))

    return LieSuperalgebra(
        basis_labels=tuple(labels),
        parity=tuple(tm_parity(m, idx) for m in mats),
        structure=structure,
        gram=gram,
        cartan=cartan,
        weights=weights,
        field=field,
    )


def matrix_structure(mats: list[dict], idx: SuperIndexSet) -> tuple:
    """(structure, gram) of the superalgebra spanned by degree-0 matrices.

    [a, b] is the supercommutator in coordinates over mats, and the form is
    the supertrace form (a, b) = str(ab).  Raises AssertionError when a
    supercommutator leaves the span.
    """
    coordinates = _coordinates(mats)
    structure = {}
    for (a, x), (b, y) in itertools.product(enumerate(mats), repeat=2):
        sol = coordinates(tm_supercomm(x, y, idx))
        if sol is None:
            raise AssertionError("supercommutator left the span of the basis")
        if sol:
            structure[(a, b)] = sol
    gram = tuple(tuple(supertrace(tm_mul(x, y), idx).get((), Rat(0)) for y in mats)
                 for x in mats)
    return structure, gram


def _coordinates(mats: list[dict]):
    """Coordinates over a basis of degree-0 matrices, factored once.

    Returns a function taking a matrix to its coefficients over mats (a
    sparse dict), or to None when it lies outside their span.  Entries at
    positions where every basis matrix vanishes are not read.
    """
    pos: dict = {}
    for b, m in enumerate(mats):
        for (r, c, _), v in m.items():
            pos.setdefault((r, c), {})[b] = v
    keys = list(pos)
    solve = linalg.solver(list(pos.values()), len(mats))

    def coordinates(m: dict):
        rhs = {}
        for i, (r, c) in enumerate(keys):
            val = m.get((r, c, ()))
            if val:
                rhs[i] = val
        return solve(rhs)

    return coordinates


def _epsilons(idx: SuperIndexSet, mats: list[dict], cartan) -> dict:
    """{t: eps_t}: the diagonal entries at index t of the Cartan basis matrices."""
    diag = [{r: v for (r, _, _), v in mats[h].items()} for h in cartan]
    return {t: tuple(d.get(t, Rat(0)) for d in diag) for t in idx.indices()}


def basis_matrices(idx: SuperIndexSet) -> list[dict]:
    """The degree-0 matrices realizing sl_superalgebra's basis, in order."""
    order = idx.indices()
    zero_deg = ()
    mats = []
    for r in order:
        for c in order:
            if r != c:
                mats.append({(r, c, zero_deg): Rat(1)})
    for k in range(len(order) - 1):
        t, u = order[k], order[k + 1]
        coeff = Rat(1) if idx.parity(t) == idx.parity(u) else Rat(-1)
        mats.append({(t, t, zero_deg): Rat(1), (u, u, zero_deg): -coeff})
    return mats
