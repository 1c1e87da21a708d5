"""Loop-algebra affinization over a commutative 2-cocycle torus.

Starting from a finite-dimensional verified algebra g with Cartan h and
invariant form f, the affinization lives on (g ⊗ A) ⊕ V ⊕ V*, where A is
the group algebra of Z^n twisted by a symmetric 2-cocycle theta, V is the
rationalized degree group with basis the standard generators, and V* the
span of the dual derivations.  The bracket extends the loop bracket by a
V-valued central term and the derivation action:

    [x⊗t^a, y⊗t^b] = theta(a,b) [x,y]⊗t^{a+b}  (+ delta_{a+b,0} theta(a,b) f(x,y) a),
    [d, x⊗t^a] = d(a) x⊗t^a,     [V, everything] = 0,    [V*, V*] = 0,

and the form pairs x⊗t^a with y⊗t^{-a} through theta and f, and V with V*
through evaluation.  Elements have finite support, so every computation
here is exact.  Verification on a finite window draws no samples: two
tables certify the kernel (pair_table_failures), the identities follow
from the base reports (verify_affinized), and no bracket is truncated.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

from . import linalg, rootsys
from .abelian import gadd, gneg
# the two axioms live in algebra; their names stay importable from here
from .algebra import (LieSuperalgebra, RootDatum, axiom1_pairs, axiom1_witnesses, verify_eals,
                      verify_form, verify_superalgebra)
from .reports import FAIL, Report
from .scalars import (Rat, common_denominator, integer_over, integers_over,
                      scalar_over, scalars_over, spow)


class WindowExceededError(ValueError):
    """A table-mode cocycle was evaluated outside its declared window."""


@dataclass(frozen=True)
class CocycleTorus:
    """Multiplication twist for the group algebra of Z^rank.

    Either bimultiplicative, theta(a, b) = prod q[i][j]^(a_i b_j) with a
    symmetric matrix q of nonzero scalars (a cocycle by construction), or
    an explicit symmetric table on a declared window of degree pairs.
    """

    rank: int
    qmatrix: tuple | None = None
    table: dict | None = None

    def __post_init__(self):
        if (self.qmatrix is None) == (self.table is None):
            raise ValueError("exactly one of qmatrix/table must be given")
        if self.qmatrix is not None:
            q = tuple(tuple(row) for row in self.qmatrix)
            if len(q) != self.rank or any(len(r) != self.rank for r in q):
                raise ValueError("q matrix must be rank x rank")
            for i in range(self.rank):
                for j in range(self.rank):
                    if not q[i][j]:
                        raise ValueError("q entries must be nonzero")
            object.__setattr__(self, "qmatrix", q)

    def theta(self, a, b):
        if self.qmatrix is not None:
            out = Rat(1)
            for i, ai in enumerate(a):
                if not ai:
                    continue
                for j, bj in enumerate(b):
                    q = self.qmatrix[i][j]
                    if bj and q != 1:
                        out = out * spow(q, ai * bj)
            return out
        key = (tuple(a), tuple(b))
        if key not in self.table:
            raise WindowExceededError(f"theta undefined at {key}")
        return self.table[key]


def trivial_torus(rank: int) -> CocycleTorus:
    one = Rat(1)
    return CocycleTorus(rank=rank, qmatrix=tuple(tuple(one for _ in range(rank))
                                                 for _ in range(rank)))


def torus_mul(torus: CocycleTorus, a, b):
    """t^a . t^b = theta(a,b) t^{a+b}: returns (coefficient, degree)."""
    return torus.theta(a, b), gadd(tuple(a), tuple(b))


def window_box(rank: int, radius: int) -> list[tuple[int, ...]]:
    """All degrees with every coordinate in [-radius, radius], sorted."""
    return sorted(itertools.product(range(-radius, radius + 1), repeat=rank))


def _symmetric(torus: CocycleTorus, a, b) -> bool:
    return torus.theta(a, b) == torus.theta(b, a)


def _cocycle_identity(torus: CocycleTorus, a, b, c) -> bool:
    """theta(a,b) theta(a+b,c) = theta(b,c) theta(a,b+c)."""
    return (torus.theta(a, b) * torus.theta(gadd(a, b), c)
            == torus.theta(b, c) * torus.theta(a, gadd(b, c)))


def _holds_where_defined(test, torus: CocycleTorus, *degrees) -> bool:
    """test(torus, *degrees), or True where a table torus leaves theta undefined."""
    try:
        return test(torus, *degrees)
    except WindowExceededError:
        return True


def verify_cocycle(torus: CocycleTorus, degrees) -> Report:
    """Normalization, symmetry, and the cocycle identity on a window.

    A bimultiplicative theta is a cocycle by construction (a_i b_j +
    (a+b)_i c_j = b_i c_j + a_i (b+c)_j in each exponent) and symmetric iff
    its q matrix is; table mode checks every pair and triple the table
    covers.
    """
    rep = Report(title="commutative 2-cocycle")
    degrees = [tuple(d) for d in degrees]
    zero = (0,) * torus.rank

    try:
        ok = torus.theta(zero, zero) == 1
        rep.check("theta(0,0) = 1", ok, {"value": str(torus.theta(zero, zero))})
    except WindowExceededError:
        rep.skip("theta(0,0) = 1", {"reason": "outside declared table"})

    if torus.qmatrix is not None:
        q = torus.qmatrix
        rep.first_failure("q matrix is symmetric", (
            {"at": [i, j]} for i, j in itertools.product(range(torus.rank), repeat=2)
            if q[i][j] != q[j][i]))
        rep.note("cocycle identity", {"derived": "theta is bimultiplicative"})
        return rep

    rep.first_failure("symmetry on the window", (
        {"pair": [a, b]} for a, b in itertools.product(degrees, repeat=2)
        if not _holds_where_defined(_symmetric, torus, a, b)))
    rep.first_failure("cocycle identity on the window", (
        {"triple": [a, b, c]} for a, b, c in itertools.product(degrees, repeat=3)
        if not _holds_where_defined(_cocycle_identity, torus, a, b, c)))
    return rep


# ---------------------------------------------------------------------------
# elements and the algebra


@dataclass(frozen=True)
class GradedLoopElement:
    """Finite-support element: loop part + V part + dual-derivation part."""

    loop: dict = field(default_factory=dict)  # (basis index, degree tuple) -> scalar
    v: dict = field(default_factory=dict)     # V basis index -> scalar
    d: dict = field(default_factory=dict)     # dual basis index -> scalar

    def __bool__(self):
        return bool(self.loop or self.v or self.d)


def loop_term(b: int, deg, c=None) -> GradedLoopElement:
    return GradedLoopElement(loop={(b, tuple(deg)): Rat(1) if c is None else c})


def v_term(i: int, c=None) -> GradedLoopElement:
    return GradedLoopElement(v={i: Rat(1) if c is None else c})


def d_term(i: int, c=None) -> GradedLoopElement:
    return GradedLoopElement(d={i: Rat(1) if c is None else c})


# ---------------------------------------------------------------------------
# the integer kernel
#
# The affinized bracket and form, and the twisted ones built from them, run
# on integers.  A kernel element of the affinized algebra is a tuple
# (loop, v, d) of dicts with an element's keys and integer values, over one
# denominator s kept beside it; an integer is an int, or a GaussianInt for
# a Q(i) coefficient.  Scalars enter through the algebras' kernel methods
# and leave through loop_element and scalar_over, and nowhere else.


def kernel_part(x: GradedLoopElement, s) -> tuple:
    """x's coefficients times s, as a kernel element; s is a multiple of
    every coefficient's denominator (see kernel_values)."""
    return (integers_over(x.loop, s), integers_over(x.v, s) if x.v else {},
            integers_over(x.d, s) if x.d else {})


def kernel_values(x: GradedLoopElement, dim: int) -> list:
    """x's coefficients, after checking its basis indices against dim."""
    for b, _ in x.loop:
        if not 0 <= b < dim:
            raise IndexError(f"basis index out of range: {b}")
    if x.v or x.d:
        return [*x.loop.values(), *x.v.values(), *x.d.values()]
    return list(x.loop.values())


def loop_element(K: tuple, s) -> GradedLoopElement:
    """The element K / s."""
    loop, v, d = K
    return GradedLoopElement(scalars_over(loop, s), scalars_over(v, s) if v else {},
                             scalars_over(d, s) if d else {})


def _vstar_terms(loop_part: dict, dstar: dict, factor, out: list) -> None:
    """Append factor * s * n * deg[k] at (b, deg) for every V* term s at k
    and loop term n at (b, deg): V*_k acts by the degree's k-th coordinate."""
    for k, s in dstar.items():
        s *= factor
        out += [(key, s * n * key[1][k]) for key, n in loop_part.items() if key[1][k]]


def _vv_pairing(X: tuple, Y: tuple):
    """sum_k x_v[k] y_d[k] + x_d[k] y_v[k]: V against V*."""
    (_, xv, xd), (_, yv, yd) = X, Y
    return (sum(n * yd[k] for k, n in xv.items() if k in yd)
            + sum(n * yv[k] for k, n in xd.items() if k in yv))


class ThetaDenominatorMiss(Exception):
    """bracket_terms met a theta denominator that does not divide its L."""


class AffinizedAlgebra:
    """(g ⊗ A) ⊕ V ⊕ V* with the cocycle-twisted bracket and form.

    Both run on the integer kernel: kernel_bracket and kernel_form act on
    kernel elements, and bracket and form convert at the boundary.
    """

    def __init__(self, base: LieSuperalgebra, datum: RootDatum, torus: CocycleTorus):
        if base.gram is None or base.cartan is None:
            raise ValueError("affinization needs a base with form and Cartan")
        self.base = base
        self.datum = datum
        self.torus = torus
        self.rank = torus.rank
        self._theta: dict = {}
        self._zero = (0,) * self.rank

    def theta(self, a, b):
        """torus.theta(a, b), memoized on this algebra per degree pair.

        A table-mode torus raises WindowExceededError outside its window;
        the miss propagates and is not cached.
        """
        num, den, _ = self._theta_entry(a, b)
        return scalar_over(num, den)

    def _theta_entry(self, a, b):
        """The memo entry (num, den, a + b) with theta(a, b) = num / den."""
        key = (a, b)
        entry = self._theta.get(key)
        if entry is None:
            value = self.torus.theta(a, b)
            den = common_denominator([value])
            entry = self._theta[key] = (integer_over(value, den), den, gadd(a, b))
        return entry

    def theta_lcm(self, degrees1, degrees2) -> int:
        """The lcm of theta's denominators on degrees1 x degrees2."""
        memo = self._theta
        return math.lcm(*((memo.get(key) or self._theta_entry(*key))[1]
                          for key in itertools.product(degrees1, degrees2)))

    def kernel(self, x: GradedLoopElement) -> tuple:
        """(K, s): x as the kernel element K over the denominator s."""
        s = common_denominator(kernel_values(x, self.base.dim))
        return kernel_part(x, s), s

    @staticmethod
    def kernel_entries(K: tuple):
        """The (key, integer) entries of a kernel element, keys told apart."""
        for slot, entries in enumerate(K):
            for key, n in entries.items():
                yield (slot, key), n

    def bracket(self, x: GradedLoopElement, y: GradedLoopElement) -> GradedLoopElement:
        (X, sx), (Y, sy) = self.kernel(x), self.kernel(y)
        Z, s = self.kernel_bracket(X, Y)
        return loop_element(Z, sx * sy * s)

    def kernel_bracket(self, X: tuple, Y: tuple) -> tuple:
        """(Z, s) with [X, Y] = Z / s, for kernel elements X and Y, the terms
        scaled to the lcm of theta's denominators on their degrees."""
        L = self.theta_lcm({d for _, d in X[0]}, {d for _, d in Y[0]})
        loop, v = [], []
        self.bracket_terms(X, Y, L, loop, v)
        return ((linalg.vsum(loop), linalg.vsum(v) if v else {}, {}),
                self.base.integer_tables[2] * L)

    def bracket_terms(self, X: tuple, Y: tuple, L, loop: list, v: list):
        """Append the terms of D L [X, Y] to the loop and V term lists, and
        return D L (X, Y); raises ThetaDenominatorMiss unless L is a multiple
        of theta's denominators on the degrees of X and Y."""
        (xl, xv, xd), (yl, yv, yd) = X, Y
        rows, gram, D = self.base.integer_tables
        memo, zero = self._theta, self._zero
        append = loop.append
        pairing = 0
        for (b1, d1), c1 in xl.items():
            row, grow = rows[b1], gram[b1]
            for (b2, d2), c2 in yl.items():
                tn, td, deg = memo.get((d1, d2)) or self._theta_entry(d1, d2)
                coeff = c1 * c2 * tn
                if td != L:
                    if L % td:
                        raise ThetaDenominatorMiss
                    coeff *= L // td
                for k, n in row[b2]:
                    append(((k, deg), coeff * n))
                if deg == zero and grow[b2]:
                    f = coeff * grow[b2]
                    for k, dk in enumerate(d1):
                        if dk:
                            v.append((k, f * dk))
                    pairing += f
        if xd or yd:
            DL = D * L
            _vstar_terms(yl, xd, DL, loop)
            _vstar_terms(xl, yd, -DL, loop)
            pairing += DL * _vv_pairing(X, Y)
        return pairing

    def kernel_form(self, X: tuple, Y: tuple) -> tuple:
        """(n, s) with (X, Y) = n / s, for kernel elements X and Y."""
        terms = []
        pairing = self.form_terms(X, Y, terms)
        total, L = self.theta_sum(terms)
        DL = self.base.integer_tables[2] * L
        return total + DL * pairing, DL

    def form_terms(self, X: tuple, Y: tuple, terms: list):
        """Append (c1 c2 D f(b1, b2), d1, d2) to terms for the loop pairs of
        X, Y in opposite degrees, and return the pairing of V with V*."""
        gram = self.base.integer_tables[1]
        terms += [(c1 * c2 * gram[b1][b2], d1, d2)
                  for (b1, d1), c1 in X[0].items() for (b2, d2), c2 in Y[0].items()
                  if gram[b1][b2] and not any(map(operator.add, d1, d2))]
        return _vv_pairing(X, Y) if X[1] or X[2] else 0

    def theta_sum(self, terms: list):
        """(n, L) with sum f theta(d1, d2) = n / L over the (f, d1, d2) of
        terms, L the lcm of theta's denominators there."""
        memo = self._theta
        total, L = 0, 1
        for f, d1, d2 in terms:
            tn, td, _ = memo.get((d1, d2)) or self._theta_entry(d1, d2)
            if L % td:
                m = td // math.gcd(L, td)
                total, L = total * m, L * m
            total += f * tn if td == L else f * tn * (L // td)
        return total, L

    def cartan_generators(self) -> list[GradedLoopElement]:
        zero = (0,) * self.rank
        gens = [loop_term(h, zero) for h in self.base.cartan]
        gens += [v_term(i) for i in range(self.rank)]
        gens += [d_term(i) for i in range(self.rank)]
        return gens


# ---------------------------------------------------------------------------
# windowed roots and verification


def eigen_defect(base: LieSuperalgebra, t, weights, idxs) -> bool:
    """Whether t [h, b] != value b for a b of idxs and an (h, value) of
    weights, h a Cartan vector {l: coefficient} on base.cartan, read from
    base.integer_tables over D: with t = tn / td and value, h over r, as
    tn sum_l r h_l rows[cartan[l]][b] = r value td D b."""
    rows, _, D = base.integer_tables
    td = common_denominator([t])
    tn = integer_over(t, td)
    for h, value in weights:
        r = common_denominator([value, *h.values()])
        n, hr = integer_over(value, r) * td * D, integers_over(h, r)
        if any(linalg.vsum((k, tn * c * hl) for l, hl in hr.items()
                           for k, c in rows[base.cartan[l]][b]) != ({b: n} if n else {})
               for b in idxs):
            return True
    return False


def affinized_roots(alg: AffinizedAlgebra, degrees) -> dict:
    """Weight spaces {(root, degree): basis} over a finite degree window.

    The (0, 0) space is the whole affinized Cartan; every other space is
    the base weight space tensored with the matching torus monomial.  The
    eigen-relations against every Cartan generator are derived, not
    bracketed: by the loop formula, which pair_table_failures certifies the
    kernel against, v_k is central, d_k scales x⊗t^a by a_k, and [h⊗1,
    x⊗t^a] = theta(0, a) [h, x]⊗t^a with no V term, as h⊗1 has degree 0.
    So they hold iff theta(0, a) [h, b] = root(h) b for every Cartan h and
    every b in the space (at (0, 0): theta(0, 0) [h, h'] = 0), read from
    the base tables and the theta memo by eigen_defect once per root, Cartan
    or not, and value of theta(0, a).  Raises ValueError at the first (root,
    degree) in the order of the spaces where one fails.
    """
    cartan, defects, spaces = alg.base.cartan, {}, {}
    for deg in map(tuple, degrees):
        t = alg.theta(alg._zero, deg)
        for root in alg.datum.roots:
            at_cartan = root == alg.datum.zero and deg == alg._zero
            idxs = cartan if at_cartan else alg.datum.spaces[root]
            spaces[(root, deg)] = (alg.cartan_generators() if at_cartan
                                   else [loop_term(b, deg) for b in idxs])
            if (key := (root, at_cartan, t)) not in defects:
                defects[key] = bool(idxs and cartan) and eigen_defect(alg.base, t, [
                    ({l: 1}, value) for l, value in enumerate(root)], idxs)
            if defects[key]:
                raise ValueError(f"eigen-relation fails at root {root}, degree {deg}")
    return spaces


def window_root_system(alg: AffinizedAlgebra, degrees) -> rootsys.RootSupersystem:
    """The windowed affinized roots as an integer root supersystem.

    Base roots are re-based into their Z-span; a root (alpha, deg) becomes
    the concatenation of the base coordinates with the degree, the form
    extends by zero on the degree block, and membership is trusted exactly
    on the window.  verify_affinized checks the axioms on the base system
    instead, which fails exactly the same ones (see there).
    """
    degrees = [tuple(d) for d in degrees]
    base_coords, base_form = rootsys.weight_lattice(alg.datum)
    return rootsys.graded_system(((c, deg) for c in base_coords.values() for deg in degrees),
                                 base_form, degrees)


# ---------------------------------------------------------------------------
# the window certificate of the loop algebra


def _same_terms(got: list, want: list) -> bool:
    """Whether two (key, integer) term lists have the same sum."""
    return got == want or linalg.vsum(got) == linalg.vsum(want)


def pair_table_failures(alg: AffinizedAlgebra, degrees, theta: dict):
    """Witnesses of the window basis pairs where the kernel and the loop
    formula disagree: a base table and a degree table of loop pairs, then
    the pairs with V or V*.  For theta(a, b) = tn / td and integer_tables
    over D, bracket_terms(x_i⊗t^a, x_j⊗t^b, L = td) gives tn c_ij^k at (k,
    a+b), at a+b = 0 f a_k at V_k, and returns f = tn gram[i][j];
    kernel_form gives f / (D td).  V is central, [d_k, x⊗t^a] = a_k x⊗t^a,
    (v_k, d_l) = delta_kl.  Terms compare as sums.

    Product lemma: the tables fail iff a loop pair does.  The kernel reads
    the base only as rows[b1][b2], gram[b1][b2], the torus only as the memo
    entry (tn', td', s) of (d1, d2), and multiplies them (test_layering
    pins this).  So each output is an entry of (i, j) times a factor of (a,
    b): c rows[i][j] at s, c = tn' td / td'; at s = 0, P = c gram[i][j] and
    P a at V; at a+b = 0 the form gram[i][j] tn' / (D td'); a miss for all
    (i, j) where td' does not divide td.  A wrong factor fails each (i, j)
    whose entry is nonzero, so the degree table runs each (a, b) at the
    first (i, j) with both entries nonzero, else the first with each.  With
    right factors, a wrong entry side fails wherever its factor is nonzero,
    so the base table runs each (i, j) at the first (e, -e), e != 0, with
    theta(e, -e) != 0, else at (0, 0) if theta(0, 0) != 0 (no V factor is
    nonzero), else at the first (a, b) with theta != 0 (only c is).  A pair
    with a+b != 0 runs the loop side of (e, -e), and a V term firing there
    is a wrong factor.  Where theta = 0 both sides vanish at every (i, j).

    V* lemma: so do the loop x V/V* pairs.  No loop pair runs there,
    _vstar_terms reads a loop key (i, a) only as its output key and as a_k,
    and _vv_pairing and form_terms read none (test_layering).  So [x_i⊗t^a,
    d_k] either way round is the term of i at (i, a) times a factor of a_k,
    the rest one value for all (i, a): every degree runs at base index 0,
    every base index at degree 0 and at the first degree with a_k != 0, per
    k.  The V/V* x V/V* pairs all run."""
    rows, gram, D = alg.base.integer_tables
    labels, zero, dim = alg.base.basis_labels, alg._zero, alg.base.dim

    def agrees(X, Y, L, f, want):
        terms = []  # loop keys (k, degree) and V keys k do not collide
        try:
            pairing = alg.bracket_terms(X, Y, L, terms, terms)
        except ThetaDenominatorMiss:
            return False
        n, s = alg.kernel_form(X, Y)
        return pairing == f and n * D * L == f * s and _same_terms(terms, want)

    base_pairs, degree_pairs = ([*itertools.product(r, repeat=2)] for r in (range(dim), degrees))
    at = next((p for p in itertools.chain(((e, gneg(e)) for e in degrees if e != zero),
                                          [(zero, zero)], degree_pairs) if theta[p]), (zero, zero))
    reps = next(([(i, j)] for i, j in base_pairs if rows[i][j] and gram[i][j]), None) or [
        next(((i, j) for i, j in base_pairs if table[i][j]), (0, 0)) for table in (rows, gram)]
    over = {key: (integer_over(t, td := common_denominator([t])), td) for key, t in theta.items()}
    for (a, b), (i, j) in itertools.chain(itertools.product([at], base_pairs),
                                          itertools.product(degree_pairs, reps)):
        deg, (tn, td) = gadd(a, b), over[a, b]
        f = tn * gram[i][j] if deg == zero else 0
        if not agrees(({(i, a): 1}, {}, {}), ({(j, b): 1}, {}, {}), td, f,
                      [((k, deg), tn * c) for k, c in rows[i][j]]
                      + [(k, f * ak) for k, ak in enumerate(a) if ak]):
            yield {"pair": [labels[i], labels[j]], "degrees": [a, b]}
    extras = [(f"{kind}{k}", None, ({}, *([{k: 1}, {}] if kind == "v" else [{}, {k: 1}])), kind, k)
              for kind in "vd" for k in range(alg.rank)]
    full = {zero} | {next((a for a in degrees if a[k]), zero) for k in range(alg.rank)}
    loops = [(labels[i], a, ({(i, a): 1}, {}, {}), "x", i) for a in degrees
             for i in range(dim if a in full else 1)]
    for (lx, a, X, kx, i), (ly, b, Y, ky, j) in itertools.chain(
            itertools.product(loops, extras), itertools.product(extras, loops + extras)):
        want = ([((j, b), D * b[i])] if kx == "d" and b and b[i] else
                [((i, a), -D * a[j])] if ky == "d" and a and a[j] else [])
        if not agrees(X, Y, 1, D if {kx, ky} == {"v", "d"} and i == j else 0, want):
            yield {"pair": [lx, ly], "degrees": [a, b]}


# base checks making the cyclic pairings s_i T_i agree (loop V part, twisted c part)
CENTRAL_CHECKS = ["bracket grading", "anti-supercommutativity", "supersymmetry", "evenness",
                  "invariance"]


def loop_identities(theta: dict, degrees, at) -> list:
    """(identity, premises, transfers) of the three identities derived in
    verify_affinized; at(*degrees) places a base witness in the window."""
    zero = (0,) * len(degrees[0])
    t0, e = theta[zero, zero], next((d for d in degrees if d != zero), None)
    te = e and theta[e, gneg(e)]
    return [("anti-supercommutativity", ["theta(a, b) = theta(b, a)"],
             [(["anti-supercommutativity"], at(zero, zero), t0),
              (["supersymmetry"], e and at(e, gneg(e)), te)]),
            ("graded Jacobi identity", ["theta products agree"],
             [(["graded Jacobi identity", "anti-supercommutativity"], at(zero, zero, zero), t0),
              (CENTRAL_CHECKS, e and at(e, zero, gneg(e)), te and te * theta[e, zero])]),
            ("form supersymmetry/evenness/invariance",
             ["theta(a, -a) = theta(-a, a)", "cocycle identity"],
             [(["supersymmetry", "evenness"], at(zero, zero), t0),
              (["invariance"], at(zero, zero, zero), t0)])]


def _products_agree(torus: CocycleTorus, a, b, c) -> bool:
    """theta(a,b) theta(a+b,c) = theta(c,a) theta(c+a,b) = theta(b,c) theta(b+c,a)."""
    p, q, r = (torus.theta(x, y) * torus.theta(gadd(x, y), z)
               for x, y, z in ((a, b, c), (c, a, b), (b, c, a)))
    return p == q == r


def theta_premises(torus: CocycleTorus, degrees, theta: dict) -> dict:
    """The first window instance breaking each premise of verify_affinized's
    lemmas as a witness {"degrees": instance}, or None.  A bimultiplicative
    theta is a cocycle; its Jacobi products agree where theta(a, b) /
    theta(b, a), bimultiplicative, is 1."""
    asym = [[a, b] for (a, b), t in theta.items() if t != theta[b, a]]
    table = torus.qmatrix is None
    found = {"theta(a, b) = theta(b, a)": next(iter(asym), None),
            "theta(a, -a) = theta(-a, a)": next((p for p in asym if p[1] == gneg(p[0])), None),
            "theta(a, -a) != 0": next(([a, gneg(a)] for a in degrees if not theta[a, gneg(a)]),
                                      None),
            "theta products agree": next((
                [a, b, c] for a, b, c in itertools.product(degrees, repeat=3)
                if not _holds_where_defined(_products_agree, torus, a, b, c)), None)
            if table else next(iter(asym), None),
            "cocycle identity": next((
                [a, b, c] for a, b in itertools.product(degrees, repeat=2)
                if (c := gneg(gadd(a, b))) in degrees and not _cocycle_identity(torus, a, b, c)),
                None) if table else None}
    return {name: None if inst is None else {"degrees": inst} for name, inst in found.items()}


def derived(rep: Report, premises: dict, checks: dict):
    """derive(name, premise_names, *transfers) adds check name to rep, failed
    at each of premise_names with a witness dict in premises, and per failed
    check of checks in a transfer (names, at, factor) with its witness and
    the degrees in at; an at of None does not apply, a zero factor leaves
    the premise unmet."""
    def derive(name, premise_names, *transfers):
        rep.first_failure(name, itertools.chain(
            ({"premise": p, **premises[p]} for p in premise_names
             if premises[p] is not None),
            ({"base check": n, "base witness": checks[n].witness, **at,
              **({} if factor else {"premise": "nonzero theta factor"})}
             for names, at, factor in transfers if at is not None
             for n in names if checks[n].status == FAIL)))
    return derive


def verify_affinized(alg: AffinizedAlgebra, degrees, samples: int = 500,
                     seed: int = 0) -> Report:
    """Exact windowed verification of the affinized triple.

    The pair table (pair_table_failures) tests the code: the kernel against
    the loop formula on every window basis pair x_i⊗t^a, v_k, d_k, through
    a base table and a degree table (its product lemma).  The other checks
    are derived for the formula from the base reports (verify_superalgebra,
    verify_form, verify_eals) by the lemmas below: each fails where a
    premise on theta fails (theta_premises) and per failed base check it
    rests on, with that witness at the window degrees where it shows.
    samples and seed change nothing.

    V is central and d_k acts by the k-th degree coordinate, so each
    identity holds where V or V* enters.  On loop monomials, with s the
    sign of a pair, F(a,b,c) = theta(a,b) theta(a+b,c) and e the first
    nonzero window degree:

    - [x⊗t^a, y⊗t^b] + s[y⊗t^b, x⊗t^a] = theta(a,b) ([x,y] + s[y,x])⊗t^{a+b}
      + theta(a,-a) (f(x,y) - s f(y,x)) a at b = -a, for symmetric theta:
      base anti-supercommutativity (shown at 0, 0), supersymmetry (e, -e).
    - Where F(a,b,c), F(c,a,b), F(b,c,a) agree, the Jacobi sum is F(a,b,c)
      times the base residual (base Jacobi on sorted triples, the other
      orders by anti-supercommutativity), plus at a+b+c = 0 the V part
      -F (s1 T1 c + s2 T2 b + s3 T3 a), with the cyclic signs s_i and
      T1 = f([x,y],z), T2 = f([z,x],y), T3 = f([y,z],x); the s_i T_i agree
      for a graded, anti-supercommutative base bracket and a
      supersymmetric, even, invariant form (else: e, 0, -e).
    - (x⊗t^a, y⊗t^-a) = theta(a,-a) f(x,y) carries supersymmetry and
      evenness where theta(a,-a) = theta(-a,a); at a+b+c = 0 invariance
      compares F(a,b,c) f([x,y],z) with theta(b,c) theta(a,b+c) f(x,[y,z]),
      equal factors by the cocycle identity.
    - The Gram matrix pairs the blocks of degrees a and -a by theta(a,-a)
      times the base Gram matrix, and V with V*: nondegenerate iff the base
      form is and theta(a,-a) != 0 on the window.
    - [x⊗t^a, y⊗t^-a] / ((x,y) theta(a,-a)) = [x,y] / (x,y) + a is t_alpha
      + a iff the base witness bracket is (x,y) t_alpha.
    - ad(x⊗t^a)^k (y⊗t^b) = prod_{j<k} theta(a,ja+b) (ad x)^k y ⊗ t^{ka+b}
      plus a central term at ka+b = 0 that the next step kills, and
      [x⊗t^a, d_k] = -a_k x⊗t^a: base axiom 2 (exponents <= dim) kills
      every window target within dim + 2 steps, and if (ad x)^dim y != 0
      the iterates of y never vanish, at degrees 0, 0.

    The table certifies the kernel on window pairs; a nested bracket whose
    first argument leaves the window (a+b, ka+b) is the formula's.  So axiom
    1 is read off the formula by the lemma of axiom1_pairs, once per base
    root: key (root, a) has the pair theta(a, -a) and (strong if a = 0 else
    weak); at a != 0 the central term can make a window witness with no
    base counterpart.

    "windowed roots form a root supersystem" runs check_axioms on the base:
    for a window holding degree 0, the window system (window_root_system,
    the base roots times the window as affinized_roots certifies them)
    fails exactly the base axioms.  Its degree-0 slice repeats each base
    instance; a window instance fails only where its witnesses are known,
    where membership reads the base roots; a base string with a gap, runs
    [a1, b1] < [a2, b2], would need a1 + b1 = a2 + b2 at degree 0.

    Raises ValueError for a window without degree 0 or not closed under
    negation.
    """
    degrees = [tuple(d) for d in degrees]
    zero = (0,) * alg.rank
    if zero not in degrees:
        raise ValueError("the window must contain degree 0")
    if any(gneg(d) not in degrees for d in degrees):
        raise ValueError("the window must be closed under negation")
    rep = Report(title="affinized algebra (windowed)", window={"degrees": len(degrees)})
    base, datum = alg.base, alg.datum
    spaces = affinized_roots(alg, degrees)
    theta = {(a, b): alg.torus.theta(a, b) for a, b in itertools.product(degrees, repeat=2)}
    rep.first_failure("pair table: kernel bracket and form match the loop formula",
                      pair_table_failures(alg, degrees, theta))
    derive = derived(rep, theta_premises(alg.torus, degrees, theta), {
        c.name: c for r in (verify_superalgebra(base), verify_form(base),
                            verify_eals(base, datum)) for c in r.checks})
    t0 = theta[zero, zero]

    def at(*degrees):
        return {"degrees": list(degrees)}
    for name, premise_names, transfers in loop_identities(theta, degrees, at):
        derive(name + " (from the base)", premise_names, *transfers)
    derive("window-block nondegeneracy (from the base)", ["theta(a, -a) != 0"],
           (["nondegeneracy"], at(zero, zero), 1))

    # axiom 1 once per base root on unit vectors, even first; (strong, weak)[a != 0]
    pairs = {root: axiom1_pairs(base, *([{b: 1} for b in sorted(datum.spaces.get(
        r, ()), key=base.parity.__getitem__)] for r in (root, gneg(root)))) for root in datum.roots}
    found = {(root, deg): theta[deg, gneg(deg)] and pairs[root][any(deg)]
             for root, deg in spaces if (root, deg) != (datum.zero, zero)}
    rep.first_failure("axiom 1: witnesses at every nonzero window root", (
        {"root": root, "degree": deg} for (root, deg), pair in found.items() if not pair))
    witness_records = {key: pair for key, pair in found.items() if pair}
    sample = sorted(witness_records.items(), key=lambda kv: str(kv[0]))[:3]
    rep.note("axiom 1 witness pairs", {
        "count": len(witness_records),
        "sample": [{"root": root, "degree": deg, "parity": base.parity[i],
                    "pair": [base.basis_labels[i], base.basis_labels[j]]}
                   for (root, deg), ((i,), (j,)) in sample]})
    derive("axiom 1 witnesses match t_alpha + degree (from the base)", ["theta(a, -a) != 0"],
           (["witness brackets equal (x,y) t_alpha"], at(zero), t0))
    derive("axiom 2: windowed ad-nilpotency at real roots (from the base)", [],
           (["axiom 2: ad-nilpotency at real roots"], at(zero, zero), t0))

    # the window system fails exactly the base system's axioms (docstring)
    try:
        ears = rootsys.check_axioms(rootsys.from_root_datum(datum))
    except ValueError:  # a Cartan block that is not symmetric
        rep.skip("windowed roots form a root supersystem", {
            "reason": "the root form is not symmetric", "base check": "supersymmetry"})
        return rep
    rep.check("windowed roots form a root supersystem", ears.passed,
              {"failures": [c.name for c in ears.failures()]})
    return rep
