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
here is exact; "windowed" verification restricts sampled degrees to a
finite box but never truncates a bracket.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field

from . import linalg, rootsys
from .abelian import gadd, gneg
from .algebra import LieSuperalgebra, RootDatum, t_alpha_vector
from .reports import Report
from .scalars import (Rat, common_denominator, integer_over, integers_over,
                      scalar_over, scalars_over, sdiv, spow, super_sign)


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


def verify_cocycle(torus: CocycleTorus, degrees, samples: int = 200,
                   seed: int = 0) -> Report:
    """Normalization, symmetry, and the cocycle identity on a window.

    Bimultiplicative tori are symmetric cocycles by construction once the q
    matrix is symmetric, so that mode checks q-symmetry and spot-checks the
    identity on sampled triples; table mode checks every triple whose
    entries the table covers.
    """
    rep = Report(title="commutative 2-cocycle", seed=seed)
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
        rng = random.Random(seed)

        def sampled_failures():
            for _ in range(samples):
                a, b, c = (rng.choice(degrees) for _ in range(3))
                if not _symmetric(torus, a, b):
                    yield {"pair": [a, b]}
                elif not _cocycle_identity(torus, a, b, c):
                    yield {"triple": [a, b, c]}
        first_sampled_failure(rep, "cocycle identity (sampled)", samples,
                              sampled_failures())
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

    def scaled(self, c) -> "GradedLoopElement":
        if not c:
            return GradedLoopElement()
        return GradedLoopElement({k: c * x for k, x in self.loop.items()},
                                 {k: c * x for k, x in self.v.items()},
                                 {k: c * x for k, x in self.d.items()})

    def plus(self, other: "GradedLoopElement") -> "GradedLoopElement":
        return GradedLoopElement(linalg.vadd(self.loop, other.loop),
                                 linalg.vadd(self.v, other.v),
                                 linalg.vadd(self.d, other.d))

    def __str__(self):
        from .scalars import scalar_to_string
        terms = [f"{scalar_to_string(c)}*b{b}@t^{list(deg)}"
                 for (b, deg), c in sorted(self.loop.items(), key=str)]
        terms += [f"{scalar_to_string(c)}*v{i}" for i, c in sorted(self.v.items())]
        terms += [f"{scalar_to_string(c)}*d{i}" for i, c in sorted(self.d.items())]
        return " + ".join(terms) if terms else "0"


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
    """A theta denominator that does not divide the L a kernel bracket runs at."""


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

    def parity_of(self, x: GradedLoopElement):
        seen = {self.base.parity[b] for (b, _) in x.loop}
        if x.v or x.d:
            seen.add(0)
        if len(seen) == 1:
            return seen.pop()
        return None

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

    def form(self, x: GradedLoopElement, y: GradedLoopElement):
        (X, sx), (Y, sy) = self.kernel(x), self.kernel(y)
        n, s = self.kernel_form(X, Y)
        return scalar_over(n, sx * sy * s)

    def kernel_bracket(self, X: tuple, Y: tuple) -> tuple:
        """(Z, s) with [X, Y] = Z / s, for kernel elements X and Y.

        Most tori take integer values, so the terms are first scaled to L = 1
        and only on a miss to the lcm of theta's denominators.
        """
        try:
            return self._kernel_bracket(X, Y, 1)
        except ThetaDenominatorMiss:
            return self._kernel_bracket(X, Y, self.theta_lcm({d for _, d in X[0]},
                                                             {d for _, d in Y[0]}))

    def _kernel_bracket(self, X: tuple, Y: tuple, L) -> tuple:
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

    def in_cartan(self, x: GradedLoopElement) -> bool:
        """Support inside (h ⊗ 1) ⊕ V ⊕ V*."""
        cartan = set(self.base.cartan)
        zero = (0,) * self.rank
        return all(b in cartan and deg == zero for (b, deg) in x.loop)

    def cartan_generators(self) -> list[GradedLoopElement]:
        zero = (0,) * self.rank
        gens = [loop_term(h, zero) for h in self.base.cartan]
        gens += [v_term(i) for i in range(self.rank)]
        gens += [d_term(i) for i in range(self.rank)]
        return gens

    def root_value(self, root, deg, gen_index: int):
        """Value of the functional root + deg on the gen_index-th Cartan generator.

        Generators are ordered: base Cartan elements (where the value is the
        base weight), then V (value zero), then the dual derivations (where
        the value reads the degree coordinate).
        """
        m = len(self.base.cartan)
        if gen_index < m:
            return root[gen_index]
        if gen_index < m + self.rank:
            return Rat(0)
        return Rat(deg[gen_index - m - self.rank])


# ---------------------------------------------------------------------------
# windowed roots and verification


def affinized_roots(alg: AffinizedAlgebra, degrees) -> dict:
    """Weight spaces {(root, degree): basis} over a finite degree window.

    The (0, 0) space is the whole affinized Cartan; every other space is
    the base weight space tensored with the matching torus monomial.  The
    eigen-relations against every Cartan generator are verified exactly, in
    the integer kernel: [h, x] = Z / s equals value * x when Z = value * s * X.
    """
    degrees = [tuple(d) for d in degrees]
    zero_deg = (0,) * alg.rank
    zero_root = alg.datum.zero
    spaces: dict = {}
    for deg in degrees:
        for root in alg.datum.roots:
            if root == zero_root and deg == zero_deg:
                spaces[(root, deg)] = alg.cartan_generators()
            else:
                spaces[(root, deg)] = [loop_term(b, deg)
                                       for b in alg.datum.spaces[root]]
    gens = [alg.kernel(h)[0] for h in alg.cartan_generators()]
    for (root, deg), basis in spaces.items():
        # the Cartan is abelian and V is central: there the bracket must vanish
        cartan = (root, deg) == (zero_root, zero_deg)
        for x in basis:
            X = alg.kernel(x)[0]
            for gi, H in enumerate(gens):
                Z, s = alg.kernel_bracket(H, X)
                value = 0 if cartan else alg.root_value(root, deg, gi) * s
                want = ({key: value * n for key, n in X[0].items()} if value else {},
                        {}, {})
                if Z != want:
                    raise ValueError(
                        f"eigen-relation fails at root {root}, degree {deg}")
    return spaces


def _sample_element(alg: AffinizedAlgebra, rng: random.Random, degrees):
    coeffs = [Rat(1), Rat(-1), Rat(2), Rat(1, 2), Rat(-3, 2)]
    kind = rng.random()
    if kind < 0.7 or alg.rank == 0:
        b = rng.randrange(alg.base.dim)
        deg = rng.choice(degrees)
        return loop_term(b, deg, rng.choice(coeffs))
    if kind < 0.85:
        return v_term(rng.randrange(alg.rank), rng.choice(coeffs))
    return d_term(rng.randrange(alg.rank), rng.choice(coeffs))


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
# sampled identities, shared by the affinized and the twisted algebras
#
# ``alg`` has parity_of and the integer kernel: kernel, kernel_bracket,
# kernel_form and kernel_entries.  ``draw()`` returns the next random
# element.  Each generator yields the failing samples in order and draws a
# sample only when asked for the next failure, so a check stops drawing at
# its first failure.  The identities are evaluated in the kernel, where an
# element x is K / s with s dropped: every term of an identity carries the
# same product of the samples' denominators, so only the verdicts leave.


def _vanishes(alg, terms) -> bool:
    """Whether sum sign K / s vanishes over the (sign, (K, s)) of terms."""
    S = math.lcm(*(s for _, (_, s) in terms))
    return not linalg.vsum((key, sign * (S // s) * n) for sign, (K, s) in terms
                           for key, n in alg.kernel_entries(K))


def _nested(alg, X, Y, Z) -> tuple:
    """[[X, Y], Z] in the kernel, over the product of both denominators."""
    XY, s = alg.kernel_bracket(X, Y)
    R, t = alg.kernel_bracket(XY, Z)
    return R, s * t


def antisymmetry_failures(alg, draw, samples: int):
    """Sampled (x, y) with [x, y] + (-1)^{|x||y|} [y, x] != 0."""
    for _ in range(samples):
        x, y = draw(), draw()
        sign = super_sign(alg.parity_of(x), alg.parity_of(y))
        X, Y = alg.kernel(x)[0], alg.kernel(y)[0]
        if not _vanishes(alg, [(1, alg.kernel_bracket(X, Y)),
                               (sign, alg.kernel_bracket(Y, X))]):
            yield x, y


def jacobi_failures(alg, draw, samples: int):
    """Sampled (x, y, z) breaking the cyclic graded Jacobi identity."""
    for _ in range(samples):
        x, y, z = draw(), draw(), draw()
        px, py, pz = alg.parity_of(x), alg.parity_of(y), alg.parity_of(z)
        X, Y, Z = alg.kernel(x)[0], alg.kernel(y)[0], alg.kernel(z)[0]
        if not _vanishes(alg, [(super_sign(px, pz), _nested(alg, X, Y, Z)),
                               (super_sign(pz, py), _nested(alg, Z, X, Y)),
                               (super_sign(py, px), _nested(alg, Y, Z, X))]):
            yield x, y, z


def form_failures(alg, draw, samples: int):
    """Sampled (reason, elements) breaking the form's supersymmetry, evenness
    or invariance; the elements are (x, y), or (x, y, z) for invariance."""
    for _ in range(samples):
        x, y, z = draw(), draw(), draw()
        px, py = alg.parity_of(x), alg.parity_of(y)
        X, Y, Z = alg.kernel(x)[0], alg.kernel(y)[0], alg.kernel(z)[0]
        (n, s), (m, t) = alg.kernel_form(X, Y), alg.kernel_form(Y, X)
        if n * t != super_sign(px, py) * m * s:
            yield "supersymmetry", (x, y)
        elif px != py and n:
            yield "evenness", (x, y)
        else:
            (XY, a), (YZ, b) = alg.kernel_bracket(X, Y), alg.kernel_bracket(Y, Z)
            (n, a2), (m, b2) = alg.kernel_form(XY, Z), alg.kernel_form(X, YZ)
            if n * b * b2 != m * a * a2:
                yield "invariance", (x, y, z)


def first_sampled_failure(rep: Report, name: str, samples: int, failures) -> None:
    """rep.first_failure(name, failures), or a skip when sampling is disabled."""
    if samples:
        rep.first_failure(name, failures)
    else:
        rep.skip(name, {"reason": "sampling disabled"})


def ad_nilpotent_on(alg, x, targets, cap: int) -> bool:
    """For every y in targets, ad_x^k y = 0 for some 1 <= k <= cap.

    Runs in the integer kernel: ``alg`` has kernel and kernel_bracket, and
    targets are kernel elements (``alg.kernel(y)[0]``).  Each iterate is a
    nonzero integer multiple of ad_x^k y, so only the verdict leaves.
    """
    X = alg.kernel(x)[0]
    bracket = alg.kernel_bracket
    for y in targets:
        for _ in range(cap):
            y = bracket(X, y)[0]
            if not any(y):
                break
        if any(y):
            return False
    return True


# ---------------------------------------------------------------------------
# the two axioms of the definition, for the base, loop and twisted algebras
#
# ``alg`` has bracket, in_cartan and the integer kernel, and ``spaces`` maps
# a weight key to its basis.  Each verifier keys its spaces, orders them as
# its report lists them, and formats its own witnesses.


def witness_pairs(alg, spaces, opposite):
    """(key, pair) per key of spaces, in order: pair is the first (x, y)
    with x in spaces[key], y in spaces[opposite(key)] and 0 != [x, y] in
    the Cartan of alg, or None if there is none (axiom 1)."""
    for key, basis in spaces.items():
        ys = spaces.get(opposite(key), ())
        yield key, next(((x, y) for x in basis for y in ys
                         if (br := alg.bracket(x, y)) and alg.in_cartan(br)), None)


def non_nilpotent(alg, spaces, real, targets, cap: int):
    """(key, x) per x in spaces[key] at a key with real(key) that
    ad_nilpotent_on(alg, x, targets, cap) rejects, in order (axiom 2)."""
    return ((key, x) for key, basis in spaces.items() if real(key)
            for x in basis if not ad_nilpotent_on(alg, x, targets, cap))


def _index(x: GradedLoopElement) -> int:
    """The basis index of a loop monomial."""
    return next(iter(x.loop))[0]


def axiom1_witnesses(L: LieSuperalgebra, datum: RootDatum) -> dict:
    """First basis pair per (root, parity) with 0 != [x, y] in the Cartan.

    Returns {(root, parity): (i, j)} for every nonzero root and parity with
    a nonempty weight space; missing keys mean no witness exists.  The
    search runs on L as its rank-0 affinization, whose loop terms b ⊗ t^()
    are L's basis.
    """
    spaces = {(root, par): [loop_term(b, ()) for b in datum.spaces[root] if L.parity[b] == par]
              for root in datum.roots if root != datum.zero for par in (0, 1)}
    pairs = witness_pairs(AffinizedAlgebra(L, datum, CocycleTorus(rank=0, qmatrix=())),
                          spaces, lambda key: (tuple(-x for x in key[0]), key[1]))
    return {key: tuple(map(_index, pair)) for key, pair in pairs if pair}


def verify_eals(L: LieSuperalgebra, datum: RootDatum) -> Report:
    """The two extra axioms on top of a verified super-toral triple.

    (1) every nonzero root alpha (per parity) has a weight-basis pair with
        0 != [x_a, x_{-a}] in the Cartan, and every such witness satisfies
        [x_a, x_{-a}] = (x_a, x_{-a}) t_a;
    (2) for every real root and every weight basis vector x, ad_x is
        nilpotent (exponent bounded by dim L).

    Both run on L as its rank-0 affinization, through the searches that
    verify_affinized and verify_twisted share.
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

    alg = AffinizedAlgebra(L, datum, CocycleTorus(rank=0, qmatrix=()))
    spaces = {root: [loop_term(b, ()) for b in datum.spaces[root]] for root in datum.roots}
    targets = [alg.kernel(loop_term(b, ()))[0] for b in range(L.dim)]
    rep.first_failure("axiom 2: ad-nilpotency at real roots", (
        {"root": root, "vector": L.basis_labels[_index(x)]}
        for root, x in non_nilpotent(alg, spaces, datum.is_real, targets, L.dim)))

    rep.note("axiom 1 witnesses", {
        str([str(x) for x in root]) + f" parity {par}":
            (L.basis_labels[i], L.basis_labels[j])
        for (root, par), (i, j) in witnesses.items()})
    return rep


def verify_affinized(alg: AffinizedAlgebra, degrees, samples: int = 500,
                     seed: int = 0) -> Report:
    """Windowed verification of the affinized triple.

    Exact identity checks on seeded random homogeneous elements with
    degrees in the window (brackets themselves are never truncated), plus
    exhaustive checks of the degree grading, window-block nondegeneracy,
    the sl2-pair witnesses with their closed form, and ad-nilpotency.

    "windowed roots form a root supersystem" rests on a product lemma and
    runs check_axioms on the base system only.  The window system
    (window_root_system) is the base roots times the window, its form zero
    on the degree block, membership known exactly inside the window.  That
    premise holds for the computed weight spaces because affinized_roots
    builds them so, each base weight space at every degree, and certifies
    their eigen-relations (raising ValueError if one fails).  For a window
    holding degree 0 each axiom fails on the window exactly when it fails
    on the base:

    - the degree-0 slice repeats every base instance, with every witness
      known, so a base failure is a window failure;
    - a window instance can fail only where its witnesses are known, and
      there membership reads only the base roots, so a window instance
      fails only where a base instance fails;
    - a base root string with a gap splits into runs [a1, b1] < [a2, b2],
      and the degree-0 scans through both runs would need
      a1 + b1 = a2 + b2 to pass, which cannot hold.

    Raises ValueError for a window without degree 0 or not closed under
    negation.
    """
    degrees = [tuple(d) for d in degrees]
    window = set(degrees)
    if (0,) * alg.rank not in window:
        raise ValueError("the window must contain degree 0")
    if any(gneg(d) not in window for d in degrees):
        raise ValueError("the window must be closed under negation")
    rep = Report(title="affinized algebra (windowed)", seed=seed,
                 window={"degrees": len(degrees)})
    rng = random.Random(seed)
    base = alg.base
    zero_deg = (0,) * alg.rank
    zero_root = alg.datum.zero
    spaces = affinized_roots(alg, degrees)

    def grading_failures():
        ends = degrees[:3] + degrees[-3:]
        for b1, b2, deg1, deg2 in itertools.product(range(base.dim), range(base.dim),
                                                    ends, ends):
            # the support of a bracket is read off in the kernel
            loop, v, _ = alg.kernel_bracket(({(b1, deg1): 1}, {}, {}),
                                            ({(b2, deg2): 1}, {}, {}))[0]
            target = gadd(deg1, deg2)
            if any(deg != target for (_, deg) in loop):
                yield {"pair": [b1, b2], "degrees": [deg1, deg2]}
            elif v and target != zero_deg:
                yield {"pair": [b1, b2], "reason": "central part off degree 0"}
    rep.first_failure("bracket adds degrees", grading_failures())

    def draw():
        return _sample_element(alg, rng, degrees)
    first_sampled_failure(rep, "anti-supercommutativity (sampled)", samples, (
        dict(zip("xy", pair)) for pair in antisymmetry_failures(alg, draw, samples)))
    first_sampled_failure(rep, "graded Jacobi identity (sampled)", samples, (
        dict(zip("xyz", triple)) for triple in jacobi_failures(alg, draw, samples)))
    first_sampled_failure(rep, "form supersymmetry/evenness/invariance (sampled)", samples, (
        {"reason": reason, **dict(zip("xyz", elements))}
        for reason, elements in form_failures(alg, draw, samples)))

    # window-block nondegeneracy: index the window basis and build the Gram
    basis_elems = [(b, deg) for deg in degrees for b in range(base.dim)]
    index = {key: i for i, key in enumerate(basis_elems)}
    nb = len(basis_elems)
    rows = []
    for (b1, d1) in basis_elems:
        row = {}
        negd = gneg(d1)
        th = alg.theta(d1, negd)
        for b2 in range(base.dim):
            fval = base.gram[b1][b2]
            if fval:
                row[index[(b2, negd)]] = th * fval
        rows.append(row)
    for i in range(alg.rank):
        rows.append({nb + alg.rank + i: Rat(1)})
    for i in range(alg.rank):
        rows.append({nb + i: Rat(1)})
    rank = linalg.span_rank(rows)
    rep.check("window-block nondegeneracy", rank == nb + 2 * alg.rank,
              {"rank": rank, "size": nb + 2 * alg.rank})

    base_witnesses = axiom1_witnesses(base, alg.datum)
    # the nonzero window roots, even vectors first as in the base search
    nonzero = {key: sorted(basis, key=alg.parity_of) for key, basis in spaces.items()
               if key != (zero_root, zero_deg)}
    witness_records = {}

    def missing_witnesses():
        for (root, deg), pair in witness_pairs(
                alg, nonzero, lambda key: (tuple(-v for v in key[0]), gneg(key[1]))):
            if pair is None:
                yield {"root": root, "degree": deg}
            else:
                witness_records[(root, deg)] = pair
    rep.first_failure("axiom 1: witnesses at every nonzero window root",
                      missing_witnesses())
    sample = sorted(witness_records.items(), key=lambda kv: str(kv[0]))[:3]
    rep.note("axiom 1 witness pairs", {
        "count": len(witness_records),
        "sample": [{"root": root, "degree": deg, "parity": alg.parity_of(x),
                    "pair": [base.basis_labels[_index(x)], base.basis_labels[_index(y)]]}
                   for (root, deg), (x, y) in sample]})

    def t_alpha_failures():
        for deg, root in itertools.product(degrees, alg.datum.roots):
            par_pair = base_witnesses.get((root, 0)) or base_witnesses.get((root, 1))
            if root == zero_root or par_pair is None:
                continue
            b1, b2 = par_pair
            pairing = base.form({b1: Rat(1)}, {b2: Rat(1)})
            th = alg.theta(deg, gneg(deg))
            got = alg.bracket(loop_term(b1, deg),
                              loop_term(b2, gneg(deg), sdiv(1, pairing * th)))
            want = GradedLoopElement(
                loop={(h, zero_deg): c
                      for h, c in t_alpha_vector(alg.datum, root).items()},
                v={i: Rat(di) for i, di in enumerate(deg) if di},
                d={})
            if got != want:
                yield {"root": root, "degree": deg, "got": str(got), "want": str(want)}
    rep.first_failure("axiom 1 witnesses match t_alpha + degree", t_alpha_failures())

    # ad-nilpotency of real-root vectors against the whole window basis
    cap = base.dim + 2
    targets = [loop_term(b, deg) for deg in degrees for b in range(base.dim)]
    targets += [v_term(i) for i in range(alg.rank)]
    targets += [d_term(i) for i in range(alg.rank)]
    targets = [alg.kernel(y)[0] for y in targets]
    real = {root for root in alg.datum.roots if alg.datum.is_real(root)}
    root_major = {(root, deg): spaces[(root, deg)] for root in alg.datum.roots for deg in degrees}
    rep.first_failure("axiom 2: windowed ad-nilpotency at real roots", (
        {"root": root, "degree": deg, "basis": _index(x)}
        for (root, deg), x in non_nilpotent(alg, root_major, lambda key: key[0] in real,
                                            targets, cap)))

    # the window system fails exactly the base system's axioms (docstring)
    ears = rootsys.check_axioms(rootsys.from_root_datum(alg.datum))
    ok = ears.passed
    rep.check("windowed roots form a root supersystem", ok,
              None if ok else {"failures": [c.name for c in ears.failures()]})
    return rep
