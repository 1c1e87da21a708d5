"""Matrix superalgebras over a cocycle torus and the twisted affinization.

The supertraceless matrices of algebra's matrix model, over the torus,
form the loop part of an affinization (reusing the generic machinery: sl
over the torus is sl over the base field tensored with the torus); the
diamond transpose and the order-4 automorphism #, through the bar pairing
t <-> t~ of the index set, act degree by degree, and the twisted algebra
is rebuilt from the eigenspaces of # with a central element c and a
degree derivation d.

The twisted bracket and form are

    [x⊗t^i + rc + sd, y⊗t^j + r'c + s'd] =
        [x,y]⊗t^{i+j} + i delta_{i,-j} (x,y) c + sj y⊗t^j - s'i x⊗t^i,
    (x⊗t^i, y⊗t^j) = delta_{i+j,0} (x,y),   (c,d) = 1,

with every component of x⊗t^i required to lie in the zeta^i-eigenspace
of #.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field

from . import linalg, rootsys
from .abelian import gneg
from .affinize import (CENTRAL_CHECKS, AffinizedAlgebra, CocycleTorus, GradedLoopElement,
                       ThetaDenominatorMiss, d_term, derived, eigen_defect,
                       kernel_part, kernel_values, loop_element, loop_identities,
                       pair_table_failures, theta_premises, v_term)
# the matrix model lives in algebra; its names stay importable from here
from .algebra import (DegenerateFormError, FieldError, LieSuperalgebra, SuperIndexSet,
                      _coordinates, _epsilons, axiom1_pairs, basis_matrices, matrix_structure,
                      plain_index_set, sl_superalgebra, supertrace, tm_mul, tm_parity,
                      tm_supercomm, verify_form, verify_superalgebra, weight_decomposition)
from .reports import Report
from .scalars import (IUNIT, Rat, common_denominator, integer_over, integers_over, scalar_over,
                      scalars_over)


def _star_sign(signs, deg) -> int:
    return -1 if sum(1 for s, d in zip(signs, deg) if d % 2 and s == -1) % 2 else 1


def diamond(x: dict, idx: SuperIndexSet, star_signs=None) -> dict:
    """Transpose through the bar pairing with the entry involution *.

    (X^<>)[j, i] = X[bar i, bar j]^*; * acts on degree tau by the sign
    character star_signs (identity when omitted).
    """
    out = {}
    for (r, c, deg), v in x.items():
        coeff = v if star_signs is None else _star_sign(star_signs, deg) * v
        out[(idx.bar(c), idx.bar(r), deg)] = coeff
    return out


def sharp(x: dict, idx: SuperIndexSet, star_signs=None) -> dict:
    """The order-4 automorphism: blockwise signed diamond transpose."""
    return {(u, w, deg): v if idx.parity(u) == 0 and idx.parity(w) == 1 else -v
            for (u, w, deg), v in diamond(x, idx, star_signs).items()}


def matrix_affinization(idx: SuperIndexSet, torus: CocycleTorus,
                        field: str = "Q") -> AffinizedAlgebra:
    """sl over the torus plus V and the dual derivations, as an affinization."""
    base = sl_superalgebra(idx, field=field)
    datum = weight_decomposition(base)
    return AffinizedAlgebra(base, datum, torus)


# ---------------------------------------------------------------------------
# the order-4 automorphism on the affinization


class SharpOperator:
    """# on the affinization: degree-preserving, identity on V and V*.

    On a loop term b ⊗ t^tau it acts by the sign character of the entry
    involution at tau times the base-matrix image of b, precomputed as a
    sparse matrix over the algebra basis.
    """

    def __init__(self, idx: SuperIndexSet, aff: AffinizedAlgebra, star_signs=None):
        self.idx = idx
        self.aff = aff
        self.star_signs = tuple(star_signs) if star_signs is not None \
            else (1,) * aff.rank
        if len(self.star_signs) != aff.rank:
            raise ValueError("expected one entry involution sign per torus generator"
                             f" ({aff.rank}), got {len(self.star_signs)}")
        for s in self.star_signs:
            if s not in (1, -1):
                raise ValueError("entry involution signs must be +-1")
        mats = basis_matrices(idx)
        if len(mats) != aff.base.dim:
            raise ValueError("index set does not match the algebra's basis")
        coordinates = _coordinates(mats)
        self.columns: list[dict] = []
        for m in mats:
            sol = coordinates(sharp(m, idx))
            if sol is None:
                raise AssertionError("# left the supertraceless span")
            self.columns.append(sol)

    def degree_sign(self, deg):
        return _star_sign(self.star_signs, deg)

    def order(self) -> int:
        """Smallest k <= 4 with #^k = identity on the basis columns."""
        width = len(self.columns)
        cols = [{b: Rat(1)} for b in range(width)]
        for power in range(1, 5):
            cols = [linalg.mat_vec(self.columns, c) for c in cols]
            if all(cols[b] == {b: Rat(1)} for b in range(width)):
                return power
        return 0


_ZETA = (Rat(1), IUNIT, Rat(-1), -IUNIT)  # zeta^k for k = 0..3, zeta = i


def _eigenvectors(rows: list[dict], z) -> list[dict]:
    """Kernel basis of M - z*I for a square M given by sparse rows."""
    return [v for _, v in linalg.nullspace(linalg.minus_identity(rows, z), len(rows))]


def _eigenbases(rows: list[dict]) -> list[list[dict]]:
    """Kernel bases of M - zeta^k I for k = 0..3, M the matrix of # on a slice.

    On torus degree tau, # acts as s M with s = degree_sign(tau) = +-1.
    ker(-M - zeta^k I) = ker(M - zeta^(k+2) I), and negating every row
    leaves the elimination unchanged, so the zeta^k eigenvectors at sign s
    are entry _eigenclass(s, k) of these four bases, for every degree.
    """
    return [_eigenvectors(rows, z) for z in _ZETA]


def _eigenclass(sign, k: int) -> int:
    return k if sign == 1 else (k + 2) % 4


def sharp_eigenspaces(aff: AffinizedAlgebra, sh: SharpOperator, degrees) -> dict:
    """Bases of the four eigenspaces of #, sliced by torus degree.

    Returns {(i, deg): [GradedLoopElement ...]} for i in 0..3; the (0, 0)
    slice additionally contains V and V*.  Requires the Gaussian rationals
    (the field tag "Qi") so that zeta = i is available; verifies that the
    eigenspace dimensions add up (a direct-sum certificate).
    """
    if aff.base.field != "Qi":
        raise FieldError("eigenspace split needs the field Q(i)")
    degrees = [tuple(d) for d in degrees]
    dim = aff.base.dim
    bases = _eigenbases(linalg.block_rows(sh.columns, range(dim)))
    total = sum(map(len, bases))
    if total != dim:
        raise AssertionError(f"eigenspaces of # sum to {total} != {dim}")
    zero_deg = (0,) * aff.rank
    out: dict = {}
    for deg in degrees:
        s = sh.degree_sign(deg)
        for i in range(4):
            out[(i, deg)] = [GradedLoopElement(loop={(b, deg): v[b] for b in sorted(v)})
                             for v in bases[_eigenclass(s, i)]]
    if zero_deg in degrees:
        out[(0, zero_deg)] = out[(0, zero_deg)] \
            + [v_term(i) for i in range(aff.rank)] \
            + [d_term(i) for i in range(aff.rank)]
    return out


# ---------------------------------------------------------------------------
# the averaged weights (pi projection)


def cartan_leak(aff: AffinizedAlgebra, sh: SharpOperator):
    """The witness (Cartan label, labels of its image outside the Cartan) of
    the first Cartan vector that # moves out of the Cartan, or None."""
    cartan, labels = aff.base.cartan, aff.base.basis_labels
    return next(({"cartan": labels[h], "image outside the Cartan": [
        labels[b] for b in sorted(sh.columns[h]) if b not in cartan]}
        for h in cartan if not sh.columns[h].keys() <= set(cartan)), None)


def sigma_cartan_matrix(aff: AffinizedAlgebra, sh: SharpOperator) -> tuple:
    """Matrix of # restricted to the Cartan, in Cartan coordinates (rows);
    raises ValueError where # does not keep the Cartan."""
    cartan = aff.base.cartan
    if cartan_leak(aff, sh):
        raise ValueError(CARTAN_MOVED)
    rows = linalg.block_rows(sh.columns, cartan)
    return tuple(tuple(r.get(l, Rat(0)) for l in range(len(cartan))) for r in rows)


def pi_project(sigma: tuple, root) -> tuple:
    """Average of a weight over the # orbit: (a + a∘s + a∘s² + a∘s³) / 4,
    on integer numerators: sigma over T, the root over R, the sum over 4RT³."""
    T, R = common_denominator([c for row in sigma for c in row]), common_denominator(root)
    cols = list(zip(*[[integer_over(c, T) for c in row] for row in sigma]))
    cur = total = [integer_over(a, R) for a in root]
    for _ in range(3):
        cur = [sum(map(operator.mul, col, cur)) for col in cols]
        total = [T * t + c for t, c in zip(total, cur)]
    return tuple(scalar_over(n, 4 * R * T ** 3) for n in total)


def pi_root_classes(aff: AffinizedAlgebra, sigma: tuple) -> dict:
    """{pi value: sorted base roots mapping there}."""
    classes: dict = {}
    for root in aff.datum.roots:
        classes.setdefault(pi_project(sigma, root), []).append(root)
    return classes


def displayed_pi_families(idx: SuperIndexSet, aff: AffinizedAlgebra) -> set:
    """The five displayed families of averaged weights, as Cartan tuples.

    Built from the coordinate functionals of the index set: with
    u_t := eps_t - eps_{bar t}, the families are {0}, {(u_i - u_r)/2},
    {(u_j - u_s)/2}, and {±(u_i - u_j)/2} over the respective blocks with
    distinct indices inside each block.
    """
    eps = _epsilons(idx, basis_matrices(idx), aff.base.cartan)
    u = {t: tuple(x - y for x, y in zip(eps[t], eps[idx.bar(t)])) for t in idx.indices()}
    # the ordered pairs inside each block and across them: all ordered pairs
    return {aff.datum.zero} | {tuple(Rat(1, 2) * (x - y) for x, y in zip(u[a], u[b]))
                               for a, b in itertools.permutations(idx.indices(), 2)}


def fixed_cartan_basis(aff: AffinizedAlgebra, sigma: tuple) -> list[dict]:
    """Basis of the #-fixed part of the Cartan, in Cartan coordinates."""
    return _eigenvectors([{l: c for l, c in enumerate(r) if c} for r in sigma], Rat(1))


class PiForm:
    """The transferred form on averaged weights, via the fixed Cartan."""

    def __init__(self, aff: AffinizedAlgebra, sigma: tuple):
        self.fixed = fixed_cartan_basis(aff, sigma)
        vecs = [{aff.base.cartan[l]: c for l, c in v.items()} for v in self.fixed]
        gram = [{b: f for b, w in enumerate(vecs) if (f := aff.base.form(v, w))} for v in vecs]
        self.solve = linalg.solver(gram, len(vecs))

    def restrict(self, p: tuple) -> dict:
        return {a: val for a, v in enumerate(self.fixed)
                if (val := sum((c * p[l] for l, c in v.items()), Rat(0)))}

    def eval(self, p: tuple, q: tuple):
        t = self.solve(self.restrict(p))
        if t is None:
            raise ValueError("averaged weight is not representable on the fixed Cartan")
        rq = self.restrict(q)
        return sum((c * rq[a] for a, c in t.items() if a in rq), Rat(0))


# ---------------------------------------------------------------------------
# the twisted algebra


@dataclass(frozen=True)
class TwistedElement:
    """Sum of components x_i ⊗ t^i (x_i in the [i]-eigenspace) plus rc + sd."""

    parts: dict = field(default_factory=dict)   # int degree -> GradedLoopElement
    c: object = 0
    d: object = 0

    def __bool__(self):
        return bool(self.parts or self.c or self.d)


def tw_loop(i: int, x: GradedLoopElement) -> TwistedElement:
    return TwistedElement(parts={i: x}) if x else TwistedElement()


def tw_c(k=None) -> TwistedElement:
    return TwistedElement(c=Rat(1) if k is None else k)


def tw_d(k=None) -> TwistedElement:
    return TwistedElement(d=Rat(1) if k is None else k)


class TwistedAlgebra:
    """Z-graded rebuild of the affinization from the eigenspaces of #."""

    def __init__(self, aff: AffinizedAlgebra, sh: SharpOperator):
        self.aff = aff
        self.sh = sh

    @functools.cached_property
    def order(self) -> int:
        """#'s order (SharpOperator.order), computed on first use."""
        return self.sh.order()

    @functools.cached_property
    def defects(self) -> tuple:
        """sharp_defects of the base and #'s base matrix, computed on first use."""
        return sharp_defects(self.aff.base, self.sh.columns)

    @functools.cached_property
    def slices(self) -> tuple:
        """(sigma, {slice key: (base indices, _eigenbases of # on the slice)}):
        sigma_cartan_matrix and the averaged-weight slices, computed on first use."""
        sigma = sigma_cartan_matrix(self.aff, self.sh)
        return sigma, {key: (idxs, _eigenbases(linalg.block_rows(self.sh.columns, idxs)))
                       for key, idxs in averaged_weight_slices(self.aff, sigma).items()}

    def kernel(self, x: TwistedElement) -> tuple:
        """(K, s): x as the kernel element K = (parts, c, d) over the
        denominator s, with parts = {i: affinized kernel element}."""
        values = [x.c, x.d]
        for part in x.parts.values():
            values += kernel_values(part, self.aff.base.dim)
        s = common_denominator(values)
        return ({i: kernel_part(p, s) for i, p in x.parts.items()},
                integer_over(x.c, s), integer_over(x.d, s)), s

    def bracket(self, x: TwistedElement, y: TwistedElement) -> TwistedElement:
        (X, sx), (Y, sy) = self.kernel(x), self.kernel(y)
        (parts, c, d), s = self.kernel_bracket(X, Y)
        s *= sx * sy
        return TwistedElement({i: loop_element(p, s) for i, p in parts.items()},
                              scalar_over(c, s), scalar_over(d, s))

    def kernel_entries(self, K: tuple):
        """The (key, integer) entries of a kernel element, keys told apart."""
        parts, c, d = K
        for i, part in parts.items():
            for key, n in self.aff.kernel_entries(part):
                yield (i, key), n
        yield "c", c
        yield "d", d

    def kernel_bracket(self, X: tuple, Y: tuple) -> tuple:
        """(Z, s) with [X, Y] = Z / s, for kernel elements X and Y.

        Parts i and j bracket into part i + j by the affinized bracket, and
        for i = -j != 0 their pairing times i goes to c; d scales part j by j.
        """
        try:
            return self._kernel_bracket(X, Y, 1)
        except ThetaDenominatorMiss:
            return self._kernel_bracket(X, Y, self.aff.theta_lcm(
                {d for part in X[0].values() for _, d in part[0]},
                {d for part in Y[0].values() for _, d in part[0]}))

    def _kernel_bracket(self, X: tuple, Y: tuple, L) -> tuple:
        aff = self.aff
        (xparts, _, xd), (yparts, _, yd) = X, Y
        DL = aff.base.integer_tables[2] * L
        out: dict = {}
        c = 0
        for i, xp in xparts.items():
            for j, yp in yparts.items():
                loop, v, _ = out.get(i + j) or out.setdefault(i + j, ([], [], []))
                pairing = aff.bracket_terms(xp, yp, L, loop, v)
                if i and i == -j:
                    c += i * pairing
        for side, s in ((yparts, DL * xd), (xparts, -DL * yd)):
            if s:
                for j, part in side.items():
                    if j:
                        terms = out.get(j) or out.setdefault(j, ([], [], []))
                        for acc, entries in zip(terms, part):
                            acc += [(key, s * j * n) for key, n in entries.items()]
        parts = {}
        for i, terms in out.items():
            part = tuple(linalg.vsum(t) for t in terms)
            if any(part):
                parts[i] = part
        return (parts, c, 0), DL

    def kernel_form(self, X: tuple, Y: tuple) -> tuple:
        """(n, s) with (X, Y) = n / s: part i pairs with part -i by the
        affinized form, and c with d."""
        aff = self.aff
        terms = []
        pairing = X[1] * Y[2] + X[2] * Y[1]
        for i, xp in X[0].items():
            yp = Y[0].get(-i)
            if yp is not None:
                pairing += aff.form_terms(xp, yp, terms)
        total, L = aff.theta_sum(terms)
        DL = aff.base.integer_tables[2] * L
        return total + DL * pairing, DL


def twisted_affinize(aff: AffinizedAlgebra, sh: SharpOperator) -> TwistedAlgebra:
    """Build the twisted algebra after verifying # is fit for purpose.

    # must have order exactly 4, preserve the form, and be a bracket
    automorphism of the base (degree-level identities make that extend to
    the whole affinization).
    """
    tw = TwistedAlgebra(aff, sh)
    if tw.order != 4:
        raise ValueError(f"# has order {tw.order or '>4'}, expected 4")
    form_pairs, bracket_pairs = tw.defects
    if form_pairs:
        raise ValueError("# does not preserve the form")
    if bracket_pairs:
        raise ValueError("# is not a bracket automorphism")
    return tw


def sharp_defects(base: LieSuperalgebra, cols: list[dict]) -> tuple:
    """(form_pairs, bracket_pairs): the base basis pairs (b1, b2) at which
    the base matrix cols of # changes the form, resp. fails to commute with
    the bracket.  With cols = C / S and base.integer_tables over D, compares
    f(Cb1, Cb2) with S² f(b1, b2), and S C[b1, b2] with [Cb1, Cb2], times D.
    """
    rows, gram, _ = base.integer_tables
    S = common_denominator([c for col in cols for c in col.values()])
    C = [integers_over(col, S) for col in cols]
    pairs = list(itertools.product(range(base.dim), repeat=2))
    form_pairs = {(b1, b2) for b1, b2 in pairs
                  if sum(x * y * gram[i][j] for i, x in C[b1].items() for j, y in C[b2].items())
                  != S * S * gram[b1][b2]}
    bracket_pairs = {(b1, b2) for b1, b2 in pairs
                     if linalg.vsum((l, S * n * x) for k, n in rows[b1][b2]
                                    for l, x in C[k].items())
                     != linalg.vsum((l, x * y * n) for i, x in C[b1].items()
                                    for j, y in C[b2].items() for l, n in rows[i][j])}
    return form_pairs, bracket_pairs


# ---------------------------------------------------------------------------
# twisted weight spaces and verification


def averaged_weight_slices(aff: AffinizedAlgebra, sigma: tuple) -> dict:
    """{(pi value, parity): base basis indices}, sorted by key as text."""
    slices: dict = {}
    for root in aff.datum.roots:
        p = pi_project(sigma, root)
        for b in aff.datum.spaces[root]:
            slices.setdefault((p, aff.base.parity[b]), []).append(b)
    return {key: sorted(slices[key]) for key in sorted(slices, key=str)}


def mixed_slice(tw: TwistedAlgebra):
    """The first (slice key, basis index) whose column of # leaves its
    slice, or None when # keeps every slice."""
    columns = tw.sh.columns
    return next(((key, b) for key, (idxs, _) in tw.slices[1].items() for b in idxs
                 if not columns[b].keys() <= set(idxs)), None)


def unsplit_slice(tw: TwistedAlgebra):
    """The witness {"slice": key} of the first slice whose _eigenbases
    vectors are no basis of eigenvectors of M (zeta^k in class k), or None.
    A vector nonzero where the others of its class vanish is independent of
    them."""
    for key, (idxs, bases) in tw.slices[1].items():
        cols = [tw.sh.columns[b] for b in idxs]
        if sum(map(len, bases)) != len(idxs) or not all(
                linalg.mat_vec(cols, v) == {idxs[t]: z * c for t, c in v.items()}
                and any(all(t not in w for w in vecs if w is not v) for t in v)
                for z, vecs in zip(_ZETA, bases) for v in vecs):
            return {"slice": list(key)}
    return None


def mislabeled_slice(tw: TwistedAlgebra, tau_degrees, fixed: list[dict], theta: dict):
    """The witness {"slice": key, "tau": tau} of the first slice (p, parity)
    and window degree tau with theta(0, tau) [h, b] != p(h) b (eigen_defect)
    for a b of the slice and a vector h of fixed (the fixed Cartan, in
    Cartan coordinates), or None."""
    zero = tw.aff._zero
    for (p, par), (idxs, _) in tw.slices[1].items():
        weights = [(h, sum(c * p[l] for l, c in h.items())) for h in fixed]
        for tau in tau_degrees:
            if eigen_defect(tw.aff.base, theta[zero, tau], weights, idxs):
                return {"slice": [p, par], "tau": tau}
    return None


def class_vectors(tw: TwistedAlgebra) -> dict:
    """{(p, k): the _eigenbases vectors of class k on the slices at averaged
    weight p, both parities, as integer base vectors {basis index: n}}."""
    out: dict = {}
    for (p, _), (idxs, bases) in tw.slices[1].items():
        for k, vecs in enumerate(bases):
            out.setdefault((p, k), []).extend(
                integers_over({idxs[t]: c for t, c in v.items()}, common_denominator(v.values()))
                for v in vecs)
    return out


def in_fixed_cartan(tw: TwistedAlgebra, v: dict) -> bool:
    """Whether the integer base vector v is in the Cartan and fixed by #."""
    v = scalars_over(v, 1)
    return v.keys() <= set(tw.aff.base.cartan) and linalg.mat_vec(tw.sh.columns, v) == v


def twisted_weight_spaces(tw: TwistedAlgebra, tau_degrees, z_window) -> dict:
    """{(pi value, tau, i): basis of the (pi + tau + i delta) weight space}.

    Slices the loop basis by averaged weight and parity (both preserved by
    #), splits each slice into eigenspaces, and tensors with t^i for every
    window degree i matching the eigenvalue class.  The (0, 0, 0) space
    additionally holds c and d.
    """
    aff, sh = tw.aff, tw.sh
    if aff.base.field != "Qi":
        raise FieldError("the twisted split needs the field Q(i)")
    datum = aff.datum
    tau_degrees = [tuple(d) for d in tau_degrees]
    zero_deg = (0,) * aff.rank

    if mixed_slice(tw):
        raise ValueError("# mixes averaged-weight slices")
    out: dict = {}
    for (p, par), (idxs, bases) in tw.slices[1].items():
        for tau in tau_degrees:
            s = sh.degree_sign(tau)
            for i0 in range(4):
                vecs = [GradedLoopElement(loop={(idxs[t], tau): v[t] for t in sorted(v)})
                        for v in bases[_eigenclass(s, i0)]]
                if not vecs:
                    continue
                for i in z_window:
                    if i % 4 == i0:
                        out.setdefault((p, tau, i), []).extend(tw_loop(i, v) for v in vecs)
    zero_key = (datum.zero, zero_deg, 0)
    if zero_key in out or 0 in z_window:
        extra = [tw_c(), tw_d()]
        if zero_deg in tau_degrees:
            extra = [tw_loop(0, v_term(k)) for k in range(aff.rank)] \
                + [tw_loop(0, d_term(k)) for k in range(aff.rank)] + extra
        out.setdefault(zero_key, [])
        out[zero_key] = out[zero_key] + extra
    return out


def twisted_window_root_system(tw: TwistedAlgebra, spaces: dict,
                               tau_degrees, z_window) -> rootsys.RootSupersystem:
    """The windowed twisted roots as an integer root supersystem."""
    aff, sigma = tw.aff, tw.slices[0]
    pform = PiForm(aff, sigma)
    pis = sorted({p for (p, _, _) in spaces}, key=str)
    coords, base_form = rootsys.rebase_rational_tuples(pis, pform.eval)
    return rootsys.graded_system(
        ((coords[p], tuple(tau) + (i,)) for (p, tau, i) in spaces), base_form,
        (tuple(tau) + (i,) for tau, i in itertools.product(tau_degrees, z_window)))


# ---------------------------------------------------------------------------
# the window certificate of the twisted algebra


def _twisted_formula(aff: AffinizedAlgebra, X: tuple, Y: tuple) -> tuple:
    """(([X, Y], s), ((X, Y), t)): the formula's bracket K / s and form n / t
    for kernel elements X, Y of one part each, or c or d."""
    (xp, xc, xd), (yp, yc, yd) = X, Y
    if xp and yp:
        (i, P), (j, Q) = *xp.items(), *yp.items()
        (Z, s), (n, t) = aff.kernel_bracket(P, Q), aff.kernel_form(P, Q)
        c = i * n * s if i and i == -j else 0
        return (({i + j: tuple(linalg.vscale(t, z) for z in Z)}, c, 0), s * t), (n * (i == -j), t)
    j, Q = next(iter((yp or xp).items()), (0, ()))
    k = j * (xd if yp else -yd)
    return (({j: tuple(linalg.vscale(k, q) for q in Q)}, 0, 0), 1), (xc * yd + xd * yc, 1)


def twisted_table_failures(tw: TwistedAlgebra, tau_degrees, z_window):
    """Witnesses (labels, tau and z degrees) where the twisted kernel and
    the formula disagree.  The twisted layer reads its parts only through
    aff.bracket_terms and aff.form_terms (pair_table_failures certifies
    them on every tau window pair) and scales them for d, so every branch
    runs on the part pairs (x⊗t^e, y⊗t^-e), [x, y], f(x, y) != 0 where the
    base has such x, y (e the first nonzero tau), (x⊗t^e, v_0), (v_0, d_0)
    at each ordered pair of z-degrees, and c and d against x⊗t^e and both."""
    aff = tw.aff
    (rows, gram, _), labels, zero = aff.base.integer_tables, aff.base.basis_labels, aff._zero
    e = next((t for t in tau_degrees if t != zero), zero)
    b1, b2 = next(((i, j) for i, j in itertools.product(range(aff.base.dim), repeat=2)
                   if rows[i][j] and gram[i][j]), (0, 0))
    x, v = (labels[b1], e, ({(b1, e): 1}, {}, {})), ("v0", None, ({}, {0: 1}, {}))
    pairs = [(x, (labels[b2], gneg(e), ({(b2, gneg(e)): 1}, {}, {})))]
    pairs += [(x, v), (v, ("d0", None, ({}, {}, {0: 1})))][:2 * bool(aff.rank)]
    table = [((lp, a, i, ({i: P}, 0, 0)), (lq, b, j, ({j: Q}, 0, 0)))
             for (lp, a, P), (lq, b, Q) in pairs for i, j in itertools.product(z_window, repeat=2)]
    xs = [(x[0], e, i, ({i: x[2]}, 0, 0)) for i in z_window]
    cd = [("c", None, None, ({}, 1, 0)), ("d", None, None, ({}, 0, 1))]
    table += [*itertools.product(cd, xs + cd), *itertools.product(xs, cd)]
    for (lx, a, i, X), (ly, b, j, Y) in table:
        (want, s), (m, t) = _twisted_formula(aff, X, Y)
        (got, u), (n, w) = tw.kernel_bracket(X, Y), tw.kernel_form(X, Y)
        if n * t != m * w or linalg.vsum((k, s * c) for k, c in tw.kernel_entries(got)) \
                != linalg.vsum((k, u * c) for k, c in tw.kernel_entries(want)):
            yield {"pair": [lx, ly], "tau degrees": [a, b], "z degrees": [i, j]}


# the checks of verify_twisted that read the twisted weight spaces
WEIGHT_SPACE_CHECKS = (
    "pairing only between opposite twisted weights",
    "eigenspace pairing vanishes unless i+j = 0 mod 4",
    "each occupied eigenspace pairs with its opposite",
    "twisted window-block nondegeneracy", "twisted weight labels match the Cartan eigenvalues",
    "the (0,0) weight space is the fixed Cartan plus c and d",
    "axiom 1: twisted witnesses at every nonzero window root", "axiom 1 twisted witness count",
    "axiom 2: windowed ad-nilpotency at real twisted roots",
    "twisted weight-space keys follow the eigenclass rule",
    "windowed twisted roots form a root supersystem",
    "averaged roots p and their eigenclasses E_p")
AUTOMORPHISM = "# is a bracket automorphism on window basis pairs"
FORM_KEPT = "# preserves the form on window basis pairs"
TABLES = ["pair table on the tau window: kernel bracket and form match the loop formula",
          "twisted table: z-degrees, central term, c and d match the formula"]
SPLIT = "each slice has a basis of eigenvectors of #"
FAMILIES = "averaged weights match the displayed five families"
SLICES_KEPT = "# preserves the averaged-weight slices"
CARTAN_MOVED = "# does not preserve the Cartan"
LABELED = "theta(0, tau) [h, b] = p(h) b on every slice"


def verify_twisted(tw: TwistedAlgebra, idx: SuperIndexSet, tau_degrees,
                   z_radius: int, samples: int = 500, seed: int = 0) -> Report:
    """Exact windowed verification of the twisted extended affine structure.

    Two tables test the code: pair_table_failures on the tau window and
    twisted_table_failures on the z window.  The identities are derived for
    the formula from the base reports, theta_premises and the automorphism
    check, as in verify_affinized (witnesses at tau and z degrees), and so
    are axiom 2, the weight labels and the root axioms (below).  samples
    and seed do nothing.

    With each x_i a zeta^i-eigenvector of #, the algebra lies in L = aff ⊗
    F[t, t^-1] ⊕ Fc ⊕ Fd, [x⊗t^i, y⊗t^j] = [x,y]⊗t^{i+j} + i delta_{i,-j}
    (x,y) c, d acting by i.  If # is an automorphism of aff (its check
    counts the form defects at opposite tau: the V part (x,y) a, which #
    fixes), [x,y] is a zeta^{i+j}-eigenvector, and the identities pass from
    L; a base failure shows at the z-degrees of its eigencomponents, in
    every class mod 4 when # has order 4.  In L:
    - [X, Y] + s[Y, X] = ([x,y] + s[y,x])⊗t^{i+j} + i((x,y) - s(y,x)) c at
      j = -i: aff anti-supercommutativity and supersymmetry (z 1, -1);
    - the Jacobi sum is aff's, plus at i+j+k = 0 the c part -(k s1 T1 +
      j s2 T2 + i s3 T3), T1 = ([x,y],z) and its cyclic shifts, zero where
      the s_i T_i agree (CENTRAL_CHECKS at z 1, 0, -1);
    - (x⊗t^i, y⊗t^-i) = (x,y) and ([X, Y], Z) = ([x,y], z): aff's form.
    aff's identities follow from the base as in verify_affinized.

    Axiom 2: a real key (p, tau, i) has p != 0 (PiForm(0, 0) = 0) and its
    X = x⊗t^i, x = x̄⊗t^tau, x̄ of averaged weight p.  The weight table
    (checked by weight_decomposition), base Jacobi and anti-supercommutativity
    give [g_a, g_b] ⊆ g_{a+b}, so ad x̄ adds p to averaged weights, of which
    the base has at most dim: (ad x̄)^dim = 0.  c and V are central, [X, d] =
    -iX, [X, d_k] = -tau_k X, and the loop part of (ad X)^k Y is a multiple
    of (ad x̄)^k ȳ: every window target dies within dim + 2 steps.

    The labels: by the tables, V and c are central, d_k and d scale X by
    tau_k and i, and [h⊗1, X] = theta(0, tau) sum_b x̄_b [h, b]⊗t^tau⊗t^i.
    So X has the eigenvalue p(h) on each fixed Cartan vector h where
    theta(0, tau) [h, b] = p(h) b, on the base tables, at every b of its
    slice (mislabeled_slice).

    Axiom 1, by the lemma of axiom1_pairs with fixed = in_fixed_cartan: key
    (p, tau, i) has a witness iff theta(tau, -tau) != 0 and it has a strong
    pair, or a weak one and (tau, i) != 0.  Its space is class
    _eigenclass(s(tau), i mod 4) at p, both parities, that of its opposite
    class _eigenclass(s(tau), -i mod 4) at -p, so axiom1_pairs runs once per
    (p, class, class).  The (0, 0) space is class 0 at p = 0 plus V, V*, c
    and d, so it is the fixed Cartan plus c and d iff its dimension is
    right and those base vectors are in the Cartan and fixed by #.

    The Gram pairing: by the tables, (x⊗t^i, y⊗t^j) = delta_{i+j,0}
    theta(tau, -tau) f(x̄, ȳ) for x = x̄⊗t^tau, y = ȳ⊗t^-tau (else 0), V
    pairs with V*, c with d, neither with loops: so i+j = 0 mod 4.  f pairs
    weight a only with -a, and f(E_l, E_m) = 0 unless lm = 1 (E_l the
    l-eigenvectors of M) as # keeps f.  So key (p, tau, i) pairs only with
    (-p, -tau, -i), by theta(tau, -tau) times f on B(p, l) x B(-p, 1/l),
    B(p, l) = E_l at averaged weight p (any parity), l = s(tau) zeta^i.
    Where each slice has a basis of eigenvectors (SPLIT), the B(p, l) split
    the base, paired by (p, l) -> (-p, 1/l); base nondegeneracy and
    theta(a, -a) != 0 make each window block nondegenerate, so every key
    and occupied class pairs with its opposite.

    The root axioms: the keys are (0, 0, 0) and {(p, tau, i) : phi(tau, i)
    in E_p}, phi(tau, i) = i + 2[s(tau) = -1] mod 4 additive, E_p the
    classes of the other keys at p ("the eigenclass rule" checks this), so
    rootsys.class_window_failures reads the window system from R̄ (the
    averaged weights of the keys under PiForm) and the E_p, 0 added to E_0:
    a real or nonradical isotropic root needs PiForm != 0, so a fixed Cartan
    vector, which makes (0, g) a key at each g with phi(g) = 0; without one
    only S1 and S2 have instances, and class 0 at p = 0 adds none to them.
    Where PiForm gives no rational symmetric form, the checks on it are
    skipped.  Raises ValueError for a tau window without 0 or not closed
    under negation.
    """
    aff, sh = tw.aff, tw.sh
    tau_degrees = sorted(tuple(d) for d in tau_degrees)
    z_window = list(range(-z_radius, z_radius + 1))
    rep = Report(title="twisted affinization (windowed)",
                 window={"tau_degrees": len(tau_degrees), "z_radius": z_radius})
    zero_deg = (0,) * aff.rank
    if zero_deg not in tau_degrees or any(gneg(t) not in tau_degrees for t in tau_degrees):
        raise ValueError("the tau window must contain degree 0 and be closed under negation")
    dim, labels = aff.base.dim, aff.base.basis_labels
    theta = {(a, b): aff.torus.theta(a, b) for a, b in itertools.product(tau_degrees, repeat=2)}

    rep.check("# has order 4", tw.order == 4, {"order": tw.order})

    # # acts on b⊗t^tau as s(tau) (Mb)⊗t^tau, M = sh.columns, s a +-1 character
    # (s(a + b) = s(a) s(b), s(-a) = s(a)), so the window checks read the base
    # defects.  At (b1⊗t^tau, b2⊗t^-tau) the forms are theta(tau, -tau) times
    # f(Mb1, Mb2) and f(b1, b2).  At (b1⊗t^a, b2⊗t^b) the loop parts of #[x, y]
    # and [#x, #y] are theta(a, b) times M[b1, b2] and [Mb1, Mb2], and for
    # a + b = 0 the V parts theta(a, b) a times f(b1, b2) and f(Mb1, Mb2).
    form_defects, bracket_defects = tw.defects

    rep.first_failure(FORM_KEPT, (
        {"pair": [labels[b1], labels[b2]], "tau": tau}
        for b1, tau, b2 in itertools.product(range(dim), tau_degrees, range(dim))
        if theta[tau, gneg(tau)] and (b1, b2) in form_defects))
    rep.first_failure(AUTOMORPHISM, (
        {"pair": [b1, b2], "taus": [t1, t2]} for (b1, b2), t1, t2 in itertools.product(
            sorted(bracket_defects | form_defects), tau_degrees, tau_degrees)
        if theta[t1, t2] and ((b1, b2) in bracket_defects
                              or t1 != zero_deg and t2 == gneg(t1))))

    leak = cartan_leak(aff, sh)  # sigma and the slices need # to keep the Cartan
    if leak:
        rep.check("# preserves the Cartan", False, leak)
        rep.skip(FAMILIES, {"reason": CARTAN_MOVED})
    else:
        actual, expected = set(pi_root_classes(aff, tw.slices[0])), displayed_pi_families(idx, aff)
        rep.check(FAMILIES, actual == expected, {"missing": sorted(expected - actual, key=str)[:4],
                                                 "extra": sorted(actual - expected, key=str)[:4]})

    rep.first_failure(TABLES[0], pair_table_failures(aff, tau_degrees, theta))
    rep.first_failure(TABLES[1], twisted_table_failures(tw, tau_degrees, z_window))
    checks = {c.name: c for r in (verify_superalgebra(aff.base), verify_form(aff.base), rep)
              for c in r.checks}  # rep holds the checks of # and the tables
    premises = theta_premises(aff.torus, tau_degrees, theta)  # the slice ones below
    derive = derived(rep, premises, checks)
    t0 = theta[zero_deg, zero_deg]

    def at(taus, zs):
        return {"tau degrees": list(taus), "z degrees": zs} if z_radius or not any(zs) else None
    central = {  # each loop identity's twisted check, and what c and # add to it
        "anti-supercommutativity": (
            "twisted bracket: grading and anti-supercommutativity",
            ["theta(a, -a) = theta(-a, a)"],
            [(["supersymmetry"], at([zero_deg] * 2, [1, -1]), t0), ([AUTOMORPHISM], {}, 1)]),
        "graded Jacobi identity": (
            "twisted graded Jacobi identity",
            ["theta(a, b) = theta(b, a)", "theta(a, -a) = theta(-a, a)", "cocycle identity"],
            [(CENTRAL_CHECKS, at([zero_deg] * 3, [1, 0, -1]), t0)]),
        "form supersymmetry/evenness/invariance": (
            "twisted form supersymmetry/evenness/invariance", [], [])}
    for name, premise_names, transfers in loop_identities(
            theta, tau_degrees, lambda *taus: at(taus, [0] * len(taus))):
        check, more_premises, more = central[name]
        derive(check, premise_names + more_premises, *transfers, *more)

    # the weight spaces split each slice into eigenspaces of #, so # must keep
    # the Cartan and every slice; otherwise the checks on them are skipped
    mixed = None if leak else mixed_slice(tw)
    if leak or not rep.check(SLICES_KEPT, mixed is None,
                             mixed and {"slice": list(mixed[0]), "column": labels[mixed[1]]}):
        for name in ((SLICES_KEPT,) if leak else ()) + WEIGHT_SPACE_CHECKS:
            rep.skip(name, {"reason": CARTAN_MOVED if leak else "# mixes averaged-weight slices"})
        rep.note("type label", {"label": idx.type_label()})
        return rep
    sigma, fixed = tw.slices[0], fixed_cartan_basis(aff, tw.slices[0])
    premises.update({SPLIT: unsplit_slice(tw),
                     LABELED: mislabeled_slice(tw, tau_degrees, fixed, theta)})

    spaces = twisted_weight_spaces(tw, tau_degrees, z_window)

    # the Gram pairing, from the tables and the base (docstring)
    pairing = (["theta(a, -a) != 0", SPLIT], (TABLES + [FORM_KEPT], {}, 1), (
        ["weight spaces pair only across opposite weights", "nondegeneracy"],
        at([zero_deg] * 2, [0, 0]), 1))
    derive("pairing only between opposite twisted weights", *pairing)
    derive("eigenspace pairing vanishes unless i+j = 0 mod 4", [], (TABLES, {}, 1))
    derive("each occupied eigenspace pairs with its opposite", *pairing)
    derive("twisted window-block nondegeneracy", *pairing)

    # the eigen-relations, from the tables and the weight table (docstring)
    derive("twisted weight labels match the Cartan eigenvalues", [LABELED], (TABLES, {}, 1))

    zero_key = (aff.datum.zero, zero_deg, 0)
    want_dim = len(fixed) + 2 * aff.rank + 2
    got, vectors = spaces.get(zero_key, []), class_vectors(tw)
    rep.check("the (0,0) weight space is the fixed Cartan plus c and d",
              len(got) == want_dim
              and all(in_fixed_cartan(tw, v) for v in vectors.get((aff.datum.zero, 0), [])),
              {"dim": len(got), "expected": want_dim})

    pairs: dict = {}  # (p, class at p, class at -p) -> axiom1_pairs
    fixed = functools.partial(in_fixed_cartan, tw)

    def witnessed(p, tau, i):
        s = sh.degree_sign(tau)
        kx, ky = _eigenclass(s, i % 4), _eigenclass(s, -i % 4)
        if (p, kx, ky) not in pairs:
            pairs[p, kx, ky] = axiom1_pairs(aff.base, vectors.get((p, kx), []),
                                            vectors.get((gneg(p), ky), []), fixed)
        strong, weak = pairs[p, kx, ky]
        return bool(theta[tau, gneg(tau)]) and (strong or weak and (any(tau) or i != 0))
    keys = sorted((key for key in spaces if key != zero_key), key=str)
    missing = [key for key in keys if not witnessed(*key)]
    rep.first_failure("axiom 1: twisted witnesses at every nonzero window root",
                      ({"root": list(key)} for key in missing))
    rep.note("axiom 1 twisted witness count", {"count": len(keys) - len(missing)})
    derive("axiom 2: windowed ad-nilpotency at real twisted roots", [],
           (["anti-supercommutativity", "graded Jacobi identity"], {}, 1))

    # the root axioms, from the averaged weights and their eigenclasses (docstring)
    def phi(g):
        return (g[-1] + 2 * (sh.degree_sign(g[:-1]) == -1)) % 4
    window = [tau + (i,) for tau in tau_degrees for i in z_window]
    pis = sorted({p for p, _, _ in spaces}, key=str)
    try:  # a Cartan Gram block not symmetric, rational or nondegenerate
        coords, form = rootsys.rebase_rational_tuples(pis, PiForm(aff, sigma).eval)
    except ValueError as exc:
        for name in WEIGHT_SPACE_CHECKS[-3:]:
            rep.skip(name, {"reason": f"the averaged weights have no rational root form: {exc}"})
        rep.note("type label", {"label": idx.type_label()})
        return rep
    classes = {coords[p]: set() for p in pis}
    for p, tau, i in spaces.keys() - {zero_key}:
        classes[coords[p]].add(phi(tau + (i,)))
    rule = {(p, g[:-1], g[-1]) for p in pis for g in window
            if phi(g) in classes[coords[p]]} | {zero_key}
    rep.first_failure("twisted weight-space keys follow the eigenclass rule", (
        {"key": list(key)} for key in sorted(rule ^ set(spaces), key=str)))
    classes[coords[aff.datum.zero]].add(0)
    rbar = rootsys.classify(list(coords.values()), form)
    finite = rootsys.check_axioms(rbar)
    failures = rootsys.class_window_failures(rbar, finite, classes, window, phi)
    rep.check("windowed twisted roots form a root supersystem", not failures,
              {"failures": failures})
    rep.note("averaged roots p and their eigenclasses E_p", {
        "S_p": "(tau, i) with i + 2[s(tau) = -1] mod 4 in E_p",
        "E_p": [[p, classes[coords[p]]] for p in pis],
        "failures on the finite system": [c.name for c in finite.failures()]})
    rep.note("type label", {"label": idx.type_label()})
    return rep
