"""Extended affine root supersystems: classification, reflections, axioms.

A system is a finite set of integer vectors (coordinates in the Z-span of
the roots) with a rational symmetric form.  Roots split into radical ones
(pairing to zero with everything), real ones ((a,a) != 0) and nonsingular
isotropic ones ((a,a) = 0 but not radical).

Systems cut out of infinite graded families carry a membership boundary:
elements outside it have unknown membership, and any axiom whose witness
would have to live there is reported as skipped rather than decided.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from math import gcd, lcm
from typing import Callable

from . import linalg
from .abelian import SymmetricGroupForm, gadd, gneg, gscale
from .reports import Report
from .scalars import Rat


class NonRealRootError(ValueError):
    """An operation needing (a, a) != 0 was applied to an isotropic root."""


class NonIntegralReflectionError(ValueError):
    """2(a,b)/(a,a) is not an integer, so the reflection leaves the lattice."""


class BrokenStringError(ValueError):
    """A root string has a gap, an unknown end or the wrong p - q."""


class RatioViolationError(ValueError):
    """k*alpha in R for k outside {0, ±1, ±2, ±1/2}."""


RATIOS = frozenset({Rat(0), Rat(1), Rat(-1), Rat(2), Rat(-2), Rat(1, 2), Rat(-1, 2)})


@dataclass(frozen=True)
class RootSupersystem:
    form: SymmetricGroupForm
    roots: tuple            # sorted tuple of integer coordinate tuples
    radical_roots: frozenset
    real_roots: frozenset
    nonsingular_roots: frozenset
    span_basis: tuple       # HNF basis rows of the Z-span of the roots
    known: Callable | None = None  # membership boundary; None = everything known

    @property
    def rank(self) -> int:
        return self.form.rank

    def is_known(self, g) -> bool:
        return True if self.known is None else bool(self.known(g))

    @cached_property
    def lines(self) -> "LineIndex":
        """The roots grouped by the integer lines through them, built on use."""
        return LineIndex(self.roots)

    @cached_property
    def table(self) -> "PairingTable":
        """The integer pairings of the roots, built on use."""
        return PairingTable(self)

    def cartan_int(self, a, b):
        """2(b,a)/(a,a) for real a; raises for isotropic a."""
        na = self.form.eval(a, a)
        if not na:
            raise NonRealRootError(f"root {a} is isotropic")
        return 2 * self.form.eval(a, b) / na


def classify(roots, form: SymmetricGroupForm, known: Callable | None = None) -> RootSupersystem:
    """Recompute the root partition caches; deterministic storage order."""
    rs = sorted({tuple(int(x) for x in r) for r in roots})
    for r in rs:
        if len(r) != form.rank:
            raise ValueError(f"root {r} does not match form rank {form.rank}")
    gram = form.integer_gram()
    radical, real, nonsingular = set(), set(), set()
    for r in rs:
        image = _apply(gram, r)
        if not any(image):
            radical.add(r)
        elif _dot(image, r):
            real.add(r)
        else:
            nonsingular.add(r)
    span = linalg.hnf([list(r) for r in rs])
    return RootSupersystem(
        form=form,
        roots=tuple(rs),
        radical_roots=frozenset(radical),
        real_roots=frozenset(real),
        nonsingular_roots=frozenset(nonsingular),
        span_basis=tuple(tuple(row) for row in span),
        known=known,
    )


def _apply(gram, a) -> tuple:
    return tuple(sum(g * x for g, x in zip(row, a)) for row in gram)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


class PairingTable:
    """Integer pairings of one system, built once as RootSupersystem.table.

    With D the lcm of the Gram denominators, pair(a, b) = D (a, b) is the
    dot product of D.gram.a (cached per root) with b.  For each real root a,
    norm[a] = pair(a, a) and twice[a] lists 2 pair(a, b) over system.roots,
    so 2(a,b)/(a,a) = twice / norm is read without rational arithmetic.
    """

    def __init__(self, system: RootSupersystem):
        gram = system.form.integer_gram()
        self.image = {r: _apply(gram, r) for r in system.roots}
        self.norm = {a: self.pair(a, a) for a in system.real_roots}
        self.twice = {a: [2 * self.pair(a, b) for b in system.roots]
                      for a in system.real_roots}

    def pair(self, a, b) -> int:
        return _dot(self.image[a], b)


class LineIndex:
    """Roots grouped by the integer lines x + Z p they lie on.

    p is the primitive vector of a direction, positive at its pivot (first
    nonzero) coordinate.  The first lookup along p makes one pass over the
    roots, keying each by the point of its line whose pivot coordinate lies
    in [0, p[pivot]) and recording its step from that point; later lookups
    cost the number of roots on the line.
    """

    def __init__(self, roots):
        self.roots = roots
        self._by_direction: dict = {}  # p -> {line key: [steps]}
        self._by_root: dict = {}       # alpha -> (p, m, pivot, lines), alpha = m p

    def steps(self, alpha, x) -> tuple[list[int], int]:
        """(ds, m): the roots on the line x + Q alpha are x + (d/m) alpha, d in ds."""
        entry = self._by_root.get(alpha)
        if entry is None:
            pivot = next(i for i, a in enumerate(alpha) if a)
            m = gcd(*alpha) if alpha[pivot] > 0 else -gcd(*alpha)
            p = tuple(a // m for a in alpha)
            lines = self._by_direction.get(p)
            if lines is None:
                lines = self._by_direction[p] = {}
                for r in self.roots:
                    key, t = self._split(p, pivot, r)
                    lines.setdefault(key, []).append(t)
            entry = self._by_root[alpha] = (p, m, pivot, lines)
        p, m, pivot, lines = entry
        key, t0 = self._split(p, pivot, x)
        return [t - t0 for t in lines.get(key, ())], m

    @staticmethod
    def _split(p, pivot, x):
        t = x[pivot] // p[pivot]
        return tuple(xi - t * pi for xi, pi in zip(x, p)), t


def reflect(system: RootSupersystem, alpha, beta):
    """r_alpha(beta) = beta - (2(a,b)/(a,a)) alpha, for real alpha."""
    n = system.cartan_int(alpha, beta)
    if n.denominator != 1:
        raise NonIntegralReflectionError(
            f"2({alpha},{beta})/({alpha},{alpha}) = {n} is not an integer")
    return tuple(b - int(n) * a for a, b in zip(alpha, beta))


@dataclass(frozen=True)
class StringScan:
    """The run of k with beta + k alpha in R through k = 0, with its ends."""

    members: tuple            # sorted k values found
    p: int | None             # -min k when the negative end is confirmed
    q: int | None             # max k when the positive end is confirmed
    gap_at: int | None        # a missing k strictly inside the found range


def _member_ks(system: RootSupersystem, alpha, beta) -> list[int]:
    """All integer k with beta + k alpha in R, read from the line index."""
    ds, m = system.lines.steps(alpha, beta)
    return sorted(d // m for d in ds if not d % m)


def _string_scan(system: RootSupersystem, alpha, beta) -> StringScan:
    """The alpha-string through the root beta: on a fully known system every
    member and the first missing k inside; otherwise the run through k = 0,
    each end confirmed where membership is known one step past it."""
    ks = _member_ks(system, alpha, beta)
    if system.known is None:
        gap_at = next((a + 1 for a, b in zip(ks, ks[1:]) if b != a + 1), None)
        return StringScan(members=tuple(ks), p=-ks[0], q=ks[-1], gap_at=gap_at)
    found, lo, hi = set(ks), 0, 0
    while hi + 1 in found:
        hi += 1
    while lo - 1 in found:
        lo -= 1
    q_known, p_known = (system.is_known(tuple(b + k * a for a, b in zip(alpha, beta)))
                        for k in (hi + 1, lo - 1))
    return StringScan(members=tuple(range(lo, hi + 1)), p=-lo if p_known else None,
                      q=hi if q_known else None, gap_at=None)


def root_string(system: RootSupersystem, alpha, beta):
    """(p, q, members) of the alpha-string through beta, checked exactly.

    The string must be a bounded integer interval containing 0 with
    p - q = 2(beta,alpha)/(alpha,alpha); gaps and unknown ends raise.
    """
    alpha, beta = tuple(alpha), tuple(beta)
    if not system.form.eval(alpha, alpha):
        raise NonRealRootError(f"root {alpha} is isotropic")
    if beta not in set(system.roots):
        raise ValueError(f"{beta} is not a root")
    scan = _string_scan(system, alpha, beta)
    if scan.gap_at is not None:
        raise BrokenStringError(
            f"string of {beta} along {alpha} has a gap at k = {scan.gap_at}")
    if scan.p is None or scan.q is None:
        raise BrokenStringError(
            f"string of {beta} along {alpha} leaves the known region")
    n = system.cartan_int(alpha, beta)
    if n != scan.p - scan.q:
        raise BrokenStringError(
            f"p - q = {scan.p - scan.q} differs from 2(b,a)/(a,a) = {n}")
    members = tuple(gadd(beta, gscale(k, alpha)) for k in scan.members)
    return scan.p, scan.q, members


def ratio_check(system: RootSupersystem, alpha):
    """All rational k with k*alpha in R; verifies k in {0, ±1, ±2, ±1/2}."""
    alpha = tuple(alpha)
    if alpha not in system.real_roots and not system.form.eval(alpha, alpha):
        raise NonRealRootError(f"root {alpha} is isotropic")
    ds, m = system.lines.steps(alpha, (0,) * len(alpha))
    ks = {Rat(d, m) for d in ds}
    if not ks <= RATIOS:
        bad = sorted(ks - RATIOS)
        raise RatioViolationError(f"ratios {[str(k) for k in bad]} for root {alpha}")
    return ks


def check_axioms(system: RootSupersystem) -> Report:
    """The five defining axioms, exhaustively over the stored root set.

    The ambient group is the Z-span of the roots (the span axiom reports
    the computed lattice basis).  On boundary-carrying systems, instances
    whose witnesses fall outside the known region are counted as skipped.
    """
    rep = Report(title="root supersystem axioms")
    rootset = set(system.roots)
    zero = (0,) * system.rank

    rep.check("S1: zero is a root", zero in rootset,
              {"roots": [list(r) for r in system.roots[:8]]})
    rep.note("S1: ambient group is the Z-span of the roots",
             {"lattice_basis": [list(r) for r in system.span_basis]})

    def first_known_failure(name, skip_name, instances):
        """Fail name at the first witness dict instances yields; the Nones
        before it (instances outside the known region) are reported as one
        skip entry with their count."""
        skipped, bad = 0, None
        for bad in instances:
            if bad is not None:
                break
            skipped += 1
        rep.check(name, bad is None, bad)
        if skipped:
            rep.skip(skip_name, {"count": skipped})

    def s2_failures():
        for r in system.roots:
            neg = gneg(r)
            if neg not in rootset:
                yield {"root": r} if system.is_known(neg) else None
    first_known_failure("S2: symmetry R = -R",
                        "S2: instances outside the known region", s2_failures())

    reals = sorted(system.real_roots)
    table = system.table

    def s3_failures():
        for a in reals:
            na = table.norm[a]
            for b, t in zip(system.roots, table.twice[a]):
                if t % na:
                    yield {"alpha": a, "beta": b, "value": str(Rat(t, na))}
    rep.first_failure("S3: integrality of 2(a,b)/(a,a)", s3_failures())

    def s4_failures():
        for a in reals:
            na = table.norm[a]
            for b, t in zip(system.roots, table.twice[a]):
                scan = _string_scan(system, a, b)
                if scan.gap_at is not None:
                    yield {"alpha": a, "beta": b, "gap_at": scan.gap_at}
                elif scan.p is None or scan.q is None:
                    yield None
                elif t != (scan.p - scan.q) * na:
                    yield {"alpha": a, "beta": b, "p": scan.p, "q": scan.q,
                           "cartan": str(Rat(t, na))}
    first_known_failure("S4: root strings are bounded intervals with p-q = 2(b,a)/(a,a)",
                        "S4: strings leaving the known region", s4_failures())

    imaginary = sorted(system.nonsingular_roots | ({zero} if zero in rootset else set()))

    def s5_failures():
        for a in imaginary:
            for b in system.roots:
                if not table.pair(a, b):
                    continue
                plus, minus = gadd(b, a), gadd(b, gneg(a))
                if plus not in rootset and minus not in rootset:
                    known = system.is_known(plus) and system.is_known(minus)
                    yield {"alpha": a, "beta": b} if known else None
    first_known_failure("S5: isotropic connectivity",
                        "S5: instances outside the known region", s5_failures())

    def ratio_failures():
        for a in reals:
            try:
                ratio_check(system, a)
            except RatioViolationError as exc:
                yield {"alpha": a, "detail": str(exc)}
    rep.first_failure("ratio restriction at real roots", ratio_failures())

    def reflection_failures():
        for a in reals:
            na = table.norm[a]
            for b, t in zip(system.roots, table.twice[a]):
                if t % na:
                    continue  # already reported under S3
                n = t // na
                r = tuple(y - n * x for x, y in zip(a, b))
                if r not in rootset:
                    yield {"alpha": a, "beta": b, "image": r} if system.is_known(r) else None
    first_known_failure("reflections preserve the root set",
                        "reflections landing outside the known region", reflection_failures())
    return rep


def class_window_failures(system: RootSupersystem, report: Report, classes: dict,
                          window, phi) -> list[str]:
    """The axioms check_axioms fails on the window system {(p, g) : g in
    window, phi(g) in classes[p] mod 4} (form zero on the degrees, membership
    known on the window), from system, report = check_axioms(system) and the
    classes.  phi is additive, the window closed under negation with (0, 0)
    a root, system.roots the keys of classes, each class phi of some g.

    With (a, g) real or isotropic, (b, h) a root, u = phi(g) and v = phi(h),
    (b, h) + k(a, g) at a known degree is a root iff v + ku is in classes[b +
    ka]; so an instance over (a, u, b, v) fails iff the class rule fails it
    and some g, h of classes u, v know the degrees h + kg it reads (realized):
    S2 reads -g (always known), S3 none, S4 (with no gap) k in
    [-k-, k+] for the first k+, k- >= 1 off the class rule at b ± ka, v ± ku,
    S5 k = ±1, and the reflection by n = 2(a,b)/(a,a) k = -n.  The ratio
    k(a, g), k outside RATIOS, needs a known kg of a class in classes[ka];
    report has every such k."""
    table, known, byclass = system.table, set(window), {}
    for g in window:
        byclass.setdefault(phi(g) % 4, []).append(g)
    failed = {c.name for c in report.failures()}

    @cache
    def realized(u, v, ks) -> bool:
        return any(all(gadd(h, gscale(k, g)) in known for k in ks)
                   for g in byclass.get(u, ()) for h in byclass.get(v, ()))

    def member(p, u) -> bool:
        return u % 4 in classes.get(p, ())

    def run(a, u, b, v, step) -> int:
        k = 1
        while member(gadd(b, gscale(step * k, a)), v + step * k * u):
            k += 1
        return k

    def instances():  # (axiom, u, v, the steps k whose degrees it reads)
        for p, us in classes.items():
            yield from (("S2:", u, u, ()) for u in us if not member(gneg(p), -u))
        for a, b in itertools.product(sorted(system.real_roots), system.roots):
            na, t = table.norm[a], 2 * table.pair(a, b)
            for u, v in itertools.product(classes[a], classes[b]):
                lo, hi = run(a, u, b, v, -1), run(a, u, b, v, 1)
                if t % na:
                    yield "S3:", u, v, ()
                elif not member(gadd(b, gscale(-(t // na), a)), v - t // na * u):
                    yield "reflections", u, v, (-(t // na),)
                if t != (lo - hi) * na:
                    yield "S4:", u, v, range(-lo, hi + 1)
        for a, b in itertools.product(system.nonsingular_roots, system.roots):
            if table.pair(a, b):
                yield from (("S5:", u, v, (-1, 1)) for u in classes[a] for v in classes[b]
                            if not member(gadd(b, a), v + u)
                            and not member(gadd(b, gneg(a)), v - u))
        if "ratio restriction at real roots" in failed:
            for a in system.real_roots:
                ds, m = system.lines.steps(a, (0,) * system.rank)
                yield from (("ratio", u, u, ()) for d in ds if Rat(d, m) not in RATIOS
                            for u in classes[a] for g in byclass.get(u, ())
                            if not any(x * d % m for x in g)
                            and (kg := tuple(x * d // m for x in g)) in known
                            and member(tuple(x * d // m for x in a), phi(kg)))
    bad = {name for name, u, v, ks in instances() if realized(u, v, tuple(ks))}
    return [c.name for c in report.checks if c.name.split()[0] in bad]


def rebase_rational_tuples(tuples, form_fn):
    """Integer re-basing of rational vectors into their Z-span.

    form_fn(a, b) must be a bilinear rational form on the vectors' span.
    Returns (coords, form): integer coordinates over an HNF basis of the
    lattice the vectors generate, and the form on that basis, so that
    form.eval(coords[a], coords[b]) == form_fn(a, b) exactly.
    """
    tuples = list(tuples)
    for t in tuples:
        for x in t:
            if hasattr(x, "im") and getattr(x, "im"):
                raise ValueError("vectors must be rational")
    denom = lcm(*(int(Rat(x).denominator) for t in tuples for x in t))
    rows = [[int(Rat(x) * denom) for x in t] for t in tuples]
    basis = linalg.hnf(rows)
    coords = {}
    for t, row in zip(tuples, rows):
        c = linalg.lattice_coords(basis, row)
        if c is None:
            raise AssertionError("vector outside its own lattice span")
        coords[t] = tuple(c)
    rational_basis = [tuple(Rat(x, denom) for x in b) for b in basis]
    gram = tuple(tuple(form_fn(bi, bj) for bj in rational_basis)
                 for bi in rational_basis)
    return coords, SymmetricGroupForm(gram=gram)


def weight_lattice(datum):
    """Integer re-basing of a root datum's rational weights.

    Returns (coords, form): coords maps each root (a rational weight tuple)
    to its integer coordinates over an HNF basis of the Z-span of the
    roots, and form is the transferred form expressed on that basis, so
    form.eval(coords[a], coords[b]) == datum.root_form(a, b) exactly.
    """
    m = len(datum.cartan)
    solve = linalg.solver([{j: c for j, c in enumerate(r) if c}
                           for r in datum.cartan_gram], m)

    def form_fn(a, b):
        rhs = {l: Rat(a[l]) for l in range(m) if a[l]}
        t = solve(rhs)
        if t is None:
            raise ValueError("Cartan form does not represent a root vector")
        val = Rat(0)
        for l, c in t.items():
            val = val + c * Rat(b[l])
        return val

    return rebase_rational_tuples(datum.roots, form_fn)


def from_root_datum(datum) -> RootSupersystem:
    """Re-base a root datum's rational weights into their Z-span.

    The roots become integer coordinate vectors over an HNF lattice basis
    and the transferred form is carried along, so axiom checking matches
    the algebra's root functionals value for value.
    """
    coords, form = weight_lattice(datum)
    return classify(list(coords.values()), form)


def graded_system(roots, base_form: SymmetricGroupForm, known_degrees) -> RootSupersystem:
    """The roots c + g over the (c, g) of roots: coordinates c over
    base_form, followed by a degree g.

    The form extends base_form by zero on the degree block, and membership
    is known exactly where the degree g lies in known_degrees.
    """
    known_degrees = {tuple(g) for g in known_degrees}
    r = base_form.rank
    size = r + len(next(iter(known_degrees)))
    gram = tuple(tuple(base_form.gram[i][j] if i < r and j < r else Rat(0)
                       for j in range(size)) for i in range(size))

    def known(g):
        return g[r:] in known_degrees

    return classify([c + tuple(g) for c, g in roots], SymmetricGroupForm(gram=gram),
                    known=known)
