import dataclasses
import itertools
import re
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from superlie import check_axioms, classify, from_root_datum, ratio_check, reflect, root_string
from superlie import (AffinizedAlgebra, CocycleTorus, osp12_standard, trivial_torus,
                      verify_affinized, weight_decomposition, window_box)
from superlie.abelian import SymmetricGroupForm, gadd, gneg, gscale
from superlie.affinize import window_root_system
from superlie.rootsys import graded_system
from superlie.matrixsuper import plain_index_set, sl_superalgebra
from superlie.reports import Report
from superlie.rootsys import (BrokenStringError, NonIntegralReflectionError,
                              NonRealRootError, RatioViolationError, _member_ks,
                              class_window_failures)
from superlie.scalars import Rat


def osp_system():
    # abstract normalization (a, a) = 2 on the generator
    return classify([(0,), (1,), (-1,), (2,), (-2,)],
                    SymmetricGroupForm(gram=((2,),)))


def sl12_system():
    # coordinates (eps1, d1, d2), diagonal form +1, -1, -1
    roots = [(0, 0, 0),
             (0, 1, -1), (0, -1, 1),
             (1, -1, 0), (-1, 1, 0),
             (1, 0, -1), (-1, 0, 1)]
    return classify(roots, SymmetricGroupForm(
        gram=((1, 0, 0), (0, -1, 0), (0, 0, -1))))


def test_classify_osp():
    s = osp_system()
    assert s.real_roots == {(1,), (-1,), (2,), (-2,)}
    assert s.nonsingular_roots == set()
    assert s.radical_roots == {(0,)}


def test_classify_sl12_nonsingular():
    s = sl12_system()
    a = (1, -1, 0)
    assert s.form.eval(a, a) == 0
    assert s.form.eval(a, (0, 1, -1)) == 1
    assert a in s.nonsingular_roots
    assert s.real_roots == {(0, 1, -1), (0, -1, 1)}


def test_classify_zero_only():
    s = classify([(0, 0)], SymmetricGroupForm(gram=((1, 0), (0, 1))))
    assert s.radical_roots == {(0, 0)}
    assert not s.real_roots and not s.nonsingular_roots


def test_classify_idempotent_and_order_free():
    import random
    roots = [(0,), (1,), (-1,), (2,), (-2,)]
    rng = random.Random(0)
    base = osp_system()
    for _ in range(5):
        rng.shuffle(roots)
        again = classify(roots, base.form)
        assert again.roots == base.roots
        assert again.real_roots == base.real_roots


def test_reflect_basics():
    s = osp_system()
    assert reflect(s, (1,), (1,)) == (-1,)
    assert reflect(s, (1,), (2,)) == (-2,)


def test_reflect_sl12_example():
    s = sl12_system()
    # reflecting eps1-d1 in d1-d2 lands on eps1-d2
    assert reflect(s, (0, 1, -1), (1, -1, 0)) == (1, 0, -1)


def test_reflect_rejects_isotropic():
    s = sl12_system()
    with pytest.raises(NonRealRootError):
        reflect(s, (1, -1, 0), (0, 1, -1))


def test_root_string_through_alpha():
    s = osp_system()
    p, q, members = root_string(s, (1,), (1,))
    assert (p, q) == (3, 1)
    assert members == ((-2,), (-1,), (0,), (1,), (2,))


def test_root_string_through_zero():
    s = osp_system()
    p, q, members = root_string(s, (1,), (0,))
    assert (p, q) == (2, 2)
    assert len(members) == 5


def test_root_string_small_system():
    s = classify([(0,), (1,), (-1,)], SymmetricGroupForm(gram=((2,),)))
    p, q, _ = root_string(s, (1,), (1,))
    assert (p, q) == (2, 0)


def test_root_string_gap_detected():
    s = classify([(0,), (1,), (-1,), (3,), (-3,)],
                 SymmetricGroupForm(gram=((2,),)))
    ks = _member_ks(s, (1,), (1,))
    assert ks == [-4, -2, -1, 0, 2]
    with pytest.raises(BrokenStringError):
        root_string(s, (1,), (1,))


def test_check_axioms_passes_on_both_fixtures():
    assert check_axioms(osp_system()).passed
    rep = check_axioms(sl12_system())
    assert rep.passed


def test_sl12_connectivity_witness():
    s = sl12_system()
    alpha, beta = (1, -1, 0), (0, 1, -1)
    assert s.form.eval(alpha, beta)
    plus = tuple(a + b for a, b in zip(alpha, beta))
    assert plus == (1, 0, -1) and plus in set(s.roots)


def test_s2_failure():
    s = classify([(0,), (1,)], SymmetricGroupForm(gram=((2,),)))
    rep = check_axioms(s)
    assert not rep.passed
    assert any(c.name.startswith("S2") for c in rep.failures())


def test_ratio_checks():
    s = osp_system()
    assert ratio_check(s, (1,)) == {Rat(0), Rat(1), Rat(-1), Rat(2), Rat(-2)}
    assert ratio_check(s, (2,)) == {Rat(0), Rat(1), Rat(-1), Rat(1, 2), Rat(-1, 2)}
    small = classify([(0,), (1,), (-1,)], SymmetricGroupForm(gram=((2,),)))
    assert ratio_check(small, (1,)) == {Rat(0), Rat(1), Rat(-1)}


def test_ratio_violation_reported():
    s = classify([(0,), (1,), (-1,), (3,), (-3,)],
                 SymmetricGroupForm(gram=((2,),)))
    with pytest.raises(RatioViolationError,
                       match=re.escape("ratios ['-3', '3'] for root (1,)")):
        ratio_check(s, (1,))


def test_reflections_are_involutions_on_passing_systems():
    for s in (osp_system(), sl12_system()):
        for a in sorted(s.real_roots):
            for b in s.roots:
                image = reflect(s, a, b)
                assert image in set(s.roots)
                assert reflect(s, a, image) == b


def test_mutation_sensitivity():
    for s in (osp_system(), sl12_system()):
        zero = (0,) * s.rank
        for removed in s.roots:
            if removed == zero:
                continue
            rest = [r for r in s.roots if r != removed]
            assert not check_axioms(classify(rest, s.form)).passed, removed


def test_root_datum_bridge_matches_form_values():
    L = osp12_standard()
    datum = weight_decomposition(L)
    s = from_root_datum(datum)
    # the re-based form agrees with the transferred form on matching roots
    from superlie.rootsys import weight_lattice
    coords, form = weight_lattice(datum)
    for a in datum.roots:
        for b in datum.roots:
            assert form.eval(coords[a], coords[b]) == datum.root_form(a, b)
    assert check_axioms(s).passed


def test_root_datum_bridge_sl12_algebra():
    L = sl_superalgebra(plain_index_set(1, 2))
    datum = weight_decomposition(L)
    s = from_root_datum(datum)
    assert check_axioms(s).passed
    assert len(s.roots) == 7
    assert len(s.real_roots) == 2 and len(s.nonsingular_roots) == 4
    # transferred form values match the abstract eps/delta normalization
    d1d2 = next(r for r in datum.roots
                if datum.root_form(r, r) == Rat(-2))
    assert datum.root_form(d1d2, d1d2) == Rat(-2)

def test_windowed_boundary_skips_and_failures():
    """Boundary-carrying systems skip unknowable instances, fail known ones."""
    from superlie.rootsys import _string_scan
    gram = SymmetricGroupForm(gram=((2, 0), (0, 0)))

    # infinite family {k alpha + m delta}: window only |m| <= 1
    roots = [(a, m) for a in (-2, -1, 0, 1, 2) for m in (-1, 0, 1)]

    def known(g):
        return abs(g[1]) <= 1

    s = classify(roots, gram, known=known)
    rep = check_axioms(s)
    assert rep.passed
    # strings along roots with a moving degree part leave the window and are
    # reported as skipped, never decided
    skips = {c.name for c in rep.checks if c.status == "skip"}
    assert "S4: strings leaving the known region" in skips
    assert "reflections landing outside the known region" in skips

    # drop a root whose absence is visible inside the window: S2 must fail
    s2 = classify([r for r in roots if r != (1, 1)], gram, known=known)
    assert not check_axioms(s2).passed

    # a scan whose continuation exits the window has at least one open end
    scan = _string_scan(s, (1, 1), (0, 0))
    assert scan.gap_at is None and (scan.p is None or scan.q is None)


def test_windowed_s2_skip_on_asymmetric_window():
    gram = SymmetricGroupForm(gram=((2, 0), (0, 0)))
    roots = [(a, m) for a in (-1, 0, 1) for m in (0, 1)]  # window not symmetric

    def known(g):
        return g[1] in (0, 1)

    s = classify(roots, gram, known=known)
    rep = check_axioms(s)
    # the negatives of degree-1 roots are outside the window: skipped
    skip = [c for c in rep.checks if c.status == "skip" and c.name.startswith("S2")]
    assert skip and skip[0].witness["count"] > 0


# ---------------------------------------------------------------------------
# cross-check: the pairing-table check_axioms against the pairwise rational
# implementation it replaced, kept here as a test-only reference


def _reference_member_ks(system, alpha, beta):
    pivot = next(i for i, x in enumerate(alpha) if x)
    ks = []
    for g in system.roots:
        num = g[pivot] - beta[pivot]
        if num % alpha[pivot]:
            continue
        k = num // alpha[pivot]
        if all(x == b + k * a for x, a, b in zip(g, alpha, beta)):
            ks.append(k)
    return sorted(ks)


def _reference_string_scan(system, alpha, beta, cap):
    if system.known is None:
        ks = _reference_member_ks(system, alpha, beta)
        gaps = [a + 1 for a, b in zip(ks, ks[1:]) if b != a + 1]
        return ks, -ks[0], ks[-1], gaps[0] if gaps else None, False
    rootset = set(system.roots)
    members = [0]
    ends = {}
    capped = False
    for direction in (1, -1):
        k = direction
        end = None
        while abs(k) <= cap:
            g = gadd(beta, gscale(k, alpha))
            if g in rootset:
                members.append(k)
                k += direction
                continue
            if system.is_known(g):
                end = k - direction
            break
        else:
            capped = True
        ends[direction] = end
    members.sort()
    gaps = [a + 1 for a, b in zip(members, members[1:]) if b != a + 1]
    p = -ends[-1] if ends[-1] is not None else None
    return members, p, ends[1], gaps[0] if gaps else None, capped


def _reference_ratio_violation(system, alpha):
    pivot = next(i for i, x in enumerate(alpha) if x)
    ks = set()
    for g in system.roots:
        k = Rat(g[pivot], alpha[pivot])
        if all(Rat(x) == k * a for x, a in zip(g, alpha)):
            ks.add(k)
    allowed = {Rat(0), Rat(1), Rat(-1), Rat(2), Rat(-2), Rat(1, 2), Rat(-1, 2)}
    bad = sorted(ks - allowed)
    return f"ratios {[str(k) for k in bad]} for root {alpha}" if bad else None


def _reference_check_axioms(system):
    """check_axioms as it was: every pairing from form.eval / cartan_int."""
    rep = Report(title="root supersystem axioms")
    rootset = set(system.roots)
    zero = (0,) * system.rank
    rep.check("S1: zero is a root", zero in rootset,
              {"roots": [list(r) for r in system.roots[:8]]})
    rep.note("S1: ambient group is the Z-span of the roots",
             {"lattice_basis": [list(r) for r in system.span_basis]})

    bad, skipped = None, 0
    for r in system.roots:
        neg = gneg(r)
        if neg in rootset:
            continue
        if system.is_known(neg):
            bad = {"root": list(r)}
            break
        skipped += 1
    rep.check("S2: symmetry R = -R", bad is None, bad)
    if skipped:
        rep.skip("S2: instances outside the known region", {"count": skipped})

    reals = sorted(system.real_roots)
    bad = next(({"alpha": list(a), "beta": list(b), "value": str(n)}
                for a in reals for b in system.roots
                for n in [system.cartan_int(a, b)] if n.denominator != 1), None)
    rep.check("S3: integrality of 2(a,b)/(a,a)", bad is None, bad)

    cap = 4 * max(1, len(system.roots))
    bad, skipped = None, 0
    for a in reals:
        for b in system.roots:
            _, p, q, gap_at, capped = _reference_string_scan(system, a, b, cap)
            if capped:
                bad = {"alpha": list(a), "beta": list(b), "reason": "cap exceeded",
                       "cap": cap}
            elif gap_at is not None:
                bad = {"alpha": list(a), "beta": list(b), "gap_at": gap_at}
            elif p is None or q is None:
                skipped += 1
                continue
            else:
                n = system.cartan_int(a, b)
                if n != p - q:
                    bad = {"alpha": list(a), "beta": list(b), "p": p, "q": q,
                           "cartan": str(n)}
            if bad:
                break
        if bad:
            break
    rep.check("S4: root strings are bounded intervals with p-q = 2(b,a)/(a,a)",
              bad is None, bad)
    if skipped:
        rep.skip("S4: strings leaving the known region", {"count": skipped})

    imaginary = sorted(system.nonsingular_roots | ({zero} if zero in rootset else set()))
    bad, skipped = None, 0
    for a in imaginary:
        for b in system.roots:
            if not system.form.eval(a, b):
                continue
            plus, minus = gadd(b, a), gadd(b, gneg(a))
            if plus in rootset or minus in rootset:
                continue
            if system.is_known(plus) and system.is_known(minus):
                bad = {"alpha": list(a), "beta": list(b)}
                break
            skipped += 1
        if bad:
            break
    rep.check("S5: isotropic connectivity", bad is None, bad)
    if skipped:
        rep.skip("S5: instances outside the known region", {"count": skipped})

    bad = next(({"alpha": list(a), "detail": detail} for a in reals
                for detail in [_reference_ratio_violation(system, a)] if detail), None)
    rep.check("ratio restriction at real roots", bad is None, bad)

    bad, skipped = None, 0
    for a in reals:
        for b in system.roots:
            try:
                r = reflect(system, a, b)
            except NonIntegralReflectionError:
                continue
            if r in rootset:
                continue
            if system.is_known(r):
                bad = {"alpha": list(a), "beta": list(b), "image": list(r)}
                break
            skipped += 1
        if bad:
            break
    rep.check("reflections preserve the root set", bad is None, bad)
    if skipped:
        rep.skip("reflections landing outside the known region", {"count": skipped})
    return rep


def _assert_same_report(system):
    want = _reference_check_axioms(system).as_dict()
    assert check_axioms(system).as_dict() == want
    return want


def sign_torus(rank):
    return CocycleTorus(rank=rank, qmatrix=tuple(
        tuple(Rat(-1) for _ in range(rank)) for _ in range(rank)))


@lru_cache(maxsize=None)
def base_with_datum(name):
    L = osp12_standard() if name == "osp12" else sl_superalgebra(plain_index_set(1, 2))
    return L, weight_decomposition(L)


def affinized(name, kind, rank):
    L, datum = base_with_datum(name)
    torus = trivial_torus(rank) if kind == "trivial" else sign_torus(rank)
    return AffinizedAlgebra(L, datum, torus)


@lru_cache(maxsize=None)
def bc11_window_system():
    from superlie.matrixsuper import (SharpOperator, SuperIndexSet,
                                      matrix_affinization, twisted_affinize,
                                      twisted_weight_spaces,
                                      twisted_window_root_system)
    idx = SuperIndexSet(i_dot=1, j_dot=1, with_zero_i=True)
    aff = matrix_affinization(idx, trivial_torus(1), field="Qi")
    tw = twisted_affinize(aff, SharpOperator(idx, aff))
    taus, zs = window_box(1, 1), range(-2, 3)
    spaces = twisted_weight_spaces(tw, taus, zs)
    return twisted_window_root_system(tw, spaces, taus, zs)


def fixture_systems():
    windowed_form = SymmetricGroupForm(gram=((2, 0), (0, 0)))
    return [
        osp_system(), sl12_system(),
        classify([(0,), (1,), (-1,)], SymmetricGroupForm(gram=((2,),))),
        classify([(0,), (1,), (-1,), (3,), (-3,)], SymmetricGroupForm(gram=((2,),))),
        classify([(0,), (1,)], SymmetricGroupForm(gram=((2,),))),
        classify([(0, 0)], SymmetricGroupForm(gram=((1, 0), (0, 1)))),
        from_root_datum(weight_decomposition(osp12_standard())),
        from_root_datum(weight_decomposition(sl_superalgebra(plain_index_set(1, 2)))),
        classify([(a, m) for a in (-2, -1, 0, 1, 2) for m in (-1, 0, 1)],
                 windowed_form, known=lambda g: abs(g[1]) <= 1),
        classify([(a, m) for a in (-1, 0, 1) for m in (0, 1)],
                 windowed_form, known=lambda g: g[1] in (0, 1)),
    ]


def test_check_axioms_matches_reference_on_fixtures():
    for system in fixture_systems():
        _assert_same_report(system)


@pytest.mark.parametrize("name", ["osp12", "sl12"])
@pytest.mark.parametrize("kind", ["trivial", "sign"])
@pytest.mark.parametrize("rank,radius", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_check_axioms_matches_reference_on_affinized_windows(name, kind, rank, radius):
    degrees = window_box(rank, radius)
    system = window_root_system(affinized(name, kind, rank), degrees)
    assert _assert_same_report(system)["passed"]


def test_check_axioms_matches_reference_on_bc11_window():
    assert _assert_same_report(bc11_window_system())["passed"]


def small_systems():
    out = fixture_systems()
    for name in ("osp12", "sl12"):
        for kind in ("trivial", "sign"):
            out.append(window_root_system(affinized(name, kind, 1), window_box(1, 1)))
    out.append(bc11_window_system())
    return out


SMALL_SYSTEMS = small_systems()


def _scaled(form, factor):
    return SymmetricGroupForm(gram=tuple(tuple(x * factor for x in row)
                                         for row in form.gram))


@lru_cache(maxsize=None)
def integrality_breakers(which):
    """Known non-roots v (3a, or a + b, for real a, b) with some 2(x,y)/(x,x)
    non-integral once v joins the roots."""
    system = SMALL_SYSTEMS[which]
    reals = sorted(system.real_roots)
    form = system.form
    candidates = {gscale(3, a) for a in reals}
    candidates |= {gadd(a, b) for a, b in itertools.combinations(reals, 2)}
    out = []
    for v in sorted(candidates - set(system.roots)):
        if not system.is_known(v):
            continue
        nv = form.eval(v, v)
        if (any((2 * form.eval(a, v) / form.eval(a, a)).denominator != 1 for a in reals)
                or nv and any((2 * form.eval(v, b) / nv).denominator != 1
                              for b in system.roots)):
            out.append(v)
    return out


MUTATIONS = dict(mutation=st.sampled_from(["drop", "add", "scale", "break"]),
                 pick=st.integers(0, 10 ** 6),
                 factor=st.sampled_from([Rat(1, 3), Rat(2, 5)]),
                 offset=st.lists(st.integers(-2, 2), min_size=8, max_size=8))


def mutated_system(which, mutation, pick, factor, offset):
    """SMALL_SYSTEMS[which] with one root dropped or added, its form scaled,
    or an integrality breaker added and the form scaled ("break"); None for
    a break on a system without real roots."""
    system = SMALL_SYSTEMS[which]
    roots, form = list(system.roots), system.form
    if mutation == "drop":
        roots.pop(pick % len(roots))
    elif mutation == "add":
        base = roots[pick % len(roots)]
        roots.append(tuple(x + d for x, d in zip(base, offset)))
    elif mutation == "scale":
        form = _scaled(form, factor)
    else:
        candidates = integrality_breakers(which)
        if not candidates:
            return None
        roots.append(candidates[pick % len(candidates)])
        form = _scaled(form, factor)
    return classify(roots, form, known=system.known)


@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, len(SMALL_SYSTEMS) - 1), **MUTATIONS)
def test_check_axioms_matches_reference_on_mutations(which, mutation, pick, factor,
                                                      offset):
    mutated = mutated_system(which, mutation, pick, factor, offset)
    if mutated is None:
        return  # no real roots
    report = _assert_same_report(mutated)
    if mutation == "break":
        s3 = next(c for c in report["checks"] if c["name"].startswith("S3"))
        assert s3["status"] == "fail" and "/" in s3["witness"]["value"]


# ---------------------------------------------------------------------------
# the product lemma behind verify_affinized's root-system check: a fully known
# base system times a window that holds degree 0 (the form zero on the degree
# block, membership known on the window) fails exactly the base's axioms


def window_product(base, degrees):
    """base x degrees under window_root_system's rule."""
    r, n = base.rank, len(degrees[0])
    degset = set(degrees)
    gram = tuple(tuple(base.form.gram[i][j] if i < r and j < r else Rat(0)
                       for j in range(r + n)) for i in range(r + n))
    return classify([c + d for c in base.roots for d in degrees],
                    SymmetricGroupForm(gram=gram), known=lambda g: g[r:] in degset)


def failing_names(system):
    return [c.name for c in check_axioms(system).failures()]


BASE_INDICES = [i for i, s in enumerate(SMALL_SYSTEMS) if s.known is None]
PRODUCT_WINDOWS = [window_box(rank, radius) for rank in (1, 2) for radius in (0, 1, 2)]


def test_window_root_system_is_the_product_of_the_base_system():
    for name in ("osp12", "sl12"):
        alg = affinized(name, "sign", 2)
        got = window_root_system(alg, window_box(2, 1))
        want = window_product(from_root_datum(alg.datum), window_box(2, 1))
        assert (got.roots, got.form.gram) == (want.roots, want.form.gram)
        probes = window_product(from_root_datum(alg.datum), window_box(2, 2)).roots
        assert [got.is_known(g) for g in probes] == [want.is_known(g) for g in probes]


def test_window_products_fail_exactly_the_base_axioms():
    seen = set()
    for which in BASE_INDICES:
        base = SMALL_SYSTEMS[which]
        want = failing_names(base)
        seen.update(want)
        for degrees in PRODUCT_WINDOWS:
            assert failing_names(window_product(base, degrees)) == want, (which, degrees)
    # the fixtures include a base breaking S2 and one whose string has a gap
    assert any(n.startswith("S2") for n in seen) and any(n.startswith("S4") for n in seen)


@settings(max_examples=60, deadline=None)
@given(which=st.sampled_from(BASE_INDICES), window=st.integers(0, len(PRODUCT_WINDOWS) - 1),
       **MUTATIONS)
def test_window_products_of_mutated_bases_fail_exactly_their_axioms(
        which, window, mutation, pick, factor, offset):
    base = mutated_system(which, mutation, pick, factor, offset)
    if base is None:
        return  # no real roots
    assert failing_names(window_product(base, PRODUCT_WINDOWS[window])) == failing_names(base)


# ---------------------------------------------------------------------------
# the class lemma behind verify_twisted's root-system check: a finite system
# whose roots p carry classes mod 4, on a window of degrees (tau, i) with
# phi(tau, i) = i + 2 tau mod 4 (tau odd plays a degree of sign -1), is the
# window system {p + g : phi(g) in classes[p]}; class_window_failures reads
# its failing axioms from the finite system and the classes


CLASS_WINDOWS = [[(t, i) for t in range(-tr, tr + 1) for i in range(-zr, zr + 1)]
                 for tr, zr in ((0, 0), (0, 1), (1, 1), (0, 3), (1, 2), (2, 1))]


def class_phi(g):
    return (g[1] + 2 * g[0]) % 4


def class_window_system(finite, classes, window):
    """The window system itself: base_form zero on the degree block,
    membership known on the window."""
    roots = [(p, g) for p in finite.roots for g in window if class_phi(g) in classes[p]]
    return graded_system(roots, finite.form, window)


CLASSES = st.lists(st.sets(st.integers(0, 3)), min_size=40, max_size=40)


@settings(max_examples=80, deadline=None)
@given(which=st.sampled_from(BASE_INDICES), window=st.sampled_from(range(len(CLASS_WINDOWS))),
       drawn=CLASSES, **MUTATIONS)
def test_class_window_failures_match_the_window_system(which, window, drawn, mutation, pick,
                                                        factor, offset):
    """On the finite fixtures and their mutations, with drawn classes (0 at
    the zero root, each class met by the window, roots with no class left
    out), the lemma's failures are check_axioms' on the window system."""
    base = mutated_system(which, mutation, pick, factor, offset)
    if base is None:
        return
    degrees = CLASS_WINDOWS[window]
    met = {class_phi(g) for g in degrees}
    zero = (0,) * base.rank
    classes = {p: (drawn[n % len(drawn)] | ({0} if p == zero else set())) & met
               for n, p in enumerate(base.roots)}
    classes = {p: c for p, c in classes.items() if c}
    if zero not in classes:
        return
    finite = classify(list(classes), base.form)
    want = failing_names(class_window_system(finite, classes, degrees))
    assert class_window_failures(finite, check_axioms(finite), classes, degrees,
                                 class_phi) == want


def test_class_window_failures_cover_every_axiom_they_read():
    """Each axiom class_window_failures decides fails on some fixture, the
    ratio restriction and S3 among them."""
    seen = set()
    for which in BASE_INDICES:
        base = SMALL_SYSTEMS[which]
        for degrees in CLASS_WINDOWS:
            met = {class_phi(g) for g in degrees}
            for drop in range(4):
                classes = {p: {u for u in met if u != drop or not any(p)}
                           for p in base.roots}
                got = class_window_failures(base, check_axioms(base), classes, degrees,
                                            class_phi)
                assert got == failing_names(class_window_system(base, classes, degrees))
                seen.update(name.split()[0] for name in got)
    assert seen >= {"S2:", "S4:", "ratio", "reflections"}


ROOT_CHECK = "windowed roots form a root supersystem"


def root_check(alg, degrees):
    """verify_affinized's root-system check, and the same check made
    directly on window_root_system."""
    got = next(c for c in verify_affinized(alg, degrees, samples=0).checks
               if c.name == ROOT_CHECK)
    ears = check_axioms(window_root_system(alg, degrees))
    direct = Report(title="direct")
    direct.check(ROOT_CHECK, ears.passed,
                 None if ears.passed else {"failures": [c.name for c in ears.failures()]})
    return got.as_dict(), direct.checks[0].as_dict()


@pytest.mark.parametrize("name", ["osp12", "sl12"])
@pytest.mark.parametrize("kind", ["trivial", "sign"])
@pytest.mark.parametrize("rank,radius", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_verify_affinized_root_check_matches_the_window_system(name, kind, rank, radius):
    got, direct = root_check(affinized(name, kind, rank), window_box(rank, radius))
    assert got == direct and got["status"] == "pass"


@pytest.mark.parametrize("name", ["osp12", "sl12"])
def test_verify_affinized_root_check_fails_with_a_dropped_base_root(name):
    L, datum = base_with_datum(name)
    dropped = next(r for r in datum.roots if r != datum.zero)
    broken = dataclasses.replace(datum, roots=tuple(r for r in datum.roots if r != dropped))
    got, direct = root_check(AffinizedAlgebra(L, broken, trivial_torus(1)), window_box(1, 1))
    assert got == direct and got["status"] == "fail"
    assert got["witness"]["failures"][0].startswith("S2")


def test_verify_affinized_rejects_a_window_without_degree_zero():
    with pytest.raises(ValueError, match="degree 0"):
        verify_affinized(affinized("osp12", "trivial", 1), [(-1,), (1,)], samples=0)


def test_verify_affinized_rejects_a_window_not_closed_under_negation():
    # the axiom-1 search pairs each window root with its opposite in the window
    with pytest.raises(ValueError, match="closed under negation"):
        verify_affinized(affinized("osp12", "trivial", 1), [(0,), (1,)], samples=0)


@pytest.mark.parametrize("kind", ["trivial", "sign"])
@pytest.mark.parametrize("rank,radius", [(1, 3), (2, 2)])
def test_affinized_theta_memo_matches_torus(kind, rank, radius):
    alg = affinized("sl12", kind, rank)
    degrees = window_box(rank, radius)
    for a in degrees:
        for b in degrees:
            assert alg.theta(a, b) == alg.torus.theta(a, b)
    # a second pass reads the memo and still agrees
    assert all(alg.theta(a, b) == alg.torus.theta(a, b)
               for a in degrees for b in degrees)
