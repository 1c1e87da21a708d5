"""The # layer of the twisted affinization on integers.

sharp_defects compares forms and brackets in the base's integer tables, and
pi_project averages weights on integer numerators.  The Rat and Fraction
versions they replaced are kept here as references.  Every result must
equal them, scalar types included: a value leaves as Rat, or as Q(i) with a
nonzero i part, so a reference value in Q(i) with a zero i part is read as
its rational.  The inputs are the # of BC(1,1) and C(2,1), the same # with
planted faults (a doubled entry, scaled by 2 and by i, with star signs,
over the q = 2/3 torus, on a doubled Gram pair), the same # on a basis
rescaled by rational and Gaussian factors (fractional tables and columns),
and hypothesis-drawn perturbations and averaging matrices over Q and Q(i).

check_element and in_cartan (test helpers; in_cartan and sharp_scales were
TwistedAlgebra methods until verify_twisted read its axiom 1 witnesses and
its (0,0) weight space off the slice eigenbases) compare # images in the
kernel; the scalar action of # on elements they replaced (sharp_apply) is
their reference, on weight-space elements and drawn ones, for the same #s.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st
from test_kernel import loop_sum, scaled, twisted_elements

from superlie import affinize as affz
from superlie.affinize import GradedLoopElement
from superlie import linalg, matrixsuper
from superlie.matrixsuper import (SharpOperator, SuperIndexSet, TwistedAlgebra,
                                  TwistedElement, matrix_affinization, pi_project,
                                  sharp_defects, sigma_cartan_matrix, twisted_affinize,
                                  twisted_weight_spaces, verify_twisted)
from superlie.reports import jsonable
from superlie.scalars import (IUNIT, GaussianRational, Rat, common_denominator, integer_over,
                              integers_over)

BC11 = SuperIndexSet(i_dot=1, j_dot=1, with_zero_i=True)
C21 = SuperIndexSet(i_dot=2, j_dot=1)


# ---------------------------------------------------------------------------
# the references


def ref_sharp_defects(base, cols):
    pairs = list(itertools.product(range(base.dim), repeat=2))
    form_pairs = {(b1, b2) for b1, b2 in pairs
                  if base.form(cols[b1], cols[b2]) != base.gram[b1][b2]}
    bracket_pairs = {(b1, b2) for b1, b2 in pairs
                     if linalg.mat_vec(cols, base.bracket_basis(b1, b2))
                     != base.bracket(cols[b1], cols[b2])}
    return form_pairs, bracket_pairs


def ref_pi_project(sigma, root):
    m = len(root)
    vals = [tuple(root)]
    cur = tuple(root)
    for _ in range(3):
        cur = tuple(sum(sigma[k][l] * cur[k] for k in range(m)) for l in range(m))
        vals.append(cur)
    quarter = Rat(1, 4)
    return tuple(quarter * sum(v[l] for v in vals) for l in range(m))


def canonical(x):
    return x.re if isinstance(x, GaussianRational) and not x.im else x


def assert_same_pi(sigma, root):
    got = pi_project(sigma, root)
    want = tuple(canonical(x) for x in ref_pi_project(sigma, root))
    assert [(type(x), x) for x in got] == [(type(x), x) for x in want], (sigma, root)
    assert all(type(x) is type(Rat(1)) or (isinstance(x, GaussianRational) and x.im)
               for x in got)
    return got


# ---------------------------------------------------------------------------
# the # of the paper's index sets, faulty ones and rescaled ones


def sharp_of(idx, torus=affz.trivial_torus(1), star_signs=None):
    aff = matrix_affinization(idx, torus, field="Qi")
    return aff, SharpOperator(idx, aff, star_signs)


def scaled_columns(cols, c):
    return [{k: c * v for k, v in col.items()} for col in cols]


def doubled_entry(cols):
    cols = [dict(col) for col in cols]
    k = sorted(cols[0])[0]
    cols[0][k] = 2 * cols[0][k]
    return cols


def doubled_gram_base(base):
    a, b = base.basis_labels.index("E[1,0]"), base.basis_labels.index("E[0,1]")
    gram = [list(row) for row in base.gram]
    gram[a][b], gram[b][a] = 2 * gram[a][b], 2 * gram[b][a]
    return dataclasses.replace(base, gram=tuple(tuple(row) for row in gram))


def rescaled(base, cols, lam):
    """base and # on the basis lam[k] b_k: the structure constants, Gram
    matrix and # columns in the new coordinates (fractional for lam != 1)."""
    inv = [x.inverse() if isinstance(x, GaussianRational) else Rat(1) / x for x in lam]
    structure = {(i, j): {k: lam[i] * lam[j] * inv[k] * c for k, c in row.items()}
                 for (i, j), row in base.structure.items()}
    gram = tuple(tuple(lam[i] * lam[j] * g for j, g in enumerate(row))
                 for i, row in enumerate(base.gram))
    new_cols = [{k: lam[b] * inv[k] * c for k, c in col.items()} for b, col in enumerate(cols)]
    return dataclasses.replace(base, structure=structure, gram=gram), new_cols


FACTORS = [Rat(1), Rat(2), Rat(1, 2), Rat(-3, 2), IUNIT, GaussianRational(1, 1),
           GaussianRational(Rat(1, 3), 0)]


def lam_for(dim, offset):
    return [FACTORS[(k * 3 + offset) % len(FACTORS)] for k in range(dim)]


def sharp_cases():
    """{name: (base, # columns, whether # is faulty)}: the paper's #s,
    planted faults and rescalings."""
    cases = {}
    for label, idx in (("BC(1,1)", BC11), ("C(2,1)", C21)):
        aff, sh = sharp_of(idx)
        base, cols = aff.base, sh.columns
        cases[label] = (base, cols, False)
        cases[f"{label} doubled entry"] = (base, doubled_entry(cols), True)
        cases[f"{label} times 2"] = (base, scaled_columns(cols, Rat(2)), True)
        cases[f"{label} times i"] = (base, scaled_columns(cols, IUNIT), True)
        for offset in (0, 4):
            lam = lam_for(base.dim, offset)
            cases[f"{label} rescaled {offset}"] = (*rescaled(base, cols, lam), False)
            cases[f"{label} rescaled {offset} doubled entry"] = (
                *rescaled(base, doubled_entry(cols), lam), True)
    aff, sh = sharp_of(BC11, star_signs=(-1,))
    cases["BC(1,1) star signs -1"] = (aff.base, sh.columns, False)
    cases["BC(1,1) star signs -1 doubled entry"] = (aff.base, doubled_entry(sh.columns), True)
    aff, sh = sharp_of(BC11, affz.CocycleTorus(rank=1, qmatrix=((Rat(2, 3),),)))
    cases["BC(1,1) q = 2/3 doubled entry"] = (aff.base, doubled_entry(sh.columns), True)
    cases["BC(1,1) doubled Gram pair"] = (doubled_gram_base(aff.base), sh.columns, True)
    return cases


SHARP_CASES = sharp_cases()


# ---------------------------------------------------------------------------
# sharp_defects


@pytest.mark.parametrize("name", sorted(SHARP_CASES))
def test_sharp_defects_match_reference(name):
    base, cols, faulty = SHARP_CASES[name]
    got = sharp_defects(base, cols)
    assert got == ref_sharp_defects(base, cols)
    assert bool(got[0] or got[1]) == faulty, got
    if "rescaled" in name:  # fractional tables and columns
        assert base.integer_tables[2] > 1
        assert common_denominator([c for col in cols for c in col.values()]) > 1


perturbation_scalars = st.one_of(
    st.builds(Rat, st.integers(-3, 3), st.sampled_from([1, 2, 3])),
    st.builds(GaussianRational, st.builds(Rat, st.integers(-2, 2), st.sampled_from([1, 2])),
              st.builds(Rat, st.integers(-2, 2), st.sampled_from([1, 3]))))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["BC(1,1)", "BC(1,1) rescaled 0", "BC(1,1) rescaled 4"]),
       st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23), perturbation_scalars),
                max_size=3),
       st.sampled_from([Rat(1), Rat(-1), IUNIT, GaussianRational(Rat(1, 2), 0)]))
def test_sharp_defects_match_reference_on_drawn_perturbations(name, changes, factor):
    """# with drawn entries added (a zero sum drops the entry) and every
    column scaled by a drawn factor."""
    base, cols, _ = SHARP_CASES[name]
    cols = scaled_columns(cols, factor)
    for b, k, c in changes:
        linalg.add_entry(cols[b], k, c)
    assert sharp_defects(base, cols) == ref_sharp_defects(base, cols)


# ---------------------------------------------------------------------------
# pi_project


def test_pi_project_matches_reference_on_the_paper_sigmas():
    for idx in (BC11, C21):
        aff, sh = sharp_of(idx)
        for factor in (Rat(1), Rat(2), IUNIT, GaussianRational(1, 1)):
            sh.columns = scaled_columns(SharpOperator(idx, aff).columns, factor)
            sigma = sigma_cartan_matrix(aff, sh)
            for root in aff.datum.roots:
                assert_same_pi(sigma, root)
    aff, sh = sharp_of(BC11)
    sigma = sigma_cartan_matrix(aff, sh)
    values = {assert_same_pi(sigma, root) for root in aff.datum.roots}
    assert any(x.denominator > 1 for p in values for x in p)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4).flatmap(lambda m: st.tuples(
    st.lists(st.lists(st.one_of(st.just(Rat(0)), perturbation_scalars), min_size=m,
                      max_size=m), min_size=m, max_size=m),
    st.lists(st.one_of(st.just(Rat(0)), perturbation_scalars), min_size=m, max_size=m))))
def test_pi_project_matches_reference_on_drawn_matrices(drawn):
    sigma, root = drawn
    assert_same_pi(tuple(map(tuple, sigma)), tuple(root))


# ---------------------------------------------------------------------------
# the defects on the twisted algebra, and a # scaled by i


def test_defects_are_computed_once_per_twisted_algebra(monkeypatch):
    calls = []
    real = matrixsuper.sharp_defects
    monkeypatch.setattr(matrixsuper, "sharp_defects",
                        lambda *args: calls.append(args) or real(*args))
    aff, sh = sharp_of(BC11)
    tw = twisted_affinize(aff, sh)
    rep = verify_twisted(tw, BC11, affz.window_box(1, 1), 1, samples=20, seed=3)
    assert rep.passed and len(calls) == 1
    assert tw.defects is tw.defects == (set(), set())
    twisted_affinize(aff, sh)  # a new algebra computes its own
    assert len(calls) == 2


def times_i_twisted():
    """BC(1,1) over Q(i) with every column of # multiplied by i: still of
    order 4, but it negates the form and is no bracket automorphism."""
    aff, sh = sharp_of(BC11)
    sh.columns = scaled_columns(sh.columns, IUNIT)
    return TwistedAlgebra(aff, sh)


def test_verify_twisted_reports_a_sharp_scaled_by_i():
    tw = times_i_twisted()
    with pytest.raises(ValueError, match="does not preserve the form"):
        twisted_affinize(tw.aff, tw.sh)
    rep = verify_twisted(tw, BC11, affz.window_box(1, 1), 1, samples=20, seed=3)
    failed = {c.name for c in rep.failures()}
    assert not rep.passed
    assert {"# preserves the form on window basis pairs",
            "# is a bracket automorphism on window basis pairs"} <= failed
    assert "# has order 4" not in failed


def automorphism_witness(tw, taus):
    """The first (b1, b2, t1, t2) in product order at which # breaks the
    bracket on the window: a bracket defect, or a form defect in the V
    part at t2 = -t1 != 0, where theta(t1, t2) != 0."""
    form_pairs, bracket_pairs = tw.defects
    zero = (0,) * tw.aff.rank
    return next(({"pair": [b1, b2], "taus": [t1, t2]}
                 for b1, b2, t1, t2 in itertools.product(
                     range(tw.aff.base.dim), range(tw.aff.base.dim), taus, taus)
                 if tw.aff.theta(t1, t2) and ((b1, b2) in bracket_pairs or (
                     (b1, b2) in form_pairs and t1 != zero and t2 == tuple(-t for t in t1)))),
                None)


@pytest.mark.parametrize("plant", ["doubled sharp entry", "doubled Gram pair"])
def test_bracket_automorphism_check_is_exhaustive_over_the_window(plant):
    """The first failing basis pair and tau pair in product order, at any
    samples and seed; the doubled Gram pair fails only in the V part."""
    from test_golden_failures import gram_doubled_twisted, perturbed_twisted
    build = perturbed_twisted if plant == "doubled sharp entry" else gram_doubled_twisted
    tw = build(affz.trivial_torus(1), None)
    taus = affz.window_box(1, 1)
    want = automorphism_witness(tw, taus)
    assert want is not None
    for samples, seed in ((0, 0), (5, 3), (500, 8)):
        rep = verify_twisted(tw, BC11, taus, 1, samples=samples, seed=seed)
        check = next(c for c in rep.checks
                     if c.name == "# is a bracket automorphism on window basis pairs")
        assert (check.status, check.witness) == ("fail", jsonable(want))


def scaled_twisted(factor):
    """BC(1,1) over Q(i) with every column of # multiplied by factor."""
    aff, sh = sharp_of(BC11)
    sh.columns = scaled_columns(sh.columns, factor)
    return TwistedAlgebra(aff, sh)


@pytest.mark.parametrize("factor", [Rat(-1), Rat(2), 2 * IUNIT, 1 + IUNIT],
                         ids=["-1", "2", "2i", "1+i"])
def test_verify_twisted_reports_a_sharp_that_mixes_the_weight_slices(factor):
    """Scaling # changes the averaged weights, so # no longer keeps their
    slices: a failed check with the slice and the column, and every check
    on the twisted weight spaces skipped; twisted_weight_spaces itself
    raises ValueError."""
    tw = scaled_twisted(factor)
    with pytest.raises(ValueError, match="mixes averaged-weight slices"):
        twisted_weight_spaces(tw, affz.window_box(1, 1), range(-1, 2))
    rep = verify_twisted(tw, BC11, affz.window_box(1, 1), 1, samples=20, seed=3)
    checks = {c.name: c for c in rep.checks}
    mixed = checks["# preserves the averaged-weight slices"]
    assert mixed.status == "fail" and set(mixed.witness) == {"slice", "column"}
    assert mixed.witness["column"] in tw.aff.base.basis_labels
    assert {name for name, c in checks.items() if c.status == "skip"} \
        == set(matrixsuper.WEIGHT_SPACE_CHECKS)


def test_weight_space_checks_are_the_checks_after_the_slice_check():
    """WEIGHT_SPACE_CHECKS names exactly the checks a passing report lists
    after the slice check, but the closing type label."""
    aff, sh = sharp_of(BC11)
    rep = verify_twisted(twisted_affinize(aff, sh), BC11, affz.window_box(1, 1), 1,
                         samples=5, seed=3)
    names = [c.name for c in rep.checks]
    after = names[names.index("# preserves the averaged-weight slices") + 1:-1]
    assert tuple(after) == matrixsuper.WEIGHT_SPACE_CHECKS


# ---------------------------------------------------------------------------
# the # images of check_element and in_cartan, compared in the kernel; the
# scalar comparisons that they replaced, through the scalar action of # on
# elements, are the reference


def sharp_apply(sh, x):
    """# on an affinized element: sign(deg) times #'s base matrix on each loop
    term, identity on V and V*."""
    out_loop = {}
    for (b, deg), c in x.loop.items():
        coeff = c * sh.degree_sign(deg)
        for k, v in sh.columns[b].items():
            linalg.add_entry(out_loop, (k, deg), coeff * v)
    return GradedLoopElement(loop=out_loop, v=dict(x.v), d=dict(x.d))


class GradingError(ValueError):
    """A twisted component is not in the matching eigenspace of #."""


def sharp_scales(tw, x, z):
    """Whether # x = z x for an affinized element x, compared in the kernel
    on #'s columns over one denominator (z is 1, i, -1 or -i)."""
    (loop, v, d), _ = tw.aff.kernel(x)
    S = common_denominator([c for col in tw.sh.columns for c in col.values()])
    C, z = [integers_over(col, S) for col in tw.sh.columns], integer_over(z, 1)
    return (z == 1 or not (v or d)) and linalg.vsum(
        ((k, deg), tw.sh.degree_sign(deg) * n * c) for (b, deg), n in loop.items()
        for k, c in C[b].items()) == {key: S * n * z for key, n in loop.items()}


def loop_in_cartan(aff, x):
    """Whether the affinized element x has its support inside (h ⊗ 1) ⊕ V ⊕ V*."""
    return all(b in aff.base.cartan and deg == aff._zero for b, deg in x.loop)


def in_cartan(tw, x):
    """Whether the twisted element x has its support inside (h^sigma ⊗ 1) ⊕
    Fc ⊕ Fd, # compared in the kernel."""
    return all(i == 0 and loop_in_cartan(tw.aff, part) and sharp_scales(tw, part, 1)
               for i, part in x.parts.items())


def check_element(tw, x):
    """Raise GradingError unless every component x_i is a zeta^i eigenvector
    of #, compared in the kernel."""
    for i, part in x.parts.items():
        if not sharp_scales(tw, part, IUNIT ** (i % 4)):
            raise GradingError(f"component at degree {i} is not a zeta^{i % 4} "
                               "eigenvector of #")


def ref_check_element(tw, x):
    for i, part in x.parts.items():
        if sharp_apply(tw.sh, part) != scaled(part, IUNIT ** (i % 4)):
            raise GradingError(f"component at degree {i} is not a zeta^{i % 4} "
                               "eigenvector of #")


def ref_in_cartan(tw, x):
    for i, part in x.parts.items():
        if i != 0 or not loop_in_cartan(tw.aff, part) or sharp_apply(tw.sh, part) != part:
            return False
    return True


def grading_verdict(check, tw, x):
    try:
        check(tw, x)
    except GradingError as exc:
        return str(exc)
    return None


def twisted_of(idx=BC11, torus=affz.trivial_torus(1), star_signs=None, plant=None):
    aff, sh = sharp_of(idx, torus, star_signs)
    if plant is not None:
        sh.columns = plant(sh.columns)
    return TwistedAlgebra(aff, sh)


GRADED = {
    "BC(1,1)": twisted_of(),
    "BC(1,1) star signs -1": twisted_of(star_signs=(-1,)),
    "BC(1,1) q = 2/3": twisted_of(torus=affz.CocycleTorus(rank=1, qmatrix=((Rat(2, 3),),))),
    "BC(1,1) doubled entry": twisted_of(plant=doubled_entry),
    "BC(1,1) times i": twisted_of(plant=lambda cols: scaled_columns(cols, IUNIT)),
}


def assert_same_grading(tw, x):
    assert grading_verdict(check_element, tw, x) \
        == grading_verdict(ref_check_element, tw, x)
    assert in_cartan(tw, x) == ref_in_cartan(tw, x)
    return grading_verdict(ref_check_element, tw, x) is None


def twisted_sum(x, y):
    """x + y for twisted elements; a degree whose sum is zero drops out."""
    parts = dict(x.parts)
    for i, p in y.parts.items():
        merged = loop_sum(parts[i], p) if i in parts else p
        if merged:
            parts[i] = merged
        else:
            parts.pop(i, None)
    return TwistedElement(parts, x.c + y.c, x.d + y.d)


@pytest.mark.parametrize("name", sorted(GRADED))
def test_grading_checks_match_reference_on_weight_space_elements(name):
    tw = GRADED[name]
    good = GRADED["BC(1,1)" if "star" not in name else name]
    spaces = twisted_weight_spaces(good, affz.window_box(1, 1), range(-2, 3))
    verdicts = set()
    for basis in spaces.values():
        for x in basis:
            verdicts.add(assert_same_grading(tw, scaled(x, GaussianRational(Rat(1, 2), 3))))
        total = basis[0]
        for x in basis[1:]:
            total = twisted_sum(total, scaled(x, Rat(-2, 3)))
        verdicts.add(assert_same_grading(tw, total))
        # a component at the wrong degree class
        for i, part in basis[0].parts.items():
            verdicts.add(assert_same_grading(tw, TwistedElement({i + 1: part})))
    assert True in verdicts and False in verdicts


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(GRADED)), st.data())
def test_grading_checks_match_reference_on_drawn_elements(name, data):
    tw = GRADED[name]
    assert_same_grading(tw, data.draw(twisted_elements(tw.aff.base.dim, 2)))

