import dataclasses
import itertools
import random

import pytest

from test_kernel import form, scaled
from test_sharp_layer import GradingError, check_element, sharp_apply

from superlie import linalg

from superlie import trivial_torus, weight_decomposition, window_box
from superlie.affinize import AffinizedAlgebra, CocycleTorus, d_term, loop_term
from superlie.matrixsuper import (DegenerateFormError, FieldError,
                                  PiForm, SharpOperator, SuperIndexSet,
                                  TwistedAlgebra, TwistedElement, diamond,
                                  displayed_pi_families, fixed_cartan_basis,
                                  matrix_affinization, pi_project,
                                  pi_root_classes, plain_index_set, sharp,
                                  sharp_defects, sharp_eigenspaces, sigma_cartan_matrix,
                                  sl_superalgebra, supertrace, tm_mul,
                                  tm_supercomm, twisted_affinize,
                                  twisted_weight_spaces, tw_c, tw_d,
                                  verify_twisted)
from superlie.scalars import IUNIT, Rat


BC11 = SuperIndexSet(i_dot=1, j_dot=1, with_zero_i=True)


def trace(x):
    """The diagonal sum of a torus matrix, a torus element {degree: scalar}."""
    out = {}
    for (r, c, deg), v in x.items():
        if r == c:
            linalg.add_entry(out, deg, v)
    return out


def rand_matrix(idx, rng, deg=()):
    order = idx.indices()
    out = {}
    for _ in range(4):
        r, c = rng.choice(order), rng.choice(order)
        out[(r, c, deg)] = Rat(rng.randint(-3, 3))
    return {k: v for k, v in out.items() if v}


def test_supertrace_signs():
    idx = BC11
    assert supertrace({("0", "0", ()): Rat(1)}, idx) == {(): Rat(1)}
    assert supertrace({("1'", "1'", ()): Rat(1)}, idx) == {(): Rat(-1)}


def test_supertrace_of_commutator_vanishes():
    rng = random.Random(7)
    idx = BC11
    for _ in range(12):
        a, b = rand_matrix(idx, rng), rand_matrix(idx, rng)
        # split into parity-homogeneous parts to use the supercommutator
        def parts(m):
            even = {k: v for k, v in m.items()
                    if (idx.parity(k[0]) + idx.parity(k[1])) % 2 == 0}
            odd = {k: v for k, v in m.items()
                   if (idx.parity(k[0]) + idx.parity(k[1])) % 2 == 1}
            return [p for p in (even, odd) if p]
        for pa in parts(a):
            for pb in parts(b):
                assert supertrace(tm_supercomm(pa, pb, idx), idx) == {}


def test_sl_superalgebra_root_layout():
    L = sl_superalgebra(plain_index_set(1, 2))
    datum = weight_decomposition(L)
    assert len(datum.roots) == 7
    # each nonzero weight space is one matrix unit
    for root in datum.roots:
        if root != datum.zero:
            assert len(datum.spaces[root]) == 1
    # form normalization: (d1 - d2, d1 - d2) = -2, mixed pair is isotropic
    norms = sorted(str(datum.root_form(r, r)) for r in datum.roots)
    assert norms.count("0") == 5 and norms.count("-2") == 2


def test_sl_superalgebra_rejects_balanced_sets():
    with pytest.raises(DegenerateFormError):
        sl_superalgebra(SuperIndexSet(i_dot=1, j_dot=1))


def test_diamond_is_an_involution():
    rng = random.Random(3)
    idx = BC11
    for _ in range(10):
        x = rand_matrix(idx, rng)
        assert diamond(diamond(x, idx), idx) == x


def test_diamond_trace_identity():
    rng = random.Random(4)
    idx = BC11
    for _ in range(10):
        x = rand_matrix(idx, rng)
        assert trace(diamond(x, idx)) == trace(x)


def test_diamond_antihomomorphism():
    rng = random.Random(5)
    idx = BC11
    for _ in range(10):
        x, y = rand_matrix(idx, rng), rand_matrix(idx, rng)
        lhs = diamond(tm_mul(x, y), idx)
        rhs = tm_mul(diamond(y, idx), diamond(x, idx))
        assert lhs == rhs


def test_sharp_squares_to_minus_one_on_cross_block():
    idx = BC11
    e = {("1", "1'", ()): Rat(1)}
    twice = sharp(sharp(e, idx), idx)
    assert twice == {("1", "1'", ()): Rat(-1)}


def test_sharp_fourth_power_is_identity():
    idx = BC11
    order = idx.indices()
    for r in order:
        for c in order:
            m = {(r, c, ()): Rat(1)}
            out = m
            for _ in range(4):
                out = sharp(out, idx)
            assert out == m


def test_sharp_operator_order_and_commutes_with_derivations():
    aff = matrix_affinization(BC11, trivial_torus(1), field="Qi")
    sh = SharpOperator(BC11, aff)
    assert sh.order() == 4
    x = loop_term(2, (3,))
    # d acts by the degree, # preserves the degree, so they commute
    lhs = sharp_apply(sh, aff.bracket(d_term(0), x))
    rhs = aff.bracket(d_term(0), sharp_apply(sh, x))
    assert lhs == rhs


def test_sharp_operator_rejects_a_star_sign_count_other_than_the_rank():
    for rank, signs in ((2, (-1,)), (1, (1, -1, 1)), (1, ())):
        aff = matrix_affinization(BC11, trivial_torus(rank), field="Qi")
        with pytest.raises(ValueError, match="one entry involution sign per torus generator"):
            SharpOperator(BC11, aff, star_signs=signs)


@pytest.mark.parametrize("signs, q", [(None, Rat(1)), ((-1,), Rat(1)), (None, Rat(2, 3))])
def test_sharp_defects_predict_the_window_checks_of_sharp(signs, q):
    """Brute force over a window against the base defects: with the first
    entry of #'s first column doubled and the (E[1,0], E[0,1]) Gram entries
    doubled, (#x, #y) != (x, y) at (b1, tau, b2) exactly at form defects,
    and #[x, y] != [#x, #y] at (b1, a, b2, b) exactly at bracket defects
    and, for a = -b != 0, at form defects."""
    base = sl_superalgebra(BC11, field="Qi")
    e10, e01 = base.basis_labels.index("E[1,0]"), base.basis_labels.index("E[0,1]")
    gram = [list(row) for row in base.gram]
    gram[e10][e01], gram[e01][e10] = 2 * gram[e10][e01], 2 * gram[e01][e10]
    base = dataclasses.replace(base, gram=tuple(map(tuple, gram)))
    aff = AffinizedAlgebra(base, weight_decomposition(base),
                           CocycleTorus(rank=1, qmatrix=((q,),)))
    sh = SharpOperator(BC11, aff, star_signs=signs)
    k = sorted(sh.columns[0])[0]
    sh.columns[0][k] *= 2
    form_defects, bracket_defects = sharp_defects(base, sh.columns)
    assert bracket_defects and form_defects - bracket_defects  # both clauses reached
    taus, dim = window_box(1, 1), base.dim
    for b1, a, b2, b in itertools.product(range(dim), taus, range(dim), taus):
        x, y = loop_term(b1, a), loop_term(b2, b)
        if b == (-a[0],):
            form_fails = form(aff, sharp_apply(sh, x), sharp_apply(sh, y)) != form(aff, x, y)
            assert form_fails == ((b1, b2) in form_defects), (b1, a, b2)
        bracket_fails = sharp_apply(sh, aff.bracket(x, y)) \
            != aff.bracket(sharp_apply(sh, x), sharp_apply(sh, y))
        assert bracket_fails == ((b1, b2) in bracket_defects or (
            (b1, b2) in form_defects and a != (0,) and b == (-a[0],))), (b1, a, b2, b)


def test_sharp_preserves_form_on_basis_pairs():
    aff = matrix_affinization(BC11, trivial_torus(1), field="Qi")
    sh = SharpOperator(BC11, aff)
    for b1 in range(aff.base.dim):
        for b2 in range(aff.base.dim):
            for tau in ((0,), (2,)):
                x, y = loop_term(b1, tau), loop_term(b2, (-tau[0],))
                assert form(aff, sharp_apply(sh, x), sharp_apply(sh, y)) == form(aff, x, y)


def test_eigenspaces_require_gaussian_field():
    aff = matrix_affinization(BC11, trivial_torus(1), field="Q")
    sh = SharpOperator(BC11, aff)
    with pytest.raises(FieldError):
        sharp_eigenspaces(aff, sh, [(0,)])


def test_eigenspace_dimensions_and_v_part():
    aff = matrix_affinization(BC11, trivial_torus(1), field="Qi")
    sh = SharpOperator(BC11, aff)
    spaces = sharp_eigenspaces(aff, sh, [(0,), (1,)])
    for deg in ((0,), (1,)):
        loop_dims = sum(len([x for x in spaces[(i, deg)]
                             if not (x.v or x.d)]) for i in range(4))
        assert loop_dims == aff.base.dim
    # V and V* sit inside the fixed eigenspace at degree zero
    fixed = spaces[(0, (0,))]
    assert any(x.v for x in fixed) and any(x.d for x in fixed)


def test_eigenspaces_at_both_degree_signs_match_direct_kernels():
    """The four kernels of # serve every degree: at degree sign s the
    zeta^i eigenvectors equal the kernel of s*M - zeta^i I computed directly."""
    aff = matrix_affinization(BC11, trivial_torus(1), field="Qi")
    sh = SharpOperator(BC11, aff, star_signs=(-1,))
    degrees = window_box(1, 2)
    spaces = sharp_eigenspaces(aff, sh, degrees)
    rows = linalg.block_rows(sh.columns, range(aff.base.dim))
    assert {sh.degree_sign(d) for d in degrees} == {1, -1}
    for deg in degrees:
        s = sh.degree_sign(deg)
        for i in range(4):
            shifted = linalg.minus_identity([linalg.vscale(s, r) for r in rows],
                                            IUNIT ** i)
            want = [v for _, v in linalg.nullspace(shifted, len(rows))]
            got = [{b: c for (b, _), c in x.loop.items()}
                   for x in spaces[(i, deg)] if x.loop]
            assert got == want, (deg, i)
            for x in spaces[(i, deg)]:
                assert sharp_apply(sh, x) == scaled(x, IUNIT ** i)


def test_twisted_weight_spaces_are_eigenspaces_at_both_degree_signs():
    aff = matrix_affinization(BC11, trivial_torus(1), field="Qi")
    sh = SharpOperator(BC11, aff, star_signs=(-1,))
    tw = twisted_affinize(aff, sh)
    taus = window_box(1, 1)
    spaces = twisted_weight_spaces(tw, taus, range(-4, 5))
    for (p, tau, i), basis in spaces.items():
        for x in basis:
            check_element(tw, x)
    for tau in taus:
        assert sum(len(b) for (_, t, i), b in spaces.items()
                   if t == tau and 0 <= i < 4) == aff.base.dim + (4 if tau == (0,) else 0)


def test_pi_projection_values():
    aff = matrix_affinization(BC11, trivial_torus(1), field="Qi")
    sh = SharpOperator(BC11, aff)
    sigma = sigma_cartan_matrix(aff, sh)
    datum = aff.datum
    zero = datum.zero
    assert pi_project(sigma, zero) == zero
    # averaging is idempotent: pi(pi(a)) = pi(a)
    for root in datum.roots:
        p = pi_project(sigma, root)
        assert pi_project(sigma, p) == p


def test_pi_classes_match_displayed_families():
    aff = matrix_affinization(BC11, trivial_torus(1), field="Qi")
    sh = SharpOperator(BC11, aff)
    sigma = sigma_cartan_matrix(aff, sh)
    actual = set(pi_root_classes(aff, sigma))
    assert actual == displayed_pi_families(BC11, aff)


def test_type_labels():
    assert BC11.type_label() == "BC(1,1)"
    assert SuperIndexSet(i_dot=1, j_dot=1).type_label() == "C(1,1)"
    assert SuperIndexSet(i_dot=2, j_dot=3, with_zero_j=True).type_label() == "BC(2,3)"


def build_twisted():
    aff = matrix_affinization(BC11, trivial_torus(1), field="Qi")
    sh = SharpOperator(BC11, aff)
    return twisted_affinize(aff, sh), aff, sh


def test_twisted_rejects_lower_order_automorphism():
    aff = matrix_affinization(BC11, trivial_torus(1), field="Qi")
    sh = SharpOperator(BC11, aff)
    from superlie import linalg
    squared = [linalg.mat_vec(sh.columns, c) for c in sh.columns]
    sh.columns = squared  # now an order-2 map
    with pytest.raises(ValueError, match="order"):
        twisted_affinize(aff, sh)


@pytest.mark.parametrize("factor, message", [
    (IUNIT, "does not preserve the form"),        # (i x, i y) = -(x, y)
    (Rat(-1), "is not a bracket automorphism"),   # -#[x, y] != [-#x, -#y]
])
def test_twisted_rejects_scaled_automorphism(factor, message):
    aff = matrix_affinization(BC11, trivial_torus(1), field="Qi")
    sh = SharpOperator(BC11, aff)
    sh.columns = [linalg.vscale(factor, c) for c in sh.columns]
    assert sh.order() == 4
    with pytest.raises(ValueError, match=message):
        twisted_affinize(aff, sh)


def test_sharps_order_is_computed_once_per_twisted_algebra(monkeypatch):
    """twisted_affinize and the "# has order 4" check of verify_twisted read
    one TwistedAlgebra.order."""
    calls = []
    order = SharpOperator.order
    monkeypatch.setattr(SharpOperator, "order", lambda sh: calls.append(sh) or order(sh))
    aff = matrix_affinization(BC11, trivial_torus(1), field="Qi")
    tw = twisted_affinize(aff, SharpOperator(BC11, aff))
    rep = verify_twisted(tw, BC11, window_box(1, 0), 1)
    assert rep.passed and len(calls) == 1
    assert tw.order == 4 and len(calls) == 1


def test_twisted_bracket_central_term():
    tw, aff, sh = build_twisted()
    spaces = twisted_weight_spaces(tw, [(0,)], range(-1, 2))
    # pick any weight space at z-degree 1 and its opposite at -1
    for (p, tau, i), basis in spaces.items():
        if i != 1 or not basis:
            continue
        neg = (tuple(-x for x in p), tau, -1)
        for x in basis:
            for y in spaces.get(neg, ()):
                br = tw.bracket(x, y)
                xi = x.parts[1]
                yj = y.parts[-1]
                expected_part = aff.bracket(xi, yj)
                assert br.parts.get(0, None) == (expected_part or None) \
                    or br.parts.get(0) == expected_part
                assert br.c == form(aff, xi, yj)
        break


def test_twisted_derivation_acts_by_degree():
    tw, aff, sh = build_twisted()
    spaces = twisted_weight_spaces(tw, [(0,)], range(-3, 4))
    for (p, tau, i), basis in spaces.items():
        for x in basis:
            if not x.parts:
                continue
            assert tw.bracket(tw_d(), x) == scaled(x, Rat(i))
    assert not tw.bracket(tw_c(), tw_d())


def test_twisted_form_c_d():
    tw, _, _ = build_twisted()
    assert form(tw, tw_c(), tw_d()) == Rat(1)
    assert form(tw, tw_c(), tw_c()) == Rat(0)
    assert form(tw, tw_d(), tw_d()) == Rat(0)


def test_twisted_grading_error():
    tw, aff, sh = build_twisted()
    # an eigenvector for zeta^1 placed at an even degree is rejected
    spaces = twisted_weight_spaces(tw, [(0,)], range(-4, 5))
    vec = None
    for (p, tau, i), basis in spaces.items():
        if i == 1 and basis:
            vec = basis[0].parts[1]
            break
    bad = TwistedElement(parts={2: vec})
    with pytest.raises(GradingError):
        check_element(tw, bad)


def test_twisted_zero_space_is_fixed_cartan_plus_c_d():
    tw, aff, sh = build_twisted()
    sigma = sigma_cartan_matrix(aff, sh)
    spaces = twisted_weight_spaces(tw, window_box(1, 1), range(-2, 3))
    zero_key = (aff.datum.zero, (0,), 0)
    dim_fixed = len(fixed_cartan_basis(sigma))
    assert len(spaces[zero_key]) == dim_fixed + 2 * aff.rank + 2


def test_verify_twisted_full_suite():
    tw, aff, sh = build_twisted()
    rep = verify_twisted(tw, BC11, window_box(1, 1), 2, samples=120, seed=9)
    assert rep.passed, [c.name for c in rep.failures()]


def test_twisted_roots_labels():
    tw, aff, sh = build_twisted()
    spaces = twisted_weight_spaces(tw, window_box(1, 1), range(-2, 3))
    assert BC11.type_label() == "BC(1,1)"
    assert all(len(v) >= 1 for v in spaces.values())


def test_sl12_functional_pairings():
    """(eps1,eps1) = 1, (d1,d1) = -1, (eps1,d1) = 0, read off root pairings."""
    from superlie import weight_decomposition
    L = sl_superalgebra(plain_index_set(1, 2))
    datum = weight_decomposition(L)
    wt = {L.basis_labels[b]: tuple(L.weights[b]) for b in range(L.dim)}
    e1d1 = wt["E[1,1']"]     # eps1 - d1
    e1d2 = wt["E[1,2']"]     # eps1 - d2
    d1d2 = wt["E[1',2']"]    # d1 - d2
    assert datum.root_form(e1d1, e1d1) == Rat(0)
    assert datum.root_form(d1d2, d1d2) == Rat(-2)
    assert datum.root_form(e1d1, e1d2) == Rat(1)   # (eps1,eps1) + (d1,d2)
    assert datum.root_form(e1d1, d1d2) == Rat(1)   # -(d1,d1)
    assert datum.root_form(e1d2, d1d2) == Rat(-1)  # (d2,d2)


def test_diamond_trace_with_entry_involution():
    torus = CocycleTorus(rank=1, qmatrix=((Rat(1),),))
    idx = BC11
    x = {("1", "1", (1,)): Rat(3), ("1'", "1'", (2,)): Rat(5)}
    flipped = diamond(x, idx, star_signs=(-1,))
    # * scales degree tau by (-1)^tau, and the trace identity follows it
    assert trace(flipped) == {(1,): Rat(-3), (2,): Rat(5)}
    assert trace(diamond(x, idx)) == trace(x)


def test_verify_twisted_with_entry_involution_and_sign_cocycle():
    taus = window_box(1, 1)
    for qval, signs in ((None, (-1,)), (-1, None), (-1, (-1,))):
        torus = trivial_torus(1) if qval is None else CocycleTorus(
            rank=1, qmatrix=((Rat(qval),),))
        aff = matrix_affinization(BC11, torus, field="Qi")
        sh = SharpOperator(BC11, aff, star_signs=signs)
        tw = twisted_affinize(aff, sh)
        rep = verify_twisted(tw, BC11, taus, 2, samples=60, seed=13)
        assert rep.passed, (qval, signs, [c.name for c in rep.failures()])


def test_verify_twisted_c_type_unbalanced():
    """A no-zero (C-type) index set with |I| != |J| runs the whole suite."""
    idx = SuperIndexSet(i_dot=1, j_dot=2)
    assert idx.type_label() == "C(1,2)"
    aff = matrix_affinization(idx, trivial_torus(1), field="Qi")
    sh = SharpOperator(idx, aff)
    tw = twisted_affinize(aff, sh)
    rep = verify_twisted(tw, idx, window_box(1, 1), 3, samples=100, seed=8)
    assert rep.passed, [c.name for c in rep.failures()]


def test_bc11_averaged_weight_classes_hand_derived():
    """With u = eps_1 - eps_1~ and w = d_1' - d_1'~ the averaged weights are
    {0, ±u, ±w, ±u/2, ±w/2, ±(u-w)/2, ±(u+w)/2}: thirteen classes whose
    supertrace norms are 2, -2, 1/2, -1/2 (twice each) and 0 (five times)."""
    from collections import Counter
    aff = matrix_affinization(BC11, trivial_torus(1), field="Qi")
    sh = SharpOperator(BC11, aff)
    sigma = sigma_cartan_matrix(aff, sh)
    classes = pi_root_classes(aff, sigma)
    assert len(classes) == 13
    pform = PiForm(aff, sigma)
    norms = Counter(str(pform.eval(p, p)) for p in classes)
    assert norms == {"0": 5, "2": 2, "-2": 2, "1/2": 2, "-1/2": 2}
    assert len(fixed_cartan_basis(sigma)) == 2


def test_bc11_twisted_multiplicity_pattern():
    """Hand-derived eigenclass placement of the nonzero averaged weights.

    Norm ±2 classes come from the bar-paired units inside one block; # fixes
    the line up to sign -1, so they live only in eigenclass 2.  Norm +1/2
    classes are the even zero-row pairs e(1,0)/e(0,1~) swapped by # with one
    minus sign (#^2 = +1: classes 0 and 2).  Norm -1/2 classes are the odd
    cross-block pairs e(0,1')/e(1~',0) where the swap picks up a single sign
    (#^2 = -1: classes 1 and 3)."""
    aff = matrix_affinization(BC11, trivial_torus(1), field="Qi")
    sh = SharpOperator(BC11, aff)
    sigma = sigma_cartan_matrix(aff, sh)
    tw = twisted_affinize(aff, sh)
    spaces = twisted_weight_spaces(tw, [(0,)], range(0, 4))
    pform = PiForm(aff, sigma)
    for p in pi_root_classes(aff, sigma):
        dims = {i: len(spaces.get((p, (0,), i), [])) for i in range(4)}
        norm = pform.eval(p, p)
        if norm == Rat(2) or norm == Rat(-2):
            assert dims == {0: 0, 1: 0, 2: 1, 3: 0}, (p, dims)
        elif norm == Rat(1, 2):
            assert dims == {0: 1, 1: 0, 2: 1, 3: 0}, (p, dims)
        elif norm == Rat(-1, 2):
            assert dims == {0: 0, 1: 1, 2: 0, 3: 1}, (p, dims)


@pytest.mark.parametrize("taus", [[(0,), (1,)], [(-1,), (1,)]])
def test_verify_twisted_rejects_a_tau_window_without_zero_or_negatives(taus):
    tw, aff, sh = build_twisted()
    with pytest.raises(ValueError, match="tau window"):
        verify_twisted(tw, BC11, taus, 1)


# the size ladder: the next twisted bases after BC(1,1), each verified end to
# end and failing the expected check under one planted structure constant
LADDER = {"BC(2,1)": SuperIndexSet(i_dot=2, j_dot=1, with_zero_i=True),
          "BC(1,2)": SuperIndexSet(i_dot=1, j_dot=2, with_zero_i=True)}


@pytest.mark.parametrize("name", sorted(LADDER))
def test_twisted_size_ladder_verifies_and_fails_a_planted_constant(name):
    from test_window_certificate import bumped_structure
    idx = LADDER[name]
    aff = matrix_affinization(idx, trivial_torus(1), field="Qi")
    rep = verify_twisted(twisted_affinize(aff, SharpOperator(idx, aff)), idx,
                         window_box(1, 1), 2)
    assert rep.passed, [c.name for c in rep.failures()]
    assert {c.witness["label"] for c in rep.checks if c.name == "type label"} == {name}
    L = aff.base
    keys = sorted((pair, k) for pair, row in L.structure.items() for k in row)
    pick = next(n for n, ((i, j), _) in enumerate(keys)
                if i not in L.cartan and j not in L.cartan)
    base = bumped_structure(L, pick, Rat(1))
    planted = AffinizedAlgebra(base, weight_decomposition(base), trivial_torus(1))
    rep = verify_twisted(TwistedAlgebra(planted, SharpOperator(idx, planted)), idx,
                         window_box(1, 1), 2)
    failed = {c.name: c.witness for c in rep.failures()}
    assert failed["twisted bracket: grading and anti-supercommutativity"]["base check"] \
        == "anti-supercommutativity"
