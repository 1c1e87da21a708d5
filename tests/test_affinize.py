import pytest

from superlie import (AffinizedAlgebra, CocycleTorus, osp12_standard, torus_mul,
                      trivial_torus, verify_affinized, verify_cocycle,
                      weight_decomposition, window_box)
from superlie.affinize import (WindowExceededError,
                               affinized_roots, d_term, loop_term, v_term,
                               window_root_system)
from superlie.matrixsuper import plain_index_set, sl_superalgebra
from superlie.rootsys import check_axioms
from superlie.scalars import Rat
from test_kernel import form, scaled


def idx(label):
    from superlie.osp12 import OSP_LABELS
    return OSP_LABELS.index(label)


def osp_affinization(rank=1, q=None):
    L = osp12_standard()
    datum = weight_decomposition(L)
    if q is None:
        torus = trivial_torus(rank)
    else:
        torus = CocycleTorus(rank=rank, qmatrix=tuple(
            tuple(Rat(q) if i != j else Rat(1) for j in range(rank))
            for i in range(rank)))
    return AffinizedAlgebra(L, datum, torus)


def test_torus_mul_trivial():
    t = trivial_torus(1)
    assert torus_mul(t, (2,), (3,)) == (Rat(1), (5,))
    assert torus_mul(t, (0,), (7,)) == (Rat(1), (7,))


def test_torus_mul_sign_cocycle():
    t = CocycleTorus(rank=2, qmatrix=((Rat(1), Rat(-1)), (Rat(-1), Rat(1))))
    coeff, deg = torus_mul(t, (1, 0), (0, 1))
    assert coeff == Rat(-1) and deg == (1, 1)
    # normalization survives: theta(0, mu) = 1
    assert torus_mul(t, (0, 0), (3, -2))[0] == Rat(1)


def test_verify_cocycle_trivial_and_sign():
    degrees = window_box(1, 3)
    assert verify_cocycle(trivial_torus(1), degrees).passed
    t = CocycleTorus(rank=2, qmatrix=((Rat(1), Rat(-1)), (Rat(-1), Rat(1))))
    assert verify_cocycle(t, window_box(2, 2)).passed


def test_verify_cocycle_table_normalization_failure():
    degrees = [(-1,), (0,), (1,)]
    table = {}
    for a in degrees:
        for b in degrees:
            table[(a, b)] = Rat(1)
    table[((0,), (0,))] = Rat(2)
    t = CocycleTorus(rank=1, table=table)
    rep = verify_cocycle(t, degrees)
    assert not rep.passed


def test_table_window_exceeded():
    t = CocycleTorus(rank=1, table={((0,), (0,)): Rat(1)})
    with pytest.raises(WindowExceededError):
        t.theta((1,), (0,))


def test_theta_memo_does_not_cache_window_misses():
    L = osp12_standard()
    t = CocycleTorus(rank=1, table={((0,), (0,)): Rat(1)})
    alg = AffinizedAlgebra(L, weight_decomposition(L), t)
    assert alg.theta((0,), (0,)) == 1
    for _ in range(2):
        with pytest.raises(WindowExceededError):
            alg.theta((1,), (0,))
    with pytest.raises(WindowExceededError):
        alg.bracket(loop_term(idx("H"), (1,)), loop_term(idx("H"), (0,)))
    assert list(alg._theta) == [((0,), (0,))]


def test_derivation_action():
    alg = osp_affinization()
    x = loop_term(idx("F+"), (5,))
    out = alg.bracket(d_term(0), x)
    assert out == scaled(x, Rat(5))
    assert alg.bracket(x, d_term(0)) == scaled(x, Rat(-5))


def test_v_is_central():
    alg = osp_affinization()
    for other in (loop_term(idx("H"), (2,)), v_term(0), d_term(0)):
        assert not alg.bracket(v_term(0), other)
        assert not alg.bracket(other, v_term(0))


def test_central_term_of_loop_bracket():
    alg = osp_affinization()
    # str(F+ F-) = -4, so the degree-matched bracket picks up -4 * lambda
    x = loop_term(idx("F+"), (1,))
    y = loop_term(idx("F-"), (-1,))
    out = alg.bracket(x, y)
    assert out.loop == {(idx("H"), (0,)): Rat(1)}
    assert out.v == {0: Rat(-4)}
    assert not out.d


def test_form_values():
    alg = osp_affinization()
    assert form(alg, v_term(0), d_term(0)) == Rat(1)
    assert form(alg, loop_term(idx("F+"), (1,)), loop_term(idx("F-"), (2,))) == Rat(0)
    assert form(alg, loop_term(idx("F+"), (1,)),
                    loop_term(idx("F-"), (-1,))) == Rat(-4)


def test_affinized_roots_zero_window_recovers_base():
    alg = osp_affinization()
    spaces = affinized_roots(alg, [(0,)])
    assert len(spaces) == len(alg.datum.roots)
    zero = alg.datum.zero
    assert len(spaces[(zero, (0,))]) == 1 + 2  # H plus v and d
    a = (Rat(2),)
    assert len(spaces[(a, (0,))]) == 1


def test_affinized_roots_window_dims():
    alg = osp_affinization()
    degrees = window_box(1, 1)
    spaces = affinized_roots(alg, degrees)
    assert len(spaces) == 5 * 3
    for (root, deg), basis in spaces.items():
        if root == alg.datum.zero and deg == (0,):
            continue
        assert len(basis) == len(alg.datum.spaces[root])


def test_verify_affinized_passes_trivial_and_sign():
    alg = osp_affinization()
    assert verify_affinized(alg, window_box(1, 2), samples=150, seed=2).passed
    alg2 = osp_affinization(q=-1)
    assert verify_affinized(alg2, window_box(1, 2), samples=150, seed=2).passed


def test_verify_affinized_sl12_rank2():
    L = sl_superalgebra(plain_index_set(1, 2))
    datum = weight_decomposition(L)
    alg = AffinizedAlgebra(L, datum, trivial_torus(2))
    assert verify_affinized(alg, window_box(2, 1), samples=150, seed=4).passed


def test_corrupted_form_fails_invariance():
    class Corrupted(AffinizedAlgebra):
        def form_terms(self, X, Y, terms):
            # drop the degree-matching condition of the pairing (the form,
            # and so the pair table of verify_affinized, runs on these terms)
            gram = self.base.integer_tables[1]
            terms += [(c1 * c2 * gram[b1][b2], d1, d2)
                      for (b1, d1), c1 in X[0].items()
                      for (b2, d2), c2 in Y[0].items() if gram[b1][b2]]
            return sum(n * Y[2].get(k, 0) for k, n in X[1].items()) \
                + sum(n * Y[1].get(k, 0) for k, n in X[2].items())

    L = osp12_standard()
    datum = weight_decomposition(L)
    alg = Corrupted(L, datum, trivial_torus(1))
    rep = verify_affinized(alg, window_box(1, 1), samples=200, seed=1)
    assert not rep.passed
    failed = " ".join(c.name for c in rep.failures())
    assert "invariance" in failed or "form" in failed


def test_windowed_root_system_has_boundary_semantics():
    alg = osp_affinization()
    system = window_root_system(alg, window_box(1, 2))
    rep = check_axioms(system)
    assert rep.passed
    # degrees outside the window must be unknown, not failures
    assert not system.is_known((0, 3))
    assert system.is_known((1, -2))


def test_bracket_degree_additivity_exhaustive_small():
    alg = osp_affinization()
    degrees = window_box(1, 1)
    for b1 in range(5):
        for b2 in range(5):
            for d1 in degrees:
                for d2 in degrees:
                    out = alg.bracket(loop_term(b1, d1), loop_term(b2, d2))
                    for (_, deg) in out.loop:
                        assert deg == (d1[0] + d2[0],)
