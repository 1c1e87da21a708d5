import pytest

from superlie import (LieSuperalgebra, even_part, verify_eals, verify_form,
                      verify_superalgebra, weight_decomposition)
from superlie.affinize import axiom1_witnesses
from superlie.algebra import NotAWeightBasisError, t_alpha_vector
from superlie.fixtures import heisenberg, osp12_broken
from superlie.osp12 import OSP_LABELS, OSP_PARITY, _SUPER_MATRICES, osp12_standard
from superlie.scalars import Rat, super_sign

# A dense 3x3 oracle for osp(1|2), sharing no code with the sparse
# supermatrix builder that constructs the algebra.
_INDEX_PARITY = (0, 1, 1)  # grading of the defining 3-dim superspace


def mat3_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
                 for i in range(3))


def mat3_supercomm(a, pa, b, pb):
    sign = super_sign(pa, pb)
    ab, ba = mat3_mul(a, b), mat3_mul(b, a)
    return tuple(tuple(ab[i][j] - sign * ba[i][j] for j in range(3)) for i in range(3))


def mat3_supertrace(a):
    return sum((-1 if _INDEX_PARITY[i] else 1) * a[i][i] for i in range(3))


def idx(label):
    return OSP_LABELS.index(label)


def as_matrix(v):
    """3x3 matrix oracle: realize a sparse algebra element as a matrix."""
    out = [[Rat(0)] * 3 for _ in range(3)]
    for b, c in v.items():
        m = _SUPER_MATRICES[OSP_LABELS[b]]
        for i in range(3):
            for j in range(3):
                out[i][j] = out[i][j] + c * m[i][j]
    return tuple(tuple(row) for row in out)


def test_bracket_agrees_with_matrix_supercommutator_on_all_pairs():
    L = osp12_standard()
    for a in range(5):
        for b in range(5):
            got = as_matrix(L.bracket_basis(a, b))
            want = mat3_supercomm(_SUPER_MATRICES[OSP_LABELS[a]], OSP_PARITY[a],
                                  _SUPER_MATRICES[OSP_LABELS[b]], OSP_PARITY[b])
            want = tuple(tuple(Rat(x) for x in row) for row in want)
            assert got == want, (OSP_LABELS[a], OSP_LABELS[b])


def test_specific_brackets():
    L = osp12_standard()
    H, Fp, Fm = idx("H"), idx("F+"), idx("F-")
    assert L.bracket_basis(H, Fp) == {Fp: Rat(2)}
    assert L.bracket_basis(Fp, Fm) == {H: Rat(1)}
    # even homogeneous x: [x, x] = 0
    x = {idx("E+"): Rat(2), idx("H"): Rat(-3)}
    assert L.bracket(x, x) == {}


def test_bracket_index_out_of_range():
    L = osp12_standard()
    with pytest.raises(IndexError):
        L.bracket({7: Rat(1)}, {0: Rat(1)})


def test_verify_superalgebra_pass_and_fail():
    assert verify_superalgebra(osp12_standard()).passed
    rep = verify_superalgebra(osp12_broken())
    assert not rep.passed
    names = [c.name for c in rep.failures()]
    assert any("Jacobi" in n or "anti" in n for n in names)
    assert all(c.witness for c in rep.failures())


def test_one_dimensional_abelian_algebra_passes():
    L = LieSuperalgebra(basis_labels=("z",), parity=(0,), structure={})
    assert verify_superalgebra(L).passed


def test_supertrace_gram_oracle():
    L = osp12_standard()
    mats = [_SUPER_MATRICES[l] for l in OSP_LABELS]
    for a in range(5):
        for b in range(5):
            assert L.gram[a][b] == Rat(mat3_supertrace(mat3_mul(mats[a], mats[b])))
    assert verify_form(L).passed


def test_identity_gram_fails_invariance():
    L = osp12_standard()
    eye = tuple(tuple(Rat(1) if i == j else Rat(0) for j in range(5))
                for i in range(5))
    broken = LieSuperalgebra(basis_labels=L.basis_labels, parity=L.parity,
                             structure=L.structure, gram=eye,
                             cartan=L.cartan, weights=L.weights)
    rep = verify_form(broken)
    failed = [c.name for c in rep.failures()]
    assert "invariance" in failed


def test_trivial_algebra_with_unit_gram_passes():
    L = LieSuperalgebra(basis_labels=("z",), parity=(0,), structure={},
                        gram=((Rat(1),),))
    assert verify_form(L).passed


def test_weight_decomposition_osp12():
    L = osp12_standard()
    datum = weight_decomposition(L)
    a = (Rat(2),)
    assert set(datum.roots) == {(Rat(k),) for k in (-4, -2, 0, 2, 4)}
    assert datum.even_roots == {(Rat(k),) for k in (-4, 0, 4)}
    assert datum.odd_roots == {(Rat(2),), (Rat(-2),)}
    assert t_alpha_vector(datum, a) == {idx("H"): Rat(-1, 4)}
    assert datum.root_form(a, a) == Rat(-1, 2)
    # h_alpha = 2 t_alpha / (a, a) recovers H itself
    coeff = 2 / datum.root_form(a, a)
    h_alpha = {k: coeff * v for k, v in t_alpha_vector(datum, a).items()}
    assert h_alpha == {idx("H"): Rat(1)}


def test_weight_decomposition_trivial_roots():
    datum = weight_decomposition(heisenberg())
    assert datum.roots == ((Rat(0),),)


def test_weight_decomposition_rejects_wrong_weights():
    L = osp12_standard()
    bad = dict(L.weights)
    bad[idx("F+")] = (Rat(3),)
    broken = LieSuperalgebra(basis_labels=L.basis_labels, parity=L.parity,
                             structure=L.structure, gram=L.gram,
                             cartan=L.cartan, weights=bad)
    with pytest.raises(NotAWeightBasisError):
        weight_decomposition(broken)


def test_verify_eals_osp12_with_witness():
    L = osp12_standard()
    datum = weight_decomposition(L)
    rep = verify_eals(L, datum)
    assert rep.passed
    wits = axiom1_witnesses(L, datum)
    assert wits[((Rat(2),), 1)] == (idx("F+"), idx("F-"))


def test_verify_eals_vacuous_on_trivial_roots():
    L = heisenberg()
    datum = weight_decomposition(L)
    assert verify_eals(L, datum).passed


def test_truncated_algebra_fails_prerequisites():
    # dropping F- leaves brackets that leave the span: not a superalgebra
    L = osp12_standard()
    keep = [0, 1, 2, 3]
    structure = {}
    for (i, j), c in L.structure.items():
        if i in keep and j in keep:
            structure[(i, j)] = {k: v for k, v in c.items() if k in keep}
    trunc = LieSuperalgebra(basis_labels=tuple(L.basis_labels[i] for i in keep),
                            parity=tuple(L.parity[i] for i in keep),
                            structure=structure)
    assert not verify_superalgebra(trunc).passed


def test_even_part_of_osp12_is_three_dimensional():
    L = osp12_standard()
    ev = even_part(L)
    assert ev.basis_labels == ("E+", "E-", "H")
    assert verify_superalgebra(ev).passed
    assert verify_form(ev).passed
    datum = weight_decomposition(ev)
    assert verify_eals(ev, datum).passed
    assert all(p == 0 for p in ev.parity)


def test_even_part_of_purely_even_algebra_is_itself():
    L = LieSuperalgebra(basis_labels=("a", "b"), parity=(0, 0), structure={})
    assert even_part(L).basis_labels == ("a", "b")


def test_even_part_parity_count_sl12():
    from superlie.matrixsuper import plain_index_set, sl_superalgebra
    L = sl_superalgebra(plain_index_set(1, 2))
    expected = sum(1 for p in L.parity if p == 0)
    assert even_part(L).dim == expected == 4
