import pytest
from hypothesis import given, strategies as st

from superlie.abelian import DimensionError, SymmetricGroupForm, form_eval, radical_member
from superlie.scalars import Rat


def test_one_by_one_readoff():
    f = SymmetricGroupForm(gram=((2,),))
    assert form_eval(f, (1,), (1,)) == 2


def test_zero_element_pairs_to_zero():
    f = SymmetricGroupForm(gram=((2, 1), (1, -3)))
    assert form_eval(f, (0, 0), (5, -7)) == 0


def test_hyperbolic_null_vector():
    # oracle: explicit a . gram . b product
    gram = ((1, 0), (0, -1))
    f = SymmetricGroupForm(gram=gram)
    a = b = (1, 1)
    expected = sum(Rat(a[i]) * Rat(gram[i][j]) * Rat(b[j])
                   for i in range(2) for j in range(2))
    assert expected == 0
    assert form_eval(f, a, b) == expected


def test_radical_examples():
    assert radical_member(SymmetricGroupForm(gram=((0,),)), (5,))
    assert not radical_member(SymmetricGroupForm(gram=((2,),)), (1,))
    # oracle: the row product (0,3) . gram is the zero row
    gram = ((1, 0), (0, 0))
    assert all(sum(Rat(x) * Rat(gram[i][j]) for i, x in enumerate((0, 3))) == 0
               for j in range(2))
    assert radical_member(SymmetricGroupForm(gram=gram), (0, 3))


def test_rank_mismatch_raises():
    f = SymmetricGroupForm(gram=((1,),))
    with pytest.raises(DimensionError):
        form_eval(f, (1, 2), (1,))
    with pytest.raises(DimensionError):
        radical_member(f, (1, 0))


def test_asymmetric_gram_rejected():
    with pytest.raises(ValueError):
        SymmetricGroupForm(gram=((0, 1), (2, 0)))


entries = st.integers(-5, 5)


@given(st.lists(entries, min_size=2, max_size=2),
       st.lists(entries, min_size=2, max_size=2),
       st.lists(entries, min_size=2, max_size=2))
def test_symmetry_and_biadditivity(a, b, c):
    f = SymmetricGroupForm(gram=((2, -1), (-1, 3)))
    a, b, c = tuple(a), tuple(b), tuple(c)
    assert form_eval(f, a, b) == form_eval(f, b, a)
    ab = tuple(x + y for x, y in zip(a, b))
    assert form_eval(f, ab, c) == form_eval(f, a, c) + form_eval(f, b, c)


@given(st.lists(entries, min_size=3, max_size=3))
def test_radical_iff_orthogonal_to_basis(a):
    f = SymmetricGroupForm(gram=((1, 1, 0), (1, 1, 0), (0, 0, 0)))
    a = tuple(a)
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    expect = all(form_eval(f, a, e) == 0 for e in basis)
    assert radical_member(f, a) == expect


@given(st.lists(entries, min_size=2, max_size=2),
       st.lists(entries, min_size=2, max_size=2))
def test_integer_gram_is_the_least_integral_multiple(a, b):
    f = SymmetricGroupForm(gram=((Rat(2, 3), Rat(-1, 2)), (Rat(-1, 2), Rat(5, 4))))
    gram = f.integer_gram()
    assert gram == ((8, -6), (-6, 15))  # D = 12
    assert all(type(x) is int for row in gram for x in row)
    scaled = sum(x * sum(g * y for g, y in zip(row, b)) for x, row in zip(a, gram))
    assert scaled == 12 * form_eval(f, tuple(a), tuple(b))
