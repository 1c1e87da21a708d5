import re

import pytest
from hypothesis import given, strategies as st

from superlie.scalars import (GaussianRational, IUNIT, Rat, scalar_from_string,
                              scalar_to_string, spow)

rationals = st.builds(Rat, st.integers(-40, 40), st.integers(1, 23))
gaussians = st.builds(GaussianRational, rationals, rationals)
scalars = st.one_of(rationals, gaussians)


def sdiv(x, y):
    """x / y for mixed scalar kinds; the reference code of the tests
    divides with it."""
    if isinstance(x, GaussianRational) or isinstance(y, GaussianRational):
        x = x if isinstance(x, GaussianRational) else GaussianRational(x)
        return x / y if isinstance(y, GaussianRational) else x / Rat(y)
    return Rat(x) / Rat(y)


def test_imaginary_unit_is_a_fourth_primitive_root():
    assert IUNIT ** 2 == Rat(-1)
    assert IUNIT ** 2 != Rat(1)
    assert IUNIT ** 4 == Rat(1)


@given(scalars, scalars, scalars)
def test_field_axioms_add_mul(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars)
def test_nonzero_elements_invert(a):
    if not a:
        return
    assert sdiv(1, a) * a == Rat(1)
    assert sdiv(a, a) == Rat(1)


def test_negative_powers():
    assert spow(Rat(2), -3) == Rat(1, 8)
    assert spow(GaussianRational(0, 1), -1) == GaussianRational(0, -1)
    assert spow(Rat(-1), 5) == Rat(-1)


def test_serialization_fixed_points():
    assert scalar_to_string(Rat(3, 4)) == "3/4"
    assert scalar_to_string(Rat(-7)) == "-7"
    assert scalar_to_string(GaussianRational(Rat(1, 2), Rat(-2, 3))) == "1/2-2/3*i"
    assert scalar_to_string(GaussianRational(0, 1)) == "1*i"
    assert scalar_from_string("1/2-2/3*i") == GaussianRational(Rat(1, 2), Rat(-2, 3))
    assert scalar_from_string("-i") == GaussianRational(0, -1)
    assert scalar_from_string("5") == Rat(5)


@given(scalars)
def test_serialization_round_trip(a):
    assert scalar_from_string(scalar_to_string(a)) == a


def test_bad_scalar_strings_rejected():
    for text in ("", "one", "1//2", "2+2"):
        try:
            scalar_from_string(text)
        except ValueError:
            continue
        raise AssertionError(f"{text!r} parsed unexpectedly")


def test_unsigned_imaginary_fraction_round_trip():
    # an unsigned fractional coefficient must not be split across parts
    a = GaussianRational(0, Rat(1, 10))
    assert scalar_to_string(a) == "1/10*i"
    assert scalar_from_string("1/10*i") == a
    assert scalar_from_string("1/12*i") == GaussianRational(0, Rat(1, 12))


def test_zero_denominators_rejected():
    for text, part in (("1/0", "1/0"), ("-3/0", "-3/0"), ("1/0*i", "1/0"),
                       ("2+1/0*i", "1/0"), ("1/0+i", "1/0"), ("1/2-0/0*i", "-0/0")):
        with pytest.raises(ValueError, match=f"zero denominator in '{re.escape(part)}'"):
            scalar_from_string(text)
