"""Exact scalars: rationals and Gaussian rationals.

Every computation in this package is exact.  Plain rational numbers are the
default coefficient domain; constructions that need a fourth primitive root
of unity work over the Gaussian rationals, where ``i`` plays that role
(``i**4 == 1``, ``i**2 == -1``).

The rational backend is gmpy2's ``mpq`` when available (much faster gcd),
otherwise ``fractions.Fraction``.  Both expose ``.numerator``/``.denominator``
and interoperate with ``int``, so the rest of the package treats rationals
duck-typed through the ``Rat`` constructor.
"""

from __future__ import annotations

import math
import re

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rat

QZERO = Rat(0)


def super_sign(p, q):
    """(-1)^{pq} for parities p and q; None (zero or mixed) counts as even."""
    return -1 if (p and q) else 1


def is_rat(x) -> bool:
    """True for exact rationals (int included), False for Gaussian scalars."""
    return isinstance(x, int) or (hasattr(x, "numerator") and not isinstance(x, GaussianRational))


class GaussianRational:
    """An element a + b*i of Q(i), with exact rational a, b.

    Supports mixed arithmetic with ints and rationals; hashable and usable as
    a dict value alongside plain rationals.  Instances are immutable.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Rat(re))
        object.__setattr__(self, "im", Rat(im))

    def __setattr__(self, *a):
        raise AttributeError("GaussianRational is immutable")

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if is_rat(other):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        if is_rat(other):
            return GaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self.__add__(-other) if isinstance(other, GaussianRational) else (
            GaussianRational(self.re - other, self.im) if is_rat(other) else NotImplemented)

    def __rsub__(self, other):
        if is_rat(other):
            return GaussianRational(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re * other.re - self.im * other.im,
                                    self.re * other.im + self.im * other.re)
        if is_rat(other):
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            return self * other.inverse()
        if is_rat(other):
            return GaussianRational(self.re / other, self.im / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if is_rat(other):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        out = GaussianRational(1)
        for _ in range(abs(n)):
            out = out * base
        return out

    def __repr__(self):
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self):
        return scalar_to_string(self)


IUNIT = GaussianRational(0, 1)


class GaussianInt:
    """An element re + im*i of Z[i]: the integer pairs of the bracket kernel.

    Mixes with integers (Python ints, or gmpy2's mpz) under + and *, and
    compares with them; zero is falsy.  Instances are never mutated, and
    they are not hashable (the kernel keeps them only as values).
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianInt):
            return self.re == other.re and self.im == other.im
        return not self.im and self.re == other

    def __add__(self, other):
        if isinstance(other, GaussianInt):
            return GaussianInt(self.re + other.re, self.im + other.im)
        return GaussianInt(self.re + other, self.im)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, GaussianInt):
            return GaussianInt(self.re * other.re - self.im * other.im,
                               self.re * other.im + self.im * other.re)
        return GaussianInt(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __repr__(self):
        return f"GaussianInt({self.re}, {self.im})"


def common_denominator(values) -> int:
    """The least positive s with s*x integral for every value (Gaussian
    values need both parts integral)."""
    try:
        return math.lcm(*[x.denominator for x in values])
    except AttributeError:  # Gaussian values among them
        return math.lcm(*[d for x in values for d in
                          ((x.re.denominator, x.im.denominator)
                           if isinstance(x, GaussianRational) else (x.denominator,))])


def integer_over(x, s):
    """s*x as an integer, or a GaussianInt for a Gaussian x with nonzero
    imaginary part; s is a multiple of x's denominator."""
    if isinstance(x, GaussianRational):
        if x.im:
            return GaussianInt(x.re.numerator * (s // x.re.denominator),
                               x.im.numerator * (s // x.im.denominator))
        x = x.re
    return x.numerator * (s // x.denominator)


def integers_over(values: dict, s) -> dict:
    """{k: s*x} for the scalars x of values (see integer_over)."""
    try:
        if s == 1:
            return {k: x.numerator for k, x in values.items()}
        return {k: x.numerator * (s // x.denominator) for k, x in values.items()}
    except AttributeError:  # Gaussian values among them
        return {k: integer_over(x, s) for k, x in values.items()}


def scalar_over(n, s):
    """The scalar n/s for an integer or GaussianInt n and a positive int s.

    A Gaussian value with zero imaginary part comes back as a rational.
    """
    if type(n) is GaussianInt:
        if n.im:
            return GaussianRational(Rat(n.re, s), Rat(n.im, s))
        n = n.re
    return Rat(n, s)


def scalars_over(values: dict, s) -> dict:
    """{k: n/s} for the integers n of values (see scalar_over)."""
    try:
        if s == 1:
            return {k: Rat(n) for k, n in values.items()}
        return {k: Rat(n, s) for k, n in values.items()}
    except TypeError:  # GaussianInts among them
        return {k: scalar_over(n, s) for k, n in values.items()}


def scalar_key(x):
    """Total-order key for scalars (Gaussian ones sort by (re, im))."""
    if isinstance(x, GaussianRational):
        return (x.re, x.im)
    return (Rat(x), QZERO)


def as_scalar(x):
    """Canonicalize ints/rationals through Rat; Gaussian scalars unchanged."""
    return x if isinstance(x, GaussianRational) else Rat(x)


def spow(x, n: int):
    """x**n for any scalar, with exact inversion for negative n."""
    if isinstance(x, GaussianRational):
        return x ** n
    if n < 0:
        return Rat(1) / Rat(x) ** (-n)
    return Rat(x) ** n


def _rat_to_string(r) -> str:
    r = Rat(r)
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def scalar_to_string(x) -> str:
    """Serialize a scalar as "p/q" or "p/q+r/s*i" (exact, reparseable)."""
    if isinstance(x, GaussianRational):
        if not x.im:
            return _rat_to_string(x.re)
        im = _rat_to_string(x.im)
        sign = "+" if not im.startswith("-") else ""
        if not x.re:
            return f"{im}*i"
        return f"{_rat_to_string(x.re)}{sign}{im}*i"
    return _rat_to_string(x)


_RAT = r"[+-]?\d+(?:/\d+)?"
_REAL_RE = re.compile(rf"^{_RAT}$")
_PURE_IM_RE = re.compile(rf"^(?P<co>{_RAT}\s*\*\s*|[+-]?)i$")
# with both parts present, the imaginary term must carry an explicit sign,
# so a fraction can never be split across the two groups
_FULL_RE = re.compile(
    rf"^(?P<re>{_RAT})\s*(?P<im>[+-]\s*\d+(?:/\d+)?\s*\*\s*|[+-])i$")


def _parse_rat(text: str):
    text = text.replace(" ", "")
    if text.startswith("+"):
        text = text[1:]
    if "/" in text:
        num, den = text.split("/")
        if not int(den):
            raise ValueError(f"zero denominator in {text!r}")
        return Rat(int(num), int(den))
    return Rat(int(text))


def _parse_im_coeff(text: str):
    text = text.replace(" ", "").rstrip("*")
    if text in ("", "+"):
        return Rat(1)
    if text == "-":
        return Rat(-1)
    return _parse_rat(text)


def scalar_from_string(text: str):
    """Parse "p/q", "p/q+r/s*i", "-i", "3*i", ... back into a scalar."""
    if not isinstance(text, str):
        raise ValueError(f"not an exact scalar: {text!r}")
    t = text.strip()
    if _REAL_RE.match(t):
        return _parse_rat(t)
    m = _PURE_IM_RE.match(t)
    if m:
        return GaussianRational(Rat(0), _parse_im_coeff(m.group("co")))
    m = _FULL_RE.match(t)
    if m:
        return GaussianRational(_parse_rat(m.group("re")),
                                _parse_im_coeff(m.group("im")))
    raise ValueError(f"not an exact scalar: {text!r}")
