"""Finitely generated free abelian groups Z^n with rational symmetric forms.

Group elements are plain integer tuples (coordinates in the fixed basis);
forms are Gram matrices of exact rationals.  The radical of a form is the
set of elements pairing to zero with everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .scalars import Rat


class DimensionError(ValueError):
    """Rank/shape mismatch between group elements and a form."""


def gadd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def gneg(a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in a)


def gscale(k: int, a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(k * x for x in a)


@dataclass(frozen=True)
class SymmetricGroupForm:
    """Symmetric biadditive form on Z^rank, given by its Gram matrix."""

    gram: tuple[tuple, ...]

    def __post_init__(self):
        n = len(self.gram)
        try:
            gram = tuple(tuple(Rat(x) for x in row) for row in self.gram)
        except TypeError:
            raise ValueError("gram matrix entries must be rational") from None
        object.__setattr__(self, "gram", gram)
        for row in gram:
            if len(row) != n:
                raise DimensionError("gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if gram[i][j] != gram[j][i]:
                    raise ValueError(f"gram matrix not symmetric at ({i},{j})")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def _check(self, a):
        if len(a) != self.rank:
            raise DimensionError(f"element of rank {len(a)} against form of rank {self.rank}")

    def eval(self, a: tuple[int, ...], b: tuple[int, ...]):
        """The form value (a, b) = a . gram . b."""
        self._check(a)
        self._check(b)
        total = Rat(0)
        for i, ai in enumerate(a):
            if not ai:
                continue
            row = self.gram[i]
            for j, bj in enumerate(b):
                if bj:
                    total = total + ai * bj * row[j]
        return total

    def integer_gram(self) -> tuple[tuple[int, ...], ...]:
        """D * gram as int rows, D the lcm of the entries' denominators.

        D (a, b) is then the integer dot product of a with (D * gram) b.
        """
        d = lcm(*(int(x.denominator) for row in self.gram for x in row))
        return tuple(tuple(int(x.numerator) * (d // int(x.denominator)) for x in row)
                     for row in self.gram)

    def in_radical(self, a: tuple[int, ...]) -> bool:
        """True iff (a, b) = 0 for every b, i.e. a . gram = 0."""
        self._check(a)
        for j in range(self.rank):
            total = Rat(0)
            for i, ai in enumerate(a):
                if ai:
                    total = total + ai * self.gram[i][j]
            if total:
                return False
        return True


def form_eval(form: SymmetricGroupForm, a, b):
    return form.eval(tuple(a), tuple(b))


def radical_member(form: SymmetricGroupForm, a) -> bool:
    return form.in_radical(tuple(a))
