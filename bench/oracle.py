"""The benchmark's own exact arithmetic, used to check superlie's outputs.

Nothing here calls superlie.  Matrices and vectors from the library are
read entry by entry (numpy object arrays, nested lists or sparse dicts all
work), converted to Python integers or ``fractions.Fraction`` and checked
with plain loops, so a fault in the library's linear algebra cannot hide
behind the same fault in the check.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

class CheckError(AssertionError):
    """A library output disagrees with the benchmark's own computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def as_fraction(x) -> Fraction:
    """An exact rational scalar (int, Fraction, gmpy2 mpq) as a Fraction."""
    return Fraction(int(x.numerator), int(x.denominator))


def entry(mat, i: int, j: int):
    """mat[i, j] for numpy-style matrices, mat[i][j] for nested rows."""
    try:
        return mat[i, j]
    except (TypeError, KeyError):
        return mat[i][j]


def dense_vector(v, n: int) -> list[Fraction]:
    """A length-n vector given densely (array, list) or sparsely (dict)."""
    if isinstance(v, dict):
        return [as_fraction(v.get(i, 0)) for i in range(n)]
    return [as_fraction(v[i]) for i in range(n)]


def integer_rows(mat, n: int) -> list[list[tuple[int, int]]]:
    """Sparse integer rows [(column, value), ...] of an n x n integer matrix."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            x = as_fraction(entry(mat, i, j))
            require(x.denominator == 1, f"non-integer module entry at ({i},{j})")
            if x:
                row.append((j, x.numerator))
        rows.append(row)
    return rows


def clear_denominators(v: list[Fraction]) -> tuple[list[int], int]:
    """(w, d) with v = w / d, w integral and d > 0."""
    d = lcm(*(x.denominator for x in v)) if v else 1
    return [int(x * d) for x in v], d


def matvec(rows: list[list[tuple[int, int]]], w: list[int]) -> list[int]:
    return [sum(a * w[j] for j, a in row) for row in rows]


def exact_rank(rows: list[list]) -> int:
    """Rank over the scalars' field by Gaussian elimination.

    The entries may be any exact field elements supporting +, -, * and /
    (Fractions, or the library's Gaussian rationals).
    """
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col] / top[col]
                rows[i] = [a - c * b for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def irreducible_e_coefficient(lam: int, i: int) -> int:
    """e.v_i = c v_{i-1} on the osp(1,2) irreducible of highest weight lam."""
    return -i if i % 2 == 0 else lam - (i - 1)


def check_module_decomposition(parity, act_e, act_f, act_h, summands,
                               planted: list[int]) -> None:
    """The summands of a decomposition are the planted irreducible chains.

    Checks, with integer arithmetic of its own: the multiset of highest
    weights is the planted one; the dimensions add up; every chain vector
    is homogeneous; h, f and e act on each chain v_0..v_lam by
    h.v_i = (lam-2i) v_i, f.v_i = v_{i+1}, e.v_i = c_i v_{i-1}; and the
    chain vectors together span the module.  The h-spectrum is then the
    union of lam, lam-2, ..., -lam over the planted summands.
    """
    n = len(parity)
    lams = sorted((lam for lam, _ in summands), reverse=True)
    require(lams == sorted(planted, reverse=True),
            f"decomposition {lams} differs from the planted {sorted(planted, reverse=True)}")
    require(sum(lam + 1 for lam in lams) == n, "summand dimensions do not add up")
    spectrum = sorted(lam - 2 * i for lam, _ in summands for i in range(lam + 1))
    want = sorted(lam - 2 * i for lam in planted for i in range(lam + 1))
    require(spectrum == want, "h-spectrum of the chains differs from the planted one")
    e, f, h = (integer_rows(m, n) for m in (act_e, act_f, act_h))
    basis = []
    for lam, chain in summands:
        require(len(chain) == lam + 1, f"chain of label {lam} has {len(chain)} vectors")
        scaled = [clear_denominators(dense_vector(v, n)) for v in chain]
        for i, (w, d) in enumerate(scaled):
            pars = {parity[k] for k, x in enumerate(w) if x}
            require(len(pars) == 1, f"chain vector {i} of label {lam} is not homogeneous")
            require(matvec(h, w) == [(lam - 2 * i) * x for x in w],
                    f"h does not act by {lam - 2 * i} on chain vector {i}")
            fw = matvec(f, w)
            if i + 1 < len(scaled):
                w1, d1 = scaled[i + 1]
                require([x * d1 for x in fw] == [x * d for x in w1],
                        f"f does not shift chain vector {i} of label {lam}")
            else:
                require(not any(fw), f"f does not kill the end of the chain {lam}")
            ew = matvec(e, w)
            if i:
                w0, d0 = scaled[i - 1]
                c = irreducible_e_coefficient(lam, i)
                require([x * d0 for x in ew] == [c * x * d for x in w0],
                        f"e does not act by {c} on chain vector {i} of label {lam}")
            else:
                require(not any(ew), f"e does not kill the top of the chain {lam}")
        basis.extend(w for w, _ in scaled)
    require(exact_rank([[Fraction(x) for x in w] for w in basis]) == n,
            "the chains do not span the module")
