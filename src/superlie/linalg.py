"""Exact sparse linear algebra over the package's scalar types.

Vectors are dicts ``{index: nonzero scalar}``; an absent key means zero.
Only this module's accumulators (vsub, vaxpy_inplace, add_entry, vsum)
drop the keys whose sums cancel; every other module sums through them.
Matrices appear either as a list of sparse rows or as a list of sparse
columns, whichever the caller finds natural.  Everything is exact.  One
fraction-free elimination engine, Echelon, serves rank, membership, kernels
and solutions: its integer rows stay fully reduced (RREF up to row scaling),
so kernels and solutions are read off the stored rows.
"""

from __future__ import annotations

import math

from .scalars import GaussianInt, Rat, common_denominator, integers_over, scalar_over


def vsub(u: dict, v: dict) -> dict:
    out = dict(u)
    for k, c in v.items():
        s = out.get(k, 0) - c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def vscale(c, v: dict) -> dict:
    if not c:
        return {}
    return {k: c * x for k, x in v.items()}


def vaxpy_inplace(acc: dict, c, v: dict) -> None:
    """acc += c*v, dropping cancelled entries."""
    if not c:
        return
    for k, x in v.items():
        s = acc.get(k, 0) + c * x
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)


def add_entry(acc: dict, key, value) -> None:
    """acc[key] += value, dropping the key when the sum cancels."""
    s = acc.get(key, 0) + value
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def vsum(terms) -> dict:
    """The sparse sum of an iterable of (key, value) terms, without the keys
    whose sums cancel."""
    out: dict = {}
    for k, c in terms:
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def mat_vec(cols: list[dict], v: dict) -> dict:
    """Apply a matrix given by columns to a sparse vector."""
    out: dict = {}
    for j, c in v.items():
        vaxpy_inplace(out, c, cols[j])
    return out


class Echelon:
    """Incremental fraction-free reduced row echelon form.

    Each vector is scaled to (Gaussian) integers over its own denominator
    and reduced against the stored rows.  A new row's pivot, its lowest
    index, is made a positive int (a Gaussian pivot p times its conjugate),
    and the stored rows are cleared at it, so the rows stay reduced against
    each other (_eliminate).  rowof maps each pivot index to its row.
    """

    def __init__(self):
        self.rowof: dict = {}  # pivot index -> integer row, the pivot a positive int

    @property
    def rank(self) -> int:
        return len(self.rowof)

    def _reduce(self, v: dict) -> dict:
        v = integers_over(v, common_denominator(v.values()))
        for p in [p for p in v if p in self.rowof]:
            v = _eliminate(v, p, self.rowof[p])
        return {k: c for k, c in v.items() if c}

    def add(self, v: dict) -> bool:
        """Insert v; True if the rank grew, False if v was already in the span."""
        row = self._reduce(v)
        if not row:
            return False
        j = min(row)
        p = row[j]
        if type(p) is GaussianInt:  # times conj(p): the pivot becomes |p|^2
            row = vscale(GaussianInt(p.re, -p.im), row)
            row[j] = p.re * p.re + p.im * p.im
        elif p < 0:
            row = vscale(-1, row)
        for q, other in self.rowof.items():
            self.rowof[q] = _eliminate(other, j, row)
        self.rowof[j] = row
        return True

    def contains(self, v: dict) -> bool:
        return not self._reduce(v)


def span_rank(vectors) -> int:
    ech = Echelon()
    for v in vectors:
        ech.add(v)
    return ech.rank


def block_rows(cols, idxs) -> list[dict]:
    """Sparse rows of the idxs x idxs block of a matrix given by columns.

    Entries are indexed by position in ``idxs``; entries outside the block
    are dropped.
    """
    back = {b: t for t, b in enumerate(idxs)}
    rows: list[dict] = [{} for _ in back]
    for t, b in enumerate(idxs):
        for k, c in cols[b].items():
            if k in back:
                rows[back[k]][t] = c
    return rows


def minus_identity(rows: list[dict], c) -> list[dict]:
    """Sparse rows of M - c*I for a square M given by sparse rows."""
    out = []
    for i, row in enumerate(rows):
        row = dict(row)
        add_entry(row, i, -c)
        out.append(row)
    return out


def solver(rows: list[dict], ncols: int):
    """Factor M (given by sparse rows) once for many right-hand sides.

    Returns a function taking rhs (a sparse vector over the row indices)
    to the exact solution x of M x = rhs as a sparse dict, or to None when
    there is none; x is zero at every free column.  Row i enters the
    echelon form as [M_i | e_i] (the unit vector at index ncols + i), so a
    stored row is [R_r | E_r] with E_r M = R_r: R_r has its pivot q at a
    column of M, and x[q] = (E_r rhs) / R_r[q], or its pivot in the second
    block, and then E_r rhs must vanish.
    """
    ech = Echelon()
    for i, row in enumerate(rows):
        ech.add({**row, ncols + i: 1})
    combos: list[dict] = [{} for _ in rows]  # combos[i][q] = E_r[i] for r at pivot q
    for q, r in ech.rowof.items():
        for k, c in r.items():
            if k >= ncols:
                combos[k - ncols][q] = c

    def solve(rhs: dict):
        s = common_denominator(rhs.values())
        x = mat_vec(combos, integers_over(rhs, s))
        if any(q >= ncols for q in x):
            return None
        return {q: scalar_over(n, s * ech.rowof[q][q]) for q, n in sorted(x.items())}
    return solve


def nullspace(rows: list[dict], ncols: int) -> list[tuple[int, dict]]:
    """Kernel basis of M (sparse rows) as (free column, vector) pairs.

    A free column j has no pivot in the reduced row echelon form R of M.
    Its kernel vector has entry 1 at j, 0 at every other free column and
    -R[r][j] / R[r][q] at the pivot column q of each row r, so coordinates
    over this basis can be read off at the free columns.
    """
    ech = Echelon()
    for row in rows:
        ech.add(row)
    pivots = sorted(ech.rowof.items())
    return [(j, {j: Rat(1), **{q: scalar_over(r[j] * -1, r[q]) for q, r in pivots if j in r}})
            for j in range(ncols) if j not in ech.rowof]


def _eliminate(row: dict, j, pivot_row: dict) -> dict:
    """The integer row cleared at column j by the pivot row and divided by
    the gcd of its integer parts (real and imaginary)."""
    c = row.get(j)
    if not c:
        return row
    out = vscale(pivot_row[j], row)
    vaxpy_inplace(out, c * -1, pivot_row)
    g = math.gcd(*[n for x in out.values()
                   for n in ((x.re, x.im) if type(x) is GaussianInt else (x,))])
    if g < 2:  # 0 for an empty row
        return out
    return {k: GaussianInt(x.re // g, x.im // g) if type(x) is GaussianInt else x // g
            for k, x in out.items()}


def dense_to_rows(mat: list[list]) -> list[dict]:
    return [{j: c for j, c in enumerate(row) if c} for row in mat]


def gram_nondegenerate(gram: list[list]) -> bool:
    rows = dense_to_rows(gram)
    return span_rank(rows) == len(gram)


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form basis of the integer row lattice.

    Returns the nonzero basis rows ordered by pivot column: pivots positive,
    entries above each pivot reduced into [0, pivot).  Two integer lattices
    are equal iff their HNFs coincide.
    """
    pending = [list(r) for r in rows if any(r)]
    if not pending:
        return []
    ncols = len(pending[0])
    out: list[list[int]] = []
    col = 0
    while pending and col < ncols:
        live = [r for r in pending if r[col]]
        if not live:
            col += 1
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            piv = live[0]
            for r in live[1:]:
                q = r[col] // piv[col]
                for j in range(col, ncols):
                    r[j] -= q * piv[j]
            live = [r for r in live if r[col]]
        piv = live[0]
        if piv[col] < 0:
            piv[:] = [-x for x in piv]
        out.append(piv)
        pending = [r for r in pending if r is not piv and any(r)]
        col += 1
    for i, b in enumerate(out):
        p = next(j for j, x in enumerate(b) if x)
        for a in out[:i]:
            q = a[p] // b[p]
            if q:
                for j in range(ncols):
                    a[j] -= q * b[j]
    return out


def lattice_coords(basis: list[list[int]], vec: list[int]):
    """Integer coordinates of vec over an HNF basis, or None if outside."""
    v = list(vec)
    coords = []
    for b in basis:
        p = next(j for j, x in enumerate(b) if x)
        if v[p] % b[p]:
            return None
        q = v[p] // b[p]
        coords.append(q)
        if q:
            for j in range(len(v)):
                v[j] -= q * b[j]
    if any(v):
        return None
    return coords
