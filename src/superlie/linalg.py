"""Exact sparse linear algebra over the package's scalar types.

Vectors are dicts ``{index: nonzero scalar}``; an absent key means zero.
Only this module's accumulators (vadd, vsub, vaxpy_inplace, add_entry,
vsum) drop the keys whose sums cancel; every other module sums through them.
Matrices appear either as a list of sparse rows or as a list of sparse
columns, whichever the caller finds natural.  Everything is exact; the
elimination engine keeps rows fully reduced (RREF invariant) so coordinate
extraction is a single reduction pass.
"""

from __future__ import annotations

import math

from .scalars import (GaussianInt, Rat, common_denominator, integers_over, scalar_over,
                      sdiv)


def vadd(u: dict, v: dict) -> dict:
    out = dict(u)
    for k, c in v.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


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
    """Incremental reduced row echelon form with optional combination tracking.

    With ``track=True`` every stored row knows its expression as a linear
    combination of the vectors handed to :meth:`add`, keyed by their tags.
    """

    def __init__(self, track: bool = False):
        self.track = track
        self.rowof: dict = {}    # pivot index -> row dict (pivot entry == 1)
        self.comboof: dict = {}  # pivot index -> combination dict (track mode)
        self._count = 0

    @property
    def rank(self) -> int:
        return len(self.rowof)

    def reduce(self, v: dict):
        """Return (residual, combo) with v = residual + sum(combo[t] * added[t])."""
        v = dict(v)
        combo: dict = {}
        for p in [p for p in v if p in self.rowof]:
            c = v.get(p)
            if not c:
                continue
            vaxpy_inplace(v, -c, self.rowof[p])
            if self.track:
                vaxpy_inplace(combo, c, self.comboof[p])
        return v, combo

    def add(self, v: dict, tag=None) -> bool:
        """Insert v; True if the rank grew, False if v was already in the span."""
        if tag is None:
            tag = self._count
        self._count += 1
        res, combo = self.reduce(v)
        if not res:
            return False
        piv = min(res)
        inv = sdiv(1, res[piv])
        row = {k: c * inv for k, c in res.items()}
        if self.track:
            rcombo = {t: -c * inv for t, c in combo.items()}
            # rcombo expresses the normalized row over the added vectors
            vaxpy_inplace(rcombo, inv, {tag: Rat(1)})
        else:
            rcombo = None
        # keep existing rows reduced against the new pivot
        for p, other in self.rowof.items():
            c = other.get(piv)
            if c:
                vaxpy_inplace(other, -c, row)
                if self.track:
                    occ = self.comboof[p]
                    vaxpy_inplace(occ, -c, rcombo)
        self.rowof[piv] = row
        if self.track:
            self.comboof[piv] = rcombo
        return True

    def contains(self, v: dict) -> bool:
        res, _ = self.reduce(v)
        return not res

    def coords(self, v: dict):
        """Express v over the added vectors' tags, or None if not in the span."""
        res, combo = self.reduce(v)
        if res:
            return None
        return combo


def span_rank(vectors) -> int:
    ech = Echelon()
    for v in vectors:
        ech.add(v)
    return ech.rank


def columns_of(rows: list[dict], ncols: int) -> list[dict]:
    """The transpose: sparse columns of a matrix given by sparse rows (or back)."""
    cols: list[dict] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, c in row.items():
            if c:
                cols[j][i] = c
    return cols


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

    Returns a function taking rhs to the exact solution x of M x = rhs as a
    sparse dict, or to None when there is none.  Deterministic pivoting:
    columns are introduced in index order and each takes the lowest
    available row index as pivot, so x is zero at every free column.
    """
    ech = Echelon(track=True)
    for j, col in enumerate(columns_of(rows, ncols)):
        ech.add(col, tag=j)
    return ech.coords


def nullspace(rows: list[dict], ncols: int) -> list[tuple[int, dict]]:
    """Kernel basis of M (sparse rows) as (free column, vector) pairs.

    A free column j has no pivot in the reduced row echelon form R of M.
    Its kernel vector has entry 1 at j, 0 at every other free column and
    -R[r][j] at the pivot column of each row r, so coordinates over this
    basis can be read off at the free columns.  Fraction-free: rows are
    scaled to (Gaussian) integers, pivots made positive integers, and
    scalars formed only for the output entries.
    """
    pending = [integers_over(row, common_denominator(row.values()))
               for row in ({k: c for k, c in row.items() if c} for row in rows) if row]
    pivots: dict = {}  # pivot column -> integer row, the pivot a positive int
    free = []
    for j in range(ncols):
        found = next((r for r in pending if j in r), None)
        if found is None:
            free.append(j)
            continue
        p = found[j]
        if type(p) is GaussianInt:  # times conj(p): the pivot becomes |p|^2
            at = vscale(GaussianInt(p.re, -p.im), found)
            at[j] = p.re * p.re + p.im * p.im
        else:
            at = vscale(-1, found) if p < 0 else found
        pending = [r for r in (_eliminate(r, j, at) for r in pending if r is not found) if r]
        pivots = {q: _eliminate(r, j, at) for q, r in pivots.items()}
        pivots[j] = at
    return [(j, {j: Rat(1), **{q: scalar_over(r[j] * -1, r[q])
                                for q, r in pivots.items() if j in r}}) for j in free]


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
