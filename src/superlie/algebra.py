"""Lie superalgebras presented by structure constants.

An algebra is a finite homogeneous basis, a parity per basis element, the
full bracket tensor [b_i, b_j] in basis coordinates, and optionally an
invariant bilinear form (Gram matrix), a Cartan subset of the basis, and a
weight table.  Verification routines check the defining axioms exactly and
return reports with first-failure witnesses.

Conventions: elements are sparse dicts over basis indices; |x| denotes the
parity of a homogeneous element; the graded Jacobi identity is used in its
cyclic form

    (-1)^{|x||z|}[[x,y],z] + (-1)^{|z||y|}[[z,x],y] + (-1)^{|y||x|}[[y,z],x] = 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from . import linalg
from .linalg import vaxpy_inplace
from .reports import Report
from .scalars import (Rat, as_scalar, common_denominator, integer_over, scalar_key,
                      scalar_to_string, scalars_over, super_sign)


class NotAWeightBasisError(ValueError):
    """The declared weight table fails [h, b] = wt_b(h) b on some pair."""


@dataclass(frozen=True)
class LieSuperalgebra:
    basis_labels: tuple[str, ...]
    parity: tuple[int, ...]
    structure: dict  # (i, j) -> {k: scalar}; absent pair means zero bracket
    gram: tuple | None = None          # tuple of tuples of scalars
    cartan: tuple[int, ...] | None = None
    weights: dict | None = None        # basis index -> tuple over cartan order
    field: str = "Q"

    @property
    def dim(self) -> int:
        return len(self.basis_labels)

    @cached_property
    def integer_tables(self) -> tuple:
        """(rows, gram, D): the structure constants and Gram matrix as
        integers over one denominator D, compiled once on this object.

        rows[i][j] is a tuple of (k, n) with [b_i, b_j] = sum n/D b_k, and
        gram[i][j] is D times the Gram entry (gram is None without a form).
        Entries are ints, or GaussianInts for Gaussian constants.  D is the
        lcm of every denominator, 1 for each built-in algebra.
        """
        values = [c for row in self.structure.values() for c in row.values()]
        if self.gram is not None:
            values += [g for row in self.gram for g in row]
        D = common_denominator(values)
        rows = [[() for _ in range(self.dim)] for _ in range(self.dim)]
        for (i, j), row in self.structure.items():
            rows[i][j] = tuple((k, integer_over(c, D)) for k, c in row.items() if c)
        gram = None if self.gram is None else \
            tuple(tuple(integer_over(g, D) for g in row) for row in self.gram)
        return rows, gram, D

    def bracket_basis(self, i: int, j: int) -> dict:
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError(f"basis index out of range: ({i}, {j})")
        return self.structure.get((i, j), {})

    def bracket(self, x: dict, y: dict) -> dict:
        """Bilinear extension of the structure constants."""
        out: dict = {}
        for i, xi in x.items():
            if not (0 <= i < self.dim):
                raise IndexError(f"basis index out of range: {i}")
            for j, yj in y.items():
                cij = self.structure.get((i, j))
                if cij:
                    vaxpy_inplace(out, xi * yj, cij)
        for j in y:
            if not (0 <= j < self.dim):
                raise IndexError(f"basis index out of range: {j}")
        return out

    def form(self, x: dict, y: dict):
        if self.gram is None:
            raise ValueError("algebra has no bilinear form")
        total = Rat(0)
        for i, xi in x.items():
            row = self.gram[i]
            for j, yj in y.items():
                if row[j]:
                    total = total + xi * yj * row[j]
        return total

    def parity_of(self, v: dict):
        """0 or 1 for homogeneous nonzero v, None for zero or mixed."""
        seen = {self.parity[i] for i in v}
        return seen.pop() if len(seen) == 1 else None

    def label_vector(self, v: dict) -> str:
        terms = []
        for i in sorted(v):
            terms.append(f"{scalar_to_string(v[i])}*{self.basis_labels[i]}")
        return " + ".join(terms) if terms else "0"


@dataclass
class RootDatum:
    """Roots of a weight decomposition and the form transferred to them.

    Roots are tuples of scalars (values on the Cartan basis, in Cartan
    order).  t_alpha maps each root to the Cartan coefficient vector of its
    representative; the transferred form is (a, b) = t_a . gram . t_b.
    """

    cartan: tuple[int, ...]
    roots: tuple = ()
    even_roots: frozenset = frozenset()
    odd_roots: frozenset = frozenset()
    spaces: dict = field(default_factory=dict)       # root -> tuple of basis indices
    t_alpha: dict = field(default_factory=dict)      # root -> {cartan position: scalar}
    cartan_gram: tuple = ()

    def root_form(self, a, b):
        """Transferred form (a,b) = (t_a, t_b); equals sum t_a[l] * b[l]."""
        ta = self.t_alpha[a]
        total = Rat(0)
        for l, c in ta.items():
            total = total + c * b[l]
        return total

    def is_real(self, a) -> bool:
        return bool(self.root_form(a, a))

    @property
    def zero(self):
        return tuple(Rat(0) for _ in self.cartan)


def _antisymmetry_failure(L: LieSuperalgebra):
    """The least (i, j), i <= j, with [b_i, b_j] != -(-1)^{|i||j|} [b_j, b_i].
    This search and the two below run on L.integer_tables over the nonzero
    entries, and the least failure is the first in itertools order; only
    its witness is evaluated in scalars."""
    rows, parity = L.integer_tables[0], L.parity
    return min(((i, j) for i, j in {(min(p), max(p)) for p in L.structure}
                if dict(rows[i][j]) != {k: -super_sign(parity[i], parity[j]) * n
                                        for k, n in rows[j][i]}), default=None)


def _jacobi_failure(L: LieSuperalgebra):
    """The least triple i <= j <= k with a nonzero cyclic Jacobi sum (module
    docstring) and that sum times D², or None: each nonzero term s [[a, b], c],
    s = (-1)^{|a||c|}, goes to the sorted one of (a, b, c), (b, c, a), (c, a, b)."""
    rows, parity = L.integer_tables[0], L.parity
    sums = linalg.vsum(((t, k), super_sign(parity[a], parity[c]) * n * m)
                       for (a, b) in L.structure for l, n in rows[a][b]
                       for c, row in enumerate(rows[l]) if row
                       for t in ((a, b, c), (b, c, a), (c, a, b)) if t[0] <= t[1] <= t[2]
                       for k, m in row)
    bad = min((t for t, _ in sums), default=None)
    return bad and (bad, {k: n for (t, k), n in sums.items() if t == bad})


def verify_superalgebra(L: LieSuperalgebra) -> Report:
    """Grading, anti-supercommutativity, and the graded Jacobi identity."""
    rep = Report(title="superalgebra axioms")
    labels, parity = L.basis_labels, L.parity
    rep.first_failure("bracket grading", (
        {"pair": (labels[i], labels[j]), "component": labels[k]}
        for (i, j), c in L.structure.items() for k, x in c.items()
        if x and parity[k] != (parity[i] + parity[j]) % 2))

    bad = _antisymmetry_failure(L)
    rep.check("anti-supercommutativity", bad is None, bad and {
        "pair": (labels[bad[0]], labels[bad[1]]),
        "residual": L.label_vector(linalg.vsub(L.bracket_basis(*bad), linalg.vscale(
            -super_sign(parity[bad[0]], parity[bad[1]]), L.bracket_basis(*bad[::-1]))))})

    bad = _jacobi_failure(L)
    rep.check("graded Jacobi identity", bad is None, bad and {
        "triple": [labels[t] for t in bad[0]],
        "residual": L.label_vector(scalars_over(bad[1], L.integer_tables[2] ** 2))})
    return rep


def _invariance_failure(L: LieSuperalgebra):
    """The least (i, j, k) with f([b_i, b_j], b_k) != f(b_i, [b_j, b_k]): each
    c_ab^l times the nonzero Gram row of l goes to (a, b, k), less times the
    nonzero Gram column of l to (h, a, b)."""
    rows, gram, _ = L.integer_tables
    gram_rows = [[(k, g) for k, g in enumerate(row) if g] for row in gram]
    gram_cols = [[(h, -1 * g) for h, g in enumerate(col) if g] for col in zip(*gram)]
    return min(linalg.vsum(term for (a, b) in L.structure for l, n in rows[a][b]
                           for term in itertools.chain(
                               (((a, b, k), n * g) for k, g in gram_rows[l]),
                               (((h, a, b), g * n) for h, g in gram_cols[l]))), default=None)


def verify_form(L: LieSuperalgebra) -> Report:
    """Supersymmetry, evenness, invariance, and nondegeneracy of the form."""
    if L.gram is None:
        raise ValueError("algebra has no bilinear form to verify")
    rep = Report(title="bilinear form")
    labels, parity, g, gram = L.basis_labels, L.parity, L.gram, L.integer_tables[1]
    nonzero = sorted({(i, j) for i, row in enumerate(gram) for j, x in enumerate(row) if x})
    rep.first_failure("supersymmetry", (
        {"pair": (labels[i], labels[j])}
        for i, j in sorted(set(nonzero) | {(j, i) for i, j in nonzero})
        if gram[i][j] != super_sign(parity[i], parity[j]) * gram[j][i]))
    rep.first_failure("evenness", (
        {"pair": (labels[i], labels[j])} for i, j in nonzero if parity[i] != parity[j]))

    bad = _invariance_failure(L)
    rep.check("invariance", bad is None, bad and {
        "triple": tuple(labels[t] for t in bad),
        "lhs": L.form(L.bracket_basis(bad[0], bad[1]), {bad[2]: Rat(1)}),
        "rhs": L.form({bad[0]: Rat(1)}, L.bracket_basis(bad[1], bad[2]))})

    rep.check("nondegeneracy", linalg.gram_nondegenerate([list(r) for r in g]), None)

    if L.cartan is not None:
        block = [[g[i][j] for j in L.cartan] for i in L.cartan]
        rep.check("nondegeneracy on the Cartan part",
                  linalg.gram_nondegenerate(block), None)

    if L.weights is not None and L.cartan is not None:
        w = L.weights
        rep.first_failure("weight spaces pair only across opposite weights", (
            {"pair": (labels[i], labels[j]), "weights": (w[i], w[j])}
            for i, j in nonzero if any(a + b for a, b in zip(w[i], w[j]))))
    return rep


def weight_decomposition(L: LieSuperalgebra) -> RootDatum:
    """Verify the declared weight table and assemble the root datum.

    Requires a Cartan subset (even, weight zero) and a weight per basis
    element; verifies [h, b] = wt_b(h) b for every Cartan h and basis b,
    then computes each root's Cartan representative by solving against the
    Cartan Gram block.
    """
    if L.cartan is None or L.weights is None:
        raise ValueError("weight decomposition needs cartan and weights")
    if L.gram is None:
        raise ValueError("weight decomposition needs the bilinear form")
    m = len(L.cartan)
    for pos, h in enumerate(L.cartan):
        if L.parity[h]:
            raise NotAWeightBasisError(f"Cartan element {L.basis_labels[h]} is odd")
        if any(L.weights[h]):
            raise NotAWeightBasisError(
                f"Cartan element {L.basis_labels[h]} has nonzero weight")
    for b in range(L.dim):
        wt = L.weights[b]
        if len(wt) != m:
            raise NotAWeightBasisError(f"weight of {L.basis_labels[b]} has wrong length")
        for pos, h in enumerate(L.cartan):
            got = L.bracket_basis(h, b)
            want = {b: Rat(1) * wt[pos]} if wt[pos] else {}
            if got != want:
                raise NotAWeightBasisError(
                    f"[{L.basis_labels[h]}, {L.basis_labels[b]}] = "
                    f"{L.label_vector(got)}, expected {L.label_vector(want)}")

    spaces: dict = {}
    even_roots, odd_roots = set(), set()
    for b in range(L.dim):
        wt = tuple(as_scalar(w) for w in L.weights[b])
        spaces.setdefault(wt, []).append(b)
        (odd_roots if L.parity[b] else even_roots).add(wt)

    cartan_gram = tuple(tuple(L.gram[i][j] for j in L.cartan) for i in L.cartan)
    gram_rows = [{j: c for j, c in enumerate(row) if c} for row in cartan_gram]
    solve = linalg.solver(gram_rows, m)
    t_alpha = {}
    for root in spaces:
        rhs = {l: root[l] for l in range(m) if root[l]}
        sol = solve(rhs)
        if sol is None:
            raise ValueError("form on the Cartan part does not represent root "
                             + str([str(x) for x in root]))
        t_alpha[root] = sol

    roots = tuple(sorted(spaces, key=lambda r: tuple(scalar_key(x) for x in r)))
    return RootDatum(
        cartan=tuple(L.cartan),
        roots=roots,
        even_roots=frozenset(even_roots),
        odd_roots=frozenset(odd_roots),
        spaces={r: tuple(sorted(spaces[r])) for r in roots},
        t_alpha=t_alpha,
        cartan_gram=cartan_gram,
    )


def t_alpha_vector(datum: RootDatum, root) -> dict:
    """t_alpha as a sparse vector over the algebra's basis indices."""
    return {datum.cartan[l]: c for l, c in datum.t_alpha[root].items() if c}


def even_part(L: LieSuperalgebra) -> LieSuperalgebra:
    """Restriction to the even basis indices (a plain Lie algebra)."""
    keep = [i for i in range(L.dim) if L.parity[i] == 0]
    reindex = {old: new for new, old in enumerate(keep)}
    structure = {}
    for (i, j), c in L.structure.items():
        if i in reindex and j in reindex:
            newc = {reindex[k]: x for k, x in c.items() if k in reindex and x}
            # components outside the even part cannot occur for a graded bracket
            if newc:
                structure[(reindex[i], reindex[j])] = newc
    gram = None
    if L.gram is not None:
        gram = tuple(tuple(L.gram[i][j] for j in keep) for i in keep)
    cartan = None
    if L.cartan is not None:
        cartan = tuple(reindex[i] for i in L.cartan if i in reindex)
    weights = None
    if L.weights is not None:
        weights = {reindex[i]: L.weights[i] for i in keep}
    return LieSuperalgebra(
        basis_labels=tuple(L.basis_labels[i] for i in keep),
        parity=tuple(0 for _ in keep),
        structure=structure,
        gram=gram,
        cartan=cartan,
        weights=weights,
        field=L.field,
    )


def structural_root_checks(L: LieSuperalgebra, datum: RootDatum) -> Report:
    """Exhaustive structural facts about the root system of a verified algebra."""
    rep = Report(title="structural root facts")
    zero = datum.zero
    roots = set(datum.roots)
    real = sorted((r for r in datum.roots if datum.is_real(r)), key=str)
    r0 = datum.even_roots
    r1 = datum.odd_roots

    def dbl(r):
        return tuple(x + x for x in r)

    rep.first_failure("odd real root doubles into an even root", (
        {"root": a} for a in real if a in r1 and dbl(a) not in r0))
    rep.first_failure("no real root doubles into an odd root", (
        {"root": a} for a in real if dbl(a) in r1))
    rep.first_failure("real roots with no double are even", (
        {"root": a} for a in real if dbl(a) not in roots and a not in r0))

    even = sorted(r0, key=str)
    rep.first_failure("isotropic even roots are orthogonal to all even roots", (
        {"roots": (a, b)} for a in even if not datum.root_form(a, a)
        for b in even if datum.root_form(a, b)))

    nonsingular = {a for a in datum.roots
                   if a != zero and not datum.root_form(a, a)
                   and any(datum.root_form(a, b) for b in datum.roots)}
    rep.first_failure("no nonzero even root is nonsingular-isotropic", (
        {"root": a} for a in sorted(nonsingular & r0, key=str)))

    if all(L.parity[i] == 0 for i in datum.spaces.get(zero, ())):
        rep.first_failure("no nonzero root is both even and odd", (
            {"root": a} for a in sorted((r0 & r1) - {zero}, key=str)))
    else:
        rep.skip("no nonzero root is both even and odd",
                 {"reason": "zero weight space is not purely even"})

    ordered = sorted(datum.roots, key=str)
    rep.first_failure("non-orthogonal roots connect by a step", (
        {"roots": (a, b)} for a in ordered for b in ordered
        if datum.root_form(a, b)
        and tuple(x + y for x, y in zip(a, b)) not in roots
        and tuple(y - x for x, y in zip(a, b)) not in roots))
    return rep
