import random

import sympy
from hypothesis import given, settings, strategies as st

from superlie import linalg
from superlie.scalars import IUNIT, GaussianInt, GaussianRational, Rat
from test_scalars import sdiv


def dense(rows):
    return [{j: Rat(x) for j, x in enumerate(row) if x} for row in rows]


def dot(u, v):
    """The dot product of two sparse vectors."""
    return sum((c * v[k] for k, c in u.items() if k in v), Rat(0))


def test_solve_identity():
    rows = dense([[1, 0], [0, 1]])
    rhs = {0: Rat(3), 1: Rat(-2)}
    assert linalg.solver(rows, 2)(rhs) == rhs


def test_solve_scalar_division():
    assert linalg.solver(dense([[2]]), 1)({0: Rat(3)}) == {0: Rat(3, 2)}


def test_solve_no_solution():
    assert linalg.solver(dense([[0]]), 1)({0: Rat(1)}) is None


def test_solve_remultiplication_random():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 6)
        rows = [{j: Rat(rng.randint(-3, 3)) for j in range(n) if rng.random() < 0.6}
                for _ in range(n)]
        rows = [{j: c for j, c in r.items() if c} for r in rows]
        x = linalg.solver(rows, n)({0: Rat(1)})
        if x is None:
            continue
        out = {}
        for i, row in enumerate(rows):
            val = dot(row, x)
            if val:
                out[i] = val
        assert out == {0: Rat(1)}


def test_nullspace_annihilates():
    rng = random.Random(11)
    for _ in range(25):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = [{j: Rat(rng.randint(-2, 2)) for j in range(m) if rng.random() < 0.5}
                for _ in range(n)]
        rows = [{j: c for j, c in r.items() if c} for r in rows]
        basis = linalg.nullspace(rows, m)
        free = [j for j, _ in basis]
        for j, v in basis:
            for row in rows:
                assert not dot(row, v)
            # 1 at its own free column, 0 at every other free column
            assert [v.get(f, 0) for f in free] == [int(f == j) for f in free]
        cols = columns_of(rows, m)
        rank = linalg.span_rank(cols)
        assert rank + len(basis) == m


# ---------------------------------------------------------------------------
# the reference engine: the Rat reduced row echelon form with combination
# tracking that the fraction-free Echelon replaced, with the nullspace and
# solver built on it.  The fraction-free engine must give the same add
# verdicts, ranks, memberships, kernel bases and solutions, value for value
# and type for type, once Q(i) values with a zero i part are read as
# rationals (the engine's output convention)


class RefEchelon:
    """Incremental Rat RREF; every stored row knows its expression as a
    combination of the vectors handed to add, keyed by their tags."""

    def __init__(self):
        self.rowof: dict = {}    # pivot index -> row dict (pivot entry == 1)
        self.comboof: dict = {}  # pivot index -> combination dict
        self._count = 0

    @property
    def rank(self) -> int:
        return len(self.rowof)

    def reduce(self, v: dict):
        """Return (residual, combo) with v = residual + sum(combo[t] * added[t])."""
        v = {k: c for k, c in v.items() if c}
        combo: dict = {}
        for p in [p for p in v if p in self.rowof]:
            c = v.get(p)
            if not c:
                continue
            linalg.vaxpy_inplace(v, -c, self.rowof[p])
            linalg.vaxpy_inplace(combo, c, self.comboof[p])
        return v, combo

    def add(self, v: dict, tag=None) -> bool:
        if tag is None:
            tag = self._count
        self._count += 1
        res, combo = self.reduce(v)
        if not res:
            return False
        piv = min(res)
        inv = sdiv(1, res[piv])
        row = {k: c * inv for k, c in res.items()}
        rcombo = {t: -c * inv for t, c in combo.items()}
        linalg.vaxpy_inplace(rcombo, inv, {tag: Rat(1)})
        for p, other in self.rowof.items():
            c = other.get(piv)
            if c:
                linalg.vaxpy_inplace(other, -c, row)
                linalg.vaxpy_inplace(self.comboof[p], -c, rcombo)
        self.rowof[piv] = row
        self.comboof[piv] = rcombo
        return True

    def contains(self, v: dict) -> bool:
        return not self.reduce(v)[0]

    def coords(self, v: dict):
        """Express v over the added vectors' tags, or None if not in the span."""
        res, combo = self.reduce(v)
        return None if res else combo


def columns_of(rows: list[dict], ncols: int) -> list[dict]:
    """The transpose: sparse columns of a matrix given by sparse rows."""
    cols: list[dict] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, c in row.items():
            if c:
                cols[j][i] = c
    return cols


def ref_solver(rows, ncols):
    """Columns introduced in index order, each tagged by its index."""
    ech = RefEchelon()
    for j, col in enumerate(columns_of(rows, ncols)):
        ech.add(col, tag=j)
    return ech.coords


def ref_nullspace(rows, ncols):
    ech = RefEchelon()
    out = []
    for j, col in enumerate(columns_of(rows, ncols)):
        res, combo = ech.reduce(col)
        if res:
            ech.add(col, tag=j)
        else:
            null = {j: Rat(1)}
            null.update((t, -c) for t, c in combo.items())
            out.append((j, null))
    return out


def canonical(x):
    return x.re if isinstance(x, GaussianRational) and not x.im else x


def typed_vector(v: dict) -> dict:
    """The vector with each value tagged by its type."""
    return {k: (type(c), c) for k, c in v.items()}


def typed(basis):
    return [(j, typed_vector(v)) for j, v in basis]


def canonical_vector(v: dict) -> dict:
    return {k: canonical(c) for k, c in v.items()}


def assert_canonical(v: dict):
    """Every value is a Rat, or a Q(i) value with a nonzero i part."""
    assert all(type(c) is type(Rat(1)) or (isinstance(c, GaussianRational) and c.im)
               for c in v.values()), v


def assert_same_nullspace(rows, ncols):
    got = linalg.nullspace(rows, ncols)
    want = [(j, canonical_vector(v)) for j, v in ref_nullspace(rows, ncols)]
    assert typed(got) == typed(want), (rows, ncols)
    for _, v in got:
        assert_canonical(v)
    return got


def assert_same_engine(rows, ncols, probes, rhss):
    """Equal add verdicts and ranks row by row, memberships of the probes,
    and solutions (or None) for the right-hand sides; returns the number
    of right-hand sides without a solution."""
    ech, ref = linalg.Echelon(), RefEchelon()
    for row in rows:
        assert ech.add(row) == ref.add(row), rows
        assert ech.rank == ref.rank
    for v in probes:
        assert ech.contains(v) == ref.contains(v), (rows, v)
    solve, ref_solve = linalg.solver(rows, ncols), ref_solver(rows, ncols)
    unsolved = 0
    for rhs in rhss:
        got, want = solve(rhs), ref_solve(rhs)
        if want is None:
            assert got is None, (rows, rhs)
            unsolved += 1
            continue
        assert typed_vector(got) == typed_vector(canonical_vector(want)), (rows, rhs)
        assert_canonical(got)
    return unsolved


def random_scalar(rng, gaussian):
    x = Rat(rng.randint(-4, 4), rng.randint(1, 6))
    if gaussian and rng.random() < 0.6:
        # a third of the Gaussian entries carry a zero i part
        return GaussianRational(x, rng.choice([0, Rat(rng.randint(-3, 3), rng.randint(1, 4))]))
    return x


def seeded_system(rng, gaussian):
    """(rows, ncols): up to 6 rows (some empty) over up to 7 columns, with a
    combination of the first two rows appended 40% of the time."""
    n, m = rng.randint(0, 6), rng.randint(0, 7)
    rows = [{j: c for j in range(m) if rng.random() < 0.5
             and (c := random_scalar(rng, gaussian))} for _ in range(n)]
    if n >= 2 and rng.random() < 0.4:  # a combination of two rows
        rows.append(linalg.vsum([*rows[0].items(), *linalg.vscale(
            random_scalar(rng, gaussian) or Rat(1), rows[1]).items()]))
    return rows, m


def image(rows, x):
    """M x for M given by sparse rows."""
    return {i: v for i, row in enumerate(rows) if (v := dot(row, x))}


def test_nullspace_matches_reference_on_seeded_matrices():
    rng = random.Random(15)
    shapes = {"gaussian": 0, "empty row": 0, "wide": 0, "deficient": 0}
    for trial in range(400):
        gaussian = trial % 2 == 1
        rows, m = seeded_system(rng, gaussian)
        basis = assert_same_nullspace(rows, m)
        shapes["gaussian"] += any(isinstance(c, GaussianRational) for _, v in basis
                                  for c in v.values())
        shapes["empty row"] += any(not row for row in rows)
        shapes["wide"] += m > len(rows)
        shapes["deficient"] += len(basis) > max(0, m - len(rows))
    assert all(shapes.values()), shapes


def test_nullspace_of_large_entries_and_explicit_zeros():
    rows = [{0: Rat(10 ** 12, 7), 1: Rat(3, 10 ** 9), 2: Rat(0)},
            {0: Rat(-2), 2: GaussianRational(Rat(1, 3), 0)},
            {},
            {1: GaussianRational(0, Rat(5, 2)), 3: IUNIT}]
    assert len(assert_same_nullspace(rows, 5)) == 2


def test_echelon_and_solver_match_reference_on_seeded_systems():
    """Right-hand sides: images M x (always solvable), vectors over the rows
    (unsolvable when M is rank-deficient) and zero."""
    rng = random.Random(20)
    shapes = {"gaussian": 0, "empty row": 0, "wide": 0, "dependent": 0, "unsolvable": 0}
    for trial in range(400):
        gaussian = trial % 2 == 1
        rows, m = seeded_system(rng, gaussian)

        def vector(size):
            return {k: c for k in range(size) if rng.random() < 0.6
                    and (c := random_scalar(rng, gaussian))}
        probes = [vector(m) for _ in range(3)] + [image(columns_of(rows, m), vector(len(rows)))]
        rhss = [image(rows, vector(m)), vector(len(rows)), vector(len(rows)), {}]
        unsolved = assert_same_engine(rows, m, probes, rhss)
        shapes["gaussian"] += gaussian
        shapes["empty row"] += any(not row for row in rows)
        shapes["wide"] += m > len(rows)
        shapes["dependent"] += linalg.span_rank(rows) < len(rows)
        shapes["unsolvable"] += unsolved
    assert all(shapes.values()), shapes


def test_echelon_rows_are_reduced_integers():
    """Each stored row is integral (int or GaussianInt), its pivot is its
    lowest index and a positive int, and no other row has an entry there;
    the solver reads x from these rows."""
    rng = random.Random(3)
    for trial in range(60):
        rows, _ = seeded_system(rng, trial % 2 == 1)
        ech = linalg.Echelon()
        for row in rows:
            ech.add(row)
        for q, r in ech.rowof.items():
            assert min(r) == q and type(r[q]) is int and r[q] > 0
            assert all(type(c) in (int, GaussianInt) and c for c in r.values())
            assert all(q not in other for p, other in ech.rowof.items() if p != q)
    rows = [{0: Rat(1)}, {0: Rat(2), 1: Rat(1)}, {}]  # columns (1, 2, 0), (0, 1, 0)
    solve = linalg.solver(rows, 2)
    assert solve({0: Rat(2), 1: Rat(5)}) == {0: Rat(2), 1: Rat(1)}
    assert solve({2: Rat(1)}) is None


def test_hnf_lattice_invariance():
    base = [[2, 0, 1], [0, 3, 1]]
    shuffled = [[0, 3, 1], [2, 3, 2], [-2, 0, -1]]
    assert linalg.hnf(base) == linalg.hnf(shuffled)
    full = linalg.hnf([[1, 0], [0, 1], [5, 7]])
    assert full == [[1, 0], [0, 1]]


def test_lattice_coords_membership():
    basis = linalg.hnf([[2, 0], [0, 3]])
    assert linalg.lattice_coords(basis, [4, -3]) == [2, -1]
    assert linalg.lattice_coords(basis, [1, 0]) is None


def test_hnf_of_empty_and_zero():
    assert linalg.hnf([]) == []
    assert linalg.hnf([[0, 0]]) == []


# ---------------------------------------------------------------------------
# sympy oracles: rank, kernel and solutions of small random matrices over Q
# and Q(i), from sympy's own exact elimination.  A reduced row echelon form
# is unique, so the kernel basis (1 at its free column, 0 at the others) and
# the solution that is zero at every free column are unique too, and are
# compared entry by entry.

def _sym(x):
    return sympy.Rational(x.numerator, x.denominator)


def to_sympy(x):
    if isinstance(x, GaussianRational):
        return _sym(x.re) + sympy.I * _sym(x.im)
    return _sym(Rat(x))


def from_sympy(z):
    re, im = (sympy.Rational(part) for part in sympy.expand_complex(z).as_real_imag())
    re, im = Rat(int(re.p), int(re.q)), Rat(int(im.p), int(im.q))
    return GaussianRational(re, im) if im else re


def _iszero(z):
    return sympy.expand_complex(z) == 0


def sympy_matrix(rows, ncols):
    return sympy.Matrix(len(rows), ncols, lambda i, j: to_sympy(rows[i].get(j, 0)))


def sparse(vec) -> dict:
    return {j: c for j, c in ((j, from_sympy(z)) for j, z in enumerate(vec)) if c}


rationals = st.builds(Rat, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))


def scalars(gaussian: bool):
    if not gaussian:
        return rationals
    return st.builds(GaussianRational, rationals, rationals)


@st.composite
def systems(draw):
    """(rows, ncols, field) with at most 5 rows and columns; a product
    A B through a narrow middle dimension makes rank-deficient systems."""
    gaussian = draw(st.booleans())
    entry = st.one_of(st.just(Rat(0)), scalars(gaussian))
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))

    def dense_of(r, c):
        return [[draw(entry) for _ in range(c)] for _ in range(r)]

    if draw(st.booleans()):
        mat = dense_of(n, m)
    else:
        k = draw(st.integers(1, min(n, m)))
        a, b = dense_of(n, k), dense_of(k, m)
        mat = [[sum((a[i][t] * b[t][j] for t in range(k)), Rat(0)) for j in range(m)]
               for i in range(n)]
    rows = [{j: c for j, c in enumerate(row) if c} for row in mat]
    return rows, m, gaussian


@settings(max_examples=80, deadline=None)
@given(systems())
def test_span_rank_matches_sympy(system):
    rows, ncols, _ = system
    assert linalg.span_rank(rows) == sympy_matrix(rows, ncols).rank(iszerofunc=_iszero)


@settings(max_examples=80, deadline=None)
@given(systems())
def test_nullspace_matches_sympy(system):
    rows, ncols, _ = system
    want = [sparse(v) for v in sympy_matrix(rows, ncols).nullspace(iszerofunc=_iszero)]
    assert [v for _, v in linalg.nullspace(rows, ncols)] == want


def sympy_solution(rows, ncols, rhs):
    """The solution that is zero at every free column, or None."""
    b = sympy.Matrix(len(rows), 1, lambda i, _: to_sympy(rhs.get(i, 0)))
    try:
        sol, params = sympy_matrix(rows, ncols).gauss_jordan_solve(b)
    except ValueError:  # no solution
        return None
    return sparse(sol.subs({t: 0 for t in params}))


@settings(max_examples=80, deadline=None)
@given(systems())
def test_nullspace_matches_reference_on_drawn_systems(system):
    assert_same_nullspace(*system[:2])


@settings(max_examples=80, deadline=None)
@given(systems(), st.data())
def test_echelon_and_solver_match_reference_on_drawn_systems(system, data):
    rows, ncols, gaussian = system
    entry = st.one_of(st.just(Rat(0)), scalars(gaussian))

    def vector(size):
        return {k: c for k in range(size) if (c := data.draw(entry))}
    probes = [vector(ncols), image(columns_of(rows, ncols), vector(len(rows)))]
    rhss = [image(rows, vector(ncols)), vector(len(rows)), {}]
    assert_same_engine(rows, ncols, probes, rhss)


@settings(max_examples=60, deadline=None)
@given(systems(), st.data())
def test_solver_matches_sympy_on_several_right_hand_sides(system, data):
    """One factored solver answers every right-hand side: images M x (always
    solvable) and arbitrary vectors (unsolvable when M is rank-deficient)."""
    rows, ncols, gaussian = system
    solve = linalg.solver(rows, ncols)
    entry = st.one_of(st.just(Rat(0)), scalars(gaussian))
    for _ in range(4):
        if data.draw(st.booleans()):
            x = {j: data.draw(entry) for j in range(ncols)}
            rhs = {i: v for i, v in enumerate(dot(row, x) for row in rows) if v}
        else:
            rhs = {i: v for i in range(len(rows)) if (v := data.draw(entry))}
        assert solve(rhs) == sympy_solution(rows, ncols, rhs)


def test_solver_reports_no_solution_outside_the_column_space():
    rows = dense([[1, 2], [2, 4]])  # rank 1, column space spanned by (1, 2)
    solve = linalg.solver(rows, 2)
    assert solve({0: Rat(1), 1: Rat(3)}) is None
    assert sympy_solution(rows, 2, {0: Rat(1), 1: Rat(3)}) is None
    assert solve({0: Rat(3), 1: Rat(6)}) == {0: Rat(3)}
    assert solve({0: Rat(1), 1: Rat(2)}) == {0: Rat(1)}
