import random

import sympy
from hypothesis import given, settings, strategies as st

from superlie import linalg
from superlie.scalars import IUNIT, GaussianRational, Rat


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
        cols = linalg.columns_of(rows, m)
        rank = linalg.span_rank(cols)
        assert rank + len(basis) == m


# ---------------------------------------------------------------------------
# the Echelon-based nullspace that the fraction-free elimination replaced,
# kept as the reference: it must give the same basis, value for value and
# type for type, once Q(i) values with a zero i part are read as rationals
# (the kernel's output convention)


def ref_nullspace(rows, ncols):
    ech = linalg.Echelon(track=True)
    out = []
    for j, col in enumerate(linalg.columns_of(rows, ncols)):
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


def typed(basis):
    """The basis with each value tagged by its type."""
    return [(j, {k: (type(c), c) for k, c in v.items()}) for j, v in basis]


def assert_same_nullspace(rows, ncols):
    got = linalg.nullspace(rows, ncols)
    want = [(j, {k: canonical(c) for k, c in v.items()}) for j, v in ref_nullspace(rows, ncols)]
    assert typed(got) == typed(want), (rows, ncols)
    assert all(type(c) is type(Rat(1)) or (isinstance(c, GaussianRational) and c.im)
               for _, v in got for c in v.values())
    return got


def random_scalar(rng, gaussian):
    x = Rat(rng.randint(-4, 4), rng.randint(1, 6))
    if gaussian and rng.random() < 0.6:
        # a third of the Gaussian entries carry a zero i part
        return GaussianRational(x, rng.choice([0, Rat(rng.randint(-3, 3), rng.randint(1, 4))]))
    return x


def test_nullspace_matches_reference_on_seeded_matrices():
    rng = random.Random(15)
    shapes = {"gaussian": 0, "empty row": 0, "wide": 0, "deficient": 0}
    for trial in range(400):
        gaussian = trial % 2 == 1
        n, m = rng.randint(0, 6), rng.randint(0, 7)
        rows = [{j: c for j in range(m) if rng.random() < 0.5
                 and (c := random_scalar(rng, gaussian))} for _ in range(n)]
        if n >= 2 and rng.random() < 0.4:  # a combination of two rows
            rows.append(linalg.vadd(rows[0], linalg.vscale(random_scalar(rng, gaussian)
                                                           or Rat(1), rows[1])))
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


def test_echelon_coords_track():
    ech = linalg.Echelon(track=True)
    v1 = {0: Rat(1), 1: Rat(2)}
    v2 = {1: Rat(1)}
    assert ech.add(v1, tag="a")
    assert ech.add(v2, tag="b")
    combo = ech.coords({0: Rat(2), 1: Rat(5)})
    assert combo == {"a": Rat(2), "b": Rat(1)}
    assert ech.coords({2: Rat(1)}) is None


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
