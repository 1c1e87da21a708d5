import random

from superlie import linalg
from superlie.scalars import Rat


def dense(rows):
    return [{j: Rat(x) for j, x in enumerate(row) if x} for row in rows]


def test_solve_identity():
    rows = dense([[1, 0], [0, 1]])
    rhs = {0: Rat(3), 1: Rat(-2)}
    assert linalg.solve(rows, 2, rhs) == rhs


def test_solve_scalar_division():
    assert linalg.solve(dense([[2]]), 1, {0: Rat(3)}) == {0: Rat(3, 2)}


def test_solve_no_solution():
    assert linalg.solve(dense([[0]]), 1, {0: Rat(1)}) is None


def test_solve_remultiplication_random():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 6)
        rows = [{j: Rat(rng.randint(-3, 3)) for j in range(n) if rng.random() < 0.6}
                for _ in range(n)]
        rows = [{j: c for j, c in r.items() if c} for r in rows]
        x = linalg.solve(rows, n, {0: Rat(1)})
        if x is None:
            continue
        out = {}
        for i, row in enumerate(rows):
            val = linalg.vdot(row, x)
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
                assert not linalg.vdot(row, v)
            # 1 at its own free column, 0 at every other free column
            assert [v.get(f, 0) for f in free] == [int(f == j) for f in free]
        cols = linalg.columns_of(rows, m)
        rank = linalg.span_rank(cols)
        assert rank + len(basis) == m


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
