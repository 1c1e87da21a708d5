"""The base checks on the integer tables against their scalar references.

verify_superalgebra and verify_form search anti-supercommutativity, graded
Jacobi, supersymmetry, evenness and invariance on ``L.integer_tables``,
over the nonzero structure only.  The scalar bodies they replaced are kept
here unchanged: every basis pair or triple in itertools order, through
``L.bracket`` and ``L.form``.  Both must give byte-identical reports (the
same first witness included) on the fixtures, on sl(m|n) up to dim 48, on
BC(1,1) over Q(i), and on perturbations of one structure constant or one
Gram entry.
"""

import dataclasses
import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from superlie import fixtures, linalg
from superlie.algebra import verify_form, verify_superalgebra
from superlie.matrixsuper import SuperIndexSet, plain_index_set, sl_superalgebra
from superlie.reports import Report
from superlie.scalars import IUNIT, Rat, super_sign


def _jacobi_residual(L, i, j, k):
    pi, pj, pk = L.parity[i], L.parity[j], L.parity[k]
    res = {}
    linalg.vaxpy_inplace(res, super_sign(pi, pk), L.bracket(L.bracket_basis(i, j), {k: Rat(1)}))
    linalg.vaxpy_inplace(res, super_sign(pk, pj), L.bracket(L.bracket_basis(k, i), {j: Rat(1)}))
    linalg.vaxpy_inplace(res, super_sign(pj, pi), L.bracket(L.bracket_basis(j, k), {i: Rat(1)}))
    return res


def reference_superalgebra(L):
    rep = Report(title="superalgebra axioms")
    labels, parity = L.basis_labels, L.parity
    rep.first_failure("bracket grading", (
        {"pair": (labels[i], labels[j]), "component": labels[k]}
        for (i, j), c in L.structure.items() for k, x in c.items()
        if x and parity[k] != (parity[i] + parity[j]) % 2))

    def antisymmetry_failures():
        for i, j in itertools.combinations_with_replacement(range(L.dim), 2):
            lhs = L.bracket_basis(i, j)
            rhs = linalg.vscale(-super_sign(parity[i], parity[j]), L.bracket_basis(j, i))
            if lhs != rhs:
                yield {"pair": (labels[i], labels[j]),
                       "residual": L.label_vector(linalg.vsub(lhs, rhs))}
    rep.first_failure("anti-supercommutativity", antisymmetry_failures())

    residuals = ((t, _jacobi_residual(L, *t))
                 for t in itertools.combinations_with_replacement(range(L.dim), 3))
    rep.first_failure("graded Jacobi identity", (
        {"triple": [labels[t] for t in triple], "residual": L.label_vector(res)}
        for triple, res in residuals if res))
    return rep


def reference_form(L):
    rep = Report(title="bilinear form")
    labels, parity, g = L.basis_labels, L.parity, L.gram
    pairs = list(itertools.product(range(L.dim), repeat=2))
    rep.first_failure("supersymmetry", (
        {"pair": (labels[i], labels[j])} for i, j in pairs
        if g[i][j] != super_sign(parity[i], parity[j]) * g[j][i]))
    rep.first_failure("evenness", (
        {"pair": (labels[i], labels[j])} for i, j in pairs
        if parity[i] != parity[j] and g[i][j]))

    def invariance_failures():
        for i, j, k in itertools.product(range(L.dim), repeat=3):
            lhs = L.form(L.bracket_basis(i, j), {k: Rat(1)})
            rhs = L.form({i: Rat(1)}, L.bracket_basis(j, k))
            if lhs != rhs:
                yield {"triple": (labels[i], labels[j], labels[k]), "lhs": lhs, "rhs": rhs}
    rep.first_failure("invariance", invariance_failures())

    rep.check("nondegeneracy", linalg.gram_nondegenerate([list(r) for r in g]), None)
    if L.cartan is not None:
        block = [[g[i][j] for j in L.cartan] for i in L.cartan]
        rep.check("nondegeneracy on the Cartan part", linalg.gram_nondegenerate(block), None)
    if L.weights is not None and L.cartan is not None:
        w = L.weights
        rep.first_failure("weight spaces pair only across opposite weights", (
            {"pair": (labels[i], labels[j]), "weights": (w[i], w[j])} for i, j in pairs
            if any(a + b for a, b in zip(w[i], w[j])) and g[i][j]))
    return rep


def assert_same_reports(L):
    assert verify_superalgebra(L).to_json() == reference_superalgebra(L).to_json()
    if L.gram is not None:
        assert verify_form(L).to_json() == reference_form(L).to_json()


BC11 = SuperIndexSet(i_dot=1, j_dot=1, with_zero_i=True)
ALGEBRAS = {
    **{name: (lambda name=name: fixtures.algebra_fixture(name))
       for name in fixtures.ALGEBRA_NAMES},
    "BC(1,1) over Q(i)": lambda: sl_superalgebra(BC11, field="Qi"),
    "sl(2|3)": lambda: sl_superalgebra(plain_index_set(2, 3)),
    "sl(3|4)": lambda: sl_superalgebra(plain_index_set(3, 4)),
}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_base_reports_match_the_references(name):
    assert_same_reports(ALGEBRAS[name]())


def test_the_fixtures_fail_where_the_bench_controls_expect():
    assert "invariance" in {c.name for c in verify_form(fixtures.heisenberg()).failures()}
    assert "anti-supercommutativity" in {
        c.name for c in verify_superalgebra(fixtures.osp12_broken()).failures()}


def bumped(L, table, pick, delta):
    """L with its pick-th nonzero structure constant, or its pick-th Gram
    entry (row-major), plus delta."""
    if table == "structure":
        keys = sorted((pair, k) for pair, row in L.structure.items() for k in row)
        pair, k = keys[pick % len(keys)]
        structure = {p: dict(row) for p, row in L.structure.items()}
        structure[pair][k] = structure[pair][k] + delta
        return dataclasses.replace(L, structure=structure)
    i, j = divmod(pick % (L.dim * L.dim), L.dim)
    gram = [list(row) for row in L.gram]
    gram[i][j] = gram[i][j] + delta
    return dataclasses.replace(L, gram=tuple(tuple(row) for row in gram))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["osp12", "sl12", "BC(1,1) over Q(i)"]),
       table=st.sampled_from(["structure", "gram"]), pick=st.integers(0, 10 ** 6),
       delta=st.sampled_from([Rat(1), Rat(-1), Rat(2), Rat(1, 2), IUNIT]))
def test_base_reports_match_on_one_perturbed_entry(name, table, pick, delta):
    L = ALGEBRAS[name]()
    if delta == IUNIT and L.field != "Qi":
        delta = Rat(-3, 2)
    assert_same_reports(bumped(L, table, pick, delta))


def test_base_checks_of_sl46_are_fast():
    L = sl_superalgebra(plain_index_set(4, 6))
    started = time.process_time()
    assert verify_superalgebra(L).passed and verify_form(L).passed
    assert time.process_time() - started < 0.5
