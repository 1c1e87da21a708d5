"""Acceptance criteria, one test per criterion, every check exact.

Each test prints a single "criterion N: PASS (...)" line on success; the
stated runtime budgets are asserted alongside the mathematical content.
"""

import random
import time

from superlie import (AffinizedAlgebra, CocycleTorus, check_axioms, decompose,
                      direct_sum, even_part, from_root_datum, h_spectrum,
                      irreducible_module, osp12_standard, ratio_check, reflect,
                      root_string, scramble, structural_root_checks,
                      trivial_torus, verify_affinized, verify_eals, verify_form,
                      verify_superalgebra, verify_twisted, weight_decomposition,
                      window_box)
from superlie.abelian import SymmetricGroupForm
from superlie.fixtures import heisenberg
from superlie.matrixsuper import (SharpOperator, SuperIndexSet,
                                  displayed_pi_families, fixed_cartan_basis,
                                  matrix_affinization, pi_root_classes,
                                  plain_index_set, sigma_cartan_matrix,
                                  sl_superalgebra, twisted_affinize,
                                  twisted_weight_spaces)
from superlie.osp12 import OSP_LABELS, check_representation
from superlie.rootsys import classify
from superlie.scalars import Rat


def idx(label):
    return OSP_LABELS.index(label)


def report_line(n, started, extra=""):
    elapsed = time.monotonic() - started
    print(f"criterion {n}: PASS ({elapsed:.2f}s{extra})")
    return elapsed


def test_criterion_1_osp12_ground_truth():
    started = time.monotonic()
    L = osp12_standard()
    assert verify_superalgebra(L).passed
    assert verify_form(L).passed
    Ep = L.bracket_basis(idx("F+"), idx("F+"))
    Em = L.bracket_basis(idx("F-"), idx("F-"))
    assert L.bracket(Ep, Em) == {idx("H"): Rat(-8)}
    assert L.bracket({idx("H"): Rat(1)}, Ep) == {k: 4 * v for k, v in Ep.items()}
    assert L.bracket(Ep, {idx("F+"): Rat(1)}) == {}
    elapsed = report_line(1, started)
    assert elapsed < 1.0


def test_criterion_2_irreducibles():
    started = time.monotonic()
    for lam in range(0, 22, 2):
        for top_parity in (0, 1):
            m = irreducible_module(lam, top_parity)
            assert check_representation(m) is None
            assert m.dim == lam + 1 and m.dim % 2 == 1
            assert h_spectrum(m) == list(range(lam, -lam - 2, -2))
            # half-h spectra of the parity parts
            top = [i for i in range(m.dim) if m.parity[i] == top_parity]
            other = [i for i in range(m.dim) if m.parity[i] != top_parity]
            top_spec = sorted(Rat(lam - 2 * i, 2) for i in top)
            other_spec = sorted(Rat(lam - 2 * i, 2) for i in other)
            half = Rat(lam, 2)
            assert top_spec == [Rat(-half + 2 * k) for k in range(lam // 2 + 1)]
            assert other_spec == [Rat(-half + 1 + 2 * k) for k in range(lam // 2)]
    elapsed = report_line(2, started)
    assert elapsed < 5.0


def _trial_multisets():
    rng = random.Random(20240)
    plans = []
    for t in range(99):
        if t < 70:
            target = rng.randint(3, 30)
        elif t < 90:
            target = rng.randint(31, 60)
        else:
            target = rng.randint(61, 120)
        lams = []
        total = 0
        while True:
            lam = rng.choice([0, 0, 2, 2, 4, 6, 8, 10, 12])
            if total + lam + 1 > target:
                break
            lams.append((lam, rng.randint(0, 1)))
            total += lam + 1
        if not lams:
            lams = [(0, rng.randint(0, 1))]
        plans.append(lams)
    full = [(20, 0), (18, 1), (16, 0), (14, 1), (12, 0),
            (10, 1), (8, 0), (6, 1), (4, 0), (2, 1)]
    assert sum(l + 1 for l, _ in full) == 120
    plans.append(full)
    return plans


def test_criterion_3_complete_reducibility():
    started = time.monotonic()
    plans = _trial_multisets()
    assert len(plans) == 100
    for t, plan in enumerate(plans):
        mods = [irreducible_module(lam, par) for lam, par in plan]
        m = direct_sum(mods)
        assert m.dim <= 120
        sc = scramble(m, seed=5000 + t)
        out = decompose(sc, certify=True)
        got = sorted((lam for lam, _ in out), reverse=True)
        want = sorted((lam for lam, _ in plan), reverse=True)
        assert got == want, f"trial {t}: {got} != {want}"
        assert sum(lam + 1 for lam, _ in out) == m.dim
    elapsed = report_line(3, started, ", 100 trials, max dim 120")
    assert elapsed < 60.0


def _osp_system():
    return classify([(0,), (1,), (-1,), (2,), (-2,)],
                    SymmetricGroupForm(gram=((2,),)))


def _sl12_system():
    roots = [(0, 0, 0), (0, 1, -1), (0, -1, 1),
             (1, -1, 0), (-1, 1, 0), (1, 0, -1), (-1, 0, 1)]
    return classify(roots, SymmetricGroupForm(
        gram=((1, 0, 0), (0, -1, 0), (0, 0, -1))))


def test_criterion_4_ears_axioms():
    started = time.monotonic()
    allowed = {Rat(0), Rat(1), Rat(-1), Rat(2), Rat(-2), Rat(1, 2), Rat(-1, 2)}
    for system in (_osp_system(), _sl12_system()):
        assert check_axioms(system).passed
        rootset = set(system.roots)
        for a in sorted(system.real_roots):
            assert ratio_check(system, a) <= allowed
            for b in system.roots:
                p, q, members = root_string(system, a, b)
                interval = {tuple(x + k * y for x, y in zip(b, a))
                            for k in range(-p, q + 1)}
                assert set(members) == interval
                assert p - q == system.cartan_int(a, b)
                assert reflect(system, a, b) in rootset
        # mutation suite: deleting any nonzero root breaks an axiom
        for removed in system.roots:
            if removed == (0,) * system.rank:
                continue
            rest = [r for r in system.roots if r != removed]
            assert not check_axioms(classify(rest, system.form)).passed
    elapsed = report_line(4, started)
    assert elapsed < 5.0


def _eals_fixtures():
    out = []
    for build in (osp12_standard, lambda: sl_superalgebra(plain_index_set(1, 2)),
                  heisenberg):
        L = build()
        datum = weight_decomposition(L)
        assert verify_eals(L, datum).passed
        out.append((L, datum))
    return out


def test_criterion_5_structural_root_facts():
    started = time.monotonic()
    for L, datum in _eals_fixtures():
        rep = structural_root_checks(L, datum)
        assert rep.passed, [c.name for c in rep.failures()]
        zero_even = all(L.parity[i] == 0 for i in datum.spaces[datum.zero])
        names = {c.name: c.status for c in rep.checks}
        if zero_even:
            assert names["no nonzero root is both even and odd"] == "pass"
    report_line(5, started)


def test_criterion_6_untwisted_affinization():
    started = time.monotonic()

    def sign(rank):
        # the uniform q = -1 cocycle: theta(a, b) = (-1)^(sum a_i sum b_j)
        return CocycleTorus(rank=rank, qmatrix=tuple(
            tuple(Rat(-1) for _ in range(rank)) for _ in range(rank)))
    bases = [("osp12", osp12_standard()),
             ("sl12", sl_superalgebra(plain_index_set(1, 2)))]
    config_seed = 0
    for name, L in bases:
        datum = weight_decomposition(L)
        assert verify_eals(L, datum).passed
        for rank in (1, 2):
            for torus_name, torus in (("trivial", trivial_torus(rank)),
                                      ("sign", sign(rank))):
                config_seed += 1
                alg = AffinizedAlgebra(L, datum, torus)
                degrees = window_box(rank, 3)
                rep = verify_affinized(alg, degrees, samples=500,
                                       seed=config_seed)
                assert rep.passed, (name, rank, torus_name,
                                    [c.name for c in rep.failures()])
                expected_roots = {(root, deg) for root in datum.roots
                                  for deg in degrees}
                from superlie.affinize import affinized_roots
                assert set(affinized_roots(alg, degrees)) == expected_roots
    elapsed = report_line(6, started, ", 8 configurations, window radius 3")
    assert elapsed < 120.0


def test_criterion_7_twisted_construction():
    started = time.monotonic()
    bc = SuperIndexSet(i_dot=1, j_dot=1, with_zero_i=True)
    c = SuperIndexSet(i_dot=1, j_dot=1)
    assert c.type_label() == "C(1,1)"
    assert bc.type_label() == "BC(1,1)"

    aff = matrix_affinization(bc, trivial_torus(1), field="Qi")
    sh = SharpOperator(bc, aff)
    assert sh.order() == 4
    tw = twisted_affinize(aff, sh)
    sigma = sigma_cartan_matrix(aff, sh)
    assert set(pi_root_classes(aff, sigma)) == displayed_pi_families(bc, aff)

    taus = window_box(1, 2)
    rep = verify_twisted(tw, bc, taus, 4, samples=500, seed=77)
    assert rep.passed, [c.name for c in rep.failures()]
    statuses = {c.name: c.status for c in rep.checks}
    assert statuses["# preserves the form on window basis pairs"] == "pass"
    assert statuses["pairing only between opposite twisted weights"] == "pass"
    assert statuses["twisted window-block nondegeneracy"] == "pass"
    assert statuses["eigenspace pairing vanishes unless i+j = 0 mod 4"] == "pass"
    assert statuses["each occupied eigenspace pairs with its opposite"] == "pass"
    assert statuses["the (0,0) weight space is the fixed Cartan plus c and d"] == "pass"
    assert statuses["averaged weights match the displayed five families"] == "pass"

    spaces = twisted_weight_spaces(tw, taus, range(-4, 5))
    zero_key = (aff.datum.zero, (0,), 0)
    assert len(spaces[zero_key]) == len(fixed_cartan_basis(sigma)) + 2 * aff.rank + 2
    elapsed = report_line(7, started)
    assert elapsed < 120.0


def test_criterion_8_cross_module_theorems():
    started = time.monotonic()
    for L, datum in _eals_fixtures():
        assert check_axioms(from_root_datum(datum)).passed
        ev = even_part(L)
        assert all(p == 0 for p in ev.parity)
        ev_datum = weight_decomposition(ev)
        assert verify_eals(ev, ev_datum).passed
        assert verify_superalgebra(ev).passed
    report_line(8, started)
