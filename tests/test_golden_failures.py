"""Byte-identity of failing verification reports against a stored golden file.

Each case plants a fault (a structure constant, Gram entry or parity of a
fixture algebra, an asymmetric or broken cocycle, a perturbed affinization
base, a doubled entry of the order-4 automorphism #, # scaled by i or by
-1, a doubled Gram pair of the twisted base, a bracket [x, y] given an extra
component x) and runs a verifier.
The golden file holds each report's ``to_json()`` and ``render_text()``, so
witnesses, check order and skip counts are pinned as well as pass/fail.
To regenerate it (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden_failures.py

With ``--diff`` nothing is written: for each entry whose fresh capture
differs from the stored one, the checks added, removed or changed are
printed, and a move of the verdict.
"""

import contextlib
import dataclasses
import io
import json
import os
import re
import sys

import pytest
from test_golden import print_diff, report_diff
from test_sharp_layer import scaled_twisted, times_i_twisted

from superlie import affinize as affz
from superlie import fixtures, matrixsuper, rootsys, verify_eals
from superlie.algebra import verify_form, verify_superalgebra, weight_decomposition
from superlie.scalars import Rat

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_failures.json")

BC11 = matrixsuper.SuperIndexSet(i_dot=1, j_dot=1, with_zero_i=True)


def bump_structure(L):
    """The first structure constant (sorted by pair, then component) plus 1."""
    key = sorted(L.structure)[0]
    k = sorted(L.structure[key])[0]
    structure = {pair: dict(c) for pair, c in L.structure.items()}
    structure[key][k] = structure[key][k] + 1
    return dataclasses.replace(L, structure=structure)


def bump_gram(L):
    """The first nonzero Gram entry (row-major) plus 1."""
    i, j = next((i, j) for i in range(L.dim) for j in range(L.dim) if L.gram[i][j])
    gram = [list(row) for row in L.gram]
    gram[i][j] = gram[i][j] + 1
    return dataclasses.replace(L, gram=tuple(tuple(row) for row in gram))


def flip_parity(L):
    """Basis element 0 with the other parity."""
    return dataclasses.replace(L, parity=(1 - L.parity[0],) + tuple(L.parity[1:]))


PLANTS = {"structure": bump_structure, "gram": bump_gram, "parity": flip_parity}


def add_component(L, x_label, y_label):
    """L with 1 added to the x component of [x, y], the weight table kept.

    With y = x, [x, x] = x and ad_x is not nilpotent (axiom 2); with y of
    the opposite root, [x, y] leaves the Cartan (axiom 1).
    """
    x, y = L.basis_labels.index(x_label), L.basis_labels.index(y_label)
    structure = {pair: dict(c) for pair, c in L.structure.items()}
    structure[(x, y)] = {**structure.get((x, y), {}), x: Rat(1)}
    return dataclasses.replace(L, structure=structure)


def planted_base(base, x_label, y_label):
    planted = add_component(base, x_label, y_label)
    return planted, weight_decomposition(planted)


def planted_affinization(base, x_label, y_label):
    return affz.AffinizedAlgebra(*planted_base(base, x_label, y_label),
                                 affz.trivial_torus(1))


def broken_table_torus():
    """A rank-1 table cocycle (q = 2 on the radius-1 box) with theta(1, 0) = 3."""
    degrees = affz.window_box(1, 1)
    q2 = affz.CocycleTorus(rank=1, qmatrix=((Rat(2),),))
    table = {(a, b): q2.theta(a, b) for a in degrees for b in degrees}
    table[((1,), (0,))] = Rat(3)
    return affz.CocycleTorus(rank=1, table=table)


def perturbed_affinization():
    base = fixtures.osp12_broken()
    return affz.AffinizedAlgebra(base, weight_decomposition(base),
                                 affz.trivial_torus(1))


def perturbed_twisted(torus=affz.trivial_torus(1), star_signs=None):
    """BC(1,1) over Q(i) with the first entry of #'s first column doubled."""
    aff = matrixsuper.matrix_affinization(BC11, torus, field="Qi")
    sh = matrixsuper.SharpOperator(BC11, aff, star_signs)
    col = sh.columns[0]
    k = sorted(col)[0]
    col[k] = col[k] * 2
    return matrixsuper.TwistedAlgebra(aff, sh)


def gram_doubled_twisted(torus, star_signs):
    """BC(1,1) over Q(i) with both (E[1,0], E[0,1]) Gram entries doubled.

    # stays a bracket automorphism of the base but is no longer an
    isometry, so the automorphism check can fail only through the
    V part of a bracket at degrees a = -b != 0.
    """
    base = matrixsuper.sl_superalgebra(BC11, field="Qi")
    a, b = base.basis_labels.index("E[1,0]"), base.basis_labels.index("E[0,1]")
    gram = [list(row) for row in base.gram]
    gram[a][b], gram[b][a] = 2 * gram[a][b], 2 * gram[b][a]
    base = dataclasses.replace(base, gram=tuple(tuple(row) for row in gram))
    aff = affz.AffinizedAlgebra(base, weight_decomposition(base), torus)
    return matrixsuper.TwistedAlgebra(aff, matrixsuper.SharpOperator(BC11, aff, star_signs))


# the tori and entry involutions the # plants run over at nonzero degree
SHARP_SETTINGS = {
    "trivial torus": (affz.trivial_torus(1), None),
    "star signs -1": (affz.trivial_torus(1), (-1,)),
    "q = 2/3": (affz.CocycleTorus(rank=1, qmatrix=((Rat(2, 3),),)), None),
}


def planted_twisted(y_label):
    """BC(1,1) over Q(i) with E[1,1~] added to [E[1,1~], y]; E[1,1~] is a
    -1 eigenvector of #, so it sits at twisted degrees 2 mod 4."""
    aff = planted_affinization(matrixsuper.sl_superalgebra(BC11, field="Qi"),
                               "E[1,1~]", y_label)
    return matrixsuper.TwistedAlgebra(aff, matrixsuper.SharpOperator(BC11, aff))


def cli_verify(fmt):
    from superlie.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "builtin:osp12-broken", "--format", fmt])
    assert code == 1
    # the elapsed line is wall-clock time, the only nondeterministic line
    return re.sub(r"^elapsed: .*\n", "", out.getvalue(), flags=re.M)


def _cases():
    cases = {}
    for alg in ("osp12", "sl12"):
        for plant, fn in PLANTS.items():
            cases[f"{alg} {plant} superalgebra"] = (
                lambda alg=alg, fn=fn: verify_superalgebra(fn(fixtures.algebra_fixture(alg))))
            cases[f"{alg} {plant} form"] = (
                lambda alg=alg, fn=fn: verify_form(fn(fixtures.algebra_fixture(alg))))
    cases["cocycle asymmetric q"] = lambda: affz.verify_cocycle(
        affz.CocycleTorus(rank=2, qmatrix=((Rat(1), Rat(2)), (Rat(3), Rat(1)))),
        affz.window_box(2, 1))
    cases["cocycle broken table"] = lambda: affz.verify_cocycle(
        broken_table_torus(), affz.window_box(1, 1))
    for samples in (50, 0):
        cases[f"affinized perturbed base samples={samples}"] = (
            lambda samples=samples: affz.verify_affinized(
                perturbed_affinization(), affz.window_box(1, 1),
                samples=samples, seed=3))
    for samples in (30, 0):
        cases[f"twisted doubled sharp entry samples={samples}"] = (
            lambda samples=samples: matrixsuper.verify_twisted(
                perturbed_twisted(), BC11, affz.window_box(1, 0), 1,
                samples=samples, seed=3))
    cases["twisted sharp times i tau radius 1"] = lambda: matrixsuper.verify_twisted(
        times_i_twisted(), BC11, affz.window_box(1, 1), 1, samples=30, seed=3)
    cases["twisted sharp times -1 tau radius 1"] = lambda: matrixsuper.verify_twisted(
        scaled_twisted(Rat(-1)), BC11, affz.window_box(1, 1), 1, samples=30, seed=3)
    # # broken at nonzero torus degrees; the doubled Gram pair fails only
    # the V-part clause of the automorphism check
    for setting, (torus, signs) in SHARP_SETTINGS.items():
        for plant, build, samples in (("doubled sharp entry", perturbed_twisted, 30),
                                      ("doubled Gram pair", gram_doubled_twisted, 3000)):
            cases[f"twisted {plant} tau radius 1 {setting}"] = (
                lambda build=build, torus=torus, signs=signs, samples=samples:
                matrixsuper.verify_twisted(build(torus, signs), BC11, affz.window_box(1, 1),
                                           1, samples=samples, seed=3))
    # each verifier fails axiom 2 on [x, x] = x and axiom 1 on an
    # [x_a, x_-a] off the Cartan
    for plant, osp12_y, bc11_y in (("self-bracket", "E+", "E[1,1~]"),
                                   ("bracket off the Cartan", "E-", "E[1~,1]")):
        cases[f"osp12 {plant} eals"] = lambda y=osp12_y: verify_eals(
            *planted_base(fixtures.osp12_standard(), "E+", y))
        cases[f"affinized {plant} samples=0"] = lambda y=osp12_y: affz.verify_affinized(
            planted_affinization(fixtures.osp12_standard(), "E+", y),
            affz.window_box(1, 1), samples=0)
        cases[f"twisted {plant} samples=0"] = lambda y=bc11_y: matrixsuper.verify_twisted(
            planted_twisted(y), BC11, affz.window_box(1, 0), 2, samples=0, seed=3)
    # skip counts of a boundary-carrying system, passing and with S2 broken
    cases["window root system rank 1 radius 2"] = lambda: rootsys.check_axioms(
        window_system())
    cases["window root system minus its first real root"] = minus_first_real_root
    return cases


def window_system():
    return affz.window_root_system(perturbed_affinization(), affz.window_box(1, 2))


def minus_first_real_root():
    system = window_system()
    first = min(system.real_roots)
    roots = [r for r in system.roots if r != first]
    return rootsys.check_axioms(rootsys.classify(roots, system.form, known=system.known))


CASES = _cases()


def capture() -> dict:
    golden = {name: {"json": build().to_json(), "text": build().render_text()}
              for name, build in CASES.items()}
    golden["verify builtin:osp12-broken"] = {"json": cli_verify("json"),
                                             "text": cli_verify("text")}
    return golden


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_failing_report_matches_golden(name):
    want = _golden()[name]
    report = CASES[name]()
    assert report.to_json() == want["json"]
    assert report.render_text() == want["text"]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_verify_broken_matches_golden(fmt):
    assert cli_verify(fmt) == _golden()["verify builtin:osp12-broken"][fmt]


# a planted Gram entry does not touch the bracket axioms, and the unbroken
# window system pins skip counts on a passing report
PASSING = {"osp12 gram superalgebra", "sl12 gram superalgebra",
           "window root system rank 1 radius 2"}


def test_golden_reports_fail_where_planted():
    for name, entry in _golden().items():
        assert json.loads(entry["json"])["passed"] == (name in PASSING), name


def _entry_diff(old: dict, new: dict) -> list[str]:
    lines = report_diff(old["json"], new["json"])
    if not lines and old["text"] != new["text"]:
        lines.append("  text rendering changed")
    passed = [json.loads(entry["json"])["passed"] for entry in (old, new)]
    if passed[0] != passed[1]:
        lines.append(f"  passed: {passed[0]} -> {passed[1]}")
    return lines


if __name__ == "__main__":
    if "--diff" in sys.argv[1:]:
        print_diff(_golden(), capture(), _entry_diff)
    else:
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(capture(), fh, indent=1, sort_keys=True)
            fh.write("\n")
