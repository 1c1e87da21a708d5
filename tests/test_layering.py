"""Sparse-vector arithmetic stays inside ``superlie.linalg``.

A sparse vector is a dict of nonzero scalars, and a sum drops the keys that
cancel.  Only linalg's accumulators (vadd, vsub, vaxpy_inplace, add_entry
and vsum) know that: a hand-written ``acc.get(k, 0) + ...`` anywhere else
is a second copy of the format decision.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "superlie"
ACCUMULATE = re.compile(r"\.get\([^()]*, 0\) [+-]")
ACCUMULATORS = {"vadd", "vsub", "vaxpy_inplace", "add_entry", "vsum"}


def accumulate_lines(path: pathlib.Path) -> list[int]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [n for n, line in enumerate(lines, 1) if ACCUMULATE.search(line)]


def test_cancelling_accumulation_lives_only_in_linalg():
    hits = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
            if path.name != "linalg.py" for n in accumulate_lines(path)]
    assert hits == []


def test_linalg_accumulates_only_in_its_accumulators():
    path = SRC / "linalg.py"
    owner = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            for n in range(node.lineno, node.end_lineno + 1):
                owner[n] = node.name
    found = {owner.get(n) for n in accumulate_lines(path)}
    assert found == ACCUMULATORS
