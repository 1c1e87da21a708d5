"""Byte-identity of the CLI's JSON outputs against a stored golden file.

The golden file holds the standard output of each command below, captured
from the dense numpy implementation that the sparse engine replaced.  To
regenerate it (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py

With ``--diff`` nothing is written: for each entry whose fresh capture
differs from the stored one, the checks added, removed or changed are
printed, with the exit code if it moved.
"""

import contextlib
import io
import json
import os
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_cli.json")

MODULE_SPECS = (
    "V0", "V2", "V4odd", "V2+V0", "V4+V2+V2", "V6+V4odd+V2+V0",
    "scramble:V2+V0:17", "scramble:V4+V2+V2:7", "scramble:V0+V0+V0+V0:2",
    "scramble:V2odd+V2+V2:13", "scramble:V6odd+V4+V2+V0:5",
    "scramble:V8+V6+V4+V2+V0+V0:11", "scramble:V12+V10odd+V8+V4+V0:3",
    "scramble:V20+V12odd+V4:9", "scramble:V16+V14+V6odd:4",
    "scramble:V10odd+V10+V8odd+V8:21",
)

COMMANDS = tuple(
    [["decompose", f"builtin:{spec}", "--format", "json"] for spec in MODULE_SPECS]
    + [["roots", "builtin:osp12", "--format", "json"],
       ["roots", "builtin:sl12", "--format", "json"],
       ["verify", "builtin:osp12", "--format", "json"],
       ["verify", "builtin:sl12", "--format", "json"],
       ["verify", "builtin:heisenberg", "--format", "json"],
       ["affinize", "--rank", "2", "--window", "2", "--seed", "3", "--format", "json"],
       ["twist", "--with-zero", "--window", "1", "--zwindow", "2", "--seed", "1",
        "--format", "json"]])


def run(args) -> tuple[int, str]:
    from superlie.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(args))
    return code, out.getvalue()


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("args", COMMANDS, ids=lambda a: " ".join(a[:2]))
def test_cli_output_matches_golden(args):
    want = _golden()[" ".join(args)]
    code, out = run(args)
    assert code == want["code"]
    assert out == want["stdout"]


def _checks(output: str) -> dict:
    """{check name: check} of a JSON output; empty when it is no report."""
    return {check["name"]: check for check in json.loads(output).get("checks", [])}


def report_diff(old_json: str, new_json: str) -> list[str]:
    """The checks removed, added or changed between two JSON outputs, or one
    line when they differ elsewhere."""
    old, new = _checks(old_json), _checks(new_json)
    lines = [f"  - {name}" for name in old if name not in new]
    lines += [f"  + {name}" for name in new if name not in old]
    lines += [f"  ~ {name}: {json.dumps(old[name], sort_keys=True)}"
              f" -> {json.dumps(new[name], sort_keys=True)}"
              for name in old if name in new and old[name] != new[name]]
    if not lines and old_json != new_json:
        lines.append("  output outside the checks changed")
    return lines


def print_diff(stored: dict, fresh: dict, entry_diff) -> None:
    """Print entry_diff(old, new) under the name of every differing entry."""
    for name in sorted(stored.keys() | fresh.keys()):
        if name not in fresh:
            print(f"{name}: no longer captured")
        elif name not in stored:
            print(f"{name}: new entry")
        elif stored[name] != fresh[name]:
            print(f"{name}:")
            for line in entry_diff(stored[name], fresh[name]):
                print(line)


def _cli_entry_diff(old: dict, new: dict) -> list[str]:
    lines = report_diff(old["stdout"], new["stdout"])
    if old["code"] != new["code"]:
        lines.append(f"  exit code: {old['code']} -> {new['code']}")
    return lines


if __name__ == "__main__":
    golden = {}
    for args in COMMANDS:
        code, out = run(args)
        golden[" ".join(args)] = {"code": code, "stdout": out}
    if "--diff" in sys.argv[1:]:
        print_diff(_golden(), golden, _cli_entry_diff)
    else:
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
