"""Check results and verification reports.

A Report is an ordered collection of named checks, each pass/fail/skip with
an optional witness payload.  Reports are deterministic for identical
inputs; wall-clock timing is carried for the human-readable rendering but
left out of the machine-readable form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


PASS = "pass"
FAIL = "fail"
SKIP = "skip"


def jsonable(obj):
    """Recursively convert witness payloads to JSON-serializable values."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
        if isinstance(obj, (set, frozenset)):
            items = sorted(items, key=str)
        return [jsonable(v) for v in items]
    return str(obj)


@dataclass
class Check:
    name: str
    status: str
    witness: dict | None = None

    def as_dict(self) -> dict:
        d: dict = {"name": self.name, "status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class Report:
    title: str
    checks: list[Check] = field(default_factory=list)
    window: dict | None = None
    elapsed: float | None = None

    def check(self, name: str, ok: bool, witness: dict | None = None) -> bool:
        self.checks.append(Check(name, PASS if ok else FAIL,
                                 None if ok else jsonable(witness)))
        return ok

    def first_failure(self, name: str, witnesses) -> bool:
        """Fail with the first witness dict the iterable yields; pass if none.

        The iterable is consumed lazily, so a search stops at its first
        counterexample: nothing after it is evaluated or drawn.
        """
        bad = next(iter(witnesses), None)
        return self.check(name, bad is None, bad)

    def skip(self, name: str, witness: dict | None = None) -> None:
        self.checks.append(Check(name, SKIP, jsonable(witness)))

    def note(self, name: str, payload: dict) -> None:
        """A passing check that records informational payload (e.g. witnesses)."""
        self.checks.append(Check(name, PASS, jsonable(payload)))

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == FAIL]

    def as_dict(self) -> dict:
        d: dict = {
            "title": self.title,
            "passed": self.passed,
            "checks": [c.as_dict() for c in sorted(self.checks, key=lambda c: c.name)],
        }
        if self.window is not None:
            d["window"] = self.window
        return d

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def render_text(self) -> str:
        lines = [f"== {self.title} =="]
        if self.window is not None:
            lines.append(f"window: {self.window}")
        for c in self.checks:
            mark = {PASS: "ok  ", FAIL: "FAIL", SKIP: "skip"}[c.status]
            line = f"  [{mark}] {c.name}"
            if c.status != PASS and c.witness:
                line += "  " + json.dumps(c.witness, sort_keys=True, default=str)
            lines.append(line)
        if self.elapsed is not None:
            lines.append(f"elapsed: {self.elapsed:.3f}s")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"
