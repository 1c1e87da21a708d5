"""JSON documents for algebras and modules (lossless, exact scalars).

Scalars serialize as fraction strings ("p/q", "p/q+r/s*i"), so documents
round-trip bit for bit.  Two formats:

superlie-algebra/1:
    field: "Q" | "Qi"
    basis: [label, ...]                        # distinct strings
    parity: [0|1, ...]
    structure: [[i, j, k, scalar], ...]        # [b_i, b_j] components
    gram: [[i, j, scalar], ...] | null         # bilinear form entries
    cartan: [index, ...] | null
    weights: [[scalar, ...], ...] | null       # per basis element, Cartan order

superlie-module/1:
    parity: [0|1, ...]
    act_e / act_f / act_h: [[scalar, ...], ...]  # dense square rows, rational
"""

from __future__ import annotations

import json

from .algebra import LieSuperalgebra
from .osp12 import Osp12Module
from .scalars import Rat, scalar_from_string, scalar_to_string

ALGEBRA_FORMAT = "superlie-algebra/1"
MODULE_FORMAT = "superlie-module/1"


class DocumentError(ValueError):
    """Malformed or unreadable document."""


def algebra_to_dict(L: LieSuperalgebra) -> dict:
    structure = []
    for (i, j) in sorted(L.structure):
        for k in sorted(L.structure[(i, j)]):
            structure.append([i, j, k, scalar_to_string(L.structure[(i, j)][k])])
    gram = None
    if L.gram is not None:
        gram = []
        for i in range(L.dim):
            for j in range(L.dim):
                if L.gram[i][j]:
                    gram.append([i, j, scalar_to_string(L.gram[i][j])])
    weights = None
    if L.weights is not None:
        weights = [[scalar_to_string(x) for x in L.weights[b]] for b in range(L.dim)]
    return {
        "format": ALGEBRA_FORMAT,
        "field": L.field,
        "basis": list(L.basis_labels),
        "parity": list(L.parity),
        "structure": structure,
        "gram": gram,
        "cartan": list(L.cartan) if L.cartan is not None else None,
        "weights": weights,
    }


def _indices(values, n: int, what: str) -> tuple[int, ...]:
    """values as basis indices: JSON integers (no floats or booleans) in range(n)."""
    out = tuple(values)
    for x in out:
        if type(x) is not int:
            raise DocumentError(f"{what} index {x!r} is not an integer")
        if not 0 <= x < n:
            raise DocumentError(f"{what} index {x} out of range for a basis of {n}")
    return out


def _check_entries(entries, n: int, what: str, shape: str) -> None:
    """Each entry has the shape ("[i, j, scalar]"), basis indices in range(n),
    and indices that no other entry has."""
    seen = set()
    for entry in entries:
        if len(entry) != shape.count(",") + 1:
            raise DocumentError(f"{what} entry {entry!r} is not {shape}")
        key = _indices(entry[:-1], n, what)
        if key in seen:
            raise DocumentError(f"repeated {what} entry at indices {list(key)}")
        seen.add(key)


def algebra_from_dict(doc: dict) -> LieSuperalgebra:
    try:
        if not isinstance(doc, dict):
            raise DocumentError("document is not a JSON object")
        if doc.get("format") != ALGEBRA_FORMAT:
            raise DocumentError(f"unknown format {doc.get('format')!r}")
        basis = doc["basis"]
        if type(basis) is not list or any(type(x) is not str for x in basis):
            raise DocumentError("basis must be a list of string labels")
        if len(set(basis)) < len(basis):
            raise DocumentError(f"repeated basis label {max(basis, key=basis.count)!r}")
        n = len(basis)
        parity = tuple(doc["parity"])
        if len(parity) != n or any(type(p) is not int or p not in (0, 1) for p in parity):
            raise DocumentError("parity must list 0/1 per basis element")
        field = doc.get("field", "Q")
        if field not in ("Q", "Qi"):
            raise DocumentError(f'field {field!r} is not "Q" or "Qi"')
        _check_entries(doc["structure"], n, "structure", "[i, j, k, scalar]")
        _check_entries(doc.get("gram") or (), n, "gram", "[i, j, scalar]")
        cartan = None
        if doc.get("cartan") is not None:
            cartan = _indices(doc["cartan"], n, "cartan")
        if doc.get("weights") is not None:
            rows = doc["weights"]
            if len(rows) != n:
                raise DocumentError(f"weights has {len(rows)} rows for a basis of {n}")
            for b, row in enumerate(rows):
                if cartan is not None and len(row) != len(cartan):
                    raise DocumentError(f"weights row {b} has {len(row)} entries, "
                                        f"expected {len(cartan)}")

        structure: dict = {}
        for i, j, k, s in doc["structure"]:
            structure.setdefault((i, j), {})[k] = scalar_from_string(s)
        gram = None
        if doc.get("gram") is not None:
            dense = [[Rat(0)] * n for _ in range(n)]
            for i, j, s in doc["gram"]:
                dense[i][j] = scalar_from_string(s)
            gram = tuple(tuple(row) for row in dense)
        weights = None
        if doc.get("weights") is not None:
            weights = {b: tuple(scalar_from_string(s) for s in row)
                       for b, row in enumerate(doc["weights"])}
        return LieSuperalgebra(basis_labels=tuple(basis), parity=parity,
                               structure=structure, gram=gram,
                               cartan=cartan, weights=weights,
                               field=field)
    except DocumentError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise DocumentError(f"malformed algebra document: {exc}") from exc


def module_to_dict(m: Osp12Module) -> dict:
    def rows(mat):
        return [[scalar_to_string(mat[i, j]) for j in range(m.dim)]
                for i in range(m.dim)]
    return {
        "format": MODULE_FORMAT,
        "parity": list(m.parity),
        "act_e": rows(m.act_e),
        "act_f": rows(m.act_f),
        "act_h": rows(m.act_h),
    }


def module_from_dict(doc: dict) -> Osp12Module:
    try:
        if not isinstance(doc, dict):
            raise DocumentError("document is not a JSON object")
        if doc.get("format") != MODULE_FORMAT:
            raise DocumentError(f"unknown format {doc.get('format')!r}")
        parity = tuple(doc["parity"])
        mats = {}
        for key in ("act_e", "act_f", "act_h"):
            mats[key] = [[scalar_from_string(s) for s in row] for row in doc[key]]
        # the constructor rejects non-0/1 parities, ragged or non-square
        # matrices and non-rational entries (ModuleError is a ValueError)
        return Osp12Module(parity, mats["act_e"], mats["act_f"], mats["act_h"])
    except DocumentError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise DocumentError(f"malformed module document: {exc}") from exc


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DocumentError(f"cannot read document {path}: {exc}") from exc


def save(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
