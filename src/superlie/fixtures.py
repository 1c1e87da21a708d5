"""Built-in fixtures so verification runs need no external data.

Algebra names: "osp12", "sl12", "heisenberg", and "osp12-broken" (one
structure constant perturbed, for failure-path demos).

Module specs: "V<lam>" or "V<lam>odd" for a single irreducible, sums
joined with "+", and "scramble:<sum>:<seed>" for a seeded basis scramble,
e.g. "V2plusV0" == "V2+V0" and "scramble:V4+V2+V2:7".
"""

from __future__ import annotations

import re

from .algebra import LieSuperalgebra, plain_index_set, sl_superalgebra
from .osp12 import Osp12Module, direct_sum, irreducible_module, osp12_standard, scramble
from .scalars import Rat

ALGEBRA_NAMES = ("osp12", "sl12", "heisenberg", "osp12-broken")


def heisenberg() -> LieSuperalgebra:
    """Odd pair with a central even bracket: z central, [x,y] = [y,x] = z.

    The attached form is supersymmetric, even, and nondegenerate but not
    invariant (no invariant nondegenerate form exists on this algebra:
    invariance forces (z, z) = ([x,y], z) = (x, 0) = 0).  The fixture is
    for trivial-root-system demos, where the form axioms are not needed,
    and doubles as a designed counterexample to form invariance.
    """
    one = Rat(1)
    return LieSuperalgebra(
        basis_labels=("z", "x", "y"),
        parity=(0, 1, 1),
        structure={(1, 2): {0: one}, (2, 1): {0: one}},
        gram=((one, Rat(0), Rat(0)),
              (Rat(0), Rat(0), one),
              (Rat(0), -one, Rat(0))),
        cartan=(0,),
        weights={0: (Rat(0),), 1: (Rat(0),), 2: (Rat(0),)},
    )


def osp12_broken() -> LieSuperalgebra:
    """The standard algebra with one structure constant bumped by 1."""
    L = osp12_standard()
    structure = {k: dict(v) for k, v in L.structure.items()}
    key = (3, 4)  # [F+, F-]
    target = dict(structure[key])
    some = sorted(target)[0]
    target[some] = target[some] + 1
    structure[key] = target
    return LieSuperalgebra(basis_labels=L.basis_labels, parity=L.parity,
                           structure=structure, gram=L.gram,
                           cartan=L.cartan, weights=L.weights, field=L.field)


def algebra_fixture(name: str) -> LieSuperalgebra:
    if name == "osp12":
        return osp12_standard()
    if name == "sl12":
        return sl_superalgebra(plain_index_set(1, 2))
    if name == "heisenberg":
        return heisenberg()
    if name == "osp12-broken":
        return osp12_broken()
    raise KeyError(f"unknown algebra fixture {name!r}")


_VSPEC = re.compile(r"^V(\d+)(odd)?$")


def _parse_sum(spec: str) -> list[Osp12Module]:
    parts = spec.replace("plus", "+").split("+")
    out = []
    for part in parts:
        m = _VSPEC.match(part.strip())
        if not m:
            raise KeyError(f"unknown module piece {part!r}")
        out.append(irreducible_module(int(m.group(1)), 1 if m.group(2) else 0))
    return out


def module_fixture(spec: str) -> Osp12Module:
    """Parse "V4+V2", "V2plusV0", "V2odd", "scramble:V4+V2:7" ..."""
    spec = spec.strip()
    if spec.startswith("scramble:"):
        _, inner, seed = spec.split(":")
        return scramble(direct_sum(_parse_sum(inner)), int(seed))
    mods = _parse_sum(spec)
    return mods[0] if len(mods) == 1 else direct_sum(mods)
