"""Exact toolkit for Lie superalgebras, root supersystems, and affinizations.

The namespace is lazy (PEP 562): a name in _HOMES imports its home
submodule on first access, so a CLI call loads only what it runs.
"""

import importlib

_HOMES = {
    "scalars": "scalars", "GaussianRational": "scalars", "Rat": "scalars",
    "scalar_from_string": "scalars", "scalar_to_string": "scalars",
    "linalg": "linalg",
    "abelian": "abelian", "SymmetricGroupForm": "abelian", "form_eval": "abelian",
    "radical_member": "abelian",
    "algebra": "algebra", "LieSuperalgebra": "algebra", "RootDatum": "algebra",
    "SuperIndexSet": "algebra", "even_part": "algebra", "plain_index_set": "algebra",
    "sl_superalgebra": "algebra", "structural_root_checks": "algebra",
    "supertrace": "algebra", "verify_eals": "algebra", "verify_form": "algebra",
    "verify_superalgebra": "algebra", "weight_decomposition": "algebra",
    "osp12": "osp12", "Osp12Module": "osp12", "Sl2SuperTriple": "osp12",
    "decompose": "osp12", "direct_sum": "osp12", "generated_g0_submodule": "osp12",
    "h_spectrum": "osp12", "irreducible_module": "osp12", "osp12_standard": "osp12",
    "scramble": "osp12", "verify_triple": "osp12",
    "rootsys": "rootsys", "RootSupersystem": "rootsys", "check_axioms": "rootsys",
    "classify": "rootsys", "from_root_datum": "rootsys", "ratio_check": "rootsys",
    "reflect": "rootsys", "root_string": "rootsys",
    "affinize": "affinize", "AffinizedAlgebra": "affinize", "CocycleTorus": "affinize",
    "GradedLoopElement": "affinize", "affinized_roots": "affinize", "torus_mul": "affinize",
    "trivial_torus": "affinize", "verify_affinized": "affinize",
    "verify_cocycle": "affinize", "window_box": "affinize",
    "matrixsuper": "matrixsuper", "SharpOperator": "matrixsuper",
    "TwistedAlgebra": "matrixsuper", "TwistedElement": "matrixsuper",
    "diamond": "matrixsuper", "matrix_affinization": "matrixsuper", "sharp": "matrixsuper",
    "sharp_eigenspaces": "matrixsuper", "twisted_affinize": "matrixsuper",
    "verify_twisted": "matrixsuper",
    "reports": "reports", "Report": "reports",
}

__all__ = sorted(_HOMES)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import name's home submodule on first access and keep the name here."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOMES[name]}")
    value = globals()[name] = module if _HOMES[name] == name else getattr(module, name)
    return value
