"""The layered import graph: each CLI subcommand loads only the modules it
runs, and the lazy package namespace resolves every exported name to the
object in its home module.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import superlie
from superlie import affinize, algebra, matrixsuper

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(path.stem for path in (SRC / "superlie").glob("*.py")
                 if path.stem not in ("__init__", "cli"))

DECOMPOSE = {"scalars", "linalg", "abelian", "reports", "algebra", "osp12", "documents",
             "fixtures"}
VERIFY = DECOMPOSE | {"rootsys"}
AFFINIZE = VERIFY | {"affinize"}

# Run superlie.cli as python -m does, with its output swallowed, and print
# the superlie submodules left in sys.modules.
RUN_CLI = """
import contextlib, io, json, runpy, sys
sys.argv = ["superlie", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("superlie.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("superlie."))]))
"""


def fresh_python(code: str, *args: str):
    """The JSON that code prints in a new interpreter importing src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return json.loads(out)


@pytest.mark.parametrize("command,loads", [
    (["decompose", "builtin:V2+V0"], DECOMPOSE),
    (["verify", "builtin:osp12"], VERIFY),
    (["roots", "builtin:sl12"], VERIFY),
    (["affinize", "--rank", "1", "--window", "1"], AFFINIZE),
    (["twist", "--with-zero", "--window", "0", "--zwindow", "2"], set(MODULES)),
])
def test_each_subcommand_loads_only_its_layers(command, loads):
    code, modules = fresh_python(RUN_CLI, *command)
    assert code == 0
    assert modules == sorted(f"superlie.{m}" for m in loads)


def test_twist_loads_every_module():
    assert AFFINIZE | {"matrixsuper"} == set(MODULES)


ALL = [
    "AffinizedAlgebra", "CocycleTorus", "GaussianRational", "GradedLoopElement",
    "LieSuperalgebra", "Osp12Module", "Rat", "Report", "RootDatum", "RootSupersystem",
    "SharpOperator", "Sl2SuperTriple", "SuperIndexSet", "SymmetricGroupForm",
    "TwistedAlgebra", "TwistedElement", "abelian", "affinize", "affinized_roots", "algebra",
    "check_axioms", "classify", "decompose", "diamond", "direct_sum", "even_part",
    "form_eval", "from_root_datum", "generated_g0_submodule", "h_spectrum",
    "irreducible_module", "linalg", "matrix_affinization", "matrixsuper", "osp12",
    "osp12_standard", "plain_index_set", "radical_member", "ratio_check", "reflect",
    "reports", "root_string", "rootsys", "scalar_from_string", "scalar_to_string", "scalars",
    "scramble", "sharp", "sharp_eigenspaces", "sl_superalgebra", "structural_root_checks",
    "supertrace", "torus_mul", "trivial_torus", "twisted_affinize", "verify_affinized",
    "verify_cocycle", "verify_eals", "verify_form", "verify_superalgebra", "verify_triple",
    "verify_twisted", "weight_decomposition", "window_box",
]


def test_the_namespace_exports_the_same_names():
    assert superlie.__all__ == ALL
    assert sorted(superlie._HOMES) == ALL


@pytest.mark.parametrize("name", ALL)
def test_each_name_is_the_object_of_its_home_module(name):
    home = importlib.import_module(f"superlie.{superlie._HOMES[name]}")
    assert getattr(superlie, name) is (home if home.__name__ == f"superlie.{name}"
                                       else getattr(home, name))


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from superlie import *", namespace)
    assert all(namespace[name] is getattr(superlie, name) for name in ALL)


def test_a_bare_import_loads_no_submodule_until_one_is_named():
    code = """
import json, sys, superlie
before = sorted(m for m in sys.modules if m.startswith("superlie."))
resolved = superlie.rootsys is sys.modules["superlie.rootsys"]
print(json.dumps([before, resolved, "superlie.matrixsuper" in sys.modules]))
"""
    assert fresh_python(code) == [[], True, False]


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        superlie.nope
    assert not hasattr(superlie, "nope")


MATRIX_MODEL = ["DegenerateFormError", "FieldError", "SuperIndexSet", "plain_index_set",
                "tm_mul", "tm_parity", "tm_supercomm", "supertrace", "sl_superalgebra",
                "matrix_structure", "_coordinates", "_epsilons", "basis_matrices"]
AXIOMS = ["axiom1_pairs", "axiom1_witnesses", "verify_eals"]


@pytest.mark.parametrize("module,name", [(matrixsuper, name) for name in MATRIX_MODEL]
                         + [(affinize, name) for name in AXIOMS])
def test_moved_names_resolve_from_their_old_modules(module, name):
    assert getattr(module, name) is getattr(algebra, name)
