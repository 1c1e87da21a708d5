"""Layering guards: sparse-vector arithmetic stays inside ``superlie.linalg``,
and no verifier draws a sample.

A sparse vector is a dict of nonzero scalars, and a sum drops the keys that
cancel.  Only linalg's accumulators (vsub, vaxpy_inplace, add_entry and
vsum) know that: a hand-written ``acc.get(k, 0) + ...`` anywhere else
is a second copy of the format decision.
"""

import ast
import json
import pathlib
import re
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "superlie"
ACCUMULATE = re.compile(r"\.get\([^()]*, 0\) [+-]")
ACCUMULATORS = {"vsub", "vaxpy_inplace", "add_entry", "vsum"}


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


def imports(path: pathlib.Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    return imported | {(node.module or "").split(".")[0] for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom)}


def test_affinize_imports_no_random():
    """No verifier draws a sample: only osp12.py, whose scramble makes seeded
    test modules, imports random."""
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "random" in imports(path)] == ["osp12.py"]


def calls_in(path: pathlib.Path, function: str) -> set:
    """The names that function calls, directly or as attributes."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == function)
    return {getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(body) if isinstance(node, ast.Call)}


def test_verify_twisted_scans_no_window_for_axiom_2_or_the_root_axioms():
    """Axiom 2, the root axioms and the Gram pairing are derived:
    verify_twisted iterates no ad-nilpotency, builds no window root system
    and evaluates no window Gram matrix."""
    called = calls_in(SRC / "matrixsuper.py", "verify_twisted")
    assert {"derived", "class_window_failures", "unsplit_slice"} <= called
    assert not called & {"non_nilpotent", "ad_nilpotent_on", "twisted_window_root_system",
                         "graded_system", "kernel_form", "span_rank"}


def test_one_axiom1_lemma_decides_the_base_loop_and_twisted_witnesses():
    """axiom1_pairs is the one axiom 1 decision: the base, loop and twisted
    searches each call it, and the searches it replaced are gone."""
    for path, function in (("algebra.py", "axiom1_witnesses"),
                           ("affinize.py", "verify_affinized"),
                           ("matrixsuper.py", "verify_twisted")):
        assert "axiom1_pairs" in calls_in(SRC / path, function), function
    defined = {node.name for path in SRC.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"witness_pairs", "loop_witness", "opposite_class_pairs"}


KERNEL_CALLS = {"kernel", "kernel_bracket", "bracket", "in_cartan", "sharp_scales",
                "ad_nilpotent_on", "AffinizedAlgebra"}


def test_eigen_relations_are_derived_without_the_kernel():
    """affinized_roots and verify_twisted derive their eigen-relations, and
    verify_eals, verify_affinized and verify_twisted decide the two axioms,
    from the integer tables, theta and the tables' verdicts: none converts
    an element to the kernel, brackets elements or builds an affinization
    (only the two tables they run call the kernel)."""
    for path, function in ((SRC / "affinize.py", "affinized_roots"),
                           (SRC / "algebra.py", "verify_eals"),
                           (SRC / "affinize.py", "verify_affinized"),
                           (SRC / "matrixsuper.py", "verify_twisted")):
        assert not calls_in(path, function) & KERNEL_CALLS, function


def recorded_calls(monkeypatch, methods, table):
    """Patch each (class, name) of methods to record (qualified name, whether
    a frame of the function named table is on the stack) per call."""
    calls = []

    def recording(cls, name, method):
        def wrapper(*args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name != table:
                frame = frame.f_back
            calls.append((f"{cls.__name__}.{name}", frame is not None))
            return method(*args, **kwargs)
        return wrapper
    for cls, name in methods:
        monkeypatch.setattr(cls, name, recording(cls, name, getattr(cls, name)))
    return calls


def test_verify_twisted_calls_the_kernel_only_inside_the_twisted_table(monkeypatch):
    """One verify_twisted call runs no TwistedAlgebra.bracket, and each
    kernel_bracket only inside twisted_table_failures."""
    from superlie import AffinizedAlgebra, trivial_torus, window_box
    from superlie.matrixsuper import (SharpOperator, SuperIndexSet, TwistedAlgebra,
                                      matrix_affinization, twisted_affinize, verify_twisted)
    bc11 = SuperIndexSet(i_dot=1, j_dot=1, with_zero_i=True)
    aff = matrix_affinization(bc11, trivial_torus(1), field="Qi")
    tw = twisted_affinize(aff, SharpOperator(bc11, aff))
    calls = recorded_calls(monkeypatch, [(cls, name) for cls in (AffinizedAlgebra, TwistedAlgebra)
                                         for name in ("bracket", "kernel_bracket")],
                           "twisted_table_failures")
    assert verify_twisted(tw, bc11, window_box(1, 1), 2).passed
    assert {name for name, _ in calls} == {"AffinizedAlgebra.kernel_bracket",
                                            "TwistedAlgebra.kernel_bracket"}
    assert all(inside for _, inside in calls)


def test_verify_affinized_calls_the_kernel_only_inside_the_pair_table(monkeypatch):
    """One verify_affinized call (which runs verify_eals on the base) runs
    bracket_terms and kernel_form only inside pair_table_failures, and no
    element bracket."""
    from superlie import (AffinizedAlgebra, osp12_standard, trivial_torus, verify_affinized,
                          weight_decomposition, window_box)
    L = osp12_standard()
    alg = AffinizedAlgebra(L, weight_decomposition(L), trivial_torus(2))
    calls = recorded_calls(monkeypatch, [(AffinizedAlgebra, name) for name in (
        "bracket", "kernel_bracket", "bracket_terms", "kernel_form")], "pair_table_failures")
    assert verify_affinized(alg, window_box(2, 1)).passed
    assert {name for name, _ in calls} == {"AffinizedAlgebra.bracket_terms",
                                            "AffinizedAlgebra.kernel_form"}
    assert all(inside for _, inside in calls)


def test_every_top_level_name_is_used_exported_or_benchmarked():
    """Every top-level def and class in src/superlie is named in src/ outside
    its own definition, exported from superlie/__init__.py (the keys of its
    lazy table _HOMES), or named in bench/: no function is kept for the tests
    alone.  The package's own __getattr__ (PEP 562) is the one exemption."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    table = next(node.value for node in trees["__init__.py"].body if isinstance(node, ast.Assign)
                 and [ast.unparse(t) for t in node.targets] == ["_HOMES"])
    exported = set(ast.literal_eval(table))
    bench = "\n".join(path.read_text(encoding="utf-8")
                      for path in sorted((SRC.parents[1] / "bench").glob("*.py")))
    named: dict = {}  # name -> the ids of the top-level nodes naming it
    for tree in trees.values():
        for top in tree.body:
            for n in ast.walk(top):
                if isinstance(n, (ast.Name, ast.Attribute)):
                    named.setdefault(getattr(n, "id", None) or n.attr, set()).add(id(top))
    unused = [f"{file}:{node.name}" for file, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and f"{file}:{node.name}" != "__init__.py:__getattr__"
              and not named.get(node.name, set()) - {id(node)} and node.name not in exported
              and not re.search(rf"\b{node.name}\b", bench)]
    assert unused == []


def _table_subscripts(function: ast.FunctionDef) -> list:
    """The subscripts of the names function binds from integer_tables, and
    from those names, with the name of each subscript chain's root."""
    tables, grown = set(), True
    while grown:
        grown = False
        for node in ast.walk(function):
            read = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.value)} \
                if isinstance(node, ast.Assign) else set()
            if read & (tables | {"integer_tables"}):
                bound = {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
                grown, tables = grown or not bound <= tables, tables | bound
    subscripts = []
    for node in ast.walk(function):
        if isinstance(node, ast.Subscript):
            root = node.value
            while isinstance(root, ast.Subscript):
                root = root.value
            if getattr(root, "id", None) in tables:
                subscripts.append(node)
    return subscripts


def test_the_kernel_reads_the_base_and_theta_as_the_product_lemma_needs():
    """pair_table_failures certifies the kernel on a base table and a degree
    table by its product lemma, which needs bracket_terms, form_terms and
    theta_sum to subscript the integer tables (rows, Gram) only by the basis
    indices b1, b2, to use those indices nowhere else, and to read theta only
    through the memo self._theta and _theta_entry, never torus.theta."""
    tree = ast.parse((SRC / "affinize.py").read_text(encoding="utf-8"))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "AffinizedAlgebra")
    methods = {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)}
    for name in ("bracket_terms", "form_terms", "theta_sum"):
        function = methods[name]
        subscripts = _table_subscripts(function)
        assert bool(subscripts) == (name != "theta_sum"), name
        assert all(isinstance(s.slice, ast.Name) and s.slice.id in ("b1", "b2")
                   for s in subscripts), name
        slices = {id(s.slice) for s in subscripts}
        assert all(id(n) in slices for n in ast.walk(function) if isinstance(n, ast.Name)
                   and n.id in ("b1", "b2") and isinstance(n.ctx, ast.Load)), name
        attributes = {n.attr for n in ast.walk(function) if isinstance(n, ast.Attribute)}
        assert "torus" not in attributes and "theta" not in attributes, name
        assert "theta" not in calls_in(SRC / "affinize.py", name), name
        if name != "form_terms":  # form_terms reads no theta; theta_sum does for it
            assert {"_theta", "_theta_entry"} <= attributes, name


def _function(path: pathlib.Path, name: str) -> ast.FunctionDef:
    return next(node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _loaded(function: ast.FunctionDef, name: str) -> list:
    return [n for n in ast.walk(function)
            if isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)]


def _items_keys(function: ast.FunctionDef, param: str) -> set:
    """The key names bound by iterating param.items() with a tuple target."""
    return {node.target.elts[0].id for node in ast.walk(function)
            if isinstance(node, (ast.comprehension, ast.For))
            and isinstance(node.target, ast.Tuple)
            and ast.unparse(node.iter) == f"{param}.items()"}


def test_the_vstar_action_reads_a_loop_key_as_the_factored_rows_need():
    """pair_table_failures runs the loop x V/V* pairs on every base index at
    a few degrees and on every degree at one base index (its V* lemma).
    That needs _vstar_terms to read its loop part only through .items() and
    to use a loop key only as its output key, (key, ...), and through
    key[1][k], the degree's coordinate at the V* index k: no base index is
    read, compared or computed with.  _vv_pairing reads no loop part."""
    function = _function(SRC / "affinize.py", "_vstar_terms")
    loop_part, dstar = (a.arg for a in function.args.args[:2])
    parents = {id(child): node for node in ast.walk(function)
               for child in ast.iter_child_nodes(node)}
    assert all(ast.unparse(parents[id(n)]) == f"{loop_part}.items"
               for n in _loaded(function, loop_part))
    keys, indices = _items_keys(function, loop_part), _items_keys(function, dstar)
    assert keys and indices
    for key in keys:
        for n in _loaded(function, key):
            parent = parents[id(n)]
            grand = parents.get(id(parent))
            assert (isinstance(parent, ast.Tuple) and parent.elts[0] is n) or (
                isinstance(parent, ast.Subscript) and ast.unparse(parent.slice) == "1"
                and isinstance(grand, ast.Subscript) and grand.value is parent
                and ast.unparse(grand.slice) in indices), ast.unparse(parent)

    function = _function(SRC / "affinize.py", "_vv_pairing")
    params = {a.arg for a in function.args.args}
    unpack = next(node for node in function.body if isinstance(node, ast.Assign))
    in_unpack = {id(n) for n in ast.walk(unpack.value)}
    assert all(id(n) in in_unpack for p in params for n in _loaded(function, p))
    assert {t.elts[0].id for t in unpack.targets[0].elts} == {"_"}
    assert not _loaded(function, "_")


def _holders(predicate) -> set:
    """file:qualified name (Class.method, outer.inner) of the innermost def
    or class around each node of src/superlie that satisfies predicate."""
    out = set()

    def visit(node, path, owner):
        for child in ast.iter_child_nodes(node):
            if predicate(child):
                out.add(f"{path.name}:{owner}")
            inner = (f"{owner}.{child.name}".lstrip(".")
                     if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else owner)
            visit(child, path, inner)
    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return out


def test_check_axioms_shares_no_skip_counter():
    """The boundary searches of check_axioms yield None for an instance
    outside the known region: no search counts its skips through an outer
    variable."""
    tree = ast.parse((SRC / "rootsys.py").read_text(encoding="utf-8"))
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Nonlocal)]
    assert "check_skipping" not in {n.name for n in ast.walk(tree)
                                    if isinstance(n, ast.FunctionDef)}


def test_one_pairing_table_per_root_system():
    """PairingTable is built only by the lazy RootSupersystem.table, so the
    axioms and the class-window rule of one system read one table."""
    assert _holders(lambda n: isinstance(n, ast.Call) and getattr(
        n.func, "id", getattr(n.func, "attr", None)) == "PairingTable") == {
        "rootsys.py:RootSupersystem.table"}


def test_a_theta_denominator_miss_is_a_signal_of_the_pair_table_alone():
    """Only bracket_terms raises ThetaDenominatorMiss, and only the pair
    table catches it: kernel_bracket scales to theta's denominators at once."""
    def names_miss(expr):
        return expr is not None and "ThetaDenominatorMiss" in ast.unparse(expr)
    assert _holders(lambda n: isinstance(n, ast.Raise) and names_miss(n.exc)) == {
        "affinize.py:AffinizedAlgebra.bracket_terms"}
    assert _holders(lambda n: isinstance(n, ast.ExceptHandler) and names_miss(n.type)) == {
        "affinize.py:pair_table_failures.agrees"}


def test_linalg_has_one_row_reduction():
    """_eliminate is called only inside Echelon, solver and nullspace build
    an Echelon, and linalg imports no sdiv: no second row reduction."""
    eliminators = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_eliminate"
                   for call in ast.walk(node)):
                eliminators.add((path.name, getattr(node, "name", None)))
    assert eliminators == {("linalg.py", "Echelon")}
    for function in ("solver", "nullspace"):
        assert "Echelon" in calls_in(SRC / "linalg.py", function)
    tree = ast.parse((SRC / "linalg.py").read_text(encoding="utf-8"))
    assert "sdiv" not in {alias.name for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom) for alias in node.names}


def _loop_reports(samples, seed):
    from superlie import (AffinizedAlgebra, CocycleTorus, fixtures, trivial_torus,
                          verify_affinized, verify_cocycle, verify_twisted,
                          weight_decomposition, window_box)
    from superlie.matrixsuper import SharpOperator, SuperIndexSet, TwistedAlgebra
    from superlie.matrixsuper import matrix_affinization
    from superlie.scalars import Rat
    reports = []
    bc11 = SuperIndexSet(i_dot=1, j_dot=1, with_zero_i=True)
    aff = matrix_affinization(bc11, trivial_torus(1), field="Qi")
    sh = SharpOperator(bc11, aff)
    reports.append(verify_twisted(TwistedAlgebra(aff, sh), bc11, window_box(1, 0), 2,
                                  samples=samples, seed=seed))
    sh.columns[0] = {b: 2 * c for b, c in sh.columns[0].items()}  # # breaks
    reports.append(verify_twisted(TwistedAlgebra(aff, sh), bc11, window_box(1, 0), 2,
                                  samples=samples, seed=seed))
    for base in (fixtures.osp12_standard(), fixtures.osp12_broken()):
        alg = AffinizedAlgebra(base, weight_decomposition(base), trivial_torus(1))
        reports.append(verify_affinized(alg, window_box(1, 1), samples=samples, seed=seed))
    asymmetric = CocycleTorus(rank=2, qmatrix=((Rat(1), Rat(2)), (Rat(3), Rat(1))))
    for torus in (trivial_torus(2), asymmetric):
        reports.append(verify_cocycle(torus, window_box(2, 1)))
    return [rep.to_json() for rep in reports]


def test_loop_reports_do_not_depend_on_samples_or_seed():
    """verify_twisted's and verify_affinized's samples and seed change
    nothing, on a passing and a failing input of each verifier (the cocycle
    reports, which take neither, ride along unchanged)."""
    first = _loop_reports(0, 0)
    assert [json.loads(r)["passed"] for r in first] == [True, False, True, False, True, False]
    for samples, seed in ((0, 7), (500, 0), (500, 7)):
        assert _loop_reports(samples, seed) == first


def cli_outputs(capsys, command):
    """The JSON output of command under several --samples and --seed."""
    from superlie.cli import main
    outputs = []
    for flags in (["--samples", "0"], ["--samples", "500"], ["--seed", "7"],
                  ["--samples", "500", "--seed", "7"]):
        assert main([*command, "--format", "json", *flags]) == 0
        outputs.append(capsys.readouterr().out)
    return outputs


def test_affinize_cli_prints_the_same_json_for_any_samples_and_seed(capsys):
    outputs = cli_outputs(capsys, ["affinize", "--rank", "1", "--window", "1"])
    assert len(set(outputs)) == 1
    assert "seed" not in json.loads(outputs[0])


def test_twist_cli_prints_the_same_json_for_any_samples_and_seed(capsys):
    outputs = cli_outputs(capsys, ["twist", "--with-zero", "--window", "0", "--zwindow", "2"])
    assert len(set(outputs)) == 1
    assert "seed" not in json.loads(outputs[0])


# An unread parameter or flag is one the caller sets for nothing.  Each entry
# here is kept for a stated reason; the guard also fails on a stale entry.
UNREAD_ALLOWED = {
    **{f"affinize.py:verify_affinized({p})": "bench/ passes it; ROADMAP item 1 removes "
       "it with the bench's call sites" for p in ("samples", "seed")},
    **{f"matrixsuper.py:verify_twisted({p})": "bench/ passes it; ROADMAP item 1 removes "
       "it with the bench's call sites" for p in ("samples", "seed")},
    "scalars.py:GaussianRational.__setattr__(a)": "the signature only has to accept "
    "any assignment, which it refuses",
    **{f"cli.py:{command} --{flag}": "bench/ passes it; ROADMAP item 1 removes it with "
       "verify_affinized's and verify_twisted's own" for command in ("affinize", "twist")
       for flag in ("samples", "seed")},
}


def _unread_parameters(path: pathlib.Path) -> list[str]:
    """file:function(parameter) for each parameter that its function (nested
    functions and lambdas included) never reads.  A method's receiver (self,
    cls) is set by the call protocol, so it is not counted."""
    out = []

    def visit(node, prefix, in_class=False):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                a = child.args
                params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs
                          + [a.vararg, a.kwarg] if x is not None]
                decorators = {ast.unparse(d) for d in getattr(child, "decorator_list", ())}
                if in_class and "staticmethod" not in decorators:
                    params = params[1:]
                body = child.body if isinstance(child.body, list) else [child.body]
                # x += ... reads x as well
                read = {n.id if isinstance(n, ast.Name) else n.target.id
                        for stmt in body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                        or isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
                out.extend(f"{path.name}:{prefix}{name}({p})" for p in params
                           if p not in read)
                visit(child, f"{prefix}{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", in_class=True)
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def _unread_flags() -> list[str]:
    """cli.py:<subcommand> --<flag> for each add_argument destination of
    build_parser that cli.py never reads as args.<dest>."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id == "args"}
    out, command = [], None
    for node in ast.walk(_function(SRC / "cli.py", "build_parser")):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        if node.func.attr == "add_parser":
            command = node.args[0].value
        elif node.func.attr == "add_argument":
            option = node.args[0].value
            kw = {k.arg: k.value for k in node.keywords}
            dest = kw["dest"].value if "dest" in kw else option.lstrip("-").replace("-", "_")
            if dest not in read:
                out.append(f"cli.py:{command or 'common'} {option}")
    return out


def test_every_parameter_and_flag_is_read():
    unread = [x for path in sorted(SRC.glob("*.py")) for x in _unread_parameters(path)]
    assert sorted(unread + _unread_flags()) == sorted(UNREAD_ALLOWED)
