import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from superlie import documents, fixtures
from superlie.cli import main
from superlie.scalars import Rat, scalar_from_string, scalar_to_string
from superlie.osp12 import check_representation
from test_osp12 import decomposition_multiset


def test_algebra_document_round_trip(tmp_path):
    for name in ("osp12", "sl12", "heisenberg"):
        L = fixtures.algebra_fixture(name)
        doc = documents.algebra_to_dict(L)
        path = tmp_path / f"{name}.json"
        documents.save(str(path), doc)
        back = documents.algebra_from_dict(documents.load(str(path)))
        assert back.basis_labels == L.basis_labels
        assert back.parity == L.parity
        assert back.structure == L.structure
        assert back.gram == L.gram
        assert back.cartan == L.cartan
        assert back.weights == L.weights
        # serialization is stable: a second round trip is byte-identical
        assert documents.algebra_to_dict(back) == doc


def test_module_document_round_trip(tmp_path):
    m = fixtures.module_fixture("scramble:V4+V2:3")
    doc = documents.module_to_dict(m)
    back = documents.module_from_dict(doc)
    assert back.parity == m.parity
    assert back.act_e == m.act_e
    assert back.act_f == m.act_f
    assert back.act_h == m.act_h
    assert check_representation(back) is None


def test_malformed_documents_rejected():
    with pytest.raises(documents.DocumentError):
        documents.algebra_from_dict({"format": "nope"})
    with pytest.raises(documents.DocumentError):
        documents.algebra_from_dict({"format": documents.ALGEBRA_FORMAT,
                                     "basis": ["a"], "parity": [2],
                                     "structure": []})
    with pytest.raises(documents.DocumentError):
        documents.module_from_dict({"format": documents.MODULE_FORMAT,
                                    "parity": [0]})


def test_module_fixture_specs():
    assert fixtures.module_fixture("V2plusV0").dim == 4
    assert fixtures.module_fixture("V2odd").parity[0] == 1
    assert decomposition_multiset(fixtures.module_fixture("scramble:V4+V2+V2:7")) \
        == [4, 2, 2]
    with pytest.raises(KeyError):
        fixtures.module_fixture("W3")


def test_cli_verify_exit_codes(tmp_path, capsys):
    assert main(["verify", "builtin:osp12"]) == 0
    capsys.readouterr()
    assert main(["verify", "builtin:osp12-broken"]) == 1
    capsys.readouterr()
    missing = tmp_path / "missing.json"
    assert main(["verify", str(missing)]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 2
    capsys.readouterr()


def test_cli_verify_reports_jacobi_witness(capsys):
    main(["verify", "builtin:osp12-broken"])
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "Jacobi" in out or "anti" in out


def _verify_checks(tmp_path, capsys, doc, code) -> dict:
    """verify's JSON checks on doc, by name; verify must exit with code."""
    path = tmp_path / "doc.json"
    documents.save(str(path), doc)
    assert main(["verify", str(path), "--format", "json"]) == code
    return {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}


def _osp12_doc_without(*fields) -> dict:
    doc = documents.algebra_to_dict(fixtures.osp12_standard())
    return {k: v for k, v in doc.items() if k not in fields}


@pytest.mark.parametrize("dropped", [(), ("gram", "cartan", "weights")],
                         ids=["with form and weights", "without form"])
def test_cli_verify_fails_an_even_part_with_an_odd_component(dropped, tmp_path, capsys):
    """[E+, E-] = F+ leaves the even part; even_part drops that component, so
    the check looks for it first and reports it as bracket grading does.  It
    needs no form, Cartan or weights, so it runs on a document without them."""
    doc = _osp12_doc_without(*dropped)
    e, f = doc["basis"].index("E+"), doc["basis"].index("E-")
    odd = doc["basis"].index("F+")
    doc["structure"] += [[e, f, odd, "1"], [f, e, odd, "-1"]]
    checks = _verify_checks(tmp_path, capsys, doc, 1)
    leak = {"component": "F+", "pair": ["E+", "E-"]}
    assert checks["bracket grading"]["witness"] == leak
    assert checks["even part is a subalgebra"] == {
        "name": "even part is a subalgebra", "status": "fail", "witness": leak}


@pytest.mark.parametrize("dropped", [("gram", "cartan", "weights"), ("cartan", "weights")],
                         ids=["without form", "without weights"])
def test_cli_verify_passes_the_even_part_of_a_document_without(dropped, tmp_path, capsys):
    checks = _verify_checks(tmp_path, capsys, _osp12_doc_without(*dropped), 0)
    assert checks["even part is a subalgebra"] == {
        "name": "even part is a subalgebra", "status": "pass"}


def test_cli_decompose(capsys):
    assert main(["decompose", "builtin:V2plusV0"]) == 0
    out = capsys.readouterr().out
    assert "lambda: [2, 0]" in out
    assert main(["decompose", "builtin:V2"]) == 0
    out = capsys.readouterr().out
    assert "lambda: [2]" in out


def test_cli_decompose_scrambled_matches_plain(capsys):
    assert main(["decompose", "builtin:scramble:V4+V2+V2:11"]) == 0
    scrambled = capsys.readouterr().out.splitlines()[0]
    assert main(["decompose", "builtin:V4+V2+V2"]) == 0
    plain = capsys.readouterr().out.splitlines()[0]
    assert scrambled == plain == "lambda: [4, 2, 2]"


def test_cli_json_reports_are_byte_identical(capsys):
    args = ["affinize", "--base", "builtin:osp12", "--rank", "1", "--window", "1",
            "--samples", "40", "--seed", "12", "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    parsed = json.loads(first)
    assert parsed["passed"] is True
    assert "elapsed" not in first and "timing" not in first


def test_cli_twist_labels(capsys):
    args = ["twist", "--I", "1", "--J", "1", "--with-zero", "--rank", "1",
            "--window", "1", "--zwindow", "2", "--samples", "30", "--seed", "1"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.startswith("type: BC(1,1)")
    # without the zero index the supertrace form degenerates: reported, exit 1
    args = ["twist", "--I", "1", "--J", "1", "--rank", "1"]
    assert main(args) == 1
    out = capsys.readouterr().out
    assert "degenerate" in out


def test_cli_roots(capsys):
    assert main(["roots", "builtin:sl12"]) == 0
    out = capsys.readouterr().out
    assert "S5" in out and "PASS" in out


def test_cli_verify_json_deterministic(capsys):
    args = ["verify", "builtin:sl12", "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_cli_verify_algebra_document_from_disk(tmp_path, capsys):
    L = fixtures.algebra_fixture("osp12")
    path = tmp_path / "osp12.json"
    documents.save(str(path), documents.algebra_to_dict(L))
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()


def test_cli_decompose_module_document_from_disk(tmp_path, capsys):
    m = fixtures.module_fixture("scramble:V6+V2:19")
    path = tmp_path / "mod.json"
    documents.save(str(path), documents.module_to_dict(m))
    assert main(["decompose", str(path)]) == 0
    out = capsys.readouterr().out
    assert "lambda: [6, 2]" in out


def test_cli_heisenberg_fails_form_invariance(capsys):
    # the shipped fixture is a designed counterexample to invariance
    assert main(["verify", "builtin:heisenberg"]) == 1
    out = capsys.readouterr().out
    assert "invariance" in out


def test_cli_twist_json_parses(capsys):
    args = ["twist", "--with-zero", "--rank", "1", "--window", "0", "--zwindow", "1",
            "--samples", "10", "--seed", "0", "--format", "json"]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    labels = [c["witness"] for c in doc["checks"] if c["name"] == "type label"]
    assert labels == [{"label": "BC(1,1)"}]


@pytest.mark.parametrize("command,flag", [
    ("affinize", "--window"), ("affinize", "--rank"), ("affinize", "--samples"),
    ("twist", "--window"), ("twist", "--zwindow"), ("twist", "--rank"),
    ("twist", "--samples"),
])
def test_cli_negative_counts_are_input_errors(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be a nonnegative integer, got -1" in err
    assert "Traceback" not in err


def test_cli_decompose_reports_module_error(capsys):
    assert main(["decompose", "builtin:V3"]) == 2
    err = capsys.readouterr().err
    assert "highest weight must be an even nonnegative integer" in err
    assert "no such file" not in err
    assert main(["decompose", "builtin:W3"]) == 2
    assert "no such file and not a builtin module spec" in capsys.readouterr().err


def _one_element_doc(**overrides):
    doc = {"format": documents.ALGEBRA_FORMAT, "field": "Q", "basis": ["a"],
           "parity": [0], "structure": [], "gram": [[0, 0, "1"]], "cartan": [0],
           "weights": [["0"]]}
    doc.update(overrides)
    return doc


@pytest.mark.parametrize("overrides,message", [
    ({"structure": [[0, 0, 5, "1"]]}, "structure index 5 out of range"),
    ({"structure": [[-1, 0, 0, "1"]]}, "structure index -1 out of range"),
    ({"structure": [[0, 0, "1"]]}, "is not [i, j, k, scalar]"),
    ({"gram": [[0, 2, "1"]]}, "gram index 2 out of range"),
    ({"cartan": [1]}, "cartan index 1 out of range"),
    ({"weights": []}, "weights has 0 rows for a basis of 1"),
    ({"weights": [["0", "1"]]}, "weights row 0 has 2 entries, expected 1"),
    ({"gram": [[0, 0, 1]]}, "not an exact scalar: 1"),
    ({"parity": [0.5]}, "parity must list 0/1 per basis element"),
    ({"parity": [0.0]}, "parity must list 0/1 per basis element"),
    ({"parity": [False]}, "parity must list 0/1 per basis element"),
    ({"parity": ["0"]}, "parity must list 0/1 per basis element"),
    ({"structure": [[0, 0, 0.0, "1"]]}, "structure index 0.0 is not an integer"),
    ({"structure": [[0, 1.5, 0, "1"]]}, "structure index 1.5 is not an integer"),
    ({"structure": [[True, 0, 0, "1"]]}, "structure index True is not an integer"),
    ({"gram": [[0.0, 0, "1"]]}, "gram index 0.0 is not an integer"),
    ({"gram": [[0, False, "1"]]}, "gram index False is not an integer"),
    ({"cartan": [0.0]}, "cartan index 0.0 is not an integer"),
    ({"cartan": [True]}, "cartan index True is not an integer"),
    ({"gram": [[0, 0, "1/0"]]}, "zero denominator in '1/0'"),
    ({"structure": [[0, 0, 0, "1+2/0*i"]]}, "zero denominator in '2/0'"),
    ({"field": "R"}, 'field \'R\' is not "Q" or "Qi"'),
    ({"field": 3}, 'field 3 is not "Q" or "Qi"'),
    ({"structure": [[0, 0, 0, "1"], [0, 0, 0, "5"]]},
     "repeated structure entry at indices [0, 0, 0]"),
    ({"gram": [[0, 0, "1"], [0, 0, "2"]]}, "repeated gram entry at indices [0, 0]"),
    ({"basis": "a"}, "basis must be a list of string labels"),
    ({"basis": [1]}, "basis must be a list of string labels"),
    ({"basis": ["a", "a"], "parity": [0, 0], "weights": [["0"], ["0"]]},
     "repeated basis label 'a'"),
    ({"weights": ["0"]}, "weights row 0 is not a JSON list: '0'"),
    ({"weights": "0"}, "weights is not a JSON list: '0'"),
    ({"structure": ""}, "structure is not a JSON list: ''"),
    ({"structure": ["abcd"]}, "structure entry 'abcd' is not [i, j, k, scalar]"),
    ({"gram": ""}, "gram is not a JSON list: ''"),
    ({"cartan": ""}, "cartan is not a JSON list: ''"),
    ({"parity": "0"}, "parity is not a JSON list: '0'"),
])
def test_cli_verify_rejects_out_of_range_documents(tmp_path, capsys, overrides,
                                                   message):
    doc = _one_element_doc(**overrides)
    with pytest.raises(documents.DocumentError, match=message.replace("[", r"\[")):
        documents.algebra_from_dict(doc)
    path = tmp_path / "bad.json"
    documents.save(str(path), doc)
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


def test_an_algebra_document_without_a_field_is_over_q():
    doc = _one_element_doc()
    del doc["field"]
    assert documents.algebra_from_dict(doc).field == "Q"


@pytest.mark.parametrize("command", ["verify", "decompose"])
def test_cli_a_document_that_is_not_utf8_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    message = f"input error: cannot read document {path}: 'utf-8' codec can't decode"
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(message)
    assert main([command, str(path), "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"].startswith(message)


def test_cli_verify_one_element_document_is_valid(tmp_path, capsys):
    path = tmp_path / "ok.json"
    documents.save(str(path), _one_element_doc())
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()


def _module_doc(parity, act_e, act_f=None, act_h=None):
    zero = [["0"] * len(parity) for _ in parity]
    return {"format": documents.MODULE_FORMAT, "parity": parity, "act_e": act_e,
            "act_f": act_f or zero, "act_h": act_h or zero}


@pytest.mark.parametrize("doc,message", [
    (_module_doc([0, 7], [["0", "0"], ["0", "0"]]), "parity must list 0 or 1"),
    (_module_doc([0.5, 1], [["0", "0"], ["0", "0"]]), "parity must list 0 or 1"),
    (_module_doc([0, 1], [["0", "1"], ["0"]]), "act_e is not a 2x2 matrix"),
    (_module_doc([0, 1], [["0", "1/2+1*i"], ["0", "0"]]), "act_e entry (0,1) is not rational"),
    (_module_doc([0, 1], [[0, 1], [0, 0]]), "not an exact scalar: 0"),
    ([0, 1], "document is not a JSON object"),
    (_module_doc([True, 0], [["0", "0"], ["0", "0"]]), "parity must list 0 or 1"),
    (_module_doc([0], ["0"]), "act_e row 0 is not a JSON list: '0'"),
    (_module_doc([0], [["0"]], act_f=["0"]), "act_f row 0 is not a JSON list: '0'"),
    (_module_doc([0], [["0"]], act_h=["0"]), "act_h row 0 is not a JSON list: '0'"),
    (_module_doc([0], "0"), "act_e is not a JSON list: '0'"),
    (_module_doc("0", [["0"]]), "parity is not a JSON list: '0'"),
])
def test_cli_decompose_rejects_malformed_module(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["decompose", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err
    assert "Traceback" not in captured.err


def test_cli_decompose_json_error_is_json(tmp_path, capsys):
    # a correctly graded module on which h acts by 0: not a representation
    path = tmp_path / "notrep.json"
    path.write_text(json.dumps(_module_doc([0, 1], [["0", "1"], ["0", "0"]])))
    assert main(["decompose", str(path), "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "he - eh != 2e"}
    assert main(["decompose", str(path)]) == 1
    assert capsys.readouterr().out == "error: he - eh != 2e\n"


def test_cli_field_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roots", "builtin:osp12", "--field", "Qi"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --field Qi" in capsys.readouterr().err


def test_cli_import_leaves_numpy_out():
    import subprocess
    import sys
    code = "import sys, superlie.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


# The CLI contract: every subcommand in both formats, on valid input, on
# malformed input (exit 2) and on input that fails a check (exit 1).  Under
# --format json stdout is always one JSON document: a report, or
# {"error": ...} when no report could be made.
CONTRACT = [
    (["verify", "builtin:osp12"], 0),
    (["verify", "builtin:osp12-broken"], 1),
    (["verify", "{parity_half}"], 2),
    (["verify", "{zero_denominator}"], 2),
    (["verify", "{no_form}"], 0),
    (["verify", "{no_weights}"], 0),
    (["decompose", "builtin:V2+V0"], 0),
    (["decompose", "builtin:V3"], 2),
    (["roots", "builtin:sl12"], 0),
    (["roots", "{missing}"], 2),
    (["roots", "builtin:osp12-broken"], 1),
    (["roots", "{cartan_weight}"], 1),
    (["affinize", "--rank", "1", "--window", "1", "--samples", "5"], 0),
    (["affinize", "--base", "{cartan_weight}"], 1),
    (["affinize", "--base", "builtin:heisenberg", "--rank", "1", "--window", "1"], 1),
    (["affinize", "--rank", "2", "--window", "1", "--q", "-1"], 0),
    (["affinize", "--q", "abc"], 2),
    (["affinize", "--q", "0"], 2),
    (["affinize", "--q", "1/0"], 2),
    (["affinize", "--q", "1+1/0*i"], 2),
    (["twist", "--with-zero", "--window", "0", "--zwindow", "1", "--samples", "5"], 0),
    (["twist", "--I", "1", "--J", "1", "--window", "0", "--zwindow", "1"], 1),
    (["twist", "--I", "0", "--J", "0"], 2),
    (["twist", "--I", "-1"], 2),
    (["twist", "--star-signs", "2"], 2),
    (["twist", "--with-zero", "--rank", "2", "--star-signs", "-1"], 2),
    (["twist", "--with-zero", "--star-signs", "1", "-1", "1"], 2),
    (["twist", "--q", "1/0"], 2),
    (["twist", "--with-zero", "--rank", "1", "--window", "1", "--zwindow", "1", "--q", "2"], 0),
    (["bogus"], 2),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("args,code", CONTRACT, ids=lambda v: " ".join(v)
                         if isinstance(v, list) else str(v))
def test_cli_contract(tmp_path, capsys, args, code, fmt):
    paths = {"parity_half": tmp_path / "half.json", "missing": tmp_path / "missing.json",
             "cartan_weight": tmp_path / "weight.json",
             "zero_denominator": tmp_path / "zero.json", "no_form": tmp_path / "noform.json",
             "no_weights": tmp_path / "noweights.json"}
    documents.save(str(paths["parity_half"]), _one_element_doc(parity=[0.5]))
    documents.save(str(paths["cartan_weight"]), _one_element_doc(weights=[["1"]]))
    documents.save(str(paths["zero_denominator"]), _one_element_doc(gram=[[0, 0, "1/0"]]))
    documents.save(str(paths["no_form"]), _one_element_doc(gram=None))
    documents.save(str(paths["no_weights"]), _one_element_doc(cartan=None, weights=None))
    argv = [a.format(**paths) for a in args] + ["--format", fmt]
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse usage errors
        got = exc.code
    assert got == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if fmt == "json":
        doc = json.loads(captured.out)
        if code == 2:
            assert list(doc) == ["error"]
        elif code == 1:
            assert list(doc) == ["error"] or doc["passed"] is False
        else:
            assert "error" not in doc and doc.get("passed", True)
    else:
        assert not captured.out.startswith("{")


def _perturbed(entries, key, delta):
    """entries ([*key, scalar] rows) with delta added at key (a new row if absent)."""
    out = [list(e) for e in entries]
    for e in out:
        if e[:-1] == key:
            e[-1] = scalar_to_string(scalar_from_string(e[-1]) + delta)
            return out
    return out + [key + [scalar_to_string(delta)]]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["osp12", "sl12"]), table=st.sampled_from(["structure", "gram"]),
       delta=st.sampled_from([Rat(1), Rat(-1), Rat(2), Rat(1, 2), Rat(-3, 2)]),
       data=st.data())
def test_verify_pipeline_fails_on_one_perturbed_constant(name, table, delta, data):
    """One structure constant or one Gram entry of osp12 or sl12 moved by a
    nonzero delta (an absent entry counts as 0) fails the verify report."""
    doc = documents.algebra_to_dict(fixtures.algebra_fixture(name))
    index = st.integers(0, len(doc["basis"]) - 1)
    key = [data.draw(index) for _ in range(3 if table == "structure" else 2)]
    doc[table] = _perturbed(doc[table], key, delta)
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "perturbed.json")
        documents.save(path, doc)
        with contextlib.redirect_stdout(out):
            code = main(["verify", path, "--format", "json"])
    report = json.loads(out.getvalue())
    assert (code, report["passed"]) == (1, False), (name, table, key, str(delta))


def test_cli_verify_reports_an_asymmetric_cartan_form(tmp_path, capsys):
    """A Gram entry moved inside the Cartan block leaves no symmetric form on
    the roots; the pipeline reports that as a failed check, not an error."""
    L = fixtures.algebra_fixture("sl12")
    doc = documents.algebra_to_dict(L)
    h1, h2 = L.cartan
    doc["gram"] = _perturbed(doc["gram"], [h2, h1], Rat(-1))
    path = tmp_path / "asym.json"
    documents.save(str(path), doc)
    assert main(["verify", str(path), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = {c["name"] for c in report["checks"] if c["status"] == "fail"}
    assert "root supersystem of the weights" in failed
    assert "supersymmetry" in failed


@pytest.mark.parametrize("command", [["verify", "builtin:nope"], ["roots", "builtin:nope"],
                                     ["affinize", "--base", "builtin:nope"]])
def test_cli_an_unknown_fixture_is_named_once_unquoted(capsys, command):
    message = "input error: unknown algebra fixture 'nope'"
    assert main(command) == 2
    assert capsys.readouterr().err == message + "\n"
    assert main([*command, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"error": message}
    assert captured.err == message + "\n"
