import json

import pytest

from superlie import documents, fixtures
from superlie.cli import main
from superlie.osp12 import check_representation, decomposition_multiset


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
    assert parsed["seed"] == 12
    assert "elapsed" not in first and "timing" not in first


def test_cli_affinize_sampling_disabled_is_skip(capsys):
    args = ["affinize", "--base", "builtin:osp12", "--window", "1",
            "--samples", "0", "--seed", "0", "--format", "json"]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    stats = {c["name"]: c["status"] for c in doc["checks"]}
    assert any(v == "skip" and "sampled" in k for k, v in stats.items())


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
