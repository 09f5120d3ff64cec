import json
import pathlib
import shlex

import numpy as np
import pytest

from pmtool import pmfile, process, reduction
from pmtool.cli import build_parser, main
from pmtool.linalg import DimensionPair, kron, pauli_word, random_density
from pmtool.ocbgame import build_w_ocb
from pmtool.process import PartySpec, ProcessMatrix, single_party, validate


@pytest.fixture
def valid_pm_path(tmp_path):
    rho = random_density(2, 0)
    w = single_party(2, 2, kron(rho, np.eye(2)))
    path = tmp_path / "valid.pm.json"
    pmfile.save(path, w, label="rho (x) I")
    return str(path)


@pytest.fixture
def invalid_pm_path(tmp_path):
    w = single_party(2, 2, np.eye(4, dtype=complex))  # trace 4, not a valid PM
    path = tmp_path / "invalid.pm.json"
    pmfile.save(path, w)
    return str(path)


@pytest.fixture
def nonhermitian_pm_path(tmp_path):
    m = kron(random_density(2, 1), np.eye(2))
    m[0, 1] += 0.1
    path = tmp_path / "nonhermitian.pm.json"
    pmfile.save(path, single_party(2, 2, m))
    return str(path)


def _reject_constant(token):
    raise ValueError(f"{token} is not standard JSON")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


# ----------------------------------------------------------------- pm files


def test_parse_round_trip_exact():
    w = build_w_ocb()
    text = pmfile.serialize(w, label="W_OCB")
    assert "\n" not in text
    # the one-line layout, and the indented layout earlier versions wrote
    for layout in (text, json.dumps(json.loads(text), indent=1)):
        again = pmfile.parse(layout)
        assert np.array_equal(again.matrix, w.matrix)
        assert np.array_equal(np.signbit(again.matrix.view(float)), np.signbit(w.matrix.view(float)))
        assert again.spec == w.spec
        assert pmfile.serialize(again, label="W_OCB") == text


def test_parse_reports_syntax_error():
    with pytest.raises(pmfile.PMFileError, match="line"):
        pmfile.parse("{not json")


def test_parse_reports_dimension_mismatch():
    doc = {
        "parties": [{"d_in": 2, "d_out": 2}],
        "matrix": {"rows": 3, "cols": 3, "entries": [[0.0, 0.0]] * 9},
    }
    with pytest.raises(pmfile.PMFileError, match="dimensions"):
        pmfile.parse(json.dumps(doc))


def test_parse_reports_non_finite_entry():
    doc = {
        "parties": [{"d_in": 1, "d_out": 1}],
        "matrix": {"rows": 1, "cols": 1, "entries": [[float("inf"), 0.0]]},
    }
    with pytest.raises(pmfile.PMFileError, match="finite"):
        pmfile.parse(json.dumps(doc).replace("Infinity", "1e999"))


def test_parse_accepts_non_hermitian():
    # Hermiticity is a validation concern, not a parse concern.
    doc = {
        "parties": [{"d_in": 1, "d_out": 2}],
        "matrix": {
            "rows": 2,
            "cols": 2,
            "entries": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        },
    }
    w = pmfile.parse(json.dumps(doc))
    assert w.matrix[0, 1] == 1.0


# --------------------------------------------------------------------- CLI


def test_emit_ocb_then_validate(tmp_path, capsys):
    out = str(tmp_path / "wocb.pm.json")
    code, report = run(capsys, "emit-ocb", out)
    assert code == 0

    parsed = pmfile.load(out)
    assert np.array_equal(parsed.matrix, build_w_ocb().matrix)

    code, report = run(capsys, "validate", out)
    assert code == 0
    assert report["status"] == "pass"
    assert report["results"]["trace_value"] == pytest.approx(4.0)
    assert report["results"]["distance"] <= 1e-9
    assert report["results"]["violated_constraints"] == []


@pytest.mark.parametrize("w", [single_party(2, 2, kron(random_density(2, 0), np.eye(2))),
                               build_w_ocb()], ids=["rho (x) I", "W_OCB"])
def test_validate_certified_report_has_no_eigenvalue(tmp_path, capsys, w):
    # PSD is certified without W's spectrum, so there is no lowest eigenvalue to print
    path = str(tmp_path / "w.pm.json")
    pmfile.save(path, w)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert '"psd_ok": true, "min_eigenvalue": null' in out
    assert json.loads(out, parse_constant=_reject_constant)["status"] == "pass"


def test_validate_non_psd_report_has_the_exact_eigenvalue(tmp_path, capsys):
    path = str(tmp_path / "w.pm.json")
    pmfile.save(path, single_party(2, 2, kron(np.diag([1.1, -0.1]), np.eye(2))))
    code, report = run(capsys, "validate", path)
    assert code == 1 and report["status"] == "fail"
    results = report["results"]
    assert results["psd_ok"] is False
    assert results["min_eigenvalue"] == -0.1
    assert results["violated_constraints"] == [["min_eigenvalue", results["min_eigenvalue"]]]


def test_validate_fail_exit_code(capsys, invalid_pm_path):
    code, report = run(capsys, "validate", invalid_pm_path)
    assert code == 1
    assert report["status"] == "fail"


def test_validate_huge_tol_lists_no_row_like_reduce(capsys, valid_pm_path):
    # tol * ||C||_F passes the largest float; the rows compare residual / ||C||_F
    code, report = run(capsys, "validate", valid_pm_path, "--tol", "1e308")
    assert code == 0 and report["status"] == "pass"
    assert report["results"]["violated_constraints"] == []
    code, _ = run(capsys, "reduce", valid_pm_path, "--tol", "1e308")
    assert code == 0


def test_validate_missing_file_is_usage_error(capsys):
    code = main(["validate", "/nonexistent/foo.pm.json"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_validate_factor_above_the_basis_limit_is_usage_error(tmp_path, capsys):
    path = str(tmp_path / "big.pm.json")
    pmfile.save(path, single_party(65, 1, np.eye(65) / 65))
    assert main(["validate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "factor dimension 65 is above 64" in captured.err


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.pm.json"
    path.write_text("{broken")
    code = main(["validate", str(path)])
    assert code == 2


def test_reduce_valid_file(capsys, valid_pm_path):
    code, report = run(capsys, "reduce", valid_pm_path)
    assert code == 0
    assert report["status"] == "pass"
    for oracle in ("constructive", "projection"):
        assert report["results"][oracle]["certified"]
        assert report["results"][oracle]["w1"] is not None


def test_reduce_oracles_follow_the_file(tmp_path, monkeypatch, capsys, valid_pm_path):
    # the constructive sums take only a few qubits in and out; every single
    # party gets the projection oracle's certificate
    code, report = run(capsys, "reduce", valid_pm_path)
    assert code == 0
    assert list(report["results"]) == ["constructive", "projection"]
    for d_in, d_out in ((3, 3), (2, 3), (4, 2)):
        w = kron(random_density(d_in, 0), np.eye(d_out))
        touch = 1e-3 * kron(np.eye(d_in), np.diag([1.0, -1.0] + [0.0] * (d_out - 2)))
        for m, expected in ((w, 0), (w + touch, 1)):
            path = str(tmp_path / f"{d_in}-{d_out}.pm.json")
            pmfile.save(path, single_party(d_in, d_out, m))
            code, report = run(capsys, "reduce", path)
            assert code == expected and report["status"] == ("pass", "fail")[expected]
            assert list(report["results"]) == ["projection"]
            assert report["results"]["projection"]["certified"] is (expected == 0)
            assert report["inputs"] == {"file": path}
    # above MAX_QUBITS the constructive oracle declines and the projection decides
    monkeypatch.setattr(reduction, "MAX_QUBITS", 0)
    code, report = run(capsys, "reduce", valid_pm_path)
    assert code == 0 and list(report["results"]) == ["projection"]
    with pytest.raises(SystemExit) as exc:
        main(["reduce", valid_pm_path, "--oracle", "projection"])
    assert exc.value.code == 2
    assert "--oracle" in capsys.readouterr().err


def test_reduce_invalid_file(capsys, invalid_pm_path):
    code, report = run(capsys, "reduce", invalid_pm_path)
    assert code == 1
    assert report["status"] == "fail"


def test_trace_shift_is_rejected_by_validate_and_reduce(tmp_path, capsys):
    # Residual and W1 trace deviation are 0.9 tol each; the distance to the
    # valid set is 0.9 sqrt(2) tol, the one row that explains the rejection.
    w = kron(random_density(2, 0), np.eye(2)) + 0.45e-9 * (np.eye(4) + pauli_word("zz"))
    path = str(tmp_path / "trace-shift.pm.json")
    pmfile.save(path, single_party(2, 2, w))
    code, report = run(capsys, "validate", path)
    assert code == 1 and report["status"] == "fail"
    assert report["results"]["distance"] == pytest.approx(0.9e-9 * np.sqrt(2), rel=1e-6)
    assert report["results"]["violated_constraints"] == [["distance", report["results"]["distance"]]]
    code, report = run(capsys, "reduce", path)
    assert code == 1 and report["status"] == "fail"
    for oracle in ("constructive", "projection"):
        assert report["results"][oracle]["certified"] is False


def test_reduce_single_qubit_lists_each_word_once(tmp_path, capsys):
    w = kron(random_density(2, 0), np.eye(2)) + 0.05 * kron(np.eye(2), pauli_word("z"))
    path = str(tmp_path / "perturbed.pm.json")
    pmfile.save(path, single_party(2, 2, w))
    code, report = run(capsys, "reduce", path)
    assert code == 1
    labels = [v["coefficient"] for v in report["results"]["constructive"]["violations"]]
    assert labels.count("w_1,z") == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reduce_certifies_once(tmp_path, monkeypatch, capsys, n):
    """``pmtool reduce`` runs the certifier once, yet its constructive block is
    still ``reduce_multiqubit``'s report (sum rows, then the certifier's) and its
    projection block ``projection_oracle``'s."""
    d = 2**n
    m = kron(random_density(d, n), np.eye(d)) + 1e-3 * kron(np.eye(d), np.diag(range(d)))
    m[0, 1] += 1e-3  # not Hermitian either, so the certifier adds a row
    w = single_party(d, d, m)
    path = str(tmp_path / "w.pm.json")
    pmfile.save(path, w)
    calls = []
    finish = reduction._finish_report
    monkeypatch.setattr(reduction, "_finish_report", lambda *a: calls.append(a) or finish(*a))
    code, report = run(capsys, "reduce", path)
    assert code == 1 and len(calls) == 1
    for name, want in (("constructive", reduction.reduce_multiqubit(w)),
                       ("projection", reduction.projection_oracle(w))):
        got = report["results"][name]
        assert (got["certified"], got["residual"], got["w1_trace"]) == (
            want.certified, want.residual, want.w1_trace)
        assert [(v["description"], v["lhs_value"], v["coefficient"], v["coefficient_value"])
                for v in got["violations"]] == [
            (v.description, v.lhs_value, v.coefficient_label, v.coefficient_value)
            for v in want.violations]
    assert report["results"]["constructive"]["violations"][-1]["coefficient"] == "hermiticity"


def test_single_party_rule_is_called_not_copied(tmp_path, monkeypatch, capsys):
    """``validate`` and every reduction oracle certify one party by one call of
    ``process.single_party_verdict``; ``pmtool reduce`` makes one call for both
    of its blocks, and several parties make none."""
    calls = []
    verdict = process.single_party_verdict

    def counted(*args):
        calls.append(args)
        return verdict(*args)

    monkeypatch.setattr(process, "single_party_verdict", counted)
    monkeypatch.setattr(reduction, "single_party_verdict", counted)
    w = single_party(4, 4, 1.5 * kron(random_density(4, 0), np.eye(4)))  # trace 6: rejected
    path = str(tmp_path / "w.pm.json")
    pmfile.save(path, w)
    for call, arg, want in ((validate, w, 1), (reduction.projection_oracle, w, 1),
                            (reduction.reduce_multiqubit, w, 1),
                            (reduction.reduce_single_qubit, single_party(2, 2, np.eye(4) / 2), 1),
                            (lambda path: run(capsys, "reduce", path), path, 1),
                            (validate, build_w_ocb(), 0)):
        calls.clear()
        call(arg)
        assert len(calls) == want, call


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_cli_lines():
    """The commands of the ``sh`` block under README's ``## CLI`` heading."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


def test_readme_cli_examples_run(tmp_path, capsys, valid_pm_path):
    files = {"wocb.pm.json": str(tmp_path / "wocb.pm.json"), "some.pm.json": valid_pm_path}
    lines = _readme_cli_lines()
    assert lines and all(argv[0] == "pmtool" for argv in lines)
    for argv in lines:
        code = main([files.get(arg, arg) for arg in argv[1:]])
        out = capsys.readouterr().out
        assert code == 0, argv
        assert out.count("\n") == 1, argv  # one report, on one line
        json.loads(out, parse_constant=_reject_constant)


def test_ocb_game_report(capsys):
    code, report = run(capsys, "ocb-game")
    assert code == 0
    assert report["status"] == "violated"
    assert report["results"]["p_ocb"] == pytest.approx(
        (2 + np.sqrt(2)) / 4, abs=1e-12
    )
    assert report["results"]["causal_bound"] == 0.75


def test_ocb_game_eta_flag(capsys):
    values = []
    for eta in ("0", "1", "plus", "iplus"):
        code, report = run(capsys, "ocb-game", "--eta", eta)
        assert code == 0
        values.append(report["results"]["p_ocb"])
    assert max(values) - min(values) < 1e-12


def test_causal_bound_report(capsys):
    code, report = run(capsys, "causal-bound")
    assert code == 0
    assert report["status"] == "value"
    assert report["results"]["bound"] == 0.75
    assert report["results"]["bound_exact"] == "3/4"
    assert report["results"]["b_before_a_two_bit"] == 0.75


def test_decompose_report(tmp_path, capsys, valid_pm_path):
    code, report = run(capsys, "decompose", valid_pm_path)
    assert code == 0
    coeffs = report["results"]["coefficients"]
    assert coeffs["1,1"] == pytest.approx(0.5, abs=1e-13)
    assert coeffs["z,x"] == pytest.approx(0.0, abs=1e-13)
    assert len(coeffs) == 16
    assert list(coeffs) == sorted(coeffs)
    for n in (1, 2, 3):
        d = 2**n
        path = tmp_path / f"n{n}.pm.json"
        pmfile.save(path, single_party(d, d, kron(random_density(d, n), np.eye(d))))
        code, report = run(capsys, "decompose", str(path))
        assert code == 0 and report["results"]["n_qubits"] == n
        # "<in>,<out>" keys in pauli_decompose's order, each with its coefficient
        expected = reduction.pauli_decompose(pmfile.load(path)).coefficients
        assert list(report["results"]["coefficients"].items()) == [
            ("".join(word[:n]) + "," + "".join(word[n:]), value)
            for word, value in expected.items()
        ]


def test_one_by_one_file_decomposes_and_reduces(tmp_path, capsys):
    # n = 0: the one (empty) Pauli word carries Tr W; W = 1 is the valid scalar
    path = tmp_path / "scalar.pm.json"
    for entry, code_want in ((1.0, 0), (0.5, 1)):
        pmfile.save(path, single_party(1, 1, np.full((1, 1), entry)))
        code, report = run(capsys, "decompose", str(path))
        assert code == 0 and report["results"] == {"n_qubits": 0, "coefficients": {",": entry}}
        code, report = run(capsys, "reduce", str(path))
        assert code == code_want
        assert report["results"]["constructive"] == report["results"]["projection"]
        assert report["results"]["projection"]["w1_trace"] == entry


def test_pretty_output(capsys, valid_pm_path):
    code = main(["validate", valid_pm_path, "--pretty"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: pass" in out


def test_deterministic_reports(capsys, valid_pm_path):
    _, first = run(capsys, "validate", valid_pm_path)
    _, second = run(capsys, "validate", valid_pm_path)
    assert first == second


def test_repeated_main_calls_share_no_options(capsys, valid_pm_path):
    # main reuses one parser; no option value may leak into the next call
    assert build_parser() is build_parser()
    _, report = run(capsys, "validate", valid_pm_path, "--tol", "1e-3")
    assert report["tolerances"]["tol"] == 1e-3
    _, report = run(capsys, "validate", valid_pm_path)
    assert report["tolerances"]["tol"] == 1e-9
    _, report = run(capsys, "reduce", valid_pm_path, "--tol", "1e-3")
    assert report["tolerances"]["tol"] == 1e-3
    _, report = run(capsys, "reduce", valid_pm_path)
    assert report["tolerances"]["tol"] == 1e-9
    assert set(report["results"]) == {"constructive", "projection"}
    _, pretty = run(capsys, "ocb-game", "--pretty")
    assert pretty.startswith("command: ocb-game")
    _, report = run(capsys, "ocb-game")
    assert report["command"] == "ocb-game" and report["status"] == "violated"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["causal-bound", "decompose", "emit-ocb"])
def test_tol_only_where_read(tmp_path, command):
    # these subcommands take no tolerance, so argparse rejects --tol
    files = [] if command == "causal-bound" else [str(tmp_path / "w.pm.json")]
    with pytest.raises(SystemExit) as exc:
        main([command, *files, "--tol", "1e-3"])
    assert exc.value.code == 2


def test_validate_non_hermitian_reports_fail(capsys, nonhermitian_pm_path):
    code = main(["validate", nonhermitian_pm_path])
    out = capsys.readouterr().out
    report = json.loads(out, parse_constant=_reject_constant)
    assert code == 1
    assert report["status"] == "fail"
    assert report["results"]["psd_ok"] is False
    assert report["results"]["min_eigenvalue"] is None
    assert report["results"]["violated_constraints"][0][0] == "hermiticity"


def test_reduce_non_hermitian_reports_violation(capsys, nonhermitian_pm_path):
    code, report = run(capsys, "reduce", nonhermitian_pm_path)
    assert code == 1
    assert report["status"] == "fail"
    labels = [v["coefficient"] for v in report["results"]["constructive"]["violations"]]
    assert "hermiticity" in labels
    assert not report["results"]["projection"]["certified"]


@pytest.mark.parametrize("command", ["reduce", "decompose"])
def test_dimension_mismatch_is_usage_error(tmp_path, capsys, command):
    path = str(tmp_path / "wocb.pm.json")
    pmfile.save(path, build_w_ocb())  # two parties: no single-party reduction
    code = main([command, path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("parties, detail", [
    ([(2, 3)], "d_in = 2, d_out = 3"), ([(3, 3)], "dimension 3"), ([(2, 2), (2, 2)], "2 parties")])
def test_decompose_states_its_qubit_requirement(tmp_path, capsys, parties, detail):
    path = str(tmp_path / "w.pm.json")
    spec = PartySpec(tuple(DimensionPair(*dims) for dims in parties))
    pmfile.save(path, ProcessMatrix(spec, np.eye(spec.total_dim)))
    code = main(["decompose", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: expected one party of n qubits in and out, got {detail}\n"


@pytest.mark.parametrize("d_in, d_out", [(65, 1), (1, 65)])
def test_validate_refuses_factor_dimension_above_64(tmp_path, capsys, d_in, d_out):
    # validate's Gell-Mann stack for the factor would be too large; reduce builds none
    path = str(tmp_path / "big.pm.json")
    pmfile.save(path, single_party(d_in, d_out, kron(random_density(d_in, 0), np.eye(d_out))))
    code = main(["validate", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: factor dimension 65 is above 64")
    assert captured.err.count("\n") == 1
    code, report = run(capsys, "reduce", path)
    assert code == 0 and report["status"] == "pass"


def test_decompose_non_hermitian_is_usage_error(capsys, nonhermitian_pm_path):
    code = main(["decompose", nonhermitian_pm_path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: decomposition of a non-Hermitian matrix\n"


def _scalar_doc(d_in="1", d_out="1", rows="1", cols="1", entry="1"):
    """A 1x1 single-party document with each field given as raw JSON text."""
    return ('{"parties": [{"d_in": %s, "d_out": %s}], '
            '"matrix": {"rows": %s, "cols": %s, "entries": [[%s, 0]]}}'
            % (d_in, d_out, rows, cols, entry))


def _assert_file_error(capsys, path):
    # every subcommand that reads a file ends in one exit-2 error line
    for command in ("validate", "reduce", "decompose"):
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_scalar_doc_is_valid():
    w = pmfile.parse(_scalar_doc())
    assert w.matrix.shape == (1, 1) and validate(w).ok


SCALAR_PARTY = '[{"d_in": 1, "d_out": 1}]'


@pytest.mark.parametrize("text, message", [
    ("[1, 0]", "document must be a JSON object"),
    (_scalar_doc().replace(SCALAR_PARTY, "[]"), "'parties' must be a nonempty list"),
    (_scalar_doc().replace(SCALAR_PARTY, SCALAR_PARTY[1:-1]), "'parties' must be a nonempty list"),
    (_scalar_doc().replace('{"rows"', '[{"rows"').replace("0]]}", "0]]}]"),
     "'matrix' must be an object"),
    (_scalar_doc().replace("[[1, 0]]", "[[1, 0], [0, 0]]"), "expected 1 entries, got 2"),
    (_scalar_doc().replace("[[1, 0]]", '"1"'), "expected 1 entries, got non-list"),
], ids=["not-object", "parties-empty", "parties-not-list", "matrix-not-object",
        "entry-count", "entries-not-list"])
def test_malformed_document_shape_is_usage_error(tmp_path, capsys, text, message):
    with pytest.raises(pmfile.PMFileError, match=f"^{message}$"):
        pmfile.parse(text)
    path = tmp_path / "shape.pm.json"
    path.write_text(text)
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("fields", [
    {"entry": "9" * 400}, {"entry": "9" * 5000}, {"rows": "1e999"}, {"d_in": "1e999"},
], ids=["400-digit-entry", "5000-digit-entry", "rows-1e999", "d_in-1e999"])
def test_oversized_numbers_are_file_errors(tmp_path, capsys, fields):
    path = tmp_path / "big.pm.json"
    path.write_text(_scalar_doc(**fields))
    _assert_file_error(capsys, path)


OVERFLOWING_DOCS = {
    # finite entries whose norms' sums of squares overflow
    "qubit-1e200": pmfile.serialize(single_party(2, 2, np.full((4, 4), 1e200 + 0j))),
    # a finite entry whose W - W^dagger overflows
    "scalar-1e308": _scalar_doc(entry="1e308").replace("0]]", "1e308]]"),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_DOCS))
def test_overflowing_entries_are_file_errors(tmp_path, capsys, name):
    path = tmp_path / "overflow.pm.json"
    path.write_text(OVERFLOWING_DOCS[name])
    for command in ("validate", "reduce", "decompose"):
        code = main([command, str(path)])
        captured = capsys.readouterr()
        if command == "decompose" and code != 2:  # the Pauli transform may not overflow
            json.loads(captured.out, parse_constant=_reject_constant)
            continue
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_large_finite_entries_get_a_finite_report(tmp_path, capsys):
    path = tmp_path / "large.pm.json"
    path.write_text(_scalar_doc(entry="1e200"))
    for command in ("validate", "reduce"):
        code = main([command, str(path)])
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert code == 1
        assert report["status"] == "fail"


def test_deep_nesting_is_file_error(tmp_path, capsys):
    path = tmp_path / "deep.pm.json"
    path.write_text(_scalar_doc(entry="[" * 100_000 + "]" * 100_000))
    _assert_file_error(capsys, path)


def test_non_utf8_file_is_file_error(tmp_path, capsys):
    path = tmp_path / "latin1.pm.json"
    text = _scalar_doc().replace("{", '{"label": "caf\xe9", ', 1)
    path.write_bytes(text.encode("latin-1"))
    _assert_file_error(capsys, path)
    main(["validate", str(path)])
    assert capsys.readouterr().err == (f"error: {path} is not UTF-8 text: invalid "
                                       f"continuation byte at byte {text.index(chr(0xe9))}\n")


def test_utf8_file_with_byte_order_mark_is_read(tmp_path, capsys):
    plain, marked = tmp_path / "plain.pm.json", tmp_path / "bom.pm.json"
    plain.write_text(_scalar_doc(), encoding="utf-8")
    marked.write_text(_scalar_doc(), encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    for command in ("validate", "reduce", "decompose"):
        assert run(capsys, command, str(marked))[1]["results"] == \
            run(capsys, command, str(plain))[1]["results"]
    assert run(capsys, "validate", str(marked))[0] == 0
    # a bad byte after the mark is reported at its offset in the file
    marked.write_bytes(marked.read_bytes().replace(b"{", b'{"label": "caf\xe9", ', 1))
    main(["validate", str(marked)])
    assert capsys.readouterr().err.endswith(
        f"invalid continuation byte at byte {marked.read_bytes().index(0xe9)}\n")


@pytest.mark.parametrize("fields", [
    {"d_in": "1.5"}, {"d_in": "1.0"}, {"d_out": "true"}, {"rows": '"1"'}, {"cols": "1.9"},
], ids=["d_in-1.5", "d_in-1.0", "d_out-true", "rows-string", "cols-1.9"])
def test_header_fields_must_be_integers(tmp_path, capsys, fields):
    path = tmp_path / "header.pm.json"
    path.write_text(_scalar_doc(**fields))
    _assert_file_error(capsys, path)


MALFORMED_ENTRIES = {
    "[true, 0]": "must be a [re, im] number pair",
    '["1", 0]': "must be a [re, im] number pair",
    "[1]": "must be a [re, im] number pair",
    "[1, 0, 0]": "must be a [re, im] number pair",
    "[[1], 0]": "must be a [re, im] number pair",
    "1": "must be a [re, im] number pair",
    "null": "must be a [re, im] number pair",
    '{"re": 1}': "must be a [re, im] number pair",
    "[NaN, 0]": "is not finite",
    "[Infinity, 0]": "is not finite",
    "[0, -Infinity]": "is not finite",
    "[1e999, 0]": "is not finite",
}


@pytest.mark.parametrize("entry", list(MALFORMED_ENTRIES))
def test_malformed_entries_are_file_errors(tmp_path, capsys, entry):
    text = _scalar_doc().replace("[[1, 0]]", f"[{entry}]")
    with pytest.raises(pmfile.PMFileError) as exc:
        pmfile.parse(text)
    assert str(exc.value) == f"entry 0 {MALFORMED_ENTRIES[entry]}"
    path = tmp_path / "entry.pm.json"
    path.write_text(text)
    _assert_file_error(capsys, path)


@pytest.mark.parametrize("entries, message", [
    ("[0, 0], [1e999, 0], [true, 0], [0, 0]", "entry 1 is not finite"),
    ("[0, 0], [0, 0], [1, 0, 0], [NaN, 0]", "entry 2 must be a [re, im] number pair"),
    ("[0, 0], [0, 0], [0, 0], [%s, 0]" % ("9" * 400), "entry 3 is not finite"),
])
def test_parse_names_the_first_bad_entry(entries, message):
    text = _scalar_doc(d_out="2", rows="2", cols="2").replace("[[1, 0]]", f"[{entries}]")
    with pytest.raises(pmfile.PMFileError) as exc:
        pmfile.parse(text)
    assert str(exc.value) == message


def test_parse_round_trip_keeps_signed_zeros():
    m = np.array([[-0.0 + 0j, complex(0.0, -0.0)], [complex(-0.0, -0.0), 1e-300 - 2.5j]])
    text = pmfile.serialize(single_party(1, 2, m))
    assert "-0.0" in text
    again = pmfile.parse(text)
    assert np.array_equal(np.signbit(again.matrix.real), np.signbit(m.real))
    assert np.array_equal(np.signbit(again.matrix.imag), np.signbit(m.imag))
    assert pmfile.serialize(again) == text


def test_directory_is_file_error(tmp_path, capsys):
    _assert_file_error(capsys, tmp_path)


def test_emit_ocb_into_directory_is_file_error(tmp_path, capsys):
    code = main(["emit-ocb", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command, tol", [
    ("validate", "nan"), ("validate", "-1"), ("validate", "inf"),
    ("reduce", "-1e-9"), ("ocb-game", "nan"), ("validate", "abc"),
])
def test_tol_must_be_finite_and_non_negative(tmp_path, capsys, command, tol):
    files = [] if command == "ocb-game" else [str(tmp_path / "w.pm.json")]
    with pytest.raises(SystemExit) as exc:
        main([command, *files, f"--tol={tol}"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"pmtool {command}: error: argument --tol: must be finite and non-negative, got {tol}")


def _parties_doc(k):
    """A 1x1 document with k parties of dimension (1, 1)."""
    return _scalar_doc().replace('{"d_in": 1, "d_out": 1}', ", ".join(
        ['{"d_in": 1, "d_out": 1}'] * k))


def test_sixteen_parties_validate(tmp_path, capsys):
    path = tmp_path / "sixteen.pm.json"
    path.write_text(_parties_doc(16))
    code, report = run(capsys, "validate", str(path))
    assert code == 0 and report["status"] == "pass"


def test_seventeen_parties_is_usage_error(tmp_path, capsys):
    # the kernel would need 68 array axes; numpy allows 64
    path = tmp_path / "seventeen.pm.json"
    path.write_text(_parties_doc(17))
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: at most 16 parties supported, got 17\n"
