import json

import numpy as np
import pytest

from pmtool import pmfile
from pmtool.cli import build_parser, main
from pmtool.linalg import kron, pauli, random_density
from pmtool.ocbgame import build_w_ocb
from pmtool.process import single_party, validate


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
    again = pmfile.parse(text)
    assert np.array_equal(again.matrix, w.matrix)
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


def test_validate_fail_exit_code(capsys, invalid_pm_path):
    code, report = run(capsys, "validate", invalid_pm_path)
    assert code == 1
    assert report["status"] == "fail"


def test_validate_missing_file_is_usage_error(capsys):
    code = main(["validate", "/nonexistent/foo.pm.json"])
    assert code == 2
    assert "error" in capsys.readouterr().err


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


def test_reduce_single_oracle_flag(capsys, valid_pm_path):
    code, report = run(capsys, "reduce", valid_pm_path, "--oracle", "projection")
    assert code == 0
    assert list(report["results"]) == ["projection"]


def test_reduce_invalid_file(capsys, invalid_pm_path):
    code, report = run(capsys, "reduce", invalid_pm_path)
    assert code == 1
    assert report["status"] == "fail"


def test_trace_shift_is_rejected_by_validate_and_reduce(tmp_path, capsys):
    # Residual and W1 trace deviation are 0.9 tol each; the distance to the
    # valid set is 0.9 sqrt(2) tol, the one row that explains the rejection.
    w = kron(random_density(2, 0), np.eye(2)) + 0.45e-9 * (np.eye(4) + kron(pauli("z"), pauli("z")))
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
    w = kron(random_density(2, 0), np.eye(2)) + 0.05 * kron(np.eye(2), pauli("z"))
    path = str(tmp_path / "perturbed.pm.json")
    pmfile.save(path, single_party(2, 2, w))
    code, report = run(capsys, "reduce", path, "--oracle", "constructive")
    assert code == 1
    labels = [v["coefficient"] for v in report["results"]["constructive"]["violations"]]
    assert labels.count("w_1,z") == 1


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


def test_decompose_report(capsys, valid_pm_path):
    code, report = run(capsys, "decompose", valid_pm_path)
    assert code == 0
    coeffs = report["results"]["coefficients"]
    assert coeffs["1,1"] == pytest.approx(0.5, abs=1e-13)
    assert coeffs["z,x"] == pytest.approx(0.0, abs=1e-13)
    assert len(coeffs) == 16


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
    _, report = run(capsys, "reduce", valid_pm_path, "--oracle", "projection")
    assert report["inputs"]["oracle"] == "projection"
    _, report = run(capsys, "reduce", valid_pm_path)
    assert report["inputs"]["oracle"] == "both"
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
    path.write_bytes(_scalar_doc().replace("{", '{"label": "caf\xe9", ', 1).encode("latin-1"))
    _assert_file_error(capsys, path)


@pytest.mark.parametrize("fields", [
    {"d_in": "1.5"}, {"d_in": "1.0"}, {"d_out": "true"}, {"rows": '"1"'}, {"cols": "1.9"},
], ids=["d_in-1.5", "d_in-1.0", "d_out-true", "rows-string", "cols-1.9"])
def test_header_fields_must_be_integers(tmp_path, capsys, fields):
    path = tmp_path / "header.pm.json"
    path.write_text(_scalar_doc(**fields))
    _assert_file_error(capsys, path)


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
    ("reduce", "-1e-9"), ("ocb-game", "nan"),
])
def test_tol_must_be_finite_and_non_negative(tmp_path, capsys, command, tol):
    files = [] if command == "ocb-game" else [str(tmp_path / "w.pm.json")]
    with pytest.raises(SystemExit) as exc:
        main([command, *files, f"--tol={tol}"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


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
