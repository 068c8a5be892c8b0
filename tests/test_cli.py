"""Command-line interface: reports, exit codes, file handling."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import hoffman.convex
from hoffman import InequalitySystem, save_system
from hoffman.cli import main

TRIANGLE = InequalitySystem.of([[1, 1], [-2, 1], [1, -2]], [1, 2, 3])
PAIR = InequalitySystem.of([[1, 1], [-1, -1]], [0, 0])
INFEASIBLE = InequalitySystem.of([[1], [-1]], [-1, -1])


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    text = out.getvalue()
    return code, json.loads(text) if text.strip() else None, err.getvalue()


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    save_system(TRIANGLE, path)
    return str(path)


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    save_system(PAIR, path)
    return str(path)


@pytest.fixture
def infeasible_file(tmp_path):
    path = tmp_path / "infeasible.json"
    save_system(INFEASIBLE, path)
    return str(path)


def test_check_eb_positive_verdict(triangle_file):
    code, report, _ = run_cli("check-eb", triangle_file)
    assert code == 0
    assert report["command"] == "check-eb"
    assert report["input_digest"].startswith("sha256:")
    result = report["result"]
    assert result["has_error_bound"] is True
    assert result["sigma_sq"]["exact"] == "1/2"
    assert result["certificate"] is None


def test_check_eb_negative_verdict(infeasible_file):
    code, report, _ = run_cli("check-eb", infeasible_file)
    assert code == 3
    result = report["result"]
    assert result["has_error_bound"] is False
    assert result["certificate"]["active"] == [1, 2]


def test_check_stability_both_ways(triangle_file, pair_file):
    code, report, _ = run_cli("check-stability", triangle_file)
    assert code == 0
    assert report["result"]["stable"] is True
    assert report["result"]["lower_bound_sq"]["exact"] == "1/2"

    code, report, _ = run_cli("check-stability", pair_file)
    assert code == 3
    assert report["result"]["stable"] is False
    assert report["result"]["violating_set"] == [1, 2]


def test_hoffman_command(triangle_file, infeasible_file):
    code, report, _ = run_cli("hoffman", triangle_file)
    assert code == 0
    assert report["result"]["sigma_sq"]["exact"] == "1/2"
    assert report["result"]["sigma_approx"] == pytest.approx(0.5**0.5)

    code, report, _ = run_cli("hoffman", infeasible_file)
    assert code == 3
    assert report["result"] == {
        "has_error_bound": False,
        "sigma_sq": None,
        "sigma_approx": None,
    }


def test_enumerate_zero_level(triangle_file):
    code, report, _ = run_cli("enumerate", triangle_file, "--level", "zero")
    assert code == 0
    result = report["result"]
    assert result["level"] == "zero"
    assert result["count"] == 6
    assert [entry["indices"] for entry in result["sets"]] == [
        [1], [2], [3], [1, 2], [1, 3], [2, 3],
    ]
    for entry in result["sets"]:
        assert all(isinstance(coord, str) for coord in entry["witness"])


def test_enumerate_requires_level(triangle_file):
    with pytest.raises(SystemExit):
        run_cli("enumerate", triangle_file)


def test_certify_verify_round_trip(tmp_path, infeasible_file):
    cert_path = str(tmp_path / "cert.json")
    code, report, _ = run_cli("certify", infeasible_file, "--out", cert_path)
    assert code == 3
    assert report["result"]["written"] == cert_path
    assert report["result"]["certificate"]["hull_multipliers"] == ["1/2", "1/2"]

    code, report, _ = run_cli("verify-cert", infeasible_file, cert_path)
    assert code == 0
    assert report["result"]["valid"] is True


def test_certify_writes_nothing_on_positive_verdicts(tmp_path, triangle_file):
    cert_path = tmp_path / "cert.json"
    code, report, _ = run_cli("certify", triangle_file, "--out", str(cert_path))
    assert code == 0
    assert report["result"]["certificate"] is None
    assert report["result"]["written"] is None
    assert not cert_path.exists()


def test_tampered_certificate_is_rejected(tmp_path, infeasible_file):
    cert_path = tmp_path / "cert.json"
    run_cli("certify", infeasible_file, "--out", str(cert_path))
    data = json.loads(cert_path.read_text())
    data["hull_multipliers"] = ["1", "0"]
    cert_path.write_text(json.dumps(data))
    code, report, _ = run_cli("verify-cert", infeasible_file, str(cert_path))
    assert code == 3
    assert report["result"]["valid"] is False


def test_perturb_writes_the_tilted_system(tmp_path, pair_file):
    out_path = tmp_path / "tilted.json"
    code, report, _ = run_cli(
        "perturb", pair_file,
        "--eps", "1/10", "--u", "0,1", "--xbar", "0,0",
        "--out", str(out_path),
    )
    assert code == 0
    assert report["result"]["system"]["A"] == [["1", "11/10"], ["-1", "-9/10"]]
    assert report["result"]["system"]["b"] == ["0", "0"]
    written = json.loads(out_path.read_text())
    assert written == report["result"]["system"]

    code, report, _ = run_cli("hoffman", str(out_path))
    assert code == 0
    assert report["result"]["sigma_sq"]["exact"] == "1/200"


def test_perturb_rejects_offboundary_anchor(pair_file, tmp_path):
    code, report, err = run_cli(
        "perturb", pair_file,
        "--eps", "1/10", "--u", "0,1", "--xbar", "1,1",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert report is None
    assert "anchor" in err


def test_estimate_reports_the_sampled_value(triangle_file):
    code, report, _ = run_cli("estimate", triangle_file, "--samples", "20000", "--seed", "5")
    assert code == 0
    result = report["result"]
    assert result["estimate"] == pytest.approx(0.7071933247514756, abs=0.0)
    assert result["samples"] == 20000 and result["seed"] == 5
    assert result["box_radius"] == 10.0


def test_estimate_rejects_empty_solution_sets(infeasible_file):
    code, report, err = run_cli("estimate", infeasible_file, "--samples", "100", "--seed", "0")
    assert code == 2
    assert "empty" in err


def test_estimate_notes_when_no_sample_violates(tmp_path):
    path = tmp_path / "roomy.json"
    save_system(InequalitySystem.of([[1, 0]], [100]), path)
    code, report, _ = run_cli("estimate", str(path), "--samples", "500", "--seed", "0")
    assert code == 0
    assert report["result"]["estimate"] is None
    assert "note" in report["result"]


def test_bench_rows():
    code, report, _ = run_cli("bench", "--m-range", "1..3")
    assert code == 0
    rows = report["result"]["rows"]
    assert [row["m"] for row in rows] == [1, 2, 3]
    assert [row["family_size"] for row in rows] == [1, 3, 7]
    assert all(row["elapsed_ms"] >= 0 for row in rows)


def test_bench_rejects_malformed_ranges():
    for bad in ("3..1", "0..2", "1-3", "x..y"):
        code, report, err = run_cli("bench", "--m-range", bad)
        assert code == 2
        assert report is None


def test_missing_file_is_an_input_error(tmp_path):
    code, report, err = run_cli("check-eb", str(tmp_path / "absent.json"))
    assert code == 2
    assert "error:" in err


def test_malformed_json_is_an_input_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    code, _, err = run_cli("check-eb", str(path))
    assert code == 2
    assert "JSON" in err


def test_json_floats_are_an_input_error(tmp_path):
    path = tmp_path / "floaty.json"
    path.write_text(json.dumps({"A": [[0.5]], "b": ["0"]}))
    code, _, err = run_cli("check-eb", str(path))
    assert code == 2
    assert "exact scalars as strings" in err


@pytest.mark.parametrize("literal", ["1e200000", "2E3", "1_0"])
def test_exponent_and_underscore_literals_are_an_input_error(tmp_path, literal):
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps({"A": [[literal]], "b": ["0"]}))
    code, report, err = run_cli("check-eb", str(path))
    assert code == 2
    assert report is None
    assert "not a rational literal" in err


def test_failed_nearest_point_check_is_an_internal_error(monkeypatch, triangle_file):
    combine = hoffman.convex._combine
    monkeypatch.setattr(hoffman.convex, "_combine", lambda weights, corral: combine(weights, corral).scale(2))
    code, report, err = run_cli("check-stability", triangle_file)
    assert code == 1
    assert report is None
    assert "optimality check" in err


def test_thread_env_variable(monkeypatch, triangle_file):
    monkeypatch.setenv("HOFFMAN_THREADS", "2")
    code, report, _ = run_cli("check-eb", triangle_file)
    assert code == 0
    assert report["result"]["sigma_sq"]["exact"] == "1/2"

    for bad in ("0", "x"):
        monkeypatch.setenv("HOFFMAN_THREADS", bad)
        code, _, err = run_cli("check-eb", triangle_file)
        assert code == 2
        assert "HOFFMAN_THREADS" in err


def test_installed_entry_point_smoke(triangle_file):
    proc = subprocess.run(
        [sys.executable, "-m", "hoffman.cli", "check-eb", triangle_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"]["sigma_sq"]["exact"] == "1/2"
