"""Command-line interface: reports, exit codes, file handling."""

import argparse
import io
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import hoffman
import hoffman.convex
from hoffman import InequalitySystem, cli, save_system, worst_case_system
from hoffman.cli import main
from hoffman.formats import digest_of

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


# -- in-process calls ------------------------------------------------------------


def test_in_process_calls_build_the_parser_once(monkeypatch, tmp_path, triangle_file, infeasible_file):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    cert_path = str(tmp_path / "cert.json")
    calls = [
        ("check-eb", triangle_file),
        ("check-eb", infeasible_file),
        ("check-stability", triangle_file),
        ("hoffman", triangle_file),
        ("enumerate", triangle_file, "--level", "pos"),
        ("enumerate", triangle_file, "--level", "zero"),
        ("certify", infeasible_file, "--out", cert_path),
        ("verify-cert", infeasible_file, cert_path),
        ("bench", "--m-range", "1..2"),
        ("check-eb", str(tmp_path / "missing.json")),
    ] * 2
    codes = [run_cli(*argv)[0] for argv in calls]
    assert codes == [0, 3, 0, 0, 0, 0, 3, 0, 0, 2] * 2
    assert built.count("hoffman") == 1


def test_an_earlier_out_option_is_not_carried_over(tmp_path, infeasible_file):
    cert_path = str(tmp_path / "cert.json")
    code, report, _ = run_cli("certify", infeasible_file, "--out", cert_path)
    assert (code, report["result"]["written"]) == (3, cert_path)
    code, report, _ = run_cli("certify", infeasible_file)
    assert (code, report["result"]["written"]) == (3, None)


def test_an_earlier_level_is_not_carried_over(triangle_file):
    code, report, _ = run_cli("enumerate", triangle_file, "--level", "zero")
    assert (code, report["result"]["level"]) == (0, "zero")
    err = io.StringIO()  # made after the parser, so argparse must look stderr up per call
    with redirect_stderr(err), pytest.raises(SystemExit) as raised:
        main(["enumerate", triangle_file])
    assert raised.value.code == 2
    assert "usage: hoffman enumerate" in err.getvalue()
    assert "--level" in err.getvalue()


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


@pytest.mark.parametrize("box", ["inf", "1e308"])
def test_estimate_rejects_a_box_too_large_to_sample(triangle_file, box):
    code, report, err = run_cli("estimate", triangle_file, "--samples", "10", "--seed", "1", "--box", box)
    assert code == 2 and report is None
    assert "box radius" in err and "internal error" not in err


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


# Every command that reads a system file, with the arguments that follow the
# file; "{tmp}" stands for a scratch directory.
FILE_COMMANDS = [
    ["check-eb"],
    ["check-stability"],
    ["hoffman"],
    ["enumerate", "--level", "pos"],
    ["certify"],
    ["verify-cert", "{tmp}/cert.json"],
    ["perturb", "--eps", "1/10", "--u", "0,1", "--xbar", "0,0", "--out", "{tmp}/tilted.json"],
    ["estimate", "--samples", "10", "--seed", "1"],
]


@pytest.mark.parametrize("argv", FILE_COMMANDS, ids=lambda argv: argv[0])
def test_missing_file_is_an_input_error(tmp_path, argv):
    # The system file is read first, so its name is the one reported.
    command, *rest = [arg.format(tmp=tmp_path) for arg in argv]
    code, report, err = run_cli(command, str(tmp_path / "absent.json"), *rest)
    assert code == 2
    assert report is None
    assert "error:" in err and "absent.json" in err


def test_every_file_command_reports_the_digest_of_its_file(tmp_path, pair_file, infeasible_file):
    # The pair {x + y <= 0, -x - y <= 0} is feasible and has the boundary
    # point (0, 0), so every command reports on it; verify-cert checks the
    # certificate of another system and reports it invalid.
    cert = tmp_path / "cert.json"
    assert run_cli("certify", infeasible_file, "--out", str(cert))[0] == 3
    digest = digest_of(Path(pair_file).read_bytes())
    for argv in FILE_COMMANDS:
        command, *rest = [arg.format(tmp=tmp_path) for arg in argv]
        code, report, err = run_cli(command, pair_file, *rest)
        assert report is not None, err
        assert report["input_digest"] == digest
    code, report, _ = run_cli("bench", "--m-range", "1..2")
    assert code == 0 and report["input_digest"] is None


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


def test_oversized_literals_are_a_short_input_error(tmp_path):
    integer = tmp_path / "integer.json"
    integer.write_text('{"A": [[' + "1" * 5000 + ']], "b": ["0"]}')
    code, report, err = run_cli("check-eb", str(integer))
    assert (code, report) == (2, None)
    assert "cannot decode JSON" in err
    string = tmp_path / "string.json"
    string.write_text(json.dumps({"A": [["1" * 5000]], "b": ["0"]}))
    code, report, err = run_cli("check-eb", str(string))
    assert (code, report) == (2, None)
    assert "not a rational literal" in err
    assert len(err) < 200
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps({"A": [[[1] * 3000]], "b": ["0"]}))
    code, report, err = run_cli("check-eb", str(nested))
    assert (code, report) == (2, None)
    assert "cannot interpret [1, 1, 1" in err
    assert len(err) < 300


def test_deeply_nested_json_is_an_input_error(tmp_path, infeasible_file):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, report, err = run_cli("check-eb", str(deep))
    assert (code, report) == (2, None)
    assert "nested too deeply" in err
    code, report, err = run_cli("verify-cert", infeasible_file, str(deep))
    assert (code, report) == (2, None)
    assert "nested too deeply" in err


@pytest.mark.parametrize(
    "entry, exact, approx, root",
    [
        # sigma^2 of the one row 10^200 is 10^400, past float range; its root is not.
        ("1" + "0" * 200, "1" + "0" * 400, None, 1e200),
        # 10^-400 rounds to the float 0, but its root 10^-200 is a normal float.
        ("1/1" + "0" * 200, "1/1" + "0" * 400, 0.0, 1e-200),
    ],
    ids=["huge", "tiny"],
)
@pytest.mark.parametrize(
    "command, exact_key, root_key",
    [
        ("check-eb", "sigma_sq", "sigma_approx"),
        ("hoffman", "sigma_sq", "sigma_approx"),
        ("check-stability", "lower_bound_sq", "lower_bound_approx"),
    ],
)
def test_values_past_float_range_keep_their_exact_string(
    tmp_path, command, exact_key, root_key, entry, exact, approx, root
):
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps({"A": [[entry]], "b": ["0"]}))
    code, report, err = run_cli(command, str(path))
    assert code == 0, err
    result = report["result"]
    assert result[exact_key] == {"exact": exact, "approx": approx}
    assert result[root_key] == pytest.approx(root, abs=0)


@pytest.mark.parametrize("limit, zeros", [(4300, 2200), (640, 399)])
def test_values_past_the_int_string_limit_are_printed_exactly(tmp_path, limit, zeros):
    # A literal within the limit on int-to-str digits (4300 by default, 640
    # at the lowest) parses; its sigma^2 = 10^(2 * zeros) has more digits.
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"A": [["1" + "0" * zeros]], "b": ["0"]}))
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        code, report, err = run_cli("check-eb", str(path))
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 0, err
    assert report["result"]["sigma_sq"] == {"exact": "1" + "0" * (2 * zeros), "approx": None}
    assert report["result"]["sigma_approx"] is None


@pytest.mark.parametrize("literal", ["1e200000", "2E3", "1_0"])
def test_exponent_and_underscore_literals_are_an_input_error(tmp_path, literal):
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps({"A": [[literal]], "b": ["0"]}))
    code, report, err = run_cli("check-eb", str(path))
    assert code == 2
    assert report is None
    assert "not a rational literal" in err


def test_failed_nearest_point_check_is_an_internal_error(monkeypatch, triangle_file):
    # Doubling the corral's integer vectors doubles the point that is checked.
    check = hoffman.convex._checked_nearest
    monkeypatch.setattr(
        hoffman.convex,
        "_checked_nearest",
        lambda vecs, corral, lam, den: check(vecs, [[2 * x for x in c] for c in corral], lam, den),
    )
    code, report, err = run_cli("check-stability", triangle_file)
    assert code == 1
    assert report is None
    assert "optimality check" in err


def test_sign_disagreeing_with_the_nearest_point_is_an_internal_error(monkeypatch, pair_file):
    # The pair's rows hold the origin in their hull; a margin program that
    # places the origin off their affine hull contradicts Wolfe's distance 0.
    monkeypatch.setattr(hoffman.convex, "_relative_interior_margin", lambda pts: None)
    code, report, err = run_cli("check-stability", pair_file)
    assert code == 1
    assert report is None
    assert "margin program" in err


def test_thread_env_variable(monkeypatch, triangle_file):
    pools = []
    monkeypatch.setattr(
        hoffman.activesets,
        "ThreadPoolExecutor",
        lambda max_workers: pools.append(max_workers) or ThreadPoolExecutor(max_workers=max_workers),
    )
    monkeypatch.delenv("HOFFMAN_THREADS", raising=False)
    code, sequential, _ = run_cli("enumerate", triangle_file, "--level", "pos")
    assert code == 0
    assert pools == []

    monkeypatch.setenv("HOFFMAN_THREADS", "2")
    code, threaded, _ = run_cli("enumerate", triangle_file, "--level", "pos")
    assert code == 0
    assert pools == [2]  # one pool for the whole enumeration
    assert threaded["result"] == sequential["result"]

    for bad in ("0", "x"):
        monkeypatch.setenv("HOFFMAN_THREADS", bad)
        code, _, err = run_cli("enumerate", triangle_file, "--level", "pos")
        assert code == 2
        assert "HOFFMAN_THREADS" in err


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread pool was built")


def test_verdict_commands_never_build_a_pool(monkeypatch, tmp_path):
    path = str(tmp_path / "id5.json")
    save_system(worst_case_system(5), path)
    commands = [
        ("check-eb", path),
        ("check-stability", path),
        ("hoffman", path),
        ("certify", path),
        ("bench", "--m-range", "1..4"),
    ]

    def result(argv):
        # The identity system has an error bound and is stable: every command exits 0.
        code, report, err = run_cli(*argv)
        assert code == 0, err
        for row in report["result"].get("rows", []):
            del row["elapsed_ms"]
        return report["result"]

    monkeypatch.delenv("HOFFMAN_THREADS", raising=False)
    expected = [result(argv) for argv in commands]
    monkeypatch.setenv("HOFFMAN_THREADS", "4")
    monkeypatch.setattr(hoffman.activesets, "ThreadPoolExecutor", _NoPool)
    assert [result(argv) for argv in commands] == expected


def _package_env():
    """The environment with the imported package's parent directory first on
    PYTHONPATH, so a child interpreter imports the same `hoffman`."""
    parent = str(Path(hoffman.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [parent, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_installed_entry_point_smoke(triangle_file):
    proc = subprocess.run(
        [sys.executable, "-m", "hoffman.cli", "check-eb", triangle_file],
        capture_output=True,
        text=True,
        env=_package_env(),
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"]["sigma_sq"]["exact"] == "1/2"


@pytest.mark.parametrize("argv", [["check-eb"], ["check-stability"], ["enumerate", "--level", "pos"]])
def test_report_text_is_that_of_json_dumps(monkeypatch, triangle_file, argv):
    make_report, reports = cli.make_report, []

    def kept(*args):
        reports.append(make_report(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "make_report", kept)
    out = io.StringIO()
    with redirect_stdout(out):
        main([argv[0], triangle_file, *argv[1:]])
    assert out.getvalue() == json.dumps(reports[0]) + "\n"


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    path = tmp_path / "id10.json"
    save_system(worst_case_system(10), path)  # a report of about 96 KB, past the 64 KB pipe buffer
    with subprocess.Popen(
        [sys.executable, "-m", "hoffman.cli", "enumerate", str(path), "--level", "pos"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_package_env(),
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err


def test_negative_seed_is_an_input_error_before_any_work(triangle_file):
    script = (
        "import sys, hoffman.cli\n"
        "code = hoffman.cli.main(['estimate', sys.argv[1], '--samples', '10', '--seed', '-1'])\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded for a rejected seed'\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, triangle_file],
        capture_output=True,
        text=True,
        env=_package_env(),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: seed must be a non-negative integer, got -1\n"


def test_numpy_is_loaded_only_by_sampling(triangle_file):
    script = (
        "import sys, hoffman, hoffman.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded on import'\n"
        "code = hoffman.cli.main(['estimate', sys.argv[1], '--samples', '200', '--seed', '0'])\n"
        "assert 'numpy' in sys.modules\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, triangle_file],
        capture_output=True,
        text=True,
        env=_package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["estimate"] > 0
