"""Tests of the benchmark itself: inputs, tracing and the correctness gate.

Run from the repository root with `python -m pytest perfbench`.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import hoffman  # noqa: E402
import harness  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import PER_LAYER, TRACED, TRACED_NAMES, Tracer  # noqa: E402


def _small_identity(monkeypatch, m: int) -> workloads.Workload:
    for name in ("IDENTITY_EB_M", "IDENTITY_ENUM_M", "IDENTITY_STAB_M"):
        monkeypatch.setattr(workloads, name, m)
    return workloads.identity(0)


def _small_corpus(systems: int) -> workloads.Workload:
    """The first corpus systems, with the pass's first identity enumeration."""
    full = workloads.corpus(20240817)
    kept = {s.stem for s in full.systems[:systems]}
    commands = full.commands[:1] + tuple(c for c in full.commands if c[1] in kept)
    return dataclasses.replace(full, commands=commands)


@pytest.fixture
def pooled(monkeypatch):
    """Force the thread-pool path of the enumeration on any machine."""
    monkeypatch.setenv("HOFFMAN_THREADS", "2")


def test_corpus_default_seed_reproduces_the_test_corpus():
    spec = importlib.util.spec_from_file_location("frozen_corpus", ROOT / "tests" / "corpus.py")
    frozen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(frozen)
    generated = [s for s in workloads.corpus(20240817).systems if s.stem.startswith("corpus")]
    expected = frozen.system_corpus()
    assert len(generated) == len(expected)
    for data, system in zip(generated, expected):
        assert data.rows == tuple(row.entries for row in system.A.rows)
        assert data.offsets == system.b.entries


def test_polytope_inputs_are_seeded_and_strictly_feasible():
    first, again, other = workloads.polytope(5), workloads.polytope(5), workloads.polytope(6)
    assert first == again and first.systems != other.systems
    for system in first.systems:
        assert len(set(system.rows)) == len(system.rows)
        assert all(any(row) for row in system.rows)
        assert all(b > 0 for b in system.offsets)


def test_benchmark_json_lists_only_what_the_tracer_reports():
    produced = dict(PER_LAYER)
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        assert produced[metric["name"]] == metric["unit"]


def test_self_time_subtracts_the_union_of_child_spans():
    tracer = Tracer()
    tracer.spans.extend(
        [
            (1, None, "lp.solve_lp", 0.0, 10.0, 0),
            (2, 1, "rational.solve_linear", 1.0, 4.0, 0),
            (3, 1, "rational.solve_linear", 3.0, 6.0, 1),
            (4, 1, "rational.nullspace", 8.0, 9.0, 0),
        ]
    )
    totals = tracer.layer_totals()
    assert totals["lp.solve_lp"] == {"calls": 1, "self_s": 4.0}
    assert totals["rational.solve_linear"] == {"calls": 2, "self_s": 6.0}


def _profiled_counts(fn) -> dict[str, int]:
    """Calls of each traced function's code, counted by the profiler."""
    codes = {}
    for module, names in TRACED.items():
        home = sys.modules[f"hoffman.{module}"]
        for name in names:
            codes[getattr(home, name).__code__] = f"{module}.{name}"
    counts = dict.fromkeys(TRACED_NAMES, 0)
    lock = threading.Lock()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            with lock:
                counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return counts


def test_tracer_sees_every_call_site(monkeypatch, pooled, tmp_path):
    workload = _small_identity(monkeypatch, 4)
    corpus = _small_corpus(40)
    for one in (workload, corpus):
        workloads.write_inputs(one, tmp_path / one.name)

    def run_both():
        harness.run_pass(workload, tmp_path / workload.name)
        harness.run_pass(corpus, tmp_path / corpus.name)

    expected = _profiled_counts(run_both)
    tracer = Tracer()
    with tracer:
        originals = {
            getattr(sys.modules[f"hoffman.{module}"], name).__wrapped__
            for module, names in TRACED.items()
            for name in names
        }
        for key, module in list(sys.modules.items()):
            if key == "hoffman" or key.startswith("hoffman."):
                missed = [attr for attr, v in vars(module).items() if callable(v) and v in originals]
                assert not missed, (key, missed)
        run_both()
    totals = tracer.layer_totals()
    assert {name: totals[name]["calls"] for name in TRACED_NAMES} == expected
    assert all(expected[name] > 0 for name in TRACED_NAMES)
    assert not hasattr(hoffman.cli.main, "__wrapped__")


def test_identity_counts_match_the_closed_form_and_repeat(monkeypatch, pooled, tmp_path):
    m = 5
    workload = _small_identity(monkeypatch, m)
    workloads.write_inputs(workload, tmp_path)
    runs = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            harness.run_pass(workload, tmp_path)
        runs.append(tracer)
    metrics = [run.metrics(1.0, 1.0) for run in runs]
    counts = [{k: v["value"] for k, v in one.items() if v["unit"] != "s" and k != "trace.overhead_frac"} for one in metrics]
    assert counts[0] == counts[1]
    first = metrics[0]
    # check-eb and enumerate walk the positive level, check-stability the zero level.
    assert first["activesets.enumerate_active_sets.calls"]["value"] == 3
    assert first["activesets.subsets_total"]["value"] == 3 * (2**m - 1)
    assert first["activesets.realizability.calls"]["value"] == 3 * (2**m - 1)
    assert first["activesets.pruned_frac"]["value"] == 0
    assert first["activesets.realizability.hit_frac"]["value"] == 1


def test_worker_spans_take_the_submitting_enumeration_as_parent(monkeypatch, pooled, tmp_path):
    workload = _small_identity(monkeypatch, 5)
    workloads.write_inputs(workload, tmp_path)
    tracer = Tracer()
    with tracer:
        harness.run_pass(workload, tmp_path)
    by_id = {span[0]: span for span in tracer.spans}
    main_thread = threading.get_ident()
    realizability = [s for s in tracer.spans if s[2] == "activesets.realizability"]
    assert any(s[5] != main_thread for s in realizability)
    for span in realizability:
        parent = by_id[span[1]]
        assert parent[2] == "activesets.enumerate_active_sets"
        assert parent[3] <= span[3] and span[4] <= parent[4]


def _corrupt_sigma(report):
    if report["result"].get("sigma_sq"):
        report["result"]["sigma_sq"]["exact"] = "1/7"


def _corrupt_certificate(report):
    certificate = report["result"].get("certificate")
    if certificate:
        certificate["hull_multipliers"][0] = "2"


def _run_and_check(workload, workdir, recorded=None):
    workloads.write_inputs(workload, workdir)
    passes = [harness.run_pass(workload, workdir)]
    return oracle.check(workload, passes, recorded)


@pytest.mark.parametrize("corrupt", [None, _corrupt_sigma, _corrupt_certificate])
def test_corrupted_output_is_counted_as_failed(monkeypatch, tmp_path, corrupt):
    identity = _small_identity(monkeypatch, 4)
    corpus = _small_corpus(30)
    if corrupt is not None:
        make_report = hoffman.cli.make_report

        def corrupted(*args):
            report = make_report(*args)
            corrupt(report)
            return report

        monkeypatch.setattr(hoffman.cli, "make_report", corrupted)
    outcomes = [_run_and_check(one, tmp_path / one.name) for one in (identity, corpus)]
    failed = sum(o.failed for o in outcomes)
    attempted = sum(o.attempted for o in outcomes)
    assert attempted > 0
    if corrupt is None:
        assert failed == 0, [o.messages for o in outcomes]
    else:
        assert failed > 0


def test_digest_mismatch_is_counted_as_failed(monkeypatch, tmp_path):
    workload = _small_identity(monkeypatch, 3)
    clean = _run_and_check(workload, tmp_path)
    assert clean.failed == 0
    assert _run_and_check(workload, tmp_path, clean.digests).failed == 0
    altered = dict(clean.digests, enumerate="0" * 64)
    outcome = _run_and_check(workload, tmp_path, altered)
    assert outcome.failed == 1 and "reference digest" in outcome.messages[0]


def test_ref_metrics_divide_by_the_runs_reference_time():
    calls = [harness.Call("enumerate", "s", 0, seconds, "") for seconds in (0.4, 0.6)]
    passes = [harness.Pass(1.0, calls[:1]), harness.Pass(2.0, calls[1:])]
    metrics = run._time_metrics(passes, reference=0.05)
    assert metrics["wall_s"]["value"] == pytest.approx(1.5)
    assert metrics["wall_ref"]["value"] == pytest.approx(1.5 / 0.05)
    assert metrics["enumerate_ms_p50"]["value"] == pytest.approx(500.0)
    assert metrics["enumerate_ref_p50"]["value"] == pytest.approx(0.5 / 0.05)


def test_calibration_runs_between_commands_and_is_left_out_of_the_pass(monkeypatch, tmp_path):
    workload = _small_identity(monkeypatch, 3)
    workloads.write_inputs(workload, tmp_path)
    monkeypatch.setattr(harness, "CALIBRATE_EVERY_S", 0.0)
    monkeypatch.setattr(harness, "reference_work", lambda: time.sleep(0.2))
    calibration = harness.Calibration()
    one = harness.run_pass(workload, tmp_path, calibration)
    assert len(calibration.samples) == len(one.calls) == 3
    assert one.seconds < 0.2 < min(calibration.samples)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identity", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
