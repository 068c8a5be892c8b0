"""End-to-end acceptance: worked examples, scaling, corpus-wide oracle checks.

One test per criterion; each prints a single summary line with the measured
quantities (visible under `pytest -v -s`).  Command-line checks go through the
real entry point in-process, so the stated runtime budgets measure the
computation rather than interpreter start-up.
"""

import io
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from corpus import point_corpus, system_corpus
from oracles import perturbation_ratio_sq
from hoffman import (
    InequalitySystem,
    Perturbation,
    SampleConfig,
    Trichotomy,
    Vec,
    check_error_bound,
    check_stability,
    estimate_hoffman,
    feasible,
    hoffman_constant_sq,
    minmax_value_sq,
    perturb,
    sample_minmax,
    save_system,
)
from hoffman.cli import main

TRIANGLE = InequalitySystem.of([[1, 1], [-2, 1], [1, -2]], [1, 2, 3])
PAIR = InequalitySystem.of([[1, 1], [-1, -1]], [0, 0])
IDENTITY2 = InequalitySystem.of([[1, 0], [0, 1]], [0, 0])


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    text = out.getvalue()
    return code, json.loads(text) if text.strip() else None, err.getvalue()


def write_system(system, path):
    save_system(system, path)
    return str(path)


def raw_residuals(system, point):
    # Independent of the library's residual helper: plain rational arithmetic.
    return [
        sum(a * x for a, x in zip(row.entries, point.entries)) - b
        for row, b in zip(system.A.rows, system.b)
    ]


@pytest.fixture(scope="module")
def corpus_verdicts():
    began = time.perf_counter()
    systems = system_corpus()
    verdicts = [check_error_bound(s) for s in systems]
    feasibles = [
        feasible((), [(s.A.rows[i], s.b[i]) for i in range(s.m)], dim=s.n).is_feasible
        for s in systems
    ]
    elapsed = time.perf_counter() - began
    return systems, verdicts, feasibles, elapsed


def test_criterion_1_worked_example_enumeration_and_stability(tmp_path):
    began = time.perf_counter()
    path = write_system(TRIANGLE, tmp_path / "triangle.json")

    code, report, _ = run_cli("enumerate", path, "--level", "zero")
    assert code == 0
    found = {frozenset(entry["indices"]) for entry in report["result"]["sets"]}
    expected = {
        frozenset({1}), frozenset({2}), frozenset({3}),
        frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3}),
    }
    assert found == expected
    assert report["result"]["count"] == 6

    code, report, _ = run_cli("check-stability", path)
    assert code == 0
    assert report["result"]["stable"] is True
    assert report["result"]["lower_bound_sq"]["exact"] == "1/2"
    assert report["result"]["lower_bound_approx"] == pytest.approx(math.sqrt(2) / 2)

    elapsed = time.perf_counter() - began
    assert elapsed < 1.0
    print(f"criterion 1: PASS (6 zero-level sets, lower bound 1/2, {elapsed:.3f}s < 1s)")


def test_criterion_2_worked_example_instability_and_tilt(tmp_path):
    began = time.perf_counter()
    path = write_system(PAIR, tmp_path / "pair.json")

    code, report, _ = run_cli("check-stability", path)
    assert code == 3
    assert report["result"]["stable"] is False
    assert report["result"]["violating_set"] == [1, 2]

    for eps in (Fraction(1, 10), Fraction(1, 100)):
        tilted = perturb(PAIR, Perturbation(eps, Vec.of([0, 1]), Vec.zeros(2)))
        probe = Vec.of([-eps, eps])
        ratio_sq = perturbation_ratio_sq(tilted, probe)
        assert ratio_sq == eps * eps / 2
        sigma_sq = hoffman_constant_sq(tilted)
        assert sigma_sq == eps * eps / 2
        assert sigma_sq < eps * eps  # hence the tilted constant drops below eps

    elapsed = time.perf_counter() - began
    assert elapsed < 1.0
    print(f"criterion 2: PASS (violating set {{1,2}}, ratio² = ε²/2 at ε = 1/10, 1/100, {elapsed:.3f}s < 1s)")


def window_slope(points):
    xs = [math.log(m) for m, _ in points]
    ys = [math.log(max(t, 1e-3)) for _, t in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx


def test_criterion_3_worst_case_scaling():
    began = time.perf_counter()
    code, report, _ = run_cli("bench", "--m-range", "1..12")
    assert code == 0
    rows = report["result"]["rows"]
    assert [row["m"] for row in rows] == list(range(1, 13))
    for row in rows:
        assert row["family_size"] == 2 ** row["m"] - 1

    timings = [(row["m"], row["elapsed_ms"]) for row in rows]
    early, late = window_slope(timings[:6]), window_slope(timings[6:])
    assert late > early  # superpolynomial: the log-log slope keeps rising

    elapsed = time.perf_counter() - began
    assert elapsed < 120.0
    print(
        "criterion 3: PASS (family sizes 2^m - 1 for m = 1..12, "
        f"log-log slope {early:.2f} -> {late:.2f}, {elapsed:.1f}s < 120s)"
    )


def test_criterion_4_error_bound_matches_lp_feasibility(corpus_verdicts):
    began = time.perf_counter()
    systems, verdicts, feasibles, shared_elapsed = corpus_verdicts
    mismatches = [
        i
        for i, (verdict, feas) in enumerate(zip(verdicts, feasibles))
        if verdict.has_error_bound != feas
    ]
    assert mismatches == []
    elapsed = time.perf_counter() - began + shared_elapsed
    assert elapsed < 120.0
    negatives = sum(1 for v in verdicts if not v.has_error_bound)
    print(
        f"criterion 4: PASS ({len(systems)} systems, {negatives} infeasible, "
        f"0 mismatches, {elapsed:.1f}s < 120s)"
    )


def test_criterion_5_pruned_enumeration_equals_brute_force():
    from hoffman import Level, enumerate_active_sets

    began = time.perf_counter()
    systems = system_corpus()
    mismatches = 0
    for system in systems:
        for level in (Level.POSITIVE, Level.ZERO):
            pruned = enumerate_active_sets(system, level, prune=True)
            brute = enumerate_active_sets(system, level, prune=False)
            if pruned.sets != brute.sets:
                mismatches += 1
    assert mismatches == 0
    elapsed = time.perf_counter() - began
    print(
        f"criterion 5: PASS ({len(systems)} systems x 2 levels, 0 mismatches, {elapsed:.1f}s)"
    )


def test_criterion_6_trichotomy_matches_dense_sampling():
    began = time.perf_counter()
    config = SampleConfig(sample_count=100_000, seed=2024)
    violations = 0
    for points in point_corpus():
        exact = minmax_value_sq(points)
        sampled = sample_minmax(points, config)

        # One-sided anchors: the sampled minimum ranges over fewer directions,
        # so it can only sit above the exact value.
        assert sampled >= exact.approx() - 1e-6
        if exact.sign is Trichotomy.POSITIVE:
            assert sampled > 0
        if sampled < -1e-2:
            assert exact.sign is Trichotomy.NEGATIVE
            assert float(exact.value_sq) >= sampled * sampled - 1e-9

        if abs(sampled) > 1e-2:
            sampled_sign = Trichotomy.POSITIVE if sampled > 0 else Trichotomy.NEGATIVE
            agrees = (
                exact.sign is sampled_sign
                or exact.sign is Trichotomy.ZERO
                or float(exact.value_sq) < 1e-2
            )
        else:
            agrees = (
                exact.sign is Trichotomy.ZERO
                or float(exact.value_sq) < 1e-2
                or abs(sampled * sampled - float(exact.value_sq)) < 1e-3
            )
        if not agrees:
            violations += 1
    assert violations == 0
    elapsed = time.perf_counter() - began
    assert elapsed < 180.0
    print(
        f"criterion 6: PASS (200 point sets vs 1e5 sampled directions, "
        f"0 violations, {elapsed:.1f}s < 180s)"
    )


def test_criterion_7_sharp_constant_exactness():
    began = time.perf_counter()
    assert hoffman_constant_sq(IDENTITY2) == Fraction(1, 2)

    estimate = estimate_hoffman(IDENTITY2, SampleConfig(sample_count=100_000, seed=1))
    low = math.sqrt(0.5)
    assert low <= estimate <= low + 1e-2

    rng = random.Random(20240819)
    checked = 0
    while checked < 40:
        n = rng.randint(1, 3)
        row = [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n)]
        if all(v == 0 for v in row):
            continue
        offset = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
        system = InequalitySystem.of([row], [offset])
        assert hoffman_constant_sq(system) == Vec.of(row).norm_sq()
        checked += 1

    elapsed = time.perf_counter() - began
    print(
        f"criterion 7: PASS (sigma² = 1/2, estimate {estimate:.6f} in [0.7071, 0.7171], "
        f"40 single-row systems exact, {elapsed:.1f}s)"
    )


def test_criterion_8_certificates_round_trip_and_mutations_rejected(tmp_path, corpus_verdicts):
    began = time.perf_counter()
    systems, verdicts, _, _ = corpus_verdicts
    negatives = [
        (system, verdict.certificate)
        for system, verdict in zip(systems, verdicts)
        if not verdict.has_error_bound
    ]
    assert negatives, "the corpus must contain infeasible systems"

    # Round trip: every negative verdict emits a certificate that verifies.
    for i, (system, _) in enumerate(negatives):
        system_path = write_system(system, tmp_path / f"sys{i}.json")
        cert_path = str(tmp_path / f"cert{i}.json")
        code, report, _ = run_cli("certify", system_path, "--out", cert_path)
        assert code == 3
        assert report["result"]["written"] == cert_path
        code, report, _ = run_cli("verify-cert", system_path, cert_path)
        assert code == 0
        assert report["result"]["valid"] is True

    # Mutations: 100 deterministic corruptions, all rejected.
    def mutate(system, certificate, kind, salt):
        point = list(certificate.point.entries)
        active = list(certificate.active)
        weights = list(certificate.hull_multipliers.entries)
        if kind == 0:  # shift the point until it genuinely stops witnessing
            for scale in (1, 2, 3):
                for coord in range(len(point)):
                    moved = list(point)
                    moved[coord] += Fraction(salt % 3 + 1) * scale
                    values = raw_residuals(system, Vec.of(moved))
                    top = max(values)
                    argmax = [i + 1 for i, v in enumerate(values) if v == top]
                    if top <= 0 or argmax != active:
                        return {"point": [str(v) for v in moved],
                                "active": active,
                                "hull_multipliers": [str(w) for w in weights]}
            raise AssertionError("no breaking shift found")
        if kind == 1:  # wrong active set
            if len(active) >= 2:
                wrong = active[:-1]
            elif system.m >= 2:
                wrong = [2 if active == [1] else 1]
            else:
                wrong = [1, 2]  # out of range for one-row systems
            uniform = [str(Fraction(1, len(wrong)))] * len(wrong)
            return {"point": [str(v) for v in point],
                    "active": wrong,
                    "hull_multipliers": uniform}
        broken = list(weights)  # kind 2: multipliers no longer sum to one
        broken[0] += Fraction(1, 2)
        return {"point": [str(v) for v in point],
                "active": active,
                "hull_multipliers": [str(w) for w in broken]}

    rejected = 0
    for k in range(100):
        system, certificate = negatives[k % len(negatives)]
        data = mutate(system, certificate, k % 3, k)
        system_path = write_system(system, tmp_path / f"mut_sys{k}.json")
        cert_path = tmp_path / f"mut_cert{k}.json"
        cert_path.write_text(json.dumps(data))
        code, report, _ = run_cli("verify-cert", system_path, str(cert_path))
        assert code == 3
        assert report["result"]["valid"] is False
        rejected += 1
    assert rejected == 100

    elapsed = time.perf_counter() - began
    print(
        f"criterion 8: PASS ({len(negatives)} certificates verified, "
        f"100 mutations rejected, {elapsed:.1f}s)"
    )


def test_criterion_9_sharp_constant_dominates_stability_bound(corpus_verdicts):
    began = time.perf_counter()
    systems, verdicts, feasibles, _ = corpus_verdicts
    compared = 0
    for system, verdict, feas in zip(systems, verdicts, feasibles):
        if not feas:
            continue
        stability = check_stability(system)
        if not stability.stable or stability.lower_bound_sq is None:
            continue
        sigma_sq = verdict.sigma_sq
        if sigma_sq is None:
            continue  # no violating points at all: the constant is unbounded above
        assert sigma_sq >= stability.lower_bound_sq  # exact rational comparison
        compared += 1
    assert compared >= 100  # the criterion must not hold vacuously
    elapsed = time.perf_counter() - began
    print(
        f"criterion 9: PASS ({compared} stable feasible systems, "
        f"sigma² >= lower bound on every one, {elapsed:.1f}s)"
    )
