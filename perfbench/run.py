"""Benchmark of the hoffman command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload identity|polytope|corpus|all \
        [--seed N] [--seconds S] [--trace 0|1]

Every workload runs in fresh child processes, so import cost and peak memory
never carry over.  With `--trace 0` one child issues the workload's commands
back to back through `hoffman.cli.main` for about `--seconds` seconds and
checks every output (see oracle.py).  Between commands, about every half
second, it times a fixed reference computation; the `_ref` metrics are times
divided by the run's median reference time, which the machine's drift moves
far less than it moves seconds.  Every SETUP_EVERY_S seconds between passes,
and after the last, it times the set-up in fresh grandchildren, so that the
median set-up time samples the machine over the whole run.  With
`--trace 1` the child runs an untraced warm-up pass, then alternates untraced
and traced passes, and reports per-layer calls, self time and outcome
counters (see spans.py).  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the metrics it holds are the
ones BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("identity", "polytope", "corpus")
# The corpus default reproduces the frozen corpus of tests/corpus.py.
DEFAULT_SEEDS = {"identity": 0, "polytope": 1, "corpus": 20240817}
SETUPS_PER_GAP = 2
SETUP_EVERY_S = 9.0
TRACED_PAIRS = 2
DEADLINE_S = 170.0
P90_MIN_SAMPLES = 100
# One enumeration worker.  With the default of one per CPU, the pool's
# threads hand the interpreter lock between the two shared vCPUs, and the
# commands that use it drifted by 15-20% from run to run while the same
# process's single-threaded work held steady.
HOFFMAN_THREADS = "1"


def reported_names(name: str, trace: bool, measured: dict) -> list[str]:
    """The metric names BENCHMARK.json lists for this kind of run.  A
    workload it does not list (polytope) reports those of them it has."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in spec["per_layer" if trace else "end_to_end"]]
    if any(workload["name"] == name for workload in spec["workloads"]):
        return names
    return [metric for metric in names if metric in measured]


def _time_metrics(passes, reference: float) -> dict[str, dict]:
    """Pass and command times in seconds or ms, and as multiples (unit `ref`)
    of the run's median reference time."""
    walls = [p.seconds for p in passes]
    wall = statistics.median(walls)
    out = {
        "wall_s": {"value": wall, "unit": "s", "samples": len(walls)},
        "wall_ref": {"value": wall / reference, "unit": "ref", "samples": len(walls)},
    }
    by_command: dict[str, list[float]] = {}
    for one in passes:
        for call in one.calls:
            by_command.setdefault(call.command, []).append(call.seconds)
    for command, values in sorted(by_command.items()):
        key = command.replace("-", "_")
        p50 = statistics.median(values)
        out[f"{key}_ms_p50"] = {"value": p50 * 1e3, "unit": "ms", "samples": len(values)}
        out[f"{key}_ref_p50"] = {"value": p50 / reference, "unit": "ref", "samples": len(values)}
        if len(values) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(values, n=10)[8]
            out[f"{key}_ms_p90"] = {"value": p90 * 1e3, "unit": "ms", "samples": len(values)}
    return out


def child(role: str, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Body of a child process; the set-up clock starts before the import."""
    began = perf_counter()
    sys.path.insert(0, str(SRC))
    import hoffman
    import workloads

    if Path(hoffman.__file__).resolve().parent != SRC / "hoffman":
        raise RuntimeError(f"imported hoffman from {hoffman.__file__}, not from {SRC}")
    workload = workloads.GENERATORS[name](seed)
    workdir = WORKDIR / name
    workloads.write_inputs(workload, workdir)
    setup_s = perf_counter() - began
    if role == "setup":
        return {"setup_s": setup_s}

    import harness
    import oracle

    metrics: dict[str, dict] = {}
    setups: list[float] = []
    if trace:
        from spans import Tracer

        # The warm-up pass is checked but not timed; then untraced and traced
        # passes alternate, so drift and warm-up weigh on both alike.
        passes = [harness.run_pass(workload, workdir)]
        untraced, traced, tracers = [], [], []
        for _ in range(TRACED_PAIRS):
            untraced.append(harness.run_pass(workload, workdir))
            tracers.append(Tracer())
            with tracers[-1]:
                traced.append(harness.run_pass(workload, workdir))
        passes += untraced + traced
        # Counts and self times come from the first traced pass.
        tracers[0].write(workdir / "trace.json")
        metrics.update(
            tracers[0].metrics(
                statistics.median(p.seconds for p in untraced),
                statistics.median(p.seconds for p in traced),
            )
        )
    else:
        setup = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--child", "setup"]
        deadline = began + DEADLINE_S
        last_setup = float("-inf")

        def set_up_again(last: bool) -> None:
            nonlocal last_setup
            if last or perf_counter() - last_setup >= SETUP_EVERY_S:
                setups.extend(_spawn(setup, deadline)["setup_s"] for _ in range(SETUPS_PER_GAP))
                last_setup = perf_counter()

        calibration = harness.Calibration()
        passes = harness.run_passes(workload, workdir, seconds, set_up_again, calibration)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reference = statistics.median(calibration.samples)
        metrics["reference_ms_p50"] = {"value": reference * 1e3, "unit": "ms", "samples": len(calibration.samples)}
        metrics.update(_time_metrics(passes, reference))
        metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s", "samples": len(setups)}
    outcome = oracle.check(workload, passes, oracle.load_recorded(workload))
    for message in outcome.messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digests": outcome.digests,
        "digest_checked": outcome.digest_checked,
        "metrics": metrics,
    }


def _spawn(args: list[str], deadline: float) -> dict:
    env = {**os.environ, "HOFFMAN_THREADS": HOFFMAN_THREADS}
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise TimeoutError("benchmark ran out of time")
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=remaining,
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"child {args} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    result = _spawn([*base, "--child", "measure"], deadline)
    attempted = result["attempted"]
    result["metrics"]["failed_frac"] = {"value": result["failed"] / attempted, "unit": "ratio", "samples": attempted}
    result["environment"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "workers": int(HOFFMAN_THREADS),
        "HOFFMAN_THREADS": HOFFMAN_THREADS,
    }
    return result


def _print_block(result: dict) -> None:
    env = result["environment"]
    checked = "checked against the recorded digest" if result["digest_checked"] else "no recorded digest for this seed"
    print(
        f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
        f"{result['passes']} passes, nproc {env['nproc']}, python {env['python']}, "
        f"workers {env['workers']}, {checked}"
    )
    for name, metric in result["metrics"].items():
        samples = f"  (n={metric['samples']})" if "samples" in metric else ""
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}{samples}")


def _reported(result: dict) -> dict[str, dict]:
    measured = result["metrics"]
    names = reported_names(result["workload"], bool(result["trace"]), measured)
    return {name: {"value": measured[name]["value"], "unit": measured[name]["unit"]} for name in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own seed")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "hoffman" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if args.child:
        print(json.dumps(child(args.child, args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        seed = DEFAULT_SEEDS[name] if args.seed is None else args.seed
        deadline = perf_counter() + DEADLINE_S
        result = run_workload(name, seed, args.seconds, bool(args.trace), deadline)
        (WORKDIR / "results").mkdir(parents=True, exist_ok=True)
        (WORKDIR / "results" / f"{name}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=2))
        _print_block(result)
        results.append(result)

    metrics: dict[str, dict] = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        metrics.update({prefix + k: v for k, v in _reported(result).items()})
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
