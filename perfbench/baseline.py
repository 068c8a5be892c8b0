"""Repeat the benchmark over several seeds and summarise its steadiness.

    python3 perfbench/baseline.py [--workloads identity,polytope,corpus]
        [--runs 10] [--first-seed 1] [--seconds 55]
        [--out perfbench/BENCH_baseline.json] [--skip-trace]

For every workload it runs `run.py --trace 0` once per seed, then
`run.py --trace 1` twice on the workload's default seed.  For each metric it
reports the median of the runs and the quartile spread, (q3 - q1) / median
with `statistics.quantiles(values, n=4)`, next to the metric's bound from
BENCHMARK.json.  It also checks that the traced counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEEDS, WORKDIR, WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr}")
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    details = json.loads((WORKDIR / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    details["summary"] = summary
    return details


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "median": middle,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / middle if middle else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--skip-trace", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    bounds = {}
    benchmark = ROOT / "BENCHMARK.json"
    if benchmark.exists():
        bounds = {m["name"]: m["bound"] for m in json.loads(benchmark.read_text())["end_to_end"]}

    report: dict = {
        "environment": None,
        "run_seconds": args.seconds,
        "quartile_method": "statistics.quantiles(values, n=4); spread = (q3 - q1) / median",
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        runs = []
        for seed in seeds:
            result = _run(workload, seed, args.seconds, 0)
            runs.append(result)
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']}", flush=True)
        report["environment"] = runs[0]["environment"]
        names = [name for name in runs[0]["metrics"] if all(name in r["metrics"] for r in runs)]
        entry: dict = {
            "seeds": seeds,
            "correct": all(r["failed"] == 0 for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": {},
        }
        print(f"{workload}: {'metric':<28} {'median':>12} {'spread':>8} {'bound':>6}")
        for name in names:
            stats = _spread([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            if name in bounds:
                stats["bound"] = bounds[name]
            entry["metrics"][name] = stats
            bound = f"{bounds[name]:>6}" if name in bounds else ""
            print(f"{workload}: {name:<28} {stats['median']:>12.6g} {stats['spread']:>8.4f} {bound}")
        if not args.skip_trace:
            default = DEFAULT_SEEDS[workload]
            traced = [_run(workload, default, args.seconds, 1) for _ in range(2)]
            counts = [
                {k: v["value"] for k, v in t["metrics"].items() if v["unit"] == "count"} for t in traced
            ]
            entry["traced"] = {
                "seed": default,
                "counts_repeat": counts[0] == counts[1],
                "correct": all(t["failed"] == 0 for t in traced),
                "per_layer": {k: v for k, v in traced[0]["metrics"].items() if k != "failed_frac"},
            }
            print(f"{workload}: traced counts repeat: {counts[0] == counts[1]}", flush=True)
        report["workloads"][workload] = entry

    report["environment"] = dict(report["environment"] or {}, machine=platform.machine())
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
