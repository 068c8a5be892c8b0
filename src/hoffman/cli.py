"""Command-line interface.

Every command reads exact JSON input, prints one JSON report on one line to
stdout, and exits with 0 (affirmative verdict or plain success), 3 (negative
verdict), 2 (input error), or 1 (internal error, or stdout closed before the
report was written, as by `hoffman ... | head`).  Only `enumerate` runs worker
threads, and only when the environment variable HOFFMAN_THREADS sets their
number; every other command, and `enumerate` without it, runs sequentially.
Every command but `bench` names a system file.  `main` loads it once, inside
the timed part, before any other file or option is read; the handler gets
the system, and the report's `input_digest` is that of the file's bytes.

`main(argv)` can also be called in-process.  It returns the exit code
instead of exiting; only argparse still raises `SystemExit`, with code 2
after printing the usage to the `sys.stderr` of the moment for arguments it
rejects, and with code 0 after `--help`.  The argument parser is built once
per process, on the first call, and shared by every later one; each call
parses into a fresh namespace, so no call sees another's options.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from typing import Any

from .activesets import InequalitySystem, Level, enumerate_active_sets
from .analysis import (
    NO_ERROR_BOUND,
    Perturbation,
    check_error_bound,
    check_stability,
    hoffman_constant_sq,
    perturb,
    verify_certificate,
    worst_case_system,
)
from .formats import (
    certificate_to_data,
    exact_field,
    load_certificate,
    load_system,
    make_report,
    save_certificate,
    save_system,
    system_to_data,
    vec_to_data,
)
from .lp import feasible
from .rational import Vec, parse_rational, sqrt_approx
from .sampling import SampleConfig, estimate_hoffman

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_NEGATIVE = 3


def _worker_count() -> int | None:
    """Worker threads for `enumerate`: HOFFMAN_THREADS, or None (sequential) when unset."""
    raw = os.environ.get("HOFFMAN_THREADS")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"HOFFMAN_THREADS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError("HOFFMAN_THREADS must be at least 1")
    return value


def _parse_csv_vector(raw: str, flag: str) -> Vec:
    parts = [p for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"{flag} needs a comma-separated list of scalars")
    return Vec.of([parse_rational(p) for p in parts])


def _sigma_payload(sigma_sq) -> dict[str, Any]:
    if sigma_sq is NO_ERROR_BOUND:
        return {"has_error_bound": False, "sigma_sq": None, "sigma_approx": None}
    if sigma_sq is None:
        return {
            "has_error_bound": True,
            "sigma_sq": None,
            "sigma_approx": None,
            "note": "no point has positive residual; the constant is unbounded",
        }
    return {
        "has_error_bound": True,
        "sigma_sq": exact_field(sigma_sq),
        "sigma_approx": sqrt_approx(sigma_sq),
    }


def _cmd_check_eb(args: argparse.Namespace, system: InequalitySystem) -> tuple[dict[str, Any], int]:
    verdict = check_error_bound(system)
    result: dict[str, Any] = {
        "has_error_bound": verdict.has_error_bound,
        "checked_sets": verdict.checked_sets,
        "sigma_sq": None if verdict.sigma_sq is None else exact_field(verdict.sigma_sq),
        "sigma_approx": sqrt_approx(verdict.sigma_sq),
        "certificate": None
        if verdict.certificate is None
        else certificate_to_data(verdict.certificate),
    }
    code = EXIT_OK if verdict.has_error_bound else EXIT_NEGATIVE
    return result, code


def _cmd_check_stability(args: argparse.Namespace, system: InequalitySystem) -> tuple[dict[str, Any], int]:
    verdict = check_stability(system)
    result = {
        "stable": verdict.stable,
        "violating_set": None if verdict.violating_set is None else list(verdict.violating_set),
        "lower_bound_sq": None
        if verdict.lower_bound_sq is None
        else exact_field(verdict.lower_bound_sq),
        "lower_bound_approx": sqrt_approx(verdict.lower_bound_sq),
    }
    code = EXIT_OK if verdict.stable else EXIT_NEGATIVE
    return result, code


def _cmd_hoffman(args: argparse.Namespace, system: InequalitySystem) -> tuple[dict[str, Any], int]:
    sigma_sq = hoffman_constant_sq(system)
    result = _sigma_payload(sigma_sq)
    code = EXIT_OK if result["has_error_bound"] else EXIT_NEGATIVE
    return result, code


def _cmd_enumerate(args: argparse.Namespace, system: InequalitySystem) -> tuple[dict[str, Any], int]:
    family = enumerate_active_sets(system, Level(args.level), max_workers=_worker_count())
    result = {
        "level": args.level,
        "count": len(family.sets),
        "sets": [
            {"indices": list(indices), "witness": vec_to_data(family.witnesses[indices])}
            for indices in family.sets
        ],
    }
    return result, EXIT_OK


def _cmd_certify(args: argparse.Namespace, system: InequalitySystem) -> tuple[dict[str, Any], int]:
    verdict = check_error_bound(system)
    certificate = None if verdict.certificate is None else certificate_to_data(verdict.certificate)
    if verdict.certificate is not None and args.out:
        save_certificate(verdict.certificate, args.out)
    result = {
        "has_error_bound": verdict.has_error_bound,
        "certificate": certificate,
        "written": args.out if verdict.certificate is not None and args.out else None,
    }
    code = EXIT_OK if verdict.has_error_bound else EXIT_NEGATIVE
    return result, code


def _cmd_verify_cert(args: argparse.Namespace, system: InequalitySystem) -> tuple[dict[str, Any], int]:
    certificate = load_certificate(args.cert)
    valid = verify_certificate(system, certificate)
    return {"valid": valid}, EXIT_OK if valid else EXIT_NEGATIVE


def _cmd_perturb(args: argparse.Namespace, system: InequalitySystem) -> tuple[dict[str, Any], int]:
    perturbation = Perturbation(
        epsilon=parse_rational(args.eps),
        direction=_parse_csv_vector(args.u, "--u"),
        anchor=_parse_csv_vector(args.xbar, "--xbar"),
    )
    tilted = perturb(system, perturbation)
    save_system(tilted, args.out)
    return {"written": args.out, "system": system_to_data(tilted)}, EXIT_OK


def _cmd_estimate(args: argparse.Namespace, system: InequalitySystem) -> tuple[dict[str, Any], int]:
    config = SampleConfig(sample_count=args.samples, seed=args.seed, box_radius=args.box)
    eqs: list = []
    ineqs = [(row, system.b[i]) for i, row in enumerate(system.A.rows)]
    if not feasible(eqs, ineqs, dim=system.n).is_feasible:
        raise ValueError("the solution set is empty; the estimator is undefined")
    estimate = estimate_hoffman(system, config)
    result: dict[str, Any] = {
        "estimate": estimate,
        "samples": args.samples,
        "seed": args.seed,
        "box_radius": args.box,
    }
    if estimate is None:
        result["note"] = "no sampled point was infeasible; enlarge the box or sample count"
    return result, EXIT_OK


def _cmd_bench(args: argparse.Namespace, _: None) -> tuple[dict[str, Any], int]:
    match = re.fullmatch(r"(\d+)\.\.(\d+)", args.m_range)
    if not match:
        raise ValueError(f"--m-range expects the form A..B, got {args.m_range!r}")
    start, stop = int(match.group(1)), int(match.group(2))
    if not 1 <= start <= stop:
        raise ValueError("--m-range bounds must satisfy 1 <= A <= B")
    rows = []
    for m in range(start, stop + 1):
        system = worst_case_system(m)
        began = time.perf_counter()
        family = enumerate_active_sets(system, Level(args.level))
        elapsed = (time.perf_counter() - began) * 1000.0
        rows.append({"m": m, "family_size": len(family.sets), "elapsed_ms": round(elapsed, 3)})
    return {"level": args.level, "rows": rows}, EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one argument parser, built on the first call.

    Building it costs far more than parsing one command line with it, so
    `main` reuses it; callers must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="hoffman",
        description="Exact error-bound analysis for systems of linear inequalities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-eb", help="decide whether an error bound holds")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check_eb)

    p = sub.add_parser("check-stability", help="decide stability under anchored tilts")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check_stability)

    p = sub.add_parser("hoffman", help="exact squared sharp constant")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_hoffman)

    p = sub.add_parser("enumerate", help="enumerate realizable active sets")
    p.add_argument("file")
    p.add_argument("--level", choices=[level.value for level in Level], required=True)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("certify", help="emit a no-error-bound certificate when one exists")
    p.add_argument("file")
    p.add_argument("--out", default=None, help="write the certificate JSON here")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("verify-cert", help="check a certificate by substitution")
    p.add_argument("file")
    p.add_argument("cert")
    p.set_defaults(handler=_cmd_verify_cert)

    p = sub.add_parser("perturb", help="apply an anchored tilt and write the result")
    p.add_argument("file")
    p.add_argument("--eps", required=True, help="tilt size, an exact scalar like 1/10")
    p.add_argument("--u", required=True, help="tilt direction, comma-separated scalars")
    p.add_argument("--xbar", required=True, help="boundary anchor, comma-separated scalars")
    p.add_argument("--out", required=True, help="output system file")
    p.set_defaults(handler=_cmd_perturb)

    p = sub.add_parser("estimate", help="sampled upper estimate of the sharp constant")
    p.add_argument("file")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--box", type=float, default=10.0)
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("bench", help="time the enumeration on the worst-case family")
    p.add_argument("--m-range", required=True, help="row counts, e.g. 1..12")
    p.add_argument("--level", choices=[level.value for level in Level], default="pos")
    p.set_defaults(handler=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    began = time.perf_counter()
    try:
        system, digest = load_system(args.file) if "file" in args else (None, None)
        result, code = args.handler(args, system)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    elapsed_ms = (time.perf_counter() - began) * 1000.0
    report = make_report(args.command, digest, elapsed_ms, result)
    # One line of compact JSON, encoded by the C encoder in one call (an
    # indent would fall back to the Python one); `python -m json.tool`
    # pretty-prints it.
    sys.stdout.write(json.dumps(report))
    sys.stdout.write("\n")
    return code


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`hoffman ... | head`).  Point stdout
        # at devnull so that the flush at exit does not fail again, and exit 1.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_INTERNAL
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
