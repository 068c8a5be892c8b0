"""One closed-loop client: runs a workload's commands in-process through
`hoffman.cli.main(argv)` with stdout captured, one after another.

Between commands the client can time a fixed reference computation (see
`Calibration`), so that a run can state its command times in multiples of
the reference time as well as in seconds.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Callable, Optional

from hoffman import cli

from workloads import ESTIMATE_ARGS, Workload


@dataclass
class Call:
    """One command as the client saw it."""

    command: str
    stem: str
    code: int
    seconds: float
    stdout: str

    def report(self) -> dict[str, Any] | None:
        try:
            data = json.loads(self.stdout)
        except json.JSONDecodeError:
            return None
        return data if isinstance(data, dict) else None


@dataclass
class Pass:
    """One pass; `seconds` leaves out the calibrations made during it."""

    seconds: float
    calls: list[Call]


_RNG = random.Random(5)
REFERENCE_MATRIX = tuple(
    tuple(Fraction(_RNG.randint(-9, 9), _RNG.randint(1, 5)) for _ in range(9)) for _ in range(8)
)
REFERENCE_REPS = 10
CALIBRATE_EVERY_S = 0.5


def reference_work() -> list[list[Fraction]]:
    """Fixed pure-Python work that never calls the package: Gauss-Jordan
    elimination over `Fraction`s, the arithmetic the engines spend on."""
    for _ in range(REFERENCE_REPS):
        rows = [list(row) for row in REFERENCE_MATRIX]
        for k in range(len(rows)):
            pivot = next(i for i in range(k, len(rows)) if rows[i][k] != 0)
            rows[k], rows[pivot] = rows[pivot], rows[k]
            for i, row in enumerate(rows):
                if i != k and row[k]:
                    factor = row[k] / rows[k][k]
                    rows[i] = [a - factor * b for a, b in zip(row, rows[k])]
    return rows


@dataclass
class Calibration:
    """Times `reference_work` before a command when the last timing is at
    least CALIBRATE_EVERY_S old, so its samples cover a run evenly.  The
    machine's speed drifts by tens of percent over minutes; a command's time
    divided by the run's median reference time does not move with it."""

    samples: list[float] = field(default_factory=list)
    last: float = float("-inf")

    def maybe(self) -> float:
        """Calibrate if due; return the seconds it took, 0.0 if not due."""
        began = perf_counter()
        if began - self.last < CALIBRATE_EVERY_S:
            return 0.0
        reference_work()
        self.last = perf_counter()
        self.samples.append(self.last - began)
        return self.last - began


def run_command(command: str, stem: str, argv: list[str]) -> Call:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        began = perf_counter()
        try:
            code = cli.main([command, *argv])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = perf_counter() - began
    return Call(command, stem, code, elapsed, out.getvalue())


def run_pass(workload: Workload, workdir: Path, calibration: Optional[Calibration] = None) -> Pass:
    calls: list[Call] = []
    calibrating = 0.0

    def issue(command: str, stem: str, argv: list[str]) -> Call:
        nonlocal calibrating
        if calibration is not None:
            calibrating += calibration.maybe()
        calls.append(run_command(command, stem, argv))
        return calls[-1]

    began = perf_counter()
    for command, stem, extra in workload.commands:
        path = str(workdir / f"{stem}.json")
        call = issue(command, stem, [path, *extra])
        if not (workload.follow_up and command == "check-eb"):
            continue
        report = call.report()
        certificate = None if report is None else report.get("result", {}).get("certificate")
        if call.code == 3 and certificate is not None:
            cert_path = workdir / f"{stem}.cert.json"
            cert_path.write_text(json.dumps(certificate))
            issue("verify-cert", stem, [path, str(cert_path)])
        elif call.code == 0:
            issue("estimate", stem, [path, *ESTIMATE_ARGS])
    return Pass(perf_counter() - began - calibrating, calls)


def run_passes(
    workload: Workload,
    workdir: Path,
    seconds: float,
    between: Callable[[bool], None],
    calibration: Calibration,
) -> list[Pass]:
    """Passes within `seconds`, with `between(last)` called before each pass
    and once more after the last, outside the pass's time.  After the first,
    a new pass starts only while a typical pass and its `between` still fit."""
    passes: list[Pass] = []
    cycles: list[float] = []
    began = perf_counter()
    while True:
        cycle_began = perf_counter()
        between(False)
        passes.append(run_pass(workload, workdir, calibration))
        cycles.append(perf_counter() - cycle_began)
        if perf_counter() - began + median(cycles) > seconds:
            between(True)
            return passes
