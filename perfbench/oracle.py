"""Correctness gate: every command's output is checked against oracles that
do not call the package's engines.

* identity closed forms: family size 2^m - 1 with witnesses checked by
  substitution, sigma_sq = 1/m, stable with lower_bound_sq = 1/m (every
  workload enumerates identity systems only);
* polytope: the origin is strictly feasible, so an error bound exists, and
  the system is stable (no convex combination of rows tight at a common point
  with positive offsets can vanish);
* the check-eb verdict equals float LP feasibility from scipy's HiGHS;
* certificates hold under this module's own substitution arithmetic, and
  verify-cert agrees with it;
* the sampled estimate is at least sqrt(sigma_sq), up to float rounding;
* a digest of the exact result fields of each command kind is the same in
  every pass and equals the one recorded from the seed commit, when one is
  recorded for the workload and seed.

A command fails when its exit code is wrong or any of these disagree.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Any

from harness import Call, Pass
from workloads import SystemData, Workload

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
_ESTIMATE_RTOL = 1e-9


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    digest_checked: bool = False


def _residuals(system: SystemData, point: list[Fraction]) -> list[Fraction]:
    return [sum((a * x for a, x in zip(row, point)), Fraction(0)) - b for row, b in zip(system.rows, system.offsets)]


def _active_at(system: SystemData, point: list[Fraction]) -> tuple[Fraction, list[int]]:
    values = _residuals(system, point)
    top = max(values)
    return top, [i + 1 for i, v in enumerate(values) if v == top]


def certificate_holds(system: SystemData, certificate: Any) -> bool:
    """Positive maximum residual at `point`, exact active set, and convex
    multipliers combining the active rows to zero."""
    try:
        point = [Fraction(v) for v in certificate["point"]]
        active = list(certificate["active"])
        lam = [Fraction(v) for v in certificate["hull_multipliers"]]
        if len(point) != len(system.rows[0]) or len(lam) != len(active):
            return False
        top, tight = _active_at(system, point)
        if top <= 0 or tight != active:
            return False
        if any(v < 0 for v in lam) or sum(lam) != 1:
            return False
        return all(
            sum((v * system.rows[i - 1][k] for v, i in zip(lam, active)), Fraction(0)) == 0
            for k in range(len(point))
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError, IndexError):
        return False


def lp_feasible(system: SystemData) -> bool:
    from scipy.optimize import linprog

    a_ub = [[float(v) for v in row] for row in system.rows]
    b_ub = [float(v) for v in system.offsets]
    n = len(system.rows[0])
    result = linprog([0.0] * n, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * n, method="highs")
    if result.status not in (0, 2):
        raise RuntimeError(f"{system.stem}: linprog ended with status {result.status}")
    return result.status == 0


def _exact(field_value: Any) -> str | None:
    return None if field_value is None else field_value["exact"]


def digest_record(call: Call, report: dict[str, Any]) -> dict[str, Any]:
    """The exact fields of a report; never timing_ms or float annotations."""
    result = report["result"]
    record: dict[str, Any] = {"stem": call.stem, "code": call.code, "input": report["input_digest"]}
    if call.command == "check-eb":
        record.update(
            has_error_bound=result["has_error_bound"],
            sigma_sq=_exact(result["sigma_sq"]),
            certificate=result["certificate"],
        )
    elif call.command == "check-stability":
        record.update(
            stable=result["stable"],
            violating_set=result["violating_set"],
            lower_bound_sq=_exact(result["lower_bound_sq"]),
        )
    elif call.command == "enumerate":
        record.update(level=result["level"], count=result["count"], sets=result["sets"])
    elif call.command == "verify-cert":
        record.update(valid=result["valid"])
    return record


class _Checker:
    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self._feasible: dict[str, bool] = {}

    def feasible(self, system: SystemData) -> bool:
        if system.stem not in self._feasible:
            self._feasible[system.stem] = lp_feasible(system)
        return self._feasible[system.stem]

    def problems(self, call: Call, result: dict[str, Any], sigma_sq: dict[str, Any]) -> list[str]:
        """Disagreements of one parsed command result with the oracles."""
        system = self.workload.system(call.stem)
        m = len(system.rows)
        kind = self.workload.name
        out: list[str] = []
        if call.command == "check-eb":
            verdict = result["has_error_bound"]
            if call.code != (0 if verdict else 3):
                out.append(f"exit code {call.code} for has_error_bound={verdict}")
            if verdict != self.feasible(system):
                out.append("verdict disagrees with LP feasibility")
            if verdict and result["certificate"] is not None:
                out.append("certificate on an affirmative verdict")
            if not verdict and not certificate_holds(system, result["certificate"]):
                out.append("certificate fails substitution")
            if kind == "identity" and _exact(result["sigma_sq"]) != str(Fraction(1, m)):
                out.append(f"sigma_sq {_exact(result['sigma_sq'])} != 1/{m}")
            if kind == "polytope" and not (verdict and Fraction(_exact(result["sigma_sq"])) > 0):
                out.append("strictly feasible system without a positive sigma_sq")
        elif call.command == "check-stability":
            stable = result["stable"]
            if call.code != (0 if stable else 3):
                out.append(f"exit code {call.code} for stable={stable}")
            if stable != (result["violating_set"] is None):
                out.append("violating_set inconsistent with the verdict")
            bound = _exact(result["lower_bound_sq"])
            if bound is not None and Fraction(bound) < 0:
                out.append("negative lower_bound_sq")
            if kind == "identity" and (not stable or bound != str(Fraction(1, m))):
                out.append(f"identity must be stable with lower_bound_sq 1/{m}")
            if kind == "polytope" and not (stable and bound is not None and Fraction(bound) > 0):
                out.append("strictly feasible system must be stable with a positive bound")
        elif call.command == "enumerate":
            expected = [list(c) for size in range(1, m + 1) for c in combinations(range(1, m + 1), size)]
            if call.code != 0 or result["count"] != 2**m - 1:
                out.append(f"exit code {call.code}, count {result['count']} != {2**m - 1}")
            if [entry["indices"] for entry in result["sets"]] != expected:
                out.append("family differs from all nonempty subsets in order")
            for entry in result["sets"]:
                top, tight = _active_at(system, [Fraction(v) for v in entry["witness"]])
                if top <= 0 or tight != entry["indices"]:
                    out.append(f"witness of {entry['indices']} fails substitution")
                    break
        elif call.command == "verify-cert":
            if call.code != 0 or result["valid"] is not True:
                out.append(f"verify-cert rejected a certificate (exit {call.code})")
        elif call.command == "estimate":
            estimate = result["estimate"]
            exact = _exact(sigma_sq.get(call.stem))
            if call.code != 0:
                out.append(f"exit code {call.code}")
            elif estimate is not None and exact is not None:
                floor = math.sqrt(Fraction(exact))
                if estimate < floor * (1 - _ESTIMATE_RTOL):
                    out.append(f"estimate {estimate} below sqrt(sigma_sq) = {floor}")
        return out


def load_recorded(workload: Workload) -> dict[str, str] | None:
    if not DIGESTS_PATH.exists():
        return None
    table = json.loads(DIGESTS_PATH.read_text()).get(workload.name, {})
    return table.get(str(workload.seed), table.get("any"))


def check(workload: Workload, passes: list[Pass], recorded: dict[str, str] | None) -> Outcome:
    outcome = Outcome()
    checker = _Checker(workload)
    failed_ids: set[int] = set()

    def fail(call: Call, index: int, message: str) -> None:
        failed_ids.add(id(call))
        outcome.messages.append(f"pass {index} {call.command} {call.stem}: {message}")

    pass_digests: list[dict[str, str]] = []
    for index, one in enumerate(passes, 1):
        records: dict[str, list[dict[str, Any]]] = {}
        sigma_sq: dict[str, Any] = {}
        for call in one.calls:
            outcome.attempted += 1
            report = call.report()
            try:
                if report is None:
                    raise ValueError("no JSON report")
                result = report["result"]
                if call.command == "check-eb":
                    sigma_sq[call.stem] = result["sigma_sq"]
                records.setdefault(call.command, []).append(digest_record(call, report))
                for message in checker.problems(call, result, sigma_sq):
                    fail(call, index, message)
            except (KeyError, TypeError, ValueError) as exc:
                fail(call, index, f"malformed output ({exc!r}), exit {call.code}")
        pass_digests.append(
            {
                command: hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
                for command, rows in sorted(records.items())
            }
        )
    outcome.digests = pass_digests[0]
    outcome.digest_checked = recorded is not None
    reference = outcome.digests if recorded is None else recorded
    for index, (one, digests) in enumerate(zip(passes, pass_digests), 1):
        if set(digests) != set(reference):
            for call in one.calls:
                fail(call, index, f"pass issued {sorted(digests)}, expected {sorted(reference)}")
        for command, digest in digests.items():
            if reference.get(command) != digest:
                for call in one.calls:
                    if call.command == command:
                        fail(call, index, "exact results differ from the reference digest")
    outcome.failed = len(failed_ids)
    return outcome
