"""JSON formats: system files, certificate files, and CLI reports.

Scalars travel as exact strings ("3", "-2/7", "0.25"); floats appear only as
display annotations next to their exact counterparts.  Index sets are
1-based.  Parsing rejects JSON floats: a binary float has no authoritative
exact value, so exact input must be written as a string (or an integer).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .activesets import IndexSet, InequalitySystem, make_index_set
from .analysis import Certificate
from .rational import Vec, format_rational, to_rational

__all__ = [
    "SystemFileError",
    "parse_scalar_value",
    "parse_vec_data",
    "vec_to_data",
    "parse_system_data",
    "system_to_data",
    "load_system",
    "save_system",
    "parse_certificate_data",
    "certificate_to_data",
    "load_certificate",
    "save_certificate",
    "exact_field",
    "digest_of",
    "make_report",
]


class SystemFileError(ValueError):
    """Malformed or non-exact input data."""


def parse_scalar_value(value: Any) -> Fraction:
    if isinstance(value, bool):
        raise SystemFileError(f"not an exact scalar: {value!r}")
    if isinstance(value, float):
        raise SystemFileError(
            f"refusing JSON float {value!r}: write exact scalars as strings, e.g. \"0.25\""
        )
    try:
        return to_rational(value)
    except (TypeError, ValueError) as exc:  # either message quotes at most a prefix of the value
        raise SystemFileError(str(exc)) from exc


def parse_vec_data(data: Any, expected_dim: int | None = None) -> Vec:
    if not isinstance(data, list) or not data:
        raise SystemFileError("vector must be a nonempty JSON array of scalars")
    vec = Vec.of([parse_scalar_value(v) for v in data])
    if expected_dim is not None and vec.dim != expected_dim:
        raise SystemFileError(f"vector has dimension {vec.dim}, expected {expected_dim}")
    return vec


def vec_to_data(vec: Vec) -> list[str]:
    return [format_rational(v) for v in vec]


def parse_system_data(data: Any) -> InequalitySystem:
    if not isinstance(data, dict):
        raise SystemFileError("system file must be a JSON object with fields 'A' and 'b'")
    missing = {"A", "b"} - set(data)
    if missing:
        raise SystemFileError(f"system file is missing fields: {sorted(missing)}")
    raw_rows = data["A"]
    if not isinstance(raw_rows, list) or not raw_rows:
        raise SystemFileError("'A' must be a nonempty array of rows")
    rows = [parse_vec_data(r) for r in raw_rows]
    width = rows[0].dim
    if any(r.dim != width for r in rows):
        raise SystemFileError("'A' must be rectangular")
    offsets = parse_vec_data(data["b"], expected_dim=len(rows))
    try:
        return InequalitySystem.of(rows, offsets)
    except ValueError as exc:
        raise SystemFileError(str(exc)) from exc


def system_to_data(system: InequalitySystem) -> dict[str, Any]:
    return {
        "A": [vec_to_data(row) for row in system.A.rows],
        "b": vec_to_data(system.b),
    }


def digest_of(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def _read_json(path: str | Path) -> tuple[Any, bytes]:
    """The decoded JSON document at `path` and its raw bytes."""
    raw = Path(path).read_bytes()
    try:
        return json.loads(raw), raw
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SystemFileError(f"{path}: JSON nested too deeply to decode") from exc
    except UnicodeDecodeError as exc:
        raise SystemFileError(f"{path}: cannot decode JSON: {exc}") from exc
    except ValueError as exc:  # int() refuses more digits than the interpreter's limit, which stays as it is
        raise SystemFileError(f"{path}: cannot decode JSON: an integer has more digits than this package reads") from exc


def load_system(path: str | Path) -> tuple[InequalitySystem, str]:
    """Parse a system file; returns the system and its content digest."""
    data, raw = _read_json(path)
    return parse_system_data(data), digest_of(raw)


def save_system(system: InequalitySystem, path: str | Path) -> None:
    Path(path).write_text(json.dumps(system_to_data(system), indent=2) + "\n")


def parse_certificate_data(data: Any) -> Certificate:
    if not isinstance(data, dict):
        raise SystemFileError("certificate must be a JSON object")
    missing = {"point", "active", "hull_multipliers"} - set(data)
    if missing:
        raise SystemFileError(f"certificate is missing fields: {sorted(missing)}")
    active_raw = data["active"]
    try:
        if not isinstance(active_raw, list):
            raise TypeError("not an array")
        active: IndexSet = make_index_set(active_raw)
    except (TypeError, ValueError) as exc:
        raise SystemFileError("'active' must be a nonempty array of 1-based integers") from exc
    return Certificate(
        point=parse_vec_data(data["point"]),
        active=active,
        hull_multipliers=parse_vec_data(data["hull_multipliers"], expected_dim=len(active)),
    )


def certificate_to_data(certificate: Certificate) -> dict[str, Any]:
    return {
        "point": vec_to_data(certificate.point),
        "active": list(certificate.active),
        "hull_multipliers": vec_to_data(certificate.hull_multipliers),
    }


def load_certificate(path: str | Path) -> Certificate:
    data, _ = _read_json(path)
    return parse_certificate_data(data)


def save_certificate(certificate: Certificate, path: str | Path) -> None:
    Path(path).write_text(json.dumps(certificate_to_data(certificate), indent=2) + "\n")


def exact_field(value: Fraction) -> dict[str, Any]:
    """Exact scalar plus a float annotation for report payloads.

    The annotation is None when the value is past float range.
    """
    try:
        approx = float(value)
    except OverflowError:
        approx = None
    return {"exact": format_rational(value), "approx": approx}


def make_report(command: str, input_digest: str | None, timing_ms: float, result: dict[str, Any]) -> dict[str, Any]:
    return {
        "command": command,
        "input_digest": input_digest,
        "timing_ms": round(timing_ms, 3),
        "result": result,
    }
