"""Seeded inputs and command plans for the benchmark workloads.

Each workload is a list of system files plus the commands one closed-loop
client issues against them, back to back, in one pass.  The same seed always
yields the same files and the same plan.  Only the identity systems (the
`identity` workload and the enumerated system in `corpus`) come from the
package (`analysis.worst_case_system`); the others come from the generators
below, so a change to the program cannot change its own inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from hoffman.analysis import worst_case_system

IDENTITY_EB_M = 9
IDENTITY_ENUM_M = 9
IDENTITY_STAB_M = 7
# (n, m) per polytope slot: m = 8..11 three times, n = 3 only for m <= 10,
# where a system costs about as much as the n = 2, m = 11 one.
POLYTOPE_SHAPES = tuple((3 if 4 <= i < 7 else 2, 8 + i % 4) for i in range(12))
CORPUS_SIZE = 200
CORPUS_SHAPE_SEED = 20240817
# `enumerate --level pos` on the identity family at this m, once per this many
# corpus systems, so that every workload reports enumerate_ref_p50.
CORPUS_ENUM_M = 7
CORPUS_ENUM_EVERY = 50
ESTIMATE_ARGS = ("--samples", "1000", "--seed", "1")

Rows = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class SystemData:
    """Exact data of one generated system file, `A x <= b`."""

    stem: str
    rows: Rows
    offsets: tuple[Fraction, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "A": [[str(v) for v in row] for row in self.rows],
                "b": [str(v) for v in self.offsets],
            }
        )


@dataclass(frozen=True)
class Workload:
    """Inputs and the plan of one pass.

    `commands` holds (command, stem, extra arguments).  With `follow_up`,
    every `check-eb` is followed by `verify-cert` on its certificate when the
    verdict is negative and by `estimate` when it is affirmative.
    """

    name: str
    seed: int
    systems: tuple[SystemData, ...]
    commands: tuple[tuple[str, str, tuple[str, ...]], ...]
    follow_up: bool = False

    def system(self, stem: str) -> SystemData:
        return next(s for s in self.systems if s.stem == stem)


def _as_data(stem: str, system) -> SystemData:
    return SystemData(stem, tuple(tuple(row.entries) for row in system.A.rows), tuple(system.b.entries))


def identity(seed: int) -> Workload:
    """Worst-case family; the seed only orders the three commands of a pass."""
    systems = tuple(
        _as_data(f"identity{m}", worst_case_system(m))
        for m in sorted({IDENTITY_EB_M, IDENTITY_ENUM_M, IDENTITY_STAB_M})
    )
    commands = [
        ("check-eb", f"identity{IDENTITY_EB_M}", ()),
        ("enumerate", f"identity{IDENTITY_ENUM_M}", ("--level", "pos")),
        ("check-stability", f"identity{IDENTITY_STAB_M}", ()),
    ]
    random.Random(seed).shuffle(commands)
    return Workload("identity", seed, systems, tuple(commands))


def _polytope_system(rng: random.Random, stem: str, n: int, m: int) -> SystemData:
    rows: list[tuple[Fraction, ...]] = []
    while len(rows) < m:
        row = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
        if any(row) and row not in rows:
            rows.append(row)
    offsets = []
    for _ in range(m):
        den = rng.randint(1, 4)
        offsets.append(Fraction(rng.randint(1, 4 * den), den))
    return SystemData(stem, tuple(rows), tuple(offsets))


def polytope(seed: int) -> Workload:
    """Random systems with the origin strictly feasible.

    The sizes are fixed per slot and only the entries are random, so the
    work of a pass depends little on the seed.
    """
    rng = random.Random(seed)
    systems = tuple(
        _polytope_system(rng, f"polytope{i:02d}", n, m) for i, (n, m) in enumerate(POLYTOPE_SHAPES)
    )
    commands = tuple((cmd, s.stem, ()) for s in systems for cmd in ("check-eb", "check-stability"))
    return Workload("polytope", seed, systems, commands)


def _corpus_scalar(rng: random.Random) -> Fraction:
    den = rng.randint(1, 4)
    return Fraction(rng.randint(-3 * den, 3 * den), den)


def _corpus_systems(seed: int, shapes: list[tuple[int, int]] | None) -> list[SystemData]:
    rng = random.Random(seed)
    systems = []
    for i in range(CORPUS_SIZE):
        drawn = rng.randint(1, 3), rng.randint(1, 5)
        n, m = drawn if shapes is None else shapes[i]
        rows = tuple(tuple(_corpus_scalar(rng) for _ in range(n)) for _ in range(m))
        offsets = tuple(_corpus_scalar(rng) for _ in range(m))
        systems.append(SystemData(f"corpus{i:03d}", rows, offsets))
    return systems


def corpus(seed: int) -> Workload:
    """Small random systems drawn like tests/corpus.py (n <= 3, m <= 5).

    Every seed keeps the (n, m) shapes of the frozen corpus and redraws only
    the entries, with the same random stream layout, so seed 20240817 gives
    the frozen corpus itself.  A pass's work then depends little on the seed:
    redrawing the shapes moves the pass time by about 15%.  Every
    CORPUS_ENUM_EVERY systems the pass also enumerates a fixed identity system.
    """
    shapes = [(len(s.rows[0]), len(s.rows)) for s in _corpus_systems(CORPUS_SHAPE_SEED, None)]
    systems = _corpus_systems(seed, shapes)
    enumerated = _as_data(f"identity{CORPUS_ENUM_M}", worst_case_system(CORPUS_ENUM_M))
    commands = []
    for i, system in enumerate(systems):
        if i % CORPUS_ENUM_EVERY == 0:
            commands.append(("enumerate", enumerated.stem, ("--level", "pos")))
        commands += [(cmd, system.stem, ()) for cmd in ("check-eb", "check-stability")]
    return Workload("corpus", seed, (*systems, enumerated), tuple(commands), follow_up=True)


GENERATORS = {"identity": identity, "polytope": polytope, "corpus": corpus}


def write_inputs(workload: Workload, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for system in workload.systems:
        (workdir / f"{system.stem}.json").write_text(system.to_json())
