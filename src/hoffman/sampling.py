"""Seeded floating-point estimators that cross-check the exact engines.

Nothing here feeds back into an exact verdict.  These routines exist so the
test suite can compare rational results against brute-force sampling, and so
the command line can report a quick empirical ratio estimate.  Sampling is
chunked but strictly sequential per seed, so results are reproducible
bit-for-bit for a fixed seed and sample count.

numpy is imported inside the functions that sample, so importing the
package (and every exact command) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Sequence

from .activesets import InequalitySystem, active_set
from .rational import Vec

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SampleConfig",
    "sample_minmax",
    "directional_derivative",
    "estimate_hoffman",
]

_CHUNK = 1 << 15
_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class SampleConfig:
    sample_count: int
    seed: int = 0
    box_radius: float = 10.0

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ValueError("sample count must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        # the sampler draws from [-r, r], whose width 2r must be a finite float
        if not 0 < 2 * self.box_radius < math.inf:
            raise ValueError("box radius must be positive, and twice it a finite float")


def _float_matrix(points: Sequence[Vec]) -> np.ndarray:
    import numpy as np

    return np.array([[float(entry) for entry in p] for p in points], dtype=float)


def sample_minmax(points: Sequence[Vec], config: SampleConfig) -> float:
    """Upper bound on the worst-direction value via random unit directions."""
    import numpy as np

    if not points:
        raise ValueError("point set must be nonempty")
    data = _float_matrix(points)
    rng = np.random.default_rng(config.seed)
    n = data.shape[1]
    best = np.inf
    remaining = config.sample_count
    while remaining > 0:
        take = min(_CHUNK, remaining)
        remaining -= take
        directions = rng.standard_normal((take, n))
        norms = np.linalg.norm(directions, axis=1)
        degenerate = norms == 0.0
        if degenerate.any():
            directions[degenerate] = 0.0
            directions[degenerate, 0] = 1.0
            norms[degenerate] = 1.0
        directions /= norms[:, None]
        values = (directions @ data.T).max(axis=1)
        best = min(best, float(values.min()))
    return best


def directional_derivative(system: InequalitySystem, x: Vec, direction: Sequence[float]) -> float:
    """One-sided derivative of the maximum residual at x along `direction`.

    Closed form: the largest slope among the rows active at x.  The active
    set is computed exactly; only the slope evaluation is floating point.
    """
    import numpy as np

    indices = active_set(system, x)
    h = np.asarray([float(v) for v in direction], dtype=float)
    if h.shape[0] != system.n:
        raise ValueError(f"direction has dimension {h.shape[0]}, expected {system.n}")
    rows = _float_matrix([system.A.rows[i - 1] for i in indices])
    return float((rows @ h).max())


def _subset_projectors(a: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per nonempty row subset: (row selector, normal-equation projector)."""
    import numpy as np

    m = a.shape[0]
    projectors = []
    for size in range(1, m + 1):
        for combo in combinations(range(m), size):
            rows = a[list(combo)]
            gram = rows @ rows.T
            projectors.append((np.array(combo), np.linalg.pinv(gram) @ rows))
    return projectors


def _distances(
    a: np.ndarray,
    b: np.ndarray,
    xs: np.ndarray,
    projectors: list[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Distance from each sample to {x : a x <= b} by subset projection."""
    import numpy as np

    best = np.full(xs.shape[0], np.inf)
    for combo, projector in projectors:
        shortfall = b[combo][None, :] - xs @ a[combo].T
        candidates = xs + shortfall @ projector
        feas = (candidates @ a.T - b <= _FEAS_TOL).all(axis=1)
        dist_sq = ((xs - candidates) ** 2).sum(axis=1)
        improved = feas & (dist_sq < best)
        best[improved] = dist_sq[improved]
    return np.sqrt(best)


def estimate_hoffman(system: InequalitySystem, config: SampleConfig) -> float | None:
    """One-sided sampled estimate of the sharp residual-to-distance ratio.

    Samples points uniformly from the origin-centered box, keeps those with
    positive maximum residual, and minimizes residual/distance over them; the
    result bounds the exact constant from above (modulo float rounding).
    Requires a nonempty solution set; returns None when no sampled point is
    infeasible (reported, not fatal).
    """
    import numpy as np

    a = _float_matrix(system.A.rows)
    b = np.array([float(v) for v in system.b], dtype=float)
    projectors = _subset_projectors(a)
    rng = np.random.default_rng(config.seed)
    best: float | None = None
    remaining = config.sample_count
    while remaining > 0:
        take = min(_CHUNK, remaining)
        remaining -= take
        xs = rng.uniform(-config.box_radius, config.box_radius, (take, system.n))
        residual = (xs @ a.T - b).max(axis=1)
        infeasible = residual > 0.0
        if not infeasible.any():
            continue
        xs_bad = xs[infeasible]
        dist = _distances(a, b, xs_bad, projectors)
        usable = np.isfinite(dist) & (dist > 0.0)
        if not usable.any():
            continue
        ratios = residual[infeasible][usable] / dist[usable]
        chunk_best = float(ratios.min())
        if best is None or chunk_best < best:
            best = chunk_best
    return best
