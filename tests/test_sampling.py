"""Floating-point sampling estimators and their exact-arithmetic anchors."""

import math
from fractions import Fraction

import pytest

from hoffman import (
    InequalitySystem,
    SampleConfig,
    Vec,
    directional_derivative,
    estimate_hoffman,
    hoffman_constant_sq,
    max_residual,
    minmax_value_sq,
    sample_minmax,
    sampling,
)

CROSS = [Vec.of([1, 0]), Vec.of([-1, 0]), Vec.of([0, 1]), Vec.of([0, -1])]
ANTIPODAL = [Vec.of([1, 1]), Vec.of([-1, -1])]
TRIANGLE = InequalitySystem.of([[1, 1], [-2, 1], [1, -2]], [1, 2, 3])
IDENTITY2 = InequalitySystem.of([[1, 0], [0, 1]], [0, 0])


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(sample_count=0)
    with pytest.raises(ValueError):
        SampleConfig(sample_count=100, box_radius=0.0)
    with pytest.raises(ValueError):
        SampleConfig(sample_count=100, box_radius=-1.0)
    # twice the radius overflows a float, so no box can be sampled
    for radius in (math.inf, 1e308):
        with pytest.raises(ValueError):
            SampleConfig(sample_count=100, box_radius=radius)
    # numpy's generators take no negative seed; the message names the seed
    with pytest.raises(ValueError, match="seed"):
        SampleConfig(sample_count=100, seed=-1)


def test_sample_minmax_is_deterministic_per_seed():
    config = SampleConfig(sample_count=10_000, seed=42)
    first = sample_minmax(CROSS, config)
    second = sample_minmax(CROSS, config)
    assert first == second
    assert sample_minmax(CROSS, SampleConfig(sample_count=10_000, seed=43)) != first


def test_sample_minmax_approximates_the_cross_value():
    value = sample_minmax(CROSS, SampleConfig(sample_count=100_000, seed=7))
    assert value == pytest.approx(0.7071087567217222, abs=0.0)  # frozen
    assert abs(value - math.sqrt(0.5)) < 1e-3


def test_sample_minmax_never_undershoots_the_exact_value():
    # The sampled minimum runs over a subset of directions, so it sits above
    # the true minimax value.
    for points in (CROSS, ANTIPODAL, [Vec.of([3, 0])]):
        exact = minmax_value_sq(points).approx()
        sampled = sample_minmax(points, SampleConfig(sample_count=20_000, seed=11))
        assert sampled >= exact - 1e-12


def test_sample_minmax_on_a_zero_value_set():
    value = sample_minmax(ANTIPODAL, SampleConfig(sample_count=100_000, seed=7))
    assert 0.0 <= value <= 1e-3


def test_sample_minmax_crosses_chunk_boundaries_reproducibly():
    config = SampleConfig(sample_count=(1 << 15) + 7, seed=5)
    assert sample_minmax(CROSS, config) == sample_minmax(CROSS, config)


def test_directional_derivative_matches_difference_quotients():
    x = Vec.of([1, 1])  # active set of TRIANGLE at (1,1) is {1}
    for direction in ([1.0, 0.0], [0.0, 1.0], [-0.5, 0.5]):
        slope = directional_derivative(TRIANGLE, x, direction)
        t = Fraction(1, 1_000_000)
        step = Vec.of([Fraction(c).limit_denominator(10**6) for c in direction]).scale(t)
        quotient = (max_residual(TRIANGLE, x + step) - max_residual(TRIANGLE, x)) / t
        assert slope == pytest.approx(float(quotient), abs=1e-6)


def test_directional_derivative_at_a_corner_takes_the_best_row():
    origin = Vec.zeros(2)  # both PAIR-style rows of IDENTITY2 are active here
    assert directional_derivative(IDENTITY2, origin, [1.0, 1.0]) == pytest.approx(1.0)
    assert directional_derivative(IDENTITY2, origin, [-1.0, -1.0]) == pytest.approx(-1.0)


def test_directional_derivative_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        directional_derivative(IDENTITY2, Vec.zeros(2), [1.0])


def test_estimate_on_a_single_unit_row_is_exactly_one():
    system = InequalitySystem.of([[1, 0]], [0])
    value = estimate_hoffman(system, SampleConfig(sample_count=5_000, seed=1))
    assert value == 1.0


def test_estimate_on_the_identity_system_sits_just_above_the_constant():
    value = estimate_hoffman(IDENTITY2, SampleConfig(sample_count=100_000, seed=3))
    assert value == pytest.approx(0.7071444720718536, abs=0.0)  # frozen
    sigma = math.sqrt(float(hoffman_constant_sq(IDENTITY2)))
    assert sigma <= value <= sigma + 1e-2


def test_estimate_dominates_the_exact_constant():
    for system in (IDENTITY2, TRIANGLE):
        sigma = math.sqrt(float(hoffman_constant_sq(system)))
        value = estimate_hoffman(system, SampleConfig(sample_count=20_000, seed=5))
        assert value >= sigma - 1e-9


def test_estimate_of_triangle_is_frozen():
    value = estimate_hoffman(TRIANGLE, SampleConfig(sample_count=20_000, seed=5))
    assert value == pytest.approx(0.7071933247514756, abs=0.0)


def test_estimate_is_none_when_no_sample_violates():
    roomy = InequalitySystem.of([[1, 0]], [100])
    assert estimate_hoffman(roomy, SampleConfig(sample_count=1_000, seed=0)) is None


def test_estimate_is_deterministic_per_seed():
    config = SampleConfig(sample_count=5_000, seed=9)
    assert estimate_hoffman(TRIANGLE, config) == estimate_hoffman(TRIANGLE, config)


def test_estimate_builds_the_subset_projectors_once_per_call(monkeypatch):
    builds = []
    build = sampling._subset_projectors
    monkeypatch.setattr(sampling, "_subset_projectors", lambda a: builds.append(a) or build(a))
    config = SampleConfig(sample_count=2 * sampling._CHUNK + 1, seed=0)  # three chunks
    value = estimate_hoffman(TRIANGLE, config)
    assert len(builds) == 1
    assert value == pytest.approx(0.7071144485574099, abs=0.0)  # frozen
