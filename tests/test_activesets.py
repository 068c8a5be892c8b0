"""Active-set enumeration: residuals, realizability, pruning, maximal sets."""

import hashlib
import sys
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoffman import (
    InequalitySystem,
    Level,
    Vec,
    active_set,
    enumerate_active_sets,
    make_index_set,
    max_residual,
    maximal_sets,
    minmax_sign,
    realizability,
    residuals,
    Trichotomy,
    worst_case_system,
)
from corpus import system_corpus
from oracles import fraction_active_sets, maximal_sets_by_pairs
from hoffman.rational import integer_row

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)

PAIR = InequalitySystem.of([[1, 1], [-1, -1]], [0, 0])
TRIANGLE = InequalitySystem.of([[1, 1], [-2, 1], [1, -2]], [1, 2, 3])
IDENTITY2 = InequalitySystem.of([[1, 0], [0, 1]], [0, 0])


@st.composite
def small_systems(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    m = draw(st.integers(min_value=1, max_value=3))
    rows = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(m)]
    offsets = draw(st.lists(rationals, min_size=m, max_size=m))
    return InequalitySystem.of(rows, offsets)


# -- residuals and pointwise active sets -------------------------------------------


def test_residuals_and_active_set_of_pair_at_origin():
    origin = Vec.zeros(2)
    assert residuals(PAIR, origin).entries == (0, 0)
    assert max_residual(PAIR, origin) == 0
    assert active_set(PAIR, origin) == (1, 2)


def test_active_set_of_triangle_at_origin():
    origin = Vec.zeros(2)
    assert max_residual(TRIANGLE, origin) == -1
    assert active_set(TRIANGLE, origin) == (1,)


def test_positive_residual_single_row():
    system = InequalitySystem.of([[1, 0]], [0])
    assert max_residual(system, Vec.of([5, 0])) == 5
    assert active_set(system, Vec.of([5, 0])) == (1,)


def test_residuals_dimension_mismatch():
    with pytest.raises(ValueError):
        residuals(PAIR, Vec.of([1]))


# -- index-set plumbing --------------------------------------------------------------


def test_make_index_set_sorts_and_dedupes():
    assert make_index_set([3, 1, 3, 2]) == (1, 2, 3)


def test_make_index_set_rejects_bad_input():
    with pytest.raises(ValueError):
        make_index_set([])
    with pytest.raises(ValueError):
        make_index_set([0, 1])
    with pytest.raises(ValueError):
        make_index_set([-2])
    # an index is an integer: no float is truncated, and no bool counts as 1
    with pytest.raises(TypeError):
        make_index_set([1.4, 2.9])
    with pytest.raises(TypeError):
        make_index_set([True, 2])
    with pytest.raises(TypeError):
        make_index_set(["2"])
    with pytest.raises(TypeError):
        realizability(worst_case_system(3), [2.7], Level.POSITIVE)


def test_check_indices_rejects_out_of_range():
    with pytest.raises(ValueError):
        PAIR.check_indices(make_index_set([3]))


def test_rows_for_selects_in_order():
    rows = TRIANGLE.rows_for(make_index_set([3, 1]))
    assert [r.entries for r in rows] == [(1, 1), (1, -2)]


# -- realizability ---------------------------------------------------------------------


def test_pair_zero_level_full_set_realizable():
    witness = realizability(PAIR, [1, 2], Level.ZERO)
    assert witness is not None
    assert max_residual(PAIR, witness) == 0
    assert active_set(PAIR, witness) == (1, 2)


def test_pair_positive_level_full_set_not_realizable():
    # The two rows are negatives of each other: their residuals sum to zero,
    # so they can never sit together at a positive level.
    assert realizability(PAIR, [1, 2], Level.POSITIVE) is None


def test_triangle_full_set_not_realizable_at_zero():
    assert realizability(TRIANGLE, [1, 2, 3], Level.ZERO) is None


def test_triangle_pair_realizable_at_zero():
    witness = realizability(TRIANGLE, [1, 2], Level.ZERO)
    assert witness is not None
    assert max_residual(TRIANGLE, witness) == 0
    assert active_set(TRIANGLE, witness) == (1, 2)


def test_identity_pair_realizable_at_positive():
    witness = realizability(IDENTITY2, [1, 2], Level.POSITIVE)
    assert witness is not None
    assert max_residual(IDENTITY2, witness) > 0
    assert active_set(IDENTITY2, witness) == (1, 2)


def test_zero_row_active_at_zero_level_only_with_zero_offset():
    flat = InequalitySystem.of([[0, 0], [1, 0]], [0, 5])
    witness = realizability(flat, [1], Level.ZERO)
    assert witness is not None
    assert max_residual(flat, witness) == 0
    assert active_set(flat, witness) == (1,)
    # A zero row has residual fixed at -b, so it never reaches a positive level.
    assert realizability(flat, [1], Level.POSITIVE) is None


# -- enumeration -----------------------------------------------------------------------


def test_triangle_families_are_all_pairs_and_singletons():
    expected = ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3))
    for level in (Level.POSITIVE, Level.ZERO):
        family = enumerate_active_sets(TRIANGLE, level)
        assert family.sets == expected
        assert family.level is level


def test_pair_families():
    assert enumerate_active_sets(PAIR, Level.POSITIVE).sets == ((1,), (2,))
    assert enumerate_active_sets(PAIR, Level.ZERO).sets == ((1, 2),)


def test_family_membership_protocol():
    family = enumerate_active_sets(TRIANGLE, Level.ZERO)
    assert [2, 1] in family
    assert (1, 2, 3) not in family


def test_order_is_cardinality_then_lexicographic():
    family = enumerate_active_sets(TRIANGLE, Level.POSITIVE)
    key = [(len(s), s) for s in family.sets]
    assert key == sorted(key)


def test_witnesses_realize_their_sets():
    for level in (Level.POSITIVE, Level.ZERO):
        family = enumerate_active_sets(TRIANGLE, level)
        for indices in family.sets:
            witness = family.witnesses[indices]
            assert active_set(TRIANGLE, witness) == indices
            phi = max_residual(TRIANGLE, witness)
            assert (phi > 0) == (level is Level.POSITIVE)


def test_independent_rows_realize_every_subset():
    # With linearly independent rows the residuals can be prescribed freely,
    # so every nonempty subset appears at both levels.
    system = InequalitySystem.of([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, -2, 3])
    all_subsets = [
        make_index_set(c)
        for size in range(1, 4)
        for c in combinations(range(1, 4), size)
    ]
    for level in (Level.POSITIVE, Level.ZERO):
        family = enumerate_active_sets(system, level)
        assert sorted(family.sets, key=lambda s: (len(s), s)) == all_subsets


@given(small_systems())
@settings(max_examples=40, deadline=None)
def test_pruned_enumeration_matches_brute_force(system):
    for level in (Level.POSITIVE, Level.ZERO):
        pruned = enumerate_active_sets(system, level, prune=True)
        brute = enumerate_active_sets(system, level, prune=False)
        assert pruned.sets == brute.sets


@given(small_systems())
@settings(max_examples=30, deadline=None)
def test_every_enumerated_witness_is_sound(system):
    for level in (Level.POSITIVE, Level.ZERO):
        family = enumerate_active_sets(system, level)
        for indices in family.sets:
            witness = family.witnesses[indices]
            assert active_set(system, witness) == indices
            phi = max_residual(system, witness)
            assert (phi > 0) == (level is Level.POSITIVE)


def test_corpus_witnesses_at_both_levels_are_pinned():
    # No CLI output carries the zero-level witnesses, so they are pinned here,
    # together with the positive-level ones, by one digest over the corpus.
    digest = hashlib.sha256()
    for system in system_corpus():
        for level in (Level.POSITIVE, Level.ZERO):
            family = enumerate_active_sets(system, level)
            for indices in family.sets:
                item = (level.value, indices, family.witnesses[indices].entries)
                digest.update(repr(item).encode())
    assert digest.hexdigest() == "12b1c11b32d71dccbc6b8905a7e5ee56243e843c49f43357997c178abcfd267c"


def test_worker_threads_do_not_change_the_result():
    # Family equality ignores the witnesses, so they are compared on their own.
    for system in [worst_case_system(6), *system_corpus()]:
        for level in (Level.POSITIVE, Level.ZERO):
            sequential = enumerate_active_sets(system, level)
            threaded = enumerate_active_sets(system, level, max_workers=4)
            assert threaded.sets == sequential.sets
            assert threaded.witnesses == sequential.witnesses


CROSS4 = InequalitySystem.of([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, 0, 0])


def test_more_active_rows_never_lower_the_sign():
    # Hull inclusion: J ⊂ J' gives conv(rows J) ⊆ conv(rows J'), so the
    # worst-direction value can only rise, v(J) <= v(J').  The chains run
    # over the sets realizable at either level; on PAIR and CROSS4 a
    # singleton is NEGATIVE while the full row set is ZERO or POSITIVE.
    order = {Trichotomy.NEGATIVE: -1, Trichotomy.ZERO: 0, Trichotomy.POSITIVE: 1}
    changes = 0
    for system in (TRIANGLE, PAIR, CROSS4):
        sets = {s for level in Level for s in enumerate_active_sets(system, level).sets}
        sign = {s: order[minmax_sign(system.rows_for(s))] for s in sets}
        for small in sets:
            for large in sets:
                if set(small) < set(large):
                    assert sign[small] <= sign[large]
                    changes += sign[small] < sign[large]
    assert changes > 0


# -- maximal sets -----------------------------------------------------------------------


def test_maximal_sets_of_triangle_family():
    family = enumerate_active_sets(TRIANGLE, Level.POSITIVE)
    assert maximal_sets(family) == [(1, 2), (1, 3), (2, 3)]


def test_maximal_sets_collapse_nested_chain():
    sets = [make_index_set(s) for s in [(1,), (2,), (1, 2)]]
    assert maximal_sets(sets) == [(1, 2)]


def test_maximal_sets_drop_duplicates():
    sets = [make_index_set(s) for s in [(1, 2), (1, 2), (3,)]]
    assert maximal_sets(sets) == [(1, 2), (3,)]


def test_maximal_sets_of_empty_family():
    assert maximal_sets([]) == []


@st.composite
def index_families(draw):
    """Members written out of order and with repeated indices, of mixed sizes
    in any order, with repeated members and, sometimes, a nested chain."""
    members = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6)
    family = draw(st.lists(members, max_size=12))
    if family:
        if draw(st.booleans()):
            base = draw(st.sampled_from(family))
            family += [base[:k] for k in range(1, len(base) + 1)]
        family += draw(st.lists(st.sampled_from(family), max_size=4))
    return draw(st.permutations(family))


@given(index_families())
@settings(max_examples=200, deadline=None)
def test_maximal_sets_match_the_all_pairs_scan(family):
    assert maximal_sets(family) == maximal_sets_by_pairs(family)


def test_maximal_sets_of_identity_family_match_the_all_pairs_scan():
    family = enumerate_active_sets(worst_case_system(6), Level.POSITIVE)
    assert maximal_sets(family) == maximal_sets_by_pairs(family.sets) == [(1, 2, 3, 4, 5, 6)]


# -- integer margin programs against the Fraction path -----------------------------


SYSTEMS_FOR_THE_FRACTION_PATH = [*system_corpus(), *(worst_case_system(m) for m in range(1, 7))]


@pytest.mark.parametrize("level", list(Level))
def test_families_and_witnesses_equal_the_fraction_path(level):
    # repr shows every set and every witness entry, so this is bit identity
    for system in SYSTEMS_FOR_THE_FRACTION_PATH:
        assert repr(enumerate_active_sets(system, level)) == repr(fraction_active_sets(system, level))


def test_enumeration_scales_each_row_of_the_system_once(monkeypatch):
    callers = Counter()

    def counted(values):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame
            frame = frame.f_back
        callers[frame.f_code.co_name] += 1
        return integer_row(values)

    for name, module in list(sys.modules.items()):
        if name.startswith("hoffman.") and getattr(module, "integer_row", None) is integer_row:
            monkeypatch.setattr(module, "integer_row", counted)
    system = worst_case_system(6)
    enumerate_active_sets(system, Level.POSITIVE)
    # 63 margin programs read the 6 rows scaled once; the rest is the
    # equality block of each subset that `_equal_level_consistent` hands to
    # `solve_linear` (6 * 2^5 rows over the 63 subsets)
    assert callers == {"_integer_rows": 6, "solve_linear": 6 * 2**5}
    callers.clear()
    enumerate_active_sets(system, Level.ZERO)
    assert callers == {"solve_linear": 6 * 2**5}
