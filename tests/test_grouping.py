"""Grouping strategies and work-ratio accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uqgroup import (
    GroupingError,
    GroupingPlan,
    compute_R,
    group_by_key,
    group_natural,
    group_oracle,
    predicted_speedup,
)

from _oracles import brute_force_R, min_sum_of_group_maxima


def slots_for(plan, iters):
    """Per-ensemble slot iteration lists for a plan (replicas replicate)."""
    return [[iters[i] for i in group] for group in plan.ensembles]


def real_pairs(plan, iters):
    """(slot_values, n_real) pairs for the brute-force evaluator."""
    return [
        ([iters[i] for i in group], plan.ensemble_size - pad)
        for group, pad in zip(plan.ensembles, plan.padding)
    ]


# ---------------------------------------------------------------------------
# plan construction


def test_natural_chunks_in_generation_order():
    plan = group_natural([1, 2, 3, 4], 2)
    assert plan.ensembles == ((1, 2), (3, 4))
    assert plan.padding == (0, 0)


def test_natural_pads_short_final_group_with_last_sample():
    plan = group_natural([7, 8, 9, 10, 11], 4)
    assert plan.ensembles == ((7, 8, 9, 10), (11, 11, 11, 11))
    assert plan.padding == (0, 3)


def test_single_sample_single_lane():
    plan = group_natural([42], 1)
    assert plan.ensembles == ((42,),)
    assert plan.padding == (0,)


def test_group_by_key_sorts_ascending():
    keys = {"a": 5.0, "b": 1.0, "c": 3.0, "d": 2.0}
    plan = group_by_key(["a", "b", "c", "d"], keys, 2)
    assert plan.ensembles == (("b", "d"), ("c", "a"))


def test_group_by_key_equal_keys_keeps_natural_order():
    plan = group_by_key([3, 1, 4, 5], {3: 2.0, 1: 2.0, 4: 2.0, 5: 2.0}, 2)
    assert plan.ensembles == ((3, 1), (4, 5))


def test_group_by_key_missing_key_raises():
    with pytest.raises(GroupingError):
        group_by_key([0, 1], {0: 1.0}, 2)


def test_group_by_key_nan_key_raises():
    with pytest.raises(GroupingError):
        group_by_key([0, 1], {0: 1.0, 1: float("nan")}, 2)


def test_empty_sample_set_raises():
    for fn in (group_natural, lambda ids, s: group_by_key(ids, {}, s), lambda ids, s: group_oracle(ids, {}, s)):
        with pytest.raises(GroupingError):
            fn([], 2)


def test_oracle_matches_sorted_chunks_when_divisible():
    iters = {i: float(10 - i) for i in range(8)}
    assert group_oracle(list(range(8)), iters, 4).ensembles == group_by_key(
        list(range(8)), iters, 4
    ).ensembles


def test_oracle_puts_remainder_group_last_with_smallest_members():
    plan = group_oracle([0, 1, 2], {0: 1.0, 1: 2.0, 2: 3.0}, 2)
    assert plan.ensembles == ((1, 2), (0, 0))
    assert plan.padding == (0, 1)


def test_plan_validation_rejects_mid_padding():
    with pytest.raises(GroupingError):
        GroupingPlan(0, 2, ((1, 1), (2, 3)), (1, 0))


def test_plan_validation_rejects_wrong_width():
    with pytest.raises(GroupingError):
        GroupingPlan(0, 3, ((1, 2),), (0,))


def test_plan_validation_rejects_nonreplica_padding():
    with pytest.raises(GroupingError):
        GroupingPlan(0, 3, ((1, 2, 9),), (1,))


# ---------------------------------------------------------------------------
# the work ratio


def test_equal_iterations_give_unit_ratio():
    plan = group_natural(list(range(6)), 3)
    iters = {i: 17.0 for i in range(6)}
    per_level, total = compute_R([(plan, slots_for(plan, iters))])
    assert per_level == [1.0]
    assert total == 1.0


def test_hand_computed_ratio():
    plan = group_natural([0, 1, 2, 3], 2)
    slots = [[10.0, 20.0], [30.0, 30.0]]
    per_level, total = compute_R([(plan, slots)])
    assert abs(total - 10.0 / 9.0) < 1e-15
    assert per_level == [total]


def test_padded_ratio_excludes_replicas_from_ideal_work():
    plan = group_natural([0, 1, 2], 2)
    slots = [[10.0, 20.0], [30.0, 30.0]]
    _, total = compute_R([(plan, slots)])
    assert abs(total - 5.0 / 3.0) < 1e-15


def test_multi_level_total_pools_work():
    p1 = group_natural([0, 1], 2)
    p2 = group_natural([2, 3], 2)
    levels = [(p1, [[1.0, 3.0]]), (p2, [[5.0, 5.0]])]
    per_level, total = compute_R(levels)
    assert abs(per_level[0] - 6.0 / 4.0) < 1e-15
    assert abs(per_level[1] - 1.0) < 1e-15
    assert abs(total - (6.0 + 10.0) / (4.0 + 10.0)) < 1e-15


def test_compute_R_rejects_mismatched_slots():
    plan = group_natural([0, 1], 2)
    with pytest.raises(GroupingError):
        compute_R([(plan, [[1.0, 2.0], [3.0, 4.0]])])
    with pytest.raises(GroupingError):
        compute_R([(plan, [[1.0, 2.0, 3.0]])])


def test_compute_R_rejects_all_zero_work():
    plan = group_natural([0, 1], 2)
    with pytest.raises(GroupingError):
        compute_R([(plan, [[0.0, 0.0]])])


# Strategies for random plans: iteration values are positive and well clear
# of zero so the ideal-work denominator is always valid.
_iter_values = st.floats(min_value=0.5, max_value=1e4)


@st.composite
def plan_and_iters(draw):
    size = draw(st.sampled_from([2, 4]))
    n = draw(st.integers(min_value=1, max_value=12))
    iters = {i: draw(_iter_values) for i in range(n)}
    kind = draw(st.sampled_from(["nat", "key", "its"]))
    ids = list(range(n))
    if kind == "nat":
        plan = group_natural(ids, size)
    elif kind == "key":
        plan = group_by_key(ids, {i: draw(_iter_values) for i in ids}, size)
    else:
        plan = group_oracle(ids, iters, size)
    return plan, iters


@settings(deadline=None, max_examples=200)
@given(plan_and_iters())
def test_ratio_matches_brute_force(case):
    plan, iters = case
    _, total = compute_R([(plan, slots_for(plan, iters))])
    assert abs(total - brute_force_R(real_pairs(plan, iters), plan.ensemble_size)) < 1e-12


@settings(deadline=None, max_examples=200)
@given(plan_and_iters())
def test_ratio_at_least_one(case):
    plan, iters = case
    _, total = compute_R([(plan, slots_for(plan, iters))])
    assert total >= 1.0 - 1e-12


@settings(deadline=None, max_examples=100)
@given(plan_and_iters(), st.randoms(use_true_random=False))
def test_ratio_invariant_under_reordering(case, rnd):
    """R only sees the multiset of groups: shuffling groups, and slots within
    a group, changes nothing (padding replicas stay trailing by contract)."""
    plan, iters = case
    groups = [list(g) for g in plan.ensembles]
    order = list(range(len(groups)))
    rnd.shuffle(order)
    shuffled = []
    pads = []
    for k in order:
        g = groups[k][:]
        real = plan.ensemble_size - plan.padding[k]
        head = g[:real]
        rnd.shuffle(head)
        shuffled.append(head + g[real:])
        pads.append(plan.padding[k])
    _, base = compute_R([(plan, slots_for(plan, iters))])
    reordered = [[iters[i] for i in g] for g in shuffled]
    nums = sum(plan.ensemble_size * max(g) for g in reordered)
    dens = sum(sum(g[: plan.ensemble_size - p]) for g, p in zip(reordered, pads))
    assert abs(base - nums / dens) < 1e-12


@settings(deadline=None, max_examples=60)
@given(
    st.lists(_iter_values, min_size=1, max_size=6),
    st.sampled_from([2, 4]),
)
def test_oracle_grouping_is_exhaustively_optimal(values, size):
    iters = {i: v for i, v in enumerate(values)}
    plan = group_oracle(list(range(len(values))), iters, size)
    num = sum(size * max(iters[i] for i in g) for g in plan.ensembles)
    best = min_sum_of_group_maxima(values, size)
    assert num <= size * best + 1e-9


@settings(deadline=None, max_examples=100)
@given(
    st.lists(_iter_values, min_size=2, max_size=10),
    st.sampled_from([2, 4]),
    st.randoms(use_true_random=False),
)
def test_oracle_never_beaten_by_other_strategies(values, size, rnd):
    ids = list(range(len(values)))
    iters = dict(enumerate(values))
    oracle = group_oracle(ids, iters, size)
    _, r_oracle = compute_R([(oracle, slots_for(oracle, iters))])
    shuffled = ids[:]
    rnd.shuffle(shuffled)
    for other in (group_natural(ids, size), group_natural(shuffled, size),
                  group_by_key(ids, {i: rnd.random() for i in ids}, size)):
        _, r_other = compute_R([(other, slots_for(other, iters))])
        assert r_oracle <= r_other + 1e-12


@settings(deadline=None, max_examples=100)
@given(st.lists(_iter_values, min_size=1, max_size=9), st.sampled_from([2, 4]))
def test_padding_never_flatters_the_ratio(values, size):
    """Counting replicas as if they were real samples can only lower R."""
    plan = group_natural(list(range(len(values))), size)
    iters = dict(enumerate(values))
    slots = slots_for(plan, iters)
    _, actual = compute_R([(plan, slots)])
    num = sum(size * max(g) for g in slots)
    den_with_replicas = sum(sum(g) for g in slots)
    assert actual >= num / den_with_replicas - 1e-12


# ---------------------------------------------------------------------------
# predicted speed-up


def test_speedup_perfect_grouping_returns_base():
    assert predicted_speedup(1.0, 8, {8: 4.4}) == 4.4


def test_speedup_scales_paper_style():
    assert abs(predicted_speedup(1.15, 4, {4: 2.72}) - 2.72 / 1.15) < 1e-15


def test_speedup_unit_base_is_reciprocal():
    assert abs(predicted_speedup(1.25, 2, {2: 1.0}) - 0.8) < 1e-15


def test_speedup_missing_size_raises():
    with pytest.raises(GroupingError):
        predicted_speedup(1.1, 16, {4: 2.72, 8: 4.4})


def test_speedup_invalid_ratio_raises():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(GroupingError):
            predicted_speedup(bad, 4, {4: 2.72})
