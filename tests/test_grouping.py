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

from _oracles import brute_force_R, compute_R_per_ensemble, min_sum_of_group_maxima


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
    assert plan == GroupingPlan(0, 2, (1, 2, 3, 4))
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
    plan = group_by_key(["a", "b", "c", "d"], [5.0, 1.0, 3.0, 2.0], 2)
    assert plan.order == ("b", "d", "c", "a")
    assert plan.ensembles == (("b", "d"), ("c", "a"))


def test_group_by_key_equal_keys_keeps_natural_order():
    plan = group_by_key([3, 1, 4, 5], [2.0, 2.0, 2.0, 2.0], 2)
    assert plan.ensembles == ((3, 1), (4, 5))


def test_group_by_key_missing_key_raises():
    for keys in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]):
        with pytest.raises(GroupingError):
            group_by_key([0, 1], keys, 2)
        with pytest.raises(GroupingError):
            group_oracle([0, 1], keys, 2)


def test_group_by_key_nan_key_raises():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(GroupingError):
            group_by_key([0, 1], [1.0, bad], 2)
        with pytest.raises(GroupingError):
            group_oracle([0, 1], [1.0, bad], 2)


def test_empty_sample_set_raises():
    for fn in (group_natural, lambda ids, s: group_by_key(ids, [], s), lambda ids, s: group_oracle(ids, [], s)):
        with pytest.raises(GroupingError):
            fn([], 2)


def test_plans_refuse_an_ensemble_size_below_one():
    with pytest.raises(GroupingError):
        GroupingPlan(0, 0, (1, 2))
    for fn in (group_natural, lambda ids, s: group_by_key(ids, [1.0, 2.0], s),
               lambda ids, s: group_oracle(ids, [1.0, 2.0], s)):
        with pytest.raises(GroupingError):
            fn([0, 1], 0)


def test_plan_keys_align_with_ids_not_with_id_values():
    plan = group_by_key(range(10, 14), np.array([4.0, 3.0, 2.0, 1.0]), 3, level=5)
    assert plan == GroupingPlan(5, 3, (13, 12, 11, 10))
    assert all(type(sid) is int for sid in plan.order)
    assert plan.ensembles == ((13, 12, 11), (10, 10, 10))
    assert plan.padding == (0, 2)


def test_oracle_matches_sorted_chunks_when_divisible():
    iters = [float(10 - i) for i in range(8)]
    assert group_oracle(list(range(8)), iters, 4).ensembles == group_by_key(
        list(range(8)), iters, 4
    ).ensembles


def test_oracle_puts_remainder_group_last_with_smallest_members():
    plan = group_oracle([0, 1, 2], [1.0, 2.0, 3.0], 2)
    assert plan.order == (1, 2, 0)
    assert plan.ensembles == ((1, 2), (0, 0))
    assert plan.padding == (0, 1)


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
    iters = [draw(_iter_values) for _ in range(n)]
    kind = draw(st.sampled_from(["nat", "key", "its"]))
    ids = list(range(n))
    if kind == "nat":
        plan = group_natural(ids, size)
    elif kind == "key":
        plan = group_by_key(ids, [draw(_iter_values) for _ in ids], size)
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
    plan = group_oracle(list(range(len(values))), values, size)
    num = sum(size * max(values[i] for i in g) for g in plan.ensembles)
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
    oracle = group_oracle(ids, values, size)
    _, r_oracle = compute_R([(oracle, slots_for(oracle, values))])
    shuffled = ids[:]
    rnd.shuffle(shuffled)
    for other in (group_natural(ids, size), group_natural(shuffled, size),
                  group_by_key(ids, [rnd.random() for _ in ids], size)):
        _, r_other = compute_R([(other, slots_for(other, values))])
        assert r_oracle <= r_other + 1e-12


@settings(deadline=None, max_examples=100)
@given(st.lists(_iter_values, min_size=1, max_size=9), st.sampled_from([2, 4]))
def test_padding_never_flatters_the_ratio(values, size):
    """Counting replicas as if they were real samples can only lower R."""
    plan = group_natural(list(range(len(values))), size)
    slots = slots_for(plan, values)
    _, actual = compute_R([(plan, slots)])
    num = sum(size * max(g) for g in slots)
    den_with_replicas = sum(sum(g) for g in slots)
    assert actual >= num / den_with_replicas - 1e-12


_counts = st.one_of(
    st.floats(min_value=1e-3, max_value=1e9, allow_subnormal=False),
    st.integers(min_value=1, max_value=30000).map(float),
)


@st.composite
def levels_and_reference(draw):
    """Several levels of one width: plans of every kind, float counts, padding, empty levels."""
    size = draw(st.sampled_from([1, 2, 3, 7, 8, 16]))
    levels, first_id = [], 0
    for level in range(1, draw(st.integers(min_value=1, max_value=4)) + 1):
        n = draw(st.integers(min_value=0, max_value=3 * size + 5))
        if n == 0:
            levels.append((GroupingPlan(level, size, ()), np.zeros((0, size))))
            continue
        ids = range(first_id, first_id + n)
        counts = np.array(draw(st.lists(_counts, min_size=n, max_size=n)))
        kind = draw(st.sampled_from(["nat", "key", "its"]))
        if kind == "nat":
            plan = group_natural(ids, size, level)
        elif kind == "key":
            plan = group_by_key(ids, draw(st.lists(_counts, min_size=n, max_size=n)), size, level)
        else:
            plan = group_oracle(ids, counts, size, level)
        levels.append((plan, counts[np.array(plan.ensembles) - first_id]))
        first_id += n
    return levels


@settings(deadline=None, max_examples=300)
@given(levels_and_reference())
def test_compute_R_is_bitwise_the_per_ensemble_loop(levels):
    per_level, total = compute_R(levels)
    ref_per_level, ref_total = compute_R_per_ensemble(levels)
    assert [x.hex() for x in per_level] == [x.hex() for x in ref_per_level]
    assert total.hex() == ref_total.hex()


def test_empty_level_gives_nan_and_stays_out_of_the_total():
    plan = group_natural([0, 1, 2], 2, level=2)
    per_level, total = compute_R([(GroupingPlan(1, 2, ()), np.zeros((0, 2))),
                                  (plan, [[1.0, 3.0], [2.0, 2.0]])])
    assert np.isnan(per_level[0]) and per_level[1] == total == 10.0 / 6.0
    per_level, total = compute_R([(GroupingPlan(1, 2, ()), [])])
    assert np.isnan(per_level[0]) and np.isnan(total)


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
