"""Hierarchical sparse grid: basis, surpluses, refinement, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import dense_hat_expansion, refine_cohort, term_order_fit, term_order_hat_sums
from uqgroup import (
    GridError,
    HierGrid,
    IncompleteDataError,
    NodeId,
    RefinementPolicy,
    initial_grid_size,
)
from uqgroup.hier_grid import _KEY_BITS


def fit(grid, channel, fn):
    """Fit `channel` through fn evaluated at every frontier node."""
    coords = grid.node_coords()[len(grid) - len(grid.frontier) :]
    grid.compute_surpluses({channel: [fn(y) for y in coords]})


def grid_1d(levels, fn, channel="q"):
    g = HierGrid(1)
    g.add_initial_levels(levels)
    fit(g, channel, fn)
    return g


def pairs(nodes):
    return [(n.level, n.index) for n in nodes]


# ---------------------------------------------------------------------------
# node identities


def test_node_validation():
    NodeId((0,), (1,))
    NodeId((3,), (5,))
    with pytest.raises(GridError):
        NodeId((0,), (2,))  # level 0 has only indices 0 and 1
    with pytest.raises(GridError):
        NodeId((2,), (2,))  # even index
    with pytest.raises(GridError):
        NodeId((2,), (5,))  # out of range
    with pytest.raises(GridError):
        NodeId((1, 1), (1,))  # mismatched lengths


def grid_doc(nodes, dim=1, **surpluses):
    """A grid document of (level, index) list pairs on the canonical cube."""
    return {"dim": dim, "domain": [[-1.0, 1.0]] * dim, "level": [l for l, _ in nodes],
            "index": [i for _, i in nodes], "surpluses": surpluses}


def loaded(nodes, dim=1):
    """A grid loaded from (level, index) list pairs, on the canonical cube."""
    return HierGrid.from_json_dict(grid_doc(nodes, dim))


def test_canonical_coords():
    assert loaded([([0, 0], [0, 1])], dim=2).node_coords().tolist() == [[-1.0, 1.0]]
    g = loaded([([1], [1]), ([2], [3]), ([3], [1])])
    assert g.node_coords()[:, 0].tolist() == [0.0, 0.5, -0.75]


def test_children_dedup_and_ordering():
    def kids(level, index):
        g = loaded([(level, index)], dim=len(level))
        g.compute_surpluses({"q": [1.0]})
        assert g.refine(RefinementPolicy(tau=0.5, channel="q")).n_new == len(g) - 1
        return pairs(g.frontier)

    # both level-0 parents share the single midpoint child
    assert kids([0], [0]) == [((1,), (1,))]
    assert kids([0], [1]) == [((1,), (1,))]
    assert kids([1], [1]) == [((2,), (1,)), ((2,), (3,))]
    # multi-d: one refinement per dimension, in canonical order
    assert kids([0, 1], [1, 1]) == [((0, 2), (1, 1)), ((0, 2), (1, 3)), ((1, 1), (1, 1))]


def test_initial_grid_sizes():
    g2 = HierGrid(2)
    g2.add_initial_levels(2)
    assert len(g2) == 17
    g4 = HierGrid(4)
    g4.add_initial_levels(1)
    assert len(g4) == 48
    # the count a configuration checks n_max against, without building a grid
    for dim, level in [(1, 0), (1, 5), (2, 0), (2, 2), (3, 3), (4, 1), (4, 2), (5, 2), (6, 1)]:
        g = HierGrid(dim)
        assert initial_grid_size(dim, level) == g.add_initial_levels(level) == len(g)


def test_nodes_sorted_by_total_level_then_lexicographic():
    g = HierGrid(2)
    g.add_initial_levels(2)
    keys = [(n.total_level, n.level, n.index) for n in g.nodes]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# surpluses: the y^2 hand table


def test_parabola_surplus_table():
    g = grid_1d(2, lambda y: y[0] ** 2)
    assert dict(zip(pairs(g.nodes), g.surpluses("q"))) == {
        ((0,), (0,)): 1.0, ((0,), (1,)): 1.0, ((1,), (1,)): -1.0, ((2,), (1,)): -0.25, ((2,), (3,)): -0.25,
    }


def test_parabola_surplus_envelope():
    g = grid_1d(5, lambda y: y[0] ** 2)
    for node, c in zip(g.nodes, g.surpluses("q")):
        l = node.total_level
        if l >= 1:
            assert c == -(2.0 ** (-2 * (l - 1)))


def test_affine_functions_have_no_hierarchical_detail():
    g = grid_1d(4, lambda y: 3.0 * y[0] - 0.7)
    for node, c in zip(g.nodes, g.surpluses("q")):
        if node.total_level >= 1:
            assert abs(c) < 1e-14


def test_interpolation_exact_at_nodes():
    g = grid_1d(4, lambda y: np.sin(3.0 * y[0]))
    coords = g.node_coords()
    vals = g.eval_many("q", coords)
    np.testing.assert_allclose(vals, np.sin(3.0 * coords[:, 0]), rtol=0, atol=1e-14)


def test_parabola_point_error_level4():
    g = grid_1d(4, lambda y: y[0] ** 2)
    approx = g.eval_many("q", np.array([[0.3]]))[0]
    assert abs(approx - 0.09) == pytest.approx(0.00375, abs=1e-15)
    assert abs(approx - 0.09) <= 2.0**-6


def test_parabola_mean_level3():
    g = grid_1d(3, lambda y: y[0] ** 2)
    assert g.integrate_surrogate("q") == pytest.approx(0.34375, abs=1e-15)


def test_integral_matches_trapezoid_on_aligned_grid():
    g = grid_1d(3, lambda y: np.cos(2.0 * y[0]) + 0.3 * y[0])
    pts = np.linspace(-1.0, 1.0, 9)[:, None]  # dyadic points of level <= 3
    vals = g.eval_many("q", pts)
    assert g.integrate_surrogate("q") == pytest.approx(np.trapezoid(vals, pts[:, 0]) / 2.0, abs=1e-14)


def test_domain_mapping_affine():
    g = HierGrid(1, domain=[(2.0, 6.0)])
    g.add_initial_levels(2)
    coords = g.node_coords()
    assert coords.min() == 2.0 and coords.max() == 6.0
    fit(g, "q", lambda y: y[0])
    # interpolating the identity exactly: affine in the domain coordinate
    probe = np.array([[2.5], [4.0], [5.9]])
    np.testing.assert_allclose(g.eval_many("q", probe), probe[:, 0], atol=1e-14)


def test_refit_is_idempotent():
    g = grid_1d(3, lambda y: np.exp(y[0]))
    before = g.surpluses("q").copy()
    fit(g, "q", lambda y: np.exp(y[0]))
    assert np.array_equal(before, g.surpluses("q"))


def test_channels_fitted_together_equal_channels_fitted_alone():
    fns = {"qoi": lambda y: np.exp(y[0] * y[1]), "iterations": lambda y: 20.0 + 3.0 * np.sin(y[0])}

    def build(together):
        g = HierGrid(2, domain=[(0.0, 1.0), (-3.0, 3.0)])
        g.add_initial_levels(2)  # a first cohort of three total levels
        for step in range(3):
            if step:
                g.refine(RefinementPolicy(tau=1e-3, channel="qoi"))
            coords = g.node_coords()[len(g) - len(g.frontier) :]
            values = {ch: [fn(y) for y in coords] for ch, fn in fns.items()}
            if together:
                g.compute_surpluses(values)
            else:
                for ch, vals in values.items():
                    g.compute_surpluses({ch: vals})
        return g

    joint, alone = build(True), build(False)
    assert joint.nodes == alone.nodes and len(joint) > 25
    for ch in fns:
        assert np.array_equal(joint.surpluses(ch), alone.surpluses(ch))


def test_fit_rejects_wrong_number_of_values():
    g = HierGrid(1)
    g.add_initial_levels(2)
    for n in (len(g) - 1, len(g) + 1):
        with pytest.raises(IncompleteDataError):
            g.compute_surpluses({"q": np.zeros(n)})
    assert g.channels == ()


def test_fit_rejects_channel_with_unfitted_earlier_cohorts():
    g = grid_1d(2, lambda y: y[0] ** 2)
    g.refine(RefinementPolicy(tau=1e-9, channel="q"))
    values = np.ones(len(g.frontier))
    with pytest.raises(IncompleteDataError):
        g.compute_surpluses({"q": values, "late": values})
    # nothing was written: the fitted channel's new cohort is still open
    assert g.channels == ("q",)
    assert np.isnan(g.surpluses("q")[-len(g.frontier) :]).all()


def test_fit_refuses_overflowing_surpluses_and_writes_nothing():
    g = HierGrid(1)
    g.add_initial_levels(1)  # nodes -1, 1 and 0
    with pytest.raises(GridError, match="overflow"), np.errstate(over="ignore"):
        g.compute_surpluses({"r": [0.0, 0.0, 0.0], "q": [1.7e308, 1.7e308, -1.7e308]})
    assert g.channels == ()
    g.compute_surpluses({"q": [1.7e308, 1.7e308, 0.0]})
    assert g.refine(RefinementPolicy(tau=1.0, channel="q")).n_new == 2
    before = g.surpluses("q")
    # at -0.5 and 0.5 the fitted part sums to 0.85e308
    with pytest.raises(GridError, match="overflow"), np.errstate(over="ignore"):
        g.compute_surpluses({"q": [-1.7e308, -1.7e308]})
    assert before.tobytes() == g.surpluses("q").tobytes()


def test_eval_requires_fitted_channel():
    g = HierGrid(1)
    g.add_initial_levels(1)
    with pytest.raises(GridError):
        g.eval_many("nope", np.array([[0.0]]))


def test_unfitted_frontier_blocks_evaluation():
    g = grid_1d(2, lambda y: y[0] ** 2)
    g.refine(RefinementPolicy(tau=1e-9, channel="q"))
    with pytest.raises(IncompleteDataError):
        g.eval_many("q", np.array([[0.1]]))
    # restricting to the fitted prefix works
    n_fitted = len(g) - len(g.frontier)
    val = g.eval_many("q", np.array([[0.5]]), n_nodes=n_fitted)[0]
    assert val == 0.25  # 0.5 is a level-2 node of the fitted part


def test_eval_prefix_matches_manual_partial_sum():
    g = grid_1d(3, lambda y: np.sin(2.0 * y[0]))
    pts = np.array([[0.13], [-0.77], [0.5]])
    levels = np.array([n.level for n in g.nodes])
    indices = np.array([n.index for n in g.nodes])
    for k in (1, 3, len(g)):
        partial = g.eval_many("q", pts, n_nodes=k)
        manual = dense_hat_expansion(levels[:k], indices[:k], g.surpluses("q")[:k], pts)
        np.testing.assert_allclose(partial, manual, atol=1e-14)
    with pytest.raises(GridError):
        g.eval_many("q", pts, n_nodes=len(g) + 1)


# ---------------------------------------------------------------------------
# compiled hat sums, bitwise against the numpy term-order reference


def node_rows(g):
    doc = g.to_json_dict()
    return (np.array(doc["level"], dtype=np.int64).reshape(len(g), g.dim),
            np.array(doc["index"], dtype=np.int64).reshape(len(g), g.dim))


def random_refined_grid(dim, seed, cohorts=5, max_points=1500):
    """A grid whose cohorts fit three seeded random channels in one call each.

    Refining the loudest half of each frontier on channel "a" leaves orphans:
    children with a parent missing.  Every fit is checked against the
    term-order reference bitwise.
    """
    rng = np.random.default_rng(seed)
    g = HierGrid(dim)
    g.add_initial_levels(2 if dim == 1 else 1 if dim <= 3 else 0)
    channels = ("a", "b", "c")
    for step in range(cohorts):
        if step:
            front = np.abs(g.surpluses("a")[len(g) - len(g.frontier) :])
            tau = float(np.quantile(front, 0.5))
            if not g.refine(RefinementPolicy(tau=tau, channel="a", max_points=max_points)).n_new:
                break
        start = len(g) - len(g.frontier)
        values = [rng.normal(size=len(g) - start) for _ in channels]
        levels, indices = node_rows(g)
        columns = [g.surpluses(ch) if ch in g.channels else np.full(len(g), np.nan) for ch in channels]
        want = term_order_fit(levels, indices, columns, start, values)
        g.compute_surpluses(dict(zip(channels, values)))
        for ch, column in zip(channels, want):
            assert g.surpluses(ch).tobytes() == column.tobytes()
    return g


def probe(g, rng, count=150):
    """Canonical points inside the box, on its faces, outside it and at nodes."""
    inside = rng.uniform(-1.0, 1.0, (count, g.dim))
    faces = rng.uniform(-1.0, 1.0, (count, g.dim))
    axis = rng.integers(0, g.dim, count)
    faces[np.arange(count), axis] = rng.choice([-1.0, 1.0], count)
    outside = rng.uniform(-3.0, 3.0, (count, g.dim))
    corners = rng.choice([-1.0, 1.0], (8, g.dim))
    return np.concatenate([inside, faces, outside, corners, g.node_coords()])


@pytest.mark.parametrize("dim", range(1, 8))
def test_compiled_hat_sums_equal_term_order_reference(dim):
    g = random_refined_grid(dim, seed=100 + dim)
    assert g.nodes[-1].total_level >= 3  # refined past the initial levels
    g.refine(RefinementPolicy(tau=1e-12, channel="a", max_points=len(g) + 50))  # an unfitted tail
    fitted = len(g) - len(g.frontier)
    levels, indices = node_rows(g)
    pts = probe(g, np.random.default_rng(dim))
    for n in sorted({0, 1, fitted // 3, fitted}):
        got = g.eval_many("b", pts, n_nodes=n)
        want = term_order_hat_sums(levels, indices, [g.surpluses("b")], pts, n_nodes=n)[0]
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_compiled_hat_sums_at_the_key_limit(dim):
    # level vectors of total level _KEY_BITS - dim, the deepest a grid indexes
    top = _KEY_BITS - dim
    deep = sorted({(top - dim + 1,) + (1,) * (dim - 1), (top,) + (0,) * (dim - 1)})
    rng = np.random.default_rng(dim)
    levels, indices = [(0,) * dim], [(1,) * dim]
    for level in deep:
        centre = (2**level[0] // 3) | 1
        for step in (-2, 0, 2, 4):
            levels.append(level)
            indices.append((centre + step,) + tuple(0 if l == 0 else 1 for l in level[1:]))
    surpluses = rng.normal(size=len(levels)).tolist()
    g = HierGrid.from_json_dict({"dim": dim, "domain": [[-1.0, 1.0]] * dim, "level": [list(l) for l in levels],
                                 "index": [list(i) for i in indices], "surpluses": {"q": surpluses}})
    h = 2.0 ** (1 - (top - dim + 1))
    centres = g.node_coords()
    pts = np.concatenate([centres, centres + 0.3 * h, centres - 0.7 * h, probe(g, rng, 20)])
    got = g.eval_many("q", pts)
    want = term_order_hat_sums(levels, indices, [np.array(surpluses)], pts)[0]
    assert got.tobytes() == want.tobytes()
    # the deep nodes' hats are seen: at its own centre each node adds its surplus
    assert not np.array_equal(got[1:len(levels)], np.full(len(levels) - 1, surpluses[0]))


# ---------------------------------------------------------------------------
# refinement


def test_refine_adds_children_of_loud_frontier_nodes():
    g = grid_1d(1, lambda y: y[0] ** 2)  # frontier: the level-1 midpoint
    out = g.refine(RefinementPolicy(tau=0.5, channel="q"))
    assert out == (2, False)
    assert pairs(g.frontier) == [((2,), (1,)), ((2,), (3,))]


def test_refine_respects_tolerance():
    g = grid_1d(2, lambda y: y[0] ** 2)  # frontier surpluses are -0.25
    out = g.refine(RefinementPolicy(tau=0.3, channel="q"))
    assert out.n_new == 0 and not out.budget_exhausted
    assert len(g) == len(g.frontier) == 5


def test_refine_budget_truncation():
    g = HierGrid(2)
    g.add_initial_levels(1)
    fit(g, "q", lambda y: y[0] ** 2 + y[1] ** 2)
    out = g.refine(RefinementPolicy(tau=1e-12, channel="q", max_points=len(g) + 3))
    assert out.budget_exhausted
    assert out.n_new == len(g.frontier) == 3
    assert len(g) == 11


def test_refine_budget_already_full():
    g = grid_1d(1, lambda y: y[0] ** 2)
    out = g.refine(RefinementPolicy(tau=1e-12, channel="q", max_points=len(g)))
    assert out.budget_exhausted and out.n_new == 0


def test_refinement_dedups_shared_children():
    g = HierGrid(1)
    g.add_initial_levels(0)  # both boundary nodes, sharing one child
    fit(g, "q", lambda y: 5.0 + y[0])
    out = g.refine(RefinementPolicy(tau=0.1, channel="q"))
    assert out.n_new == 1 and pairs(g.frontier) == [((1,), (1,))]


def refine_against_oracle(g, policy):
    """Refine g and check the cohort, order included, against the oracle."""
    c = g.surpluses(policy.channel)[len(g) - len(g.frontier) :]
    want, exhausted = refine_cohort(pairs(g.nodes), pairs(g.frontier), c, policy.tau, policy.max_points)
    n_before = len(g)
    out = g.refine(policy)
    assert pairs(g.nodes)[n_before:] == want
    assert out == (len(want), exhausted)
    if want:
        assert pairs(g.frontier) == want
    return out


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_refine_matches_oracle(dim):
    g = HierGrid(dim)
    g.add_initial_levels(1)
    fn = lambda y: np.exp(-2.0 * np.sum((y - 0.2) ** 2)) + 0.1 * y[0]
    fit(g, "q", fn)
    for _ in range(4):
        if not refine_against_oracle(g, RefinementPolicy(tau=1e-3, channel="q")).n_new:
            break
        fit(g, "q", fn)
    assert len(g) > 4 * 2**dim


def test_refine_budget_cut_matches_oracle():
    g = HierGrid(3)
    g.add_initial_levels(2)
    fit(g, "q", lambda y: np.sin(y[0] + 2.0 * y[1]) * y[2])
    before = g.to_json_dict()
    out = refine_against_oracle(g, RefinementPolicy(tau=1e-6, channel="q", max_points=len(g) + 17))
    assert out.budget_exhausted and out.n_new == 17
    exact = HierGrid.from_json_dict(before)  # a budget that fits the whole cohort
    n_all = HierGrid.from_json_dict(before).refine(RefinementPolicy(tau=1e-6, channel="q")).n_new
    out = refine_against_oracle(exact, RefinementPolicy(tau=1e-6, channel="q", max_points=len(exact) + n_all))
    assert not out.budget_exhausted and out.n_new == n_all


def test_refine_reloaded_grid_matches_oracle():
    # A reloaded grid is one cohort: its children span many total levels.
    g = HierGrid(2)
    g.add_initial_levels(1)
    fn = lambda y: np.exp(-3.0 * ((y[0] - 0.3) ** 2 + (y[1] - 0.3) ** 2)) + 0.2 * y[0]
    fit(g, "q", fn)
    for _ in range(4):
        g.refine(RefinementPolicy(tau=0.1, channel="q"))
        fit(g, "q", fn)
    back = HierGrid.from_json_dict(g.to_json_dict())
    out = refine_against_oracle(back, RefinementPolicy(tau=1e-6, channel="q"))
    assert len({n.total_level for n in back.frontier}) > 3
    budget = len(back) - out.n_new + 5
    again = HierGrid.from_json_dict(g.to_json_dict())
    refine_against_oracle(again, RefinementPolicy(tau=1e-6, channel="q", max_points=budget))


def test_refused_refinement_leaves_grid_unchanged():
    # (61, 1) fits an index key in 1D, its children (62, 1), (62, 3) do not.
    g = loaded([([0], [0]), ([0], [1]), ([61], [1])])
    g.compute_surpluses({"q": [1.0, 2.0, 5.0]})
    before = (len(g), g.frontier, g.node_coords(), g.surpluses("q"))
    with pytest.raises(GridError, match="too deep"):
        g.refine(RefinementPolicy(tau=1e-3, channel="q"))
    assert len(g) == before[0] and g.frontier == before[1] and g.nodes == before[1]
    assert np.array_equal(g.node_coords(), before[2])
    assert np.array_equal(g.surpluses("q"), before[3])


@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
def test_refinement_policy_rejects_bad_tau(tau):
    with pytest.raises(GridError, match="tau"):
        RefinementPolicy(tau=tau)


def test_error_indicator_is_max_frontier_surplus():
    # right after construction the whole initial cohort is the frontier
    g = grid_1d(2, lambda y: y[0] ** 2)
    assert g.error_indicator("q") == 1.0
    # after one refinement the frontier is just the new level-3 cohort
    out = g.refine(RefinementPolicy(tau=0.2, channel="q"))
    fit(g, "q", lambda y: y[0] ** 2)
    assert out.n_new == 4
    assert pairs(g.frontier) == [((3,), (1,)), ((3,), (3,)), ((3,), (5,)), ((3,), (7,))]
    assert g.error_indicator("q") == 0.0625


def test_two_channels_share_nodes_refine_on_one():
    g = HierGrid(1)
    g.add_initial_levels(2)
    fit(g, "qoi", lambda y: y[0] ** 2)
    fit(g, "iterations", lambda y: 1.0 + np.exp(-(y[0] ** 2)))
    assert set(g.channels) == {"qoi", "iterations"}
    # the loud level-0/1 qoi nodes only have already-present children, and the
    # level-2 surpluses (0.25) sit below tau, so nothing new appears
    out = g.refine(RefinementPolicy(tau=0.3, channel="qoi"))
    assert out.n_new == 0
    out = g.refine(RefinementPolicy(tau=0.2, channel="qoi"))
    assert out.n_new == 4


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_preserves_nodes_and_surpluses():
    g = grid_1d(3, lambda y: np.exp(y[0]))
    g.refine(RefinementPolicy(tau=1e-3, channel="q"))
    doc = g.to_json_dict()
    back = HierGrid.from_json_dict(doc)
    assert back.nodes == g.nodes
    assert back.channels == g.channels
    assert np.array_equal(back.surpluses("q"), g.surpluses("q"), equal_nan=True)
    # the document carries no cohort history: a reloaded grid is one cohort
    assert back.frontier == back.nodes
    assert back.to_json_dict() == doc


def test_json_document_is_columnar_and_reloads_bitwise():
    g = HierGrid(3, domain=[(0.0, 1.0), (-2.0, 5.0), (-1.0, 1.0)])
    g.add_initial_levels(2)
    y = g.node_coords()
    g.compute_surpluses({"q": np.sin(y[:, 0] + 2.0 * y[:, 1]) * y[:, 2], "p": np.cos(y[:, 0])})
    assert g.refine(RefinementPolicy(tau=1e-2, channel="q")).n_new  # an unfitted frontier: nulls
    doc = g.to_json_dict()
    assert list(doc) == ["dim", "domain", "level", "index", "surpluses"]
    assert np.array_equal(np.array(doc["level"]), g._level) and np.array_equal(np.array(doc["index"]), g._index)
    assert all(type(v) is int for rows in (doc["level"], doc["index"]) for row in rows for v in row)
    assert doc["surpluses"]["q"][-1] is None and None not in doc["surpluses"]["q"][: len(g) - len(g.frontier)]
    back = HierGrid.from_json_dict(json.loads(json.dumps(doc)))
    assert np.array_equal(back._level, g._level) and np.array_equal(back._index, g._index)
    assert back._level.dtype == back._index.dtype == np.int64
    for ch in g.channels:
        assert np.array_equal(back.surpluses(ch), g.surpluses(ch), equal_nan=True)
    assert np.array_equal(back.node_coords(), g.node_coords())


@pytest.mark.parametrize(
    "level, index, match",
    [([0], [1], "duplicate"), ([0, 1], [1, 1], "dim"), ([2], [2], "odd"), ([0], [2], "level-0")],
    ids=["repeats-the-first-node", "level-list-longer-than-dim", "even-index", "level-0-index-2"],
)
def test_from_json_dict_rejects_bad_nodes(level, index, match):
    doc = grid_doc([([0], [1]), (level, index)])
    with pytest.raises(GridError, match=match):
        HierGrid.from_json_dict(doc)


@pytest.mark.parametrize(
    "node",
    [{"level": [1.5], "index": [1]}, {"level": [1.0], "index": [1]}, {"level": [True], "index": [1]},
     {"level": [1], "index": [1.0]}, {"level": [0], "index": [False]},
     {"level": [1], "index": [1], "surpluses": {"q": "0.5"}},
     {"level": [1], "index": [1], "surpluses": {"q": float("inf")}},
     {"level": [1], "index": [1], "surpluses": {"q": float("nan")}},
     {"level": [1], "index": [1], "surpluses": {"q": True}}],
    ids=["float-level", "integral-float-level", "bool-level", "float-index", "bool-index",
         "string-surplus", "infinite-surplus", "nan-surplus", "bool-surplus"],
)
def test_from_json_dict_rejects_bad_entries(node):
    # the node's surplus is the second entry of its channel's column
    columns = {name: [0.5, v] for name, v in node.get("surpluses", {}).items()}
    doc = grid_doc([([0], [1]), (node["level"], node["index"])], **columns)
    with pytest.raises(GridError, match="integers|finite number"):
        HierGrid.from_json_dict(doc)


@pytest.mark.parametrize(
    "dim, domain",
    [(1.0, [[-1.0, 1.0]]), (True, [[-1.0, 1.0]]), (1, [["-1", 1.0]]), (1, [[-1.0, float("inf")]]),
     (1, 5), (1, [[-1, 0, 1]]), (1, [[0]])],
    ids=["float-dim", "bool-dim", "string-bound", "infinite-bound", "number-domain", "three-bounds",
         "one-bound"],
)
def test_from_json_dict_rejects_bad_dim_or_domain(dim, domain):
    doc = {**grid_doc([([0], [1])]), "dim": dim, "domain": domain}
    with pytest.raises(GridError, match="dim must be an integer"):
        HierGrid.from_json_dict(doc)


@pytest.mark.parametrize(
    "patch, match",
    [({"level": [[0], [0], [1]]}, "3 level rows but 2 index rows"),
     ({"index": [[0]]}, "2 level rows but 1 index rows"),
     ({"surpluses": {"q": [1.0]}}, "one value per node"),
     ({"surpluses": {"q": [1.0, 2.0, 3.0]}}, "one value per node"),
     ({"surpluses": {"q": 1.0}}, "one value per node"),
     ({"surpluses": [[1.0, 2.0]]}, "map each channel"),
     ({"level": [0, 0]}, "rows of dim=1"),
     ({"index": [[0], [2**70]]}, "overflows int64")],
    ids=["more-level-rows", "fewer-index-rows", "short-surplus-column", "long-surplus-column",
         "scalar-surplus-column", "surplus-list", "flat-level", "huge-index"],
)
def test_from_json_dict_rejects_mismatched_columns(patch, match):
    doc = {**grid_doc([([0], [0]), ([0], [1])]), **patch}
    with pytest.raises(GridError, match=match):
        HierGrid.from_json_dict(doc)


@pytest.mark.parametrize("keys", [{"nodes": []}, {}], ids=["node-list-layout", "no-columns"])
def test_from_json_dict_needs_exactly_the_columnar_keys(keys):
    doc = {"dim": 1, "domain": [[-1.0, 1.0]], **keys}
    with pytest.raises(GridError, match="keys"):
        HierGrid.from_json_dict(doc)
    with pytest.raises(GridError, match="keys"):
        HierGrid.from_json_dict({**grid_doc([([0], [1])]), **keys, "extra": 1})


def test_from_json_dict_accepts_null_and_integral_surpluses():
    doc = grid_doc([([0], [0]), ([0], [1])], q=[2, None])
    c = HierGrid.from_json_dict(doc).surpluses("q")
    assert c[0] == 2.0 and np.isnan(c[1])


def test_round_trip_through_json_text():
    g = HierGrid(2, domain=[(-2.0, 2.0), (-2.0, 2.0)])
    g.add_initial_levels(2)
    fit(g, "q", lambda y: y[0] * y[1])
    back = HierGrid.from_json_dict(json.loads(json.dumps(g.to_json_dict())))
    pts = np.array([[0.3, -1.2], [1.5, 0.1]])
    assert np.array_equal(back.eval_many("q", pts), g.eval_many("q", pts))


# ---------------------------------------------------------------------------
# properties


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=3))
def test_property_exactness_at_nodes(seed, dim):
    rng = np.random.default_rng(seed)
    g = HierGrid(dim)
    g.add_initial_levels(2)
    values = {node: float(v) for node, v in zip(g.nodes, rng.standard_normal(len(g)))}
    g.compute_surpluses({"q": list(values.values())})
    got = g.eval_many("q", g.node_coords())
    want = np.array([values[n] for n in g.nodes])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_property_interpolant_within_data_range(seed):
    """Piecewise-linear tensor interpolation cannot overshoot ... per cell, and
    with one dimension the global bound holds: min(f) <= I[f] <= max(f)."""
    rng = np.random.default_rng(seed)
    g = HierGrid(1)
    g.add_initial_levels(4)
    vals = rng.uniform(-1.0, 3.0, len(g))
    g.compute_surpluses({"q": vals})
    probe = np.linspace(-1, 1, 101)[:, None]
    out = g.eval_many("q", probe)
    assert out.min() >= vals.min() - 1e-12
    assert out.max() <= vals.max() + 1e-12


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.01, max_value=0.5),
)
def test_property_refinement_monotone_in_tau(seed, tau):
    rng = np.random.default_rng(seed)

    def build():
        g = HierGrid(2)
        g.add_initial_levels(2)
        rng2 = np.random.default_rng(seed)
        g.compute_surpluses({"q": rng2.standard_normal(len(g))})
        return g

    a, b = build(), build()
    a.refine(RefinementPolicy(tau=2 * tau, channel="q"))
    b.refine(RefinementPolicy(tau=tau, channel="q"))
    # both grids start equal, so this compares the nodes each refinement added
    assert set(a.nodes) <= set(b.nodes)
