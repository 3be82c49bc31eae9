"""Sparse-grid evaluation and fitting by level-vector lookup, against dense brute force."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import dense_cohort_surpluses, dense_hat_expansion
from uqgroup import GridError, HierGrid, RefinementPolicy


def fn(y):
    return np.exp(-3.0 * np.sum((y - 0.3) ** 2, axis=1)) + 0.2 * y[:, 0]


def refined_grid(dim, steps, tau=1e-2, initial=1, domain=None):
    """A grid fitted to fn cohort by cohort over `steps` refinements."""
    g = HierGrid(dim, domain=domain)
    g.add_initial_levels(initial)
    for step in range(steps + 1):
        if step and not g.refine(RefinementPolicy(tau=tau, channel="q")).n_new:
            break
        coords = g.node_coords()[len(g) - len(g.frontier) :]
        g.compute_surpluses({"q": fn(coords)})
    return g


def node_arrays(g):
    levels = np.array([n.level for n in g.nodes], dtype=int).reshape(len(g), g.dim)
    indices = np.array([n.index for n in g.nodes], dtype=int).reshape(len(g), g.dim)
    return levels, indices


def probe_points(g, rng):
    """Node coordinates, support edges, box corners, points outside the box."""
    levels, indices = node_arrays(g)
    h = 2.0 ** (1.0 - levels)
    centers = indices * h - 1.0
    edges = []
    for k in range(g.dim):
        for sign in (-1.0, 1.0):
            shifted = centers.copy()
            shifted[:, k] += sign * h[:, k]
            edges.append(shifted)
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=g.dim)))
    outside = np.concatenate(
        [1.5 * corners, rng.uniform(-2.5, 2.5, (40, g.dim)), np.full((1, g.dim), 1e6)]
    )
    inside = rng.uniform(-1.0, 1.0, (60, g.dim))
    return np.concatenate([centers, *edges, corners, outside, inside])


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_eval_matches_dense_expansion(dim):
    g = refined_grid(dim, steps=3, tau=1e-3)
    levels, indices = node_arrays(g)
    c = g.surpluses("q")
    pts = probe_points(g, np.random.default_rng(dim))
    assert len(g) - len(g.frontier) > 2**dim + dim * 2 ** (dim - 1)  # refined past the initial grid
    for n in sorted({0, 1, len(g) // 3, len(g) - len(g.frontier), len(g)}):
        got = g.eval_many("q", pts, n_nodes=n)
        want = dense_hat_expansion(levels[:n], indices[:n], c[:n], pts)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_eval_on_mapped_domain_matches_dense_expansion():
    box = [(0.0, 2.0), (-5.0, 3.0)]
    g = refined_grid(2, steps=2, domain=box)
    levels, indices = node_arrays(g)
    pts = np.random.default_rng(7).uniform(-1.2, 1.2, (200, 2))
    lo, hi = np.array(box).T
    got = g.eval_many("q", lo + (pts + 1.0) * 0.5 * (hi - lo))
    want = dense_hat_expansion(levels, indices, g.surpluses("q"), pts)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=3),
)
def test_property_eval_matches_dense_expansion(seed, dim, steps):
    rng = np.random.default_rng(seed)
    g = HierGrid(dim)
    g.add_initial_levels(int(rng.integers(0, 3)))
    for step in range(steps + 1):
        if step and not g.refine(RefinementPolicy(tau=0.3, channel="q")).n_new:
            break
        g.compute_surpluses({"q": rng.standard_normal(len(g.frontier))})
    levels, indices = node_arrays(g)
    pts = np.concatenate([rng.uniform(-1.3, 1.3, (50, dim)), g.node_coords()])
    n = int(rng.integers(0, len(g) + 1))
    got = g.eval_many("q", pts, n_nodes=n)
    want = dense_hat_expansion(levels[:n], indices[:n], g.surpluses("q")[:n], pts)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_cohort_overlapping_earlier_total_levels_matches_triangular_solve():
    # A reloaded grid is one cohort, so refining it adds children at many
    # total levels at once, below the earlier cohort's highest total level:
    # each level's lower nodes are a mask over the grid, not a prefix.
    g = HierGrid.from_json_dict(refined_grid(2, steps=4, tau=5e-3).to_json_dict())
    before = max(n.total_level for n in g.nodes)
    n_new = g.refine(RefinementPolicy(tau=1e-4, channel="q")).n_new
    totals = {n.total_level for n in g.frontier}
    assert len(totals) > 2 and min(totals) < before
    values = fn(g.node_coords()[len(g) - n_new :])
    levels, indices = node_arrays(g)
    want = dense_cohort_surpluses(levels, indices, g.surpluses("q"), values)
    g.compute_surpluses({"q": values})
    np.testing.assert_allclose(g.surpluses("q"), want, rtol=0, atol=1e-13)
    np.testing.assert_allclose(g.eval_many("q", g.node_coords()[len(g) - n_new :]), values, rtol=0, atol=1e-13)


def test_initial_grid_surpluses_match_triangular_solve():
    g = HierGrid(3)
    g.add_initial_levels(3)
    levels, indices = node_arrays(g)
    want = dense_cohort_surpluses(levels, indices, np.full(len(g), np.nan), fn(g.node_coords()))
    g.compute_surpluses({"q": fn(g.node_coords())})
    np.testing.assert_allclose(g.surpluses("q"), want, rtol=0, atol=1e-13)


def test_reloaded_grid_fits_and_evaluates_bitwise_like_original():
    original = HierGrid(2, domain=[(0.0, 1.0), (-3.0, 3.0)])
    original.add_initial_levels(2)
    original.compute_surpluses({"q": fn(original.node_coords())})
    reloaded = HierGrid.from_json_dict(original.to_json_dict())
    pts = np.random.default_rng(3).uniform([-0.2, -4.0], [1.2, 4.0], (300, 2))
    for _ in range(4):
        fitted = len(original)
        for g in (original, reloaded):
            g.refine(RefinementPolicy(tau=1e-3, channel="q"))
            g.compute_surpluses({"q": fn(g.node_coords()[fitted:])})
        assert reloaded.nodes == original.nodes
        assert np.array_equal(reloaded.surpluses("q"), original.surpluses("q"))
        for n in (fitted, len(original)):
            assert np.array_equal(reloaded.eval_many("q", pts, n_nodes=n), original.eval_many("q", pts, n_nodes=n))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eval_rejects_non_finite_points(bad):
    g = refined_grid(2, steps=1)
    with pytest.raises(GridError, match="finite"):
        g.eval_many("q", np.array([[0.1, 0.2], [bad, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_rejects_non_finite_values_before_writing(bad):
    g = HierGrid(1)
    g.add_initial_levels(2)
    g.compute_surpluses({"q": fn(g.node_coords()), "p": np.ones(len(g))})
    g.refine(RefinementPolicy(tau=1e-9, channel="q"))
    values = fn(g.node_coords()[len(g) - len(g.frontier) :])
    broken = values.copy()
    broken[1] = bad
    with pytest.raises(GridError, match="non-finite"):
        g.compute_surpluses({"q": values, "p": broken})
    for ch in ("q", "p"):
        assert np.isnan(g.surpluses(ch)[-len(g.frontier) :]).all()
    g.compute_surpluses({"q": values, "p": values})  # the cohort is still open to a finite fit
    assert np.all(np.isfinite(g.surpluses("p")))


def test_node_too_deep_to_index_rejected():
    doc = {"dim": 2, "domain": [[-1.0, 1.0], [-1.0, 1.0]],
           "level": [[40, 40]], "index": [[1, 1]], "surpluses": {}}
    with pytest.raises(GridError, match="too deep"):
        HierGrid.from_json_dict(doc)
    # refused before the index range check, which would compute 2**(2**64)
    doc["level"] = [[2**64, 0]]
    with pytest.raises(GridError, match="too deep"):
        HierGrid.from_json_dict(doc)
    doc["level"] = [[63, 0]]  # fits int64, but 2**63 does not
    with pytest.raises(GridError, match="too deep"):
        HierGrid.from_json_dict(doc)
    doc["level"], doc["index"] = [[0, 60]], [[1, 2**60 - 1]]  # total level 62 - d
    g = HierGrid.from_json_dict(doc)
    g.compute_surpluses({"q": [2.0]})
    assert g.eval_many("q", g.node_coords()).tolist() == [2.0]
