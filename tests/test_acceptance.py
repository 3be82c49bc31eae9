"""End-to-end acceptance checks for the grouped-ensemble study pipeline.

Each test covers one binding requirement and prints a single
``[PASS] criterion N`` / ``[FAIL] criterion N`` line (visible with ``-s``;
the pytest verdict itself carries the same information otherwise).
"""

import itertools
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse.linalg

from uqgroup import (
    EnsembleCsrMatrix,
    GroupingPlan,
    HierGrid,
    NodeId,
    StructuredMesh,
    adaptive_run,
    assemble,
    build_field,
    compute_R,
    emit_reports,
    ensemble_pcg,
    group_by_key,
    group_natural,
    group_oracle,
    preset_config,
)
from uqgroup.random_field import eigenpairs_1d

from _oracles import (
    brute_force_R,
    center_dof,
    kron_stiffness,
    l2_distance_signed,
    min_sum_of_group_maxima,
    nystrom_eigenpairs_dense,
    random_spd_system,
    scalar_pcg,
)


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {text}")
        raise
    print(f"[PASS] criterion {num}: {text}")


# ---------------------------------------------------------------------------
# shared study runs (reused across several criteria)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def analytic_runs():
    """The full strategy-versus-size sweep on both analytic problems."""
    t0 = time.perf_counter()
    out = {}
    for problem in ("analytic_g1", "analytic_g2"):
        for n_max in (1000, 2000):
            for size in (8, 16, 20):
                cfg = preset_config(problem, n_max=n_max, ensemble_size=size)
                out[(problem, n_max, size)] = adaptive_run(cfg)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def pde_runs():
    t0 = time.perf_counter()
    out = {}
    for problem in ("pde_test1", "pde_test2"):
        for size in (4, 8):
            out[(problem, size)] = adaptive_run(
                preset_config(problem, ensemble_size=size)
            )
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criterion 1: lockstep solves are iteration-exact against scalar PCG
# ---------------------------------------------------------------------------


def test_criterion_1_lane_exactness():
    with criterion(1, "ensemble PCG matches scalar PCG on 50 random SPD systems"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20260816)
        widths = itertools.cycle((2, 4, 8))
        for _ in range(50):
            n = int(rng.integers(20, 201))
            width = next(widths)
            lanes, rhs = random_spd_system(rng, n, width)
            ens = EnsembleCsrMatrix.from_scipy_lanes(lanes)
            res = ensemble_pcg(ens, rhs, tol=1e-12, maxit=5000)
            assert res.converged_per_lane.all()
            for s in range(width):
                x, it, ok, _ = scalar_pcg(lanes[s], rhs[s], tol=1e-12, maxit=5000)
                assert ok
                assert it == res.iterations_per_lane[s]
                err = np.linalg.norm(res.solution[s] - x)
                assert err <= 1e-10 * np.linalg.norm(x)
        assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# criterion 2: the work-ratio arithmetic and the oracle's optimality
# ---------------------------------------------------------------------------


def test_criterion_2_work_ratio_and_oracle():
    with criterion(2, "R matches brute force on 200 plans; oracle grouping is optimal"):
        rng = np.random.default_rng(7)
        for _ in range(200):
            size = int(rng.choice([2, 4, 8]))
            n = int(rng.integers(1, 41))
            ids = list(range(n))
            vals = rng.uniform(1.0, 500.0, n).tolist()
            kind = rng.integers(0, 3)
            if kind == 0:
                plan = group_natural(ids, size)
            elif kind == 1:
                plan = group_by_key(ids, vals, size)
            else:
                plan = group_oracle(ids, vals, size)
            slot_iters = [[vals[i] for i in g] for g in plan.ensembles]
            pairs = [
                (slots, size - pad)
                for slots, pad in zip(slot_iters, plan.padding)
            ]
            _, total = compute_R([(plan, slot_iters)])
            assert total == pytest.approx(brute_force_R(pairs, size), rel=1e-12)

        # sorted chunking with the remainder group taking the smallest samples
        # attains the exhaustive minimum over every ordering
        for size in (2, 4):
            for n in range(2, 9):
                for _ in range(3):
                    vals = rng.uniform(1.0, 100.0, n)
                    plan = group_oracle(list(range(n)), vals, size)
                    got = sum(max(vals[list(g)]) for g in plan.ensembles)
                    best = min_sum_of_group_maxima(list(vals), size)
                    assert got <= best + 1e-9


# ---------------------------------------------------------------------------
# criterion 3: uniform solver cost means no inflation at all
# ---------------------------------------------------------------------------


def test_criterion_3_isotropic_baseline():
    with criterion(3, "isotropic baseline gives R = 1 exactly for every strategy"):
        for size in (4, 8):
            cfg = preset_config("pde_isotropic_baseline", ensemble_size=size)
            assert cfg.n_dims == 4 and cfg.mesh.mesh_cells == 16
            rep = adaptive_run(cfg)
            for strat, ratio in rep.work_ratios.items():
                assert abs(ratio - 1.0) <= 1e-12, (size, strat, ratio)
                for r_l in rep.level_ratios(strat):
                    assert abs(r_l - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# criterion 4: surrogate grouping on the analytic sweep
# ---------------------------------------------------------------------------


def test_criterion_4_analytic_sweep(analytic_runs):
    runs, elapsed = analytic_runs
    with criterion(4, "analytic sweep: R(sur) in [1.0, 1.6] and never above R(nat)"):
        assert len(runs) == 12
        for key, rep in runs.items():
            r_sur, r_nat = rep.work_ratios["sur"], rep.work_ratios["nat"]
            assert 1.0 - 1e-12 <= r_sur <= 1.6, (key, r_sur)
            assert r_sur <= r_nat + 1e-12, (key, r_sur, r_nat)
        assert elapsed < 300.0


# ---------------------------------------------------------------------------
# criterion 5: strategy ordering on the anisotropic diffusion problems
# ---------------------------------------------------------------------------


def test_criterion_5_pde_strategy_ordering(pde_runs):
    runs, elapsed = pde_runs
    with criterion(5, "PDE runs: its <= sur <= nat + 0.02, its <= par, nat > sur at S=8"):
        assert len(runs) == 4
        for key, rep in runs.items():
            R = rep.work_ratios
            assert R["its"] <= R["sur"] + 1e-12, (key, R)
            assert R["sur"] <= R["nat"] + 0.02, (key, R)
            assert R["its"] <= R["par"] + 1e-12, (key, R)
            # at the deepest level the surrogate is near-oracle
            sur_last = rep.level_ratios("sur")[-1]
            its_last = rep.level_ratios("its")[-1]
            assert sur_last - its_last <= 0.15, (key, sur_last, its_last)
        for problem in ("pde_test1", "pde_test2"):
            R = runs[(problem, 8)].work_ratios
            assert R["nat"] > R["sur"], (problem, R)
        assert elapsed < 1200.0


# ---------------------------------------------------------------------------
# criterion 6: the iteration surrogate actually learns
# ---------------------------------------------------------------------------


def test_criterion_6_surrogate_learning(pde_runs):
    runs, _ = pde_runs
    with criterion(6, "mean |predicted - actual| iterations drops >= 30% by the final level"):
        rep = runs[("pde_test1", 4)]
        means = [lv.mean_abs_prediction_error for lv in rep.levels]
        assert len(means) >= 4 and means[2] is not None and means[-1] is not None
        drop = (means[2] - means[-1]) / means[2]
        assert drop >= 0.30, (means, drop)


# ---------------------------------------------------------------------------
# criterion 7: numerical kernels against independent references
# ---------------------------------------------------------------------------


def test_criterion_7_numerical_kernels():
    with criterion(7, "grid, KL eigenpairs and FEM agree with independent references"):
        # interpolation is exact at its own nodes
        g = HierGrid(2)
        g.add_initial_levels(3)
        coords = g.node_coords()
        f = lambda y: np.sin(np.pi * y[0]) * np.cos(y[1]) + 0.3 * y[1]
        g.compute_surpluses({"q": [f(c) for c in coords]})
        got = g.eval_many("q", coords)
        want = np.array([f(c) for c in coords])
        assert np.max(np.abs(got - want)) <= 5e-14

        # hand-computed hierarchical surpluses of y^2
        g1 = HierGrid(1)
        g1.add_initial_levels(2)
        c1 = g1.node_coords()
        g1.compute_surpluses({"q": c1[:, 0] ** 2})
        surplus_of = dict(zip(g1.nodes, g1.surpluses("q")))
        assert surplus_of[NodeId((0,), (0,))] == 1.0
        assert surplus_of[NodeId((0,), (1,))] == 1.0
        assert surplus_of[NodeId((1,), (1,))] == -1.0
        assert surplus_of[NodeId((2,), (1,))] == -0.25
        assert surplus_of[NodeId((2,), (3,))] == -0.25

        # 1D covariance eigenpairs against a 4x-finer dense discretization
        pairs = eigenpairs_1d(0.25, 6, grid_points=1025)
        lam_ref, x_ref, funcs_ref = nystrom_eigenpairs_dense(0.25, 6, 4097)
        for k, pair in enumerate(pairs):
            assert abs(pair.eigenvalue - lam_ref[k]) <= 1e-6
        shared = x_ref[::4]
        assert np.allclose(shared, pairs[0].grid, atol=1e-15)
        for k in range(2):
            dist = l2_distance_signed(shared, pairs[k].values, funcs_ref[k][::4])
            assert dist <= 1e-6, (k, dist)

        # FEM Laplacian: coarse-mesh centre values sit within 2e-3 of a fine
        # reference computed by an independent Kronecker assembly
        lap = build_field(sigma0=0.0, n_modes=1, a_min=0.0)

        def center_value(cells):
            mesh = StructuredMesh(cells)
            system = assemble(mesh, lap, np.zeros((1, 1)), lap.mode_values(mesh.quad_axes))
            res = ensemble_pcg(system.matrix, system.rhs, tol=1e-12, maxit=10000)
            assert res.converged_per_lane.all()
            return res.solution[0][center_dof(cells)]

        a_ref, b_ref = kron_stiffness(64)
        x64, info = scipy.sparse.linalg.cg(a_ref, np.full(a_ref.shape[0], b_ref),
                                           rtol=1e-10, maxiter=20000)
        assert info == 0
        m = 63
        center64 = x64[(31 * m + 31) * m + 31]
        for cells in (16, 32):
            assert abs(center_value(cells) - center64) <= 2e-3, cells


# ---------------------------------------------------------------------------
# criterion 8: rerunning a configuration reproduces every output byte
# ---------------------------------------------------------------------------


def test_criterion_8_byte_determinism(tmp_path, analytic_runs, pde_runs):
    with criterion(8, "repeated runs emit byte-identical CSV and JSON outputs"):
        cases = [
            ("analytic", preset_config("analytic_g1", n_max=1000, ensemble_size=8),
             analytic_runs[0][("analytic_g1", 1000, 8)]),
            ("pde", preset_config("pde_test1", ensemble_size=4),
             pde_runs[0][("pde_test1", 4)]),
        ]
        for name, cfg, first in cases:
            second = adaptive_run(cfg)
            dir_a = emit_reports(first, tmp_path / f"{name}_a")
            dir_b = emit_reports(second, tmp_path / f"{name}_b")
            for key in ("table", "manifest", "iterations"):
                assert dir_a[key].read_bytes() == dir_b[key].read_bytes(), (name, key)
            # and the manifest is valid JSON with one report
            doc = json.loads(dir_a["manifest"].read_text())
            assert len(doc["reports"]) == 1
