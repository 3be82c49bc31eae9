"""Tests for the adaptive study driver, its record types and the CLI."""

import dataclasses
import functools
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from uqgroup import (
    ConfigurationError,
    FieldConfig,
    GroupingPlan,
    HierGrid,
    KLDiffusionField,
    MeshConfig,
    NumericalBreakdownError,
    RunConfig,
    SolverConfig,
    StructuredMesh,
    adaptive_run,
    assemble,
    build_field,
    compute_R,
    emit_reports,
    ensemble_pcg,
    parse_manifest,
    preset_config,
)
from uqgroup import cli, harness
from uqgroup.harness import (
    LevelRecord,
    LevelSamples,
    PlanRecord,
    RunReport,
    analytic_iters,
    analytic_qoi,
    config_from_dict,
    read_base_curve,
)
from uqgroup.cli import _build_parser, _config_from_args, main as cli_main

from _oracles import anisotropy_indicator_max


# ---------------------------------------------------------------------------
# closed-form problem functions
# ---------------------------------------------------------------------------


def test_g1_value():
    # at (1, 1): -e^0 + e^{-0.8*4} e^0 + e^{-0.8*2}
    got = analytic_qoi(np.array([[1.0, 1.0]]), "g1")[0]
    want = -1.0 + np.exp(-3.2) + np.exp(-1.6)
    assert got == pytest.approx(want, rel=1e-15)


def test_g1_batch_shape():
    y = np.random.default_rng(0).uniform(-2, 2, size=(7, 2))
    assert analytic_qoi(y, "g1").shape == (7,)


def test_g2_band_boundaries():
    # default radii r1=0.25, r2=0.65 on the squared radius s = y1^2 + y2^2
    pts = np.array(
        [
            [0.5, 0.0],   # s = 0.25, on the inner edge -> band
            [0.8, 0.0],   # s = 0.64, just inside the outer edge -> band
            [0.81, 0.0],  # s = 0.6561 > 0.65 -> outside
            [0.4, 0.2],   # s = 0.20 < 0.25 -> inside the hole
        ]
    )
    assert analytic_qoi(pts, "g2").tolist() == [0.0, 0.0, 1.0, 1.0]


def test_analytic_qoi_unknown():
    with pytest.raises(ConfigurationError):
        analytic_qoi(np.zeros((1, 2)), "g3")


def test_iteration_profile_peak_and_floor():
    assert analytic_iters(np.array([[0.0, 0.0]]))[0] == pytest.approx(2.0)
    # one e-folding length along y1: the profile's rate is 4 on each axis
    got = analytic_iters(np.array([[0.5, 0.0]]))[0]
    assert got == pytest.approx(1.0 + np.exp(-1.0), rel=1e-15)
    far = analytic_iters(np.array([[40.0, 40.0]]))[0]
    assert far == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_preset_analytic_g1():
    cfg = preset_config("analytic_g1")
    assert cfg.n_dims == 2
    assert cfg.ensemble_size == 8
    assert cfg.tau == 5e-4
    assert cfg.n_max == 1000
    assert cfg.initial_level == 2
    assert cfg.strategies == ("nat", "sur", "its")
    assert cfg.field is None and cfg.mesh is None


def test_preset_pde_test1():
    cfg = preset_config("pde_test1")
    assert cfg.n_dims == 4
    assert cfg.ensemble_size == 4
    assert cfg.tau == 1e-3
    assert cfg.n_max == 600
    assert cfg.initial_level == 1
    assert set(cfg.strategies) == {"nat", "par", "sur", "its"}
    assert cfg.field is not None and cfg.mesh is not None


def test_preset_override():
    cfg = preset_config("analytic_g1", ensemble_size=16, n_max=2000)
    assert cfg.ensemble_size == 16 and cfg.n_max == 2000


def test_preset_unknown_problem():
    with pytest.raises(ConfigurationError):
        preset_config("analytic_g9")


@pytest.mark.parametrize(
    "patch",
    [
        {"ensemble_size": 0},
        {"tau": 0.0},
        {"tau": -1e-3},
        {"tau": float("nan")},  # would stop at once on "tolerance_met"
        {"n_max": 0},
        {"initial_level": -1},
        {"strategies": ("nat", "bogus")},
        {"strategies": ("nat", "nat")},
        {"strategies": ("par",)},  # no anisotropy indicator without a field
        {"n_dims": 3},
        {"field": FieldConfig()},  # field and mesh blocks are PDE-only
        {"mesh": MeshConfig()},
    ],
)
def test_analytic_config_rejects(patch):
    cfg = preset_config("analytic_g1")
    with pytest.raises(ConfigurationError):
        dataclasses.replace(cfg, **patch)


def test_pde_config_needs_field_and_mesh():
    cfg = preset_config("pde_test1")
    with pytest.raises(ConfigurationError):
        dataclasses.replace(cfg, field=None)
    with pytest.raises(ConfigurationError):
        dataclasses.replace(cfg, mesh=None)


@pytest.mark.parametrize("problem", ["analytic_g1", "analytic_g2", "pde_test1", "pde_test2", "pde_isotropic_baseline"])
def test_config_dict_round_trip(problem):
    cfg = preset_config(problem)
    assert config_from_dict(cfg.to_dict()) == cfg


def test_config_dict_round_trip_with_base_curve():
    cfg = preset_config("pde_test1", base_curve=((4, 2.72), (8, 4.4)))
    assert config_from_dict(cfg.to_dict()) == cfg


def test_config_from_dict_needs_problem():
    with pytest.raises(ConfigurationError):
        config_from_dict({"S": 4})
    with pytest.raises(ConfigurationError):
        config_from_dict({"problem": "nope"})


def test_read_base_curve(tmp_path):
    plain = tmp_path / "curve.csv"
    plain.write_text("4,2.72\n8,4.4\n")
    assert read_base_curve(plain) == ((4, 2.72), (8, 4.4))
    commented = tmp_path / "curve2.csv"
    commented.write_text("# S,speedup\n4,2.72\n\n8,4.4\n")
    assert read_base_curve(commented) == ((4, 2.72), (8, 4.4))
    one_column = tmp_path / "curve3.csv"
    one_column.write_text("4,2.72\n8\n")
    with pytest.raises(ConfigurationError, match="bad base-curve row"):
        read_base_curve(one_column)
    headed = tmp_path / "curve4.csv"
    headed.write_text("# measured\nS,speedup\n4,2.72\n")
    assert read_base_curve(headed) == ((4, 2.72),)


@pytest.mark.parametrize("text", ["4,abc\n8,4.4\n", "nan,2.72\n4,2.72\n", "S,speedup\nS,speedup\n4,2.72\n",
                                  "4,2.72\nS,speedup\n", "S,speedup\n4,1.5,9\n"])
def test_read_base_curve_refuses_a_bad_row_taken_for_a_header(tmp_path, text):
    """Only the first row may be a header, and only if it holds no digit; data rows hold two fields."""
    curve = tmp_path / "curve.csv"
    curve.write_text(text)
    with pytest.raises(ConfigurationError, match="bad base-curve row"):
        read_base_curve(curve)


# (rows, error) pairs: each curve is refused for a pde_test1 run at the preset S = 4.
BAD_BASE_CURVES = [
    ([[8, 1.5]], "no entry for the run's S=4"),
    ([[4, math.nan]], "rows [(4, nan)]: need"),
    ([[4, -1.5]], "rows [(4, -1.5)]: need"),
    ([[4, 0.0]], "rows [(4, 0.0)]: need"),
    ([[4, math.inf]], "rows [(4, inf)]: need"),
    ([[4, 2.0], [4, 3.0]], "rows [(4, 2.0), (4, 3.0)]: need"),
    ([[0, 1.0], [4, 2.0]], "rows [(0, 1.0)]: need"),
]


@pytest.mark.parametrize("rows, error", BAD_BASE_CURVES)
def test_config_refuses_a_bad_base_curve(rows, error):
    with pytest.raises(ConfigurationError, match=re.escape(error)):
        config_from_dict({"problem": "pde_test1", "base_curve": rows})
    with pytest.raises(ConfigurationError, match=re.escape(error)):
        preset_config("pde_test1", base_curve=tuple(map(tuple, rows)))


@pytest.mark.parametrize("route", ["csv", "json"])
@pytest.mark.parametrize("rows, error", BAD_BASE_CURVES)
def test_cli_refuses_a_bad_base_curve_before_any_solve(tmp_path, capsys, monkeypatch, route, rows, error):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(harness, "ensemble_pcg", no_solve)
    out = tmp_path / "run"
    args = ["run", "--mesh-cells", "4", "--n-max", "48", "--out-dir", str(out)]
    if route == "csv":
        curve = tmp_path / "curve.csv"
        curve.write_text("S,speedup\n" + "".join(f"{size},{value!r}\n" for size, value in rows))
        args += ["--problem", "pde_test1", "--base-curve", str(curve)]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"problem": "pde_test1", "base_curve": rows}))
        args += ["--config", str(config)]
    assert cli_main(args) == 1
    assert error in capsys.readouterr().err
    assert not out.exists()


def test_analytic_base_curve_needs_no_entry_for_its_size():
    cfg = preset_config("analytic_g1", base_curve=((4, 2.72),))
    assert cfg.ensemble_size == 8 and config_from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigurationError, match=re.escape("rows [(8, nan)]")):
        preset_config("analytic_g1", base_curve=((8, math.nan),))


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"problem": "analytic_g1", "s": 64, "Tau": 1e-9}, "Tau"),
        ({"problem": "pde_test1", "solver": {"maxiter": 5}}, "maxiter"),
        ({"problem": "pde_test1", "field": {"sigma": 1.0}}, "sigma"),
        ({"problem": "pde_test1", "field": {"a_hat_mode": "test2"}}, "a_hat_mode"),
        ({"problem": "pde_test1", "field": {"a_hat.mode": "test2"}}, "a_hat.mode"),
        # the field block is flat: a_hat is a string, no longer a {mode, value} object
        ({"problem": "pde_test1", "field": {"a_hat": {"mode": "test2", "value": 2.0}}}, "a_hat"),
        ({"problem": "pde_test1", "mesh": {"cells": 8}}, "cells"),
        # the analytic problems have one fixed QoI band and cost profile
        ({"problem": "analytic_g1", "analytic": {"a1": 1.0}}, "analytic"),
        # keys of the removed field settings
        ({"problem": "pde_test1", "field": {"expansion": "linear"}}, "expansion"),
        ({"problem": "pde_test1", "field": {"a_y": 0.7}}, "a_y"),
        ({"problem": "pde_test1", "field": {"N": 4}}, "N"),
    ],
)
def test_config_from_dict_rejects_unknown_keys(doc, key):
    # an unknown key is named as such; a known key with a value of the wrong shape by its path
    with pytest.raises(ConfigurationError, match=rf"unknown key.*'{key}'|\.{key}: expected"):
        config_from_dict(doc)


@pytest.mark.parametrize(
    "patch",
    [
        {"S": "4"},
        {"S": 4.0},
        {"tau": True},
        {"dump_residuals": 1},
        {"strategies": ["nat", 3]},
        {"solver": {"maxit": None}},
        {"solver": {"tol": -1.0}},
        {"solver": {"tol": float("nan")}},
        {"solver": {"maxit": -1}},
        {"base_curve": [[4, 2.72, 1.0]]},
        {"field": {"a_hat": 2}},
        {"field": {"sigma0": None}},
    ],
)
def test_config_from_dict_rejects_bad_values(patch):
    with pytest.raises(ConfigurationError):
        config_from_dict({"problem": "pde_test1", **patch})


_small_g1 = functools.partial(preset_config, "analytic_g1", n_max=40)


@pytest.mark.parametrize(
    "make, kwargs, field",
    [
        (_small_g1, {"ensemble_size": True}, "RunConfig.ensemble_size"),
        (_small_g1, {"strategies": ["nat", "sur"]}, "RunConfig.strategies"),
        (_small_g1, {"ensemble_size": 4.5}, "RunConfig.ensemble_size"),
        (_small_g1, {"n_max": 60.5}, "RunConfig.n_max"),
        (_small_g1, {"solver": {"tol": 1e-8}}, "RunConfig.solver"),
        (_small_g1, {"base_curve": ((8, "2.0"),)}, "RunConfig.base_curve"),
        (SolverConfig, {"maxit": True}, "SolverConfig.maxit"),
        (SolverConfig, {"tol": "1e-7"}, "SolverConfig.tol"),
        (MeshConfig, {"mesh_cells": 8.0}, "MeshConfig.mesh_cells"),
        (FieldConfig, {"sigma0": "1.0"}, "FieldConfig.sigma0"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_configs_built_in_python_check_their_field_types(make, kwargs, field):
    # The leaf and tuple rules of a read configuration, applied to a built
    # one: a bool is not an int, a list not a tuple, a float no count.
    with pytest.raises(ConfigurationError, match=rf"^{re.escape(field)}: expected"):
        make(**kwargs)


def test_configs_built_in_python_take_an_int_for_a_float():
    assert preset_config("analytic_g1", tau=1).tau == 1
    assert SolverConfig(tol=1).tol == 1


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("field", "a_hat", "test3"),
        ("field", "sigma0", -1.0),
        ("field", "sigma0", math.inf),
        ("field", "sigma0", math.nan),
        ("field", "a_min", math.nan),
        ("field", "a_min", -0.5),
        ("field", "a_min", -math.inf),
        ("mesh", "mesh_cells", 1),
        ("mesh", "mesh_cells", -4),
        ("mesh", "mesh_cells", 432),  # 27 * 431^3 nonzeros overflow int32
    ],
)
def test_config_refuses_field_and_mesh_values_naming_the_key(block, key, value):
    # refused when the configuration is read, before a run builds the field or mesh
    with pytest.raises(ConfigurationError, match=rf"^{block}\.{key} must"):
        config_from_dict({"problem": "pde_test1", block: {key: value}})
    cls = FieldConfig if block == "field" else MeshConfig
    with pytest.raises(ConfigurationError, match=rf"^{block}\.{key} must"):
        cls(**{key: value})


def test_mesh_config_takes_the_largest_int32_mesh():
    assert MeshConfig(mesh_cells=431).mesh_cells == 431  # 27 * 430^3 < 2^31


def test_config_from_dict_absent_keys_take_preset_values():
    # absent keys fall back to the preset also inside a block, so a partial
    # field block keeps pde_test2's coefficient mode and sigma0
    cfg = config_from_dict({"problem": "pde_test2", "S": 8, "field": {"a_min": 0.5}})
    preset = preset_config("pde_test2")
    assert cfg == dataclasses.replace(
        preset, ensemble_size=8, field=dataclasses.replace(preset.field, a_min=0.5)
    )
    assert cfg.field == FieldConfig(sigma0=math.sqrt(300.0), a_min=0.5, a_hat="test2")


def test_isotropic_baseline_coefficient_is_exactly_one():
    # a = 0 + 1 * exp(0): sigma0 = 0 zeroes every amplitude, at the box's
    # corners as at any sample, so every lane costs the same iterations
    problem = harness._PdeProblem(preset_config("pde_isotropic_baseline"))
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=4)))
    seeded = np.random.default_rng(3).uniform(-1.0, 1.0, (64, 4))
    for samples in (corners, seeded):
        a = problem.field.eval_a_batch(problem.mesh.quad_points, samples, problem.mode_vals)
        assert a.shape == (len(samples), len(problem.mesh.quad_points))
        assert np.all(a == 1.0)
        system = assemble(problem.mesh, problem.field, samples, problem.mode_vals)
        assert np.all(system.indicator == 1.0)


def test_solver_config_validated_on_construction():
    for bad in ({"tol": 0.0}, {"tol": math.inf}, {"maxit": -1}):
        with pytest.raises(ConfigurationError):
            SolverConfig(**bad)
    assert SolverConfig(maxit=0).maxit == 0
    assert SolverConfig(maxit=2**63 - 1).maxit == 2**63 - 1


@pytest.mark.parametrize("maxit", [2**63, 2**64 + 5, -1])
def test_maxit_no_solve_can_run_is_refused_when_the_config_is_read(tmp_path, capsys, maxit):
    # ensemble_pcg runs maxit in [0, 2^63); beyond it, a run used to build
    # the field, mesh and grid and fail at its first solve
    doc = {"problem": "pde_test1", "solver": {"maxit": maxit}, "mesh": {"mesh_cells": 4}, "n_max": 60}
    with pytest.raises(ConfigurationError, match=r"^solver\.maxit must be in \[0, 2\^63\)"):
        config_from_dict(doc)
    (tmp_path / "config.json").write_text(json.dumps(doc))
    for args in (["--config", str(tmp_path / "config.json")],
                 ["--problem", "pde_test1", "--mesh-cells", "4", "--n-max", "60", "--maxit", str(maxit)]):
        out = tmp_path / "run"
        assert cli_main(["run", *args, "--out-dir", str(out)]) == 1
        assert "solver.maxit must be in [0, 2^63)" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# adaptive runs on the analytic problems
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def g1_report():
    return adaptive_run(preset_config("analytic_g1"))


@pytest.fixture(scope="module")
def g2_report():
    return adaptive_run(preset_config("analytic_g2"))


def test_run_respects_budget(g1_report):
    cfg = preset_config("analytic_g1")
    assert g1_report.n_samples_total <= cfg.n_max
    assert g1_report.stop_reason in ("tolerance_met", "budget_exhausted")
    assert g1_report.n_samples_total == sum(len(lv.samples) for lv in g1_report.levels)


def test_levels_numbered_from_one(g1_report):
    assert [lv.level for lv in g1_report.levels] == list(
        range(1, len(g1_report.levels) + 1)
    )


def _first_ids(report) -> list[int]:
    """Each level's first sample id: the number of samples in the levels before it."""
    return np.cumsum([0] + [len(lv.samples) for lv in report.levels[:-1]]).tolist()


def test_sample_ids_unique_and_dense(g1_report):
    # every plan orders the level's ids, which run on from the previous level's
    ids = []
    for first, lv in zip(_first_ids(g1_report), g1_report.levels, strict=True):
        level_ids = list(range(first, first + len(lv.samples)))
        assert all(sorted(p.order) == level_ids for p in lv.plans)
        ids += level_ids
    assert ids == list(range(len(ids)))
    assert len(ids) == len(g1_report.grid["level"]) == g1_report.n_samples_total


def test_first_level_has_no_predictions(g1_report):
    first = g1_report.levels[0]
    assert first.mean_abs_prediction_error is None
    assert first.samples.predicted_iterations is None
    later = g1_report.levels[1]
    assert later.mean_abs_prediction_error is not None
    assert len(later.samples.predicted_iterations) == len(later.samples)


def test_first_level_ratio_strategy_independent(g1_report):
    # before any predictions exist, "sur" must fall back to generation order
    by_strat = {p.strategy: p for p in g1_report.levels[0].plans}
    assert by_strat["sur"].work_ratio == by_strat["nat"].work_ratio
    S = g1_report.config.ensemble_size
    assert GroupingPlan(1, S, by_strat["sur"].order).ensembles == GroupingPlan(1, S, by_strat["nat"].order).ensembles


def test_oracle_dominates(g1_report, g2_report):
    for rep in (g1_report, g2_report):
        others = [v for k, v in rep.work_ratios.items() if k != "its"]
        assert rep.work_ratios["its"] <= min(others) + 1e-12


def test_ratios_at_least_one(g1_report, g2_report):
    for rep in (g1_report, g2_report):
        for strat, ratio in rep.work_ratios.items():
            assert ratio >= 1.0 - 1e-12
            for r_l in rep.level_ratios(strat):
                assert r_l >= 1.0 - 1e-12


def test_surrogate_beats_natural(g1_report, g2_report):
    for rep in (g1_report, g2_report):
        assert rep.work_ratios["sur"] <= rep.work_ratios["nat"] + 1e-12


def test_prediction_error_mostly_shrinks(g1_report, g2_report):
    # after the surrogate has two cohorts to learn from, the mean absolute
    # iteration-prediction error should drop in at least 80% of transitions
    for rep in (g1_report, g2_report):
        means = [lv.mean_abs_prediction_error for lv in rep.levels[2:]]
        assert len(means) >= 2 and all(m is not None for m in means)
        good = sum(1 for a, b in zip(means, means[1:]) if b <= a + 1e-15)
        assert good >= 0.8 * (len(means) - 1)


def test_reported_ratios_match_recompute(g1_report):
    # rebuild each strategy's R from the stored orders and iteration counts
    iters = [its for lv in g1_report.levels for its in lv.samples.iterations]
    cfg = g1_report.config
    for strat, want in g1_report.work_ratios.items():
        levels = []
        for first, lv in zip(_first_ids(g1_report), g1_report.levels):
            plan_rec = next(p for p in lv.plans if p.strategy == strat)
            assert sorted(plan_rec.order) == list(range(first, first + len(lv.samples)))
            plan = GroupingPlan(lv.level, cfg.ensemble_size, plan_rec.order)
            slot_iters = [[iters[i] for i in group] for group in plan.ensembles]
            levels.append((plan, slot_iters))
        per_level, total = compute_R(levels)
        assert total == pytest.approx(want, rel=1e-12)
        assert per_level == pytest.approx(
            [p.work_ratio for p in
             (next(p for p in lv.plans if p.strategy == strat) for lv in g1_report.levels)],
            rel=1e-12,
        )


def test_base_curve_ignored_for_analytic():
    cfg = preset_config("analytic_g1", n_max=200, strategies=("nat",),
                        base_curve=((8, 4.4),))
    rep = adaptive_run(cfg)
    assert rep.predicted_speedups is None
    assert any("base curve" in note for note in rep.notes)


def test_empty_strategy_list_runs_physics_only():
    cfg = preset_config("analytic_g1", strategies=())
    rep = adaptive_run(cfg)
    assert rep.work_ratios == {}
    assert all(lv.plans == () for lv in rep.levels)
    assert len(rep.levels) >= 2  # refinement proceeds regardless


def test_budget_smaller_than_initial_grid():
    with pytest.raises(ConfigurationError):
        adaptive_run(preset_config("analytic_g1", n_max=10))


@pytest.mark.parametrize("n_max", [47, 48])
def test_config_checks_n_max_against_the_initial_grid(monkeypatch, n_max):
    # pde_test1's initial grid (4 dimensions, total level <= 1) has 48 points;
    # the config counts them without building a grid, a field or a mesh.
    monkeypatch.setattr(harness, "HierGrid", None)
    monkeypatch.setattr(harness, "build_field", None)
    if n_max < 48:
        with pytest.raises(ConfigurationError, match="48-point initial grid"):
            preset_config("pde_test1", n_max=n_max)
    else:
        assert preset_config("pde_test1", n_max=n_max).n_max == 48


def test_config_refuses_fewer_than_one_dimension():
    with pytest.raises(ConfigurationError, match="n_dims"):
        preset_config("pde_test1", n_dims=0)


def test_strategy_choice_does_not_change_physics():
    base = adaptive_run(preset_config("analytic_g2", strategies=("nat",)))
    other = adaptive_run(preset_config("analytic_g2", strategies=("its", "sur")))
    assert len(base.levels) == len(other.levels)
    for lv_a, lv_b in zip(base.levels, other.levels):
        assert lv_a.samples == lv_b.samples
    assert base.grid == other.grid


def test_repeat_run_identical(g1_report):
    again = adaptive_run(preset_config("analytic_g1"))
    assert again == g1_report
    assert harness._dump(again) == harness._dump(g1_report)


# ---------------------------------------------------------------------------
# a run small enough to check R by hand
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corner_report():
    # level-0 grid on [0,1]^2 is just the four corners, whose costs under
    # the profile all differ but for a tie; n_max equal to the initial batch
    # forces a single-level run
    cfg = RunConfig(
        problem="analytic_g2",
        n_dims=2,
        ensemble_size=2,
        tau=5e-4,
        n_max=4,
        initial_level=0,
        strategies=("nat", "its"),
        solver=SolverConfig(),
    )
    return adaptive_run(cfg)


def test_corner_run_shape(corner_report):
    assert corner_report.stop_reason == "budget_exhausted"
    assert len(corner_report.levels) == 1
    coords = HierGrid.from_json_dict(corner_report.grid).node_coords()
    assert coords.tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]


def test_corner_run_hand_ratio(corner_report):
    samples = corner_report.levels[0].samples
    coords = HierGrid.from_json_dict(corner_report.grid).node_coords()
    profile = analytic_iters(coords)
    assert len(set(profile.tolist())) == 3  # 2, 1 + e^-4 twice, 1 + e^-8
    got = dict(enumerate(samples.iterations))
    assert got == {i: profile[i] for i in range(4)}
    # natural chunks: (0,1) and (2,3); width 2 => cost 2*(max per group)
    hand = 2.0 * (max(profile[0], profile[1]) + max(profile[2], profile[3]))
    hand /= profile.sum()
    assert corner_report.work_ratios["nat"] == pytest.approx(hand, rel=1e-14)
    # the ascending order coincides with the natural one here
    assert corner_report.work_ratios["its"] == pytest.approx(hand, rel=1e-14)
    plan = GroupingPlan(1, 2, corner_report.levels[0].plans[0].order)
    assert plan.ensembles == ((0, 1), (2, 3)) and plan.padding == (0, 0)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def test_report_dict_round_trip(corner_report):
    doc = harness._dump(corner_report)
    # a level stores what its run observed; derive_levels restores the rest
    assert set(doc["levels"][0]) == {"level", "samples", "error_indicator", "mean_qoi", "budget_truncated",
                                     "streamed_lane_iterations", "frozen_lanes", "unconverged_lanes"}
    back = harness._load(RunReport, doc, "report")
    assert back.levels[0].plans == () and back.levels[0].executed_lane_iterations is None
    assert back.config == corner_report.config
    levels, ratios, speedups = harness.derive_levels(back.config, back.levels)
    assert dataclasses.replace(back, levels=levels) == corner_report
    assert (ratios, speedups) == (corner_report.work_ratios, corner_report.predicted_speedups)
    # the dict itself must be JSON-clean
    assert json.loads(json.dumps(doc)) == doc


def test_report_from_dict_rejects_unknown_and_missing_keys(corner_report):
    doc = harness._dump(corner_report)
    doc["levels"][0]["samples"]["iters"] = [3, 3, 3, 3]
    with pytest.raises(ConfigurationError, match=r"levels\[0\]\.samples.*'iters'"):
        harness._load(RunReport, doc, "report")
    doc = harness._dump(corner_report)
    # the corner run's level has no other column: give it predictions to differ from
    doc["levels"][0]["samples"]["predicted_iterations"] = [1.5] * 4
    harness._load(RunReport, doc, "report")
    doc["levels"][0]["samples"]["iterations"].pop()
    with pytest.raises(ConfigurationError, match="unequal length"):
        harness._load(RunReport, doc, "report")
    doc = harness._dump(corner_report)
    del doc["levels"][0]["mean_qoi"]
    with pytest.raises(ConfigurationError, match="missing key 'mean_qoi'"):
        harness._load(RunReport, doc, "report")
    # derived fields are not read back either
    doc = harness._dump(corner_report)
    doc["levels"][0]["plans"] = []
    with pytest.raises(ConfigurationError, match=r"levels\[0\]: unknown key\(s\) 'plans'"):
        harness._load(RunReport, doc, "report")


def test_emit_and_parse_round_trip(tmp_path, corner_report, g1_report):
    reports = [corner_report, g1_report]
    paths = emit_reports(reports, tmp_path)
    assert set(paths) == {"table", "manifest", "iterations"}
    back = parse_manifest(paths["manifest"])
    assert back == reports
    assert [harness._dump(r) for r in back] == [harness._dump(r) for r in reports]


def test_table_layout(tmp_path, corner_report, g1_report):
    paths = emit_reports([corner_report, g1_report], tmp_path)
    lines = paths["table"].read_text().splitlines()
    assert lines[0] == "strategy,S,level,n_samples,n_ensembles,R_l,R,pred_speedup"
    rows = [line.split(",") for line in lines[1:]]
    summary = [r for r in rows if r[2] == ""]
    per_level = [r for r in rows if r[2] != ""]
    # one summary row per report per strategy
    assert len(summary) == 2 + 3
    # per-level rows: corner run has 1 level x 2 strategies, g1 has 7 x 3
    assert len(per_level) == 2 * len(corner_report.levels) + 3 * len(g1_report.levels)
    for row in summary:
        strat, size = row[0], int(row[1])
        rep = corner_report if size == 2 else g1_report
        assert float(row[6]) == rep.work_ratios[strat]
        assert row[7] == ""  # analytic runs carry no speed-up prediction


def test_iterations_csv_layout(tmp_path, corner_report):
    paths = emit_reports(corner_report, tmp_path)
    lines = paths["iterations"].read_text().splitlines()
    assert lines[0] == "run,level,sample_id,iterations,predicted_iterations"
    assert len(lines) == 1 + corner_report.n_samples_total
    first = lines[1].split(",")
    assert first[:3] == ["0", "1", "0"]
    assert float(first[3]) == corner_report.levels[0].samples.iterations[0]
    assert first[4] == ""  # no prediction on the first level


def test_empty_strategies_emit_header_only_table(tmp_path):
    rep = adaptive_run(preset_config("analytic_g1", strategies=(), n_max=200))
    paths = emit_reports(rep, tmp_path)
    assert paths["table"].read_text() == (
        "strategy,S,level,n_samples,n_ensembles,R_l,R,pred_speedup\n"
    )
    # the iteration log is still populated
    assert len(paths["iterations"].read_text().splitlines()) == 1 + rep.n_samples_total


def test_emit_is_deterministic(tmp_path, corner_report):
    a = emit_reports(corner_report, tmp_path / "a")
    b = emit_reports(corner_report, tmp_path / "b")
    for key in a:
        assert a[key].read_bytes() == b[key].read_bytes()


def test_manifest_format(tmp_path, corner_report):
    paths = emit_reports(corner_report, tmp_path)
    text = paths["manifest"].read_text()
    doc = {"format": 5, "reports": [harness._dump(corner_report)]}
    assert text == json.dumps(doc, separators=(",", ":")) + "\n"
    assert text.count("\n") == 1
    report = json.loads(text)["reports"][0]
    level = report["levels"][0]
    # ids, coordinates, ensembles, padding, plans and the lane tallies other
    # than the kernel's are derived, not stored; a report keeps its R
    assert set(level["samples"]) == {"iterations", "predicted_iterations", "indicator"}
    assert level["samples"]["indicator"] is None
    assert level["streamed_lane_iterations"] is None
    assert report["work_ratios"] == corner_report.work_ratios
    for key in ("sample_id", "coords", "ensembles", "padding", "plans", "order", "R_l",
                "executed_lane_iterations", "useful_lane_iterations", "spmv_calls",
                "mean_abs_prediction_error", "max_abs_prediction_error"):
        assert f'"{key}"' not in text


def _same(a, b) -> bool:
    """Equal values of equal types through dataclasses and containers, NaN equal to NaN."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


@pytest.fixture(scope="module")
def pde_report():
    # width 5 pads the last ensemble of both levels (48 and 52 samples)
    return adaptive_run(preset_config("pde_test1", ensemble_size=5, n_max=100, mesh=MeshConfig(mesh_cells=4)))


@pytest.fixture(scope="module")
def capped_report():
    return adaptive_run(_small_pde_config(solver=SolverConfig(maxit=3), base_curve=((4, 2.72),)))


@pytest.mark.parametrize("name", ["corner_report", "g1_report", "pde_report", "capped_report"])
def test_manifest_round_trip_restores_the_report(tmp_path, request, name):
    report = request.getfixturevalue(name)
    back = parse_manifest(emit_reports(report, tmp_path)["manifest"])
    assert len(back) == 1 and _same(back[0], report)
    if name == "capped_report":
        assert math.isnan(back[0].work_ratios["nat"]) and back[0].levels[0].unconverged_lanes > 0
    else:
        assert back[0] == report
    # PDE iteration counts stay ints, analytic ones floats
    want = int if report.config.is_pde else float
    assert {type(v) for lv in back[0].levels for v in lv.samples.iterations} == {want}


@pytest.mark.parametrize("name, config", [
    ("g1_report", preset_config("analytic_g1")),
    ("pde_report", preset_config("pde_test1", ensemble_size=5, n_max=100, mesh=MeshConfig(mesh_cells=4))),
], ids=["g1_report", "pde_report"])
def test_derived_values_are_the_solved_ones(tmp_path, monkeypatch, request, name, config):
    # A manifest stores neither coordinates nor ensembles: those derived from
    # its grid block and orders are bitwise the ones each level solved at and
    # the slot matrices each strategy gave compute_R.
    want = request.getfixturevalue(name)  # before the wrappers are in place
    solved, charged = [], []
    solve_plan, iter_values, compute_r = (harness._PdeProblem.solve_plan, harness._AnalyticProblem.iter_values,
                                          harness.compute_R)

    def capture_solve(self, plan, coords, first_id, sink):
        solved.append((first_id, coords.copy()))
        return solve_plan(self, plan, coords, first_id, sink)

    def capture_iters(self, coords):
        solved.append((None, coords.copy()))
        return iter_values(self, coords)

    def capture_R(levels):
        charged.append([(plan, np.array(slots)) for plan, slots in levels])
        return compute_r(levels)

    monkeypatch.setattr(harness._PdeProblem, "solve_plan", capture_solve)
    monkeypatch.setattr(harness._AnalyticProblem, "iter_values", capture_iters)
    monkeypatch.setattr(harness, "compute_R", capture_R)
    run = adaptive_run(config)
    monkeypatch.undo()  # parse_manifest derives the plans once more
    [report] = parse_manifest(emit_reports(run, tmp_path)["manifest"])
    assert report == run == want

    coords = HierGrid.from_json_dict(report.grid).node_coords()
    for first, lv, (first_id, got) in zip(_first_ids(report), report.levels, solved, strict=True):
        assert first_id in (None, first)
        derived = coords[first:first + len(lv.samples)]
        assert derived.shape == got.shape and derived.tobytes() == got.tobytes()
    iters = np.array([v for lv in report.levels for v in lv.samples.iterations])
    for strat, levels in zip(config.strategies, charged, strict=True):
        for lv, (plan, slots) in zip(report.levels, levels, strict=True):
            order = next(p.order for p in lv.plans if p.strategy == strat)
            derived = GroupingPlan(lv.level, config.ensemble_size, order)
            assert derived == plan
            got = iters[np.array(derived.ensembles)]
            assert got.dtype == slots.dtype and got.tobytes() == slots.tobytes()


def _stored_level(level, iterations, predicted=None, indicator=None, unconverged=None):
    return LevelRecord(level=level, samples=LevelSamples(iterations, predicted, indicator), error_indicator=0.0,
                       mean_qoi=0.0, budget_truncated=False, streamed_lane_iterations=None if unconverged is None else 0,
                       frozen_lanes=None if unconverged is None else 0, unconverged_lanes=unconverged)


@pytest.mark.parametrize("unconverged", [0, 1], ids=["converged", "unconverged"])
def test_derive_levels_of_a_padded_pde_run_without_sur(monkeypatch, unconverged):
    config = preset_config("pde_test1", ensemble_size=3, strategies=("nat", "par", "its"), base_curve=((3, 2.0),))
    stored = (_stored_level(1, (5, 7, 6, 9), None, (0.4, 0.1, 0.3, 0.2), unconverged=0),
              _stored_level(2, (10, 4, 4, 8, 6), (9.5, 4.0, 5.0, 7.0, 6.5), (0.5, 0.1, 0.2, 0.4, 0.3),
                            unconverged=unconverged))
    if unconverged:
        monkeypatch.setattr(harness, "compute_R", None)  # an untrusted run never reduces its counts
    levels, ratios, speedups = harness.derive_levels(config, stored)
    # Width 3 pads both levels' last ensembles.  Level 1 keeps generation
    # order for nat and par: (0, 1, 2) (3, 3, 3) cost 3 * (7 + 9) = 48 over
    # 27; its gives the short group the smallest sample: (2, 1, 3) (0, 0, 0)
    # cost 3 * (9 + 5) = 42.  Level 2: nat (4, 5, 6) (7, 8, 8) costs
    # 3 * (10 + 8) = 54 over 32, par by indicator (5, 6, 8) (7, 4, 4)
    # 3 * (6 + 10) = 48 and its (8, 7, 4) (5, 6, 6) 3 * (10 + 4) = 42.
    orders = [{"nat": (0, 1, 2, 3), "par": (0, 1, 2, 3), "its": (2, 1, 3, 0)},
              {"nat": (4, 5, 6, 7, 8), "par": (5, 6, 8, 7, 4), "its": (8, 7, 4, 5, 6)}]
    want_R = [{"nat": 48 / 27, "par": 48 / 27, "its": 42 / 27}, {"nat": 54 / 32, "par": 48 / 32, "its": 42 / 32}]
    want_total = {"nat": 102 / 59, "par": 96 / 59, "its": 84 / 59}
    if unconverged:
        want_R = [dict.fromkeys(r, math.nan) for r in want_R]
        want_total = dict.fromkeys(want_total, math.nan)
    for lv, order, r in zip(levels, orders, want_R, strict=True):
        assert _same(lv.plans, tuple(PlanRecord(s, order[s], r[s]) for s in config.strategies))
    assert _same(ratios, want_total)
    assert _same(speedups, {s: 2.0 / r for s, r in want_total.items()})
    # without sur both levels execute generation order
    assert [(lv.executed_lane_iterations, lv.spmv_calls, lv.useful_lane_iterations) for lv in levels] == [
        (48, 16, 27), (54, 18, 32)]
    assert (levels[0].mean_abs_prediction_error, levels[0].max_abs_prediction_error) == (None, None)
    # |predicted - iterations| = 0.5, 0, 1, 1, 0.5
    assert (levels[1].mean_abs_prediction_error, levels[1].max_abs_prediction_error) == (0.6, 1.0)
    assert [dataclasses.replace(lv, plans=(), executed_lane_iterations=None, useful_lane_iterations=None,
                                spmv_calls=None, mean_abs_prediction_error=None, max_abs_prediction_error=None)
            for lv in levels] == list(stored)


def test_derive_levels_of_an_analytic_run():
    config = preset_config("analytic_g1", ensemble_size=2, base_curve=((2, 1.5),))
    stored = (_stored_level(1, (1.5, 1.25, 1.75)), _stored_level(2, (1.0, 2.0, 1.5, 1.25), (0.5, 2.5, 1.75, 1.0)))
    levels, ratios, speedups = harness.derive_levels(config, stored)
    # Level 1: nat and sur (0, 1) (2, 2) cost 2 * (1.5 + 1.75) = 6.5 over
    # 4.5, its (0, 2) (1, 1) 2 * (1.75 + 1.25) = 6.  Level 2: nat (3, 4)
    # (5, 6) costs 2 * (2 + 1.5) = 7 over 5.75; sur by prediction and its
    # both give (3, 6) (5, 4), 2 * (1.25 + 2) = 6.5.
    orders = [{"nat": (0, 1, 2), "sur": (0, 1, 2), "its": (0, 2, 1)},
              {"nat": (3, 4, 5, 6), "sur": (3, 6, 5, 4), "its": (3, 6, 5, 4)}]
    want_R = [{"nat": 6.5 / 4.5, "sur": 6.5 / 4.5, "its": 6 / 4.5},
              {"nat": 7 / 5.75, "sur": 6.5 / 5.75, "its": 6.5 / 5.75}]
    for lv, order, r in zip(levels, orders, want_R, strict=True):
        assert lv.plans == tuple(PlanRecord(s, order[s], r[s]) for s in config.strategies)
    assert ratios == {"nat": 13.5 / 10.25, "sur": 13 / 10.25, "its": 12.5 / 10.25}
    assert speedups is None  # analytic runs have no solver to speed up
    for lv in levels:
        assert (lv.executed_lane_iterations, lv.useful_lane_iterations, lv.spmv_calls) == (None, None, None)
    # |predicted - iterations| = 0.5, 0.5, 0.25, 0.25
    assert (levels[1].mean_abs_prediction_error, levels[1].max_abs_prediction_error) == (0.375, 0.5)


@pytest.fixture(scope="module")
def width_4_run():
    config = preset_config("pde_test1", ensemble_size=4, n_max=150, mesh=MeshConfig(mesh_cells=6))
    return config, adaptive_run(config)


@pytest.mark.parametrize("width", [1, 3, 8, 16])
def test_levels_of_one_width_replan_a_run_at_another(width_4_run, width):
    # A run's levels do not depend on S, so replanning the width-4 run's
    # levels at another width gives that width's run: every plan's order and
    # R_l, the run's R and the derived lane tallies.  Only the kernel knows
    # the streamed lane-iterations, so they are left out.
    config, report = width_4_run
    config = dataclasses.replace(config, ensemble_size=width)
    real = adaptive_run(config)
    levels, ratios, _ = harness.derive_levels(config, report.levels)
    assert len(levels) == len(real.levels) > 1
    for got, want in zip(levels, real.levels):
        assert repr(got.plans) == repr(want.plans)  # float reprs round-trip: bitwise
        assert (got.executed_lane_iterations, got.useful_lane_iterations, got.spmv_calls) == (
            want.executed_lane_iterations, want.useful_lane_iterations, want.spmv_calls)
    assert repr(ratios) == repr(real.work_ratios)


@pytest.mark.parametrize("key, strategy, value", [("work_ratios", "sur", "next"), ("predicted_speedups", "nat", 1.0)],
                         ids=["one-ulp-ratio", "speedup-for-nan"])
def test_parse_manifest_refuses_stored_values_that_are_not_the_derived_ones(tmp_path, capped_report, pde_report,
                                                                            key, strategy, value):
    report = pde_report if key == "work_ratios" else capped_report
    path = emit_reports(report, tmp_path)["manifest"]
    doc = json.loads(path.read_text())
    stored = doc["reports"][0][key]
    stored[strategy] = math.nextafter(stored[strategy], math.inf) if value == "next" else value
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="work_ratios or predicted_speedups are not those its levels give"):
        parse_manifest(path)


def test_lane_counters_agree_with_the_accounting(pde_report):
    assert pde_report.all_lanes_converged and len(pde_report.levels) == 2
    S = pde_report.config.ensemble_size
    for lv in pde_report.levels:
        # the executed plan is "sur", which is generation order on level 1
        executed_plan = next(p for p in lv.plans if p.strategy == "sur")
        assert sum(GroupingPlan(lv.level, S, executed_plan.order).padding) > 0
        assert lv.executed_lane_iterations / lv.useful_lane_iterations == executed_plan.work_ratio
        assert lv.useful_lane_iterations == sum(lv.samples.iterations)
        assert lv.executed_lane_iterations == S * lv.spmv_calls
        # padding lanes are streamed too, until the solve narrows past them
        assert lv.useful_lane_iterations < lv.streamed_lane_iterations < lv.executed_lane_iterations
        assert lv.frozen_lanes == lv.unconverged_lanes == 0
    assert pde_report.levels[1].executed_lane_iterations > pde_report.levels[1].useful_lane_iterations


def test_a_run_without_sur_executes_generation_order():
    rep = adaptive_run(preset_config("pde_test1", ensemble_size=5, n_max=100, strategies=("nat", "par", "its"),
                                     mesh=MeshConfig(mesh_cells=4)))
    assert rep.all_lanes_converged and len(rep.levels) == 2
    for lv in rep.levels:
        ratios = {p.strategy: p.work_ratio for p in lv.plans}
        assert lv.executed_lane_iterations / lv.useful_lane_iterations == ratios["nat"]
    # par's order is its own on level 2, and is accounted but not executed
    assert ratios["par"] != ratios["nat"]


def test_pde_problem_setup_peaks_below_twice_what_it_keeps():
    # The mesh tables and mode values are built on the tensor grid, without
    # (E, 64) index tables or per-point copies of the quadrature coordinates.
    config = preset_config("pde_test1", mesh=MeshConfig(mesh_cells=24))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        problem = harness._PdeProblem(config)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    field = problem.field
    arrays = [v for obj in (problem, problem.mesh) for v in vars(obj).values() if isinstance(v, np.ndarray)]
    arrays += [field.eigenvalues, *(a for f in field.factors for a in (f.grid, f.values))]
    kept = sum(a.nbytes for a in {id(a): a for a in arrays}.values())
    assert peak <= 2 * kept, (peak, kept)


@pytest.fixture(scope="module")
def counted_test2_run():
    """A small pde_test2 run with the lanes of every eval_a_batch call and the solves counted."""
    lanes, solves = [], []
    eval_a_batch, pcg = KLDiffusionField.eval_a_batch, harness.ensemble_pcg

    def counted_eval_a(self, points, samples, mode_vals):
        lanes.append(len(samples))
        return eval_a_batch(self, points, samples, mode_vals)

    def counted_pcg(mat, *args, **kwargs):
        solves.append(mat.width)
        return pcg(mat, *args, **kwargs)

    config = preset_config("pde_test2", ensemble_size=5, n_max=100, mesh=MeshConfig(mesh_cells=4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(KLDiffusionField, "eval_a_batch", counted_eval_a)
        mp.setattr(harness, "ensemble_pcg", counted_pcg)
        report = adaptive_run(config)
    return config, report, lanes, solves


def test_each_lane_evaluates_its_coefficient_once(counted_test2_run):
    config, report, lanes, solves = counted_test2_run
    executed = [GroupingPlan(lv.level, config.ensemble_size, next(p for p in lv.plans if p.strategy == "sur").order)
                for lv in report.levels]
    assert len(solves) == sum(len(plan.ensembles) for plan in executed) > 0
    assert sum(lanes) == config.ensemble_size * len(solves)
    assert sorted(lanes) == sorted(solves)  # one evaluation per assembled ensemble, none besides


def test_indicator_column_is_the_max_over_all_coefficient_values(tmp_path, counted_test2_run):
    config, report, _, _ = counted_test2_run
    field = build_field(config.field.sigma0, config.n_dims, config.field.a_min, config.field.a_hat)
    mesh = StructuredMesh(config.mesh.mesh_cells)
    mode_vals = field.mode_values(mesh.quad_axes)
    doc = json.loads(emit_reports(report, tmp_path)["manifest"].read_text())["reports"][0]
    coords = HierGrid.from_json_dict(doc["grid"]).node_coords()
    indicators = [v for lv in doc["levels"] for v in lv["samples"]["indicator"]]
    n = 0
    for y, got in zip(coords, indicators, strict=True):
        a = field.eval_a_batch(mesh.quad_points, y[None], mode_vals)[0]
        assert got == anisotropy_indicator_max(a)
        n += 1
    assert n == report.n_samples_total == config.n_max


def test_capped_run_counts_its_unconverged_lanes(capped_report):
    lv = capped_report.levels[0]
    order = next(p for p in lv.plans if p.strategy == "nat").order
    assert lv.spmv_calls == 3 * len(GroupingPlan(1, capped_report.config.ensemble_size, order).ensembles)
    assert lv.unconverged_lanes == lv.executed_lane_iterations // 3


def test_analytic_levels_carry_no_lane_counters(g1_report):
    counters = ("executed_lane_iterations", "streamed_lane_iterations", "useful_lane_iterations",
                "spmv_calls", "frozen_lanes", "unconverged_lanes")
    for lv in g1_report.levels:
        assert all(getattr(lv, name) is None for name in counters)


def test_mean_qoi_is_the_surrogate_mean_through_each_level(g1_report):
    doc, n = g1_report.grid, 0
    for lv in g1_report.levels:
        n += len(lv.samples)
        # surpluses of a fitted cohort do not change later: the grid's first n nodes
        prefix = {**doc, "level": doc["level"][:n], "index": doc["index"][:n],
                  "surpluses": {"qoi": doc["surpluses"]["qoi"][:n]}}
        assert lv.mean_qoi == HierGrid.from_json_dict(prefix).integrate_surrogate("qoi")


@pytest.mark.parametrize(
    "top, match",
    [({}, "format None is not format 5"), ({"format": 1}, "format 1 is not"),
     ({"format": 2}, "format 2 is not"), ({"format": "5"}, "format '5' is not"),
     ({"format": 5.0}, "format 5.0 is not"), ({"format": 3}, "format 3 is not format 5.*format 3 also plans"),
     ({"format": 4}, "format 4 is not format 5.*format 4 also stored field and analytic settings")],
    ids=["no-format-key", "format-1", "format-2", "string-format", "float-format", "format-3", "format-4"],
)
def test_parse_manifest_refuses_other_formats(tmp_path, corner_report, top, match):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**top, "reports": [harness._dump(corner_report)]}, indent=1) + "\n")
    with pytest.raises(ConfigurationError, match=match):
        parse_manifest(path)


def test_parse_manifest_rejects_unknown_top_level_keys(tmp_path, corner_report):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"format": 5, "reports": [harness._dump(corner_report)], "extra": 1}))
    with pytest.raises(ConfigurationError, match="'extra'"):
        parse_manifest(path)


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_failed_serialization_leaves_outputs_unchanged(tmp_path, corner_report, g1_report):
    emit_reports(corner_report, tmp_path)
    before = _snapshot(tmp_path)
    # the table of this report differs from the one on disk, and its manifest
    # cannot be serialized
    bad = dataclasses.replace(g1_report, grid={"nodes": object()})
    with pytest.raises(TypeError):
        emit_reports(bad, tmp_path)
    assert _snapshot(tmp_path) == before


def test_failed_replace_leaves_no_partial_files(tmp_path, corner_report, g1_report, monkeypatch):
    emit_reports(corner_report, tmp_path)
    before = _snapshot(tmp_path)

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(harness.os, "replace", fail)
    with pytest.raises(OSError):
        emit_reports(g1_report, tmp_path)
    assert _snapshot(tmp_path) == before


# ---------------------------------------------------------------------------
# residual sink
# ---------------------------------------------------------------------------


def test_residual_sink_unused_on_analytic():
    calls = []
    cfg = preset_config("analytic_g1", n_max=200, dump_residuals=True)
    adaptive_run(cfg, residual_sink=lambda lv, k, hist: calls.append((lv, k)))
    assert calls == []


def test_residual_sink_receives_histories():
    calls = []

    def sink(level, ensemble, history):
        calls.append((level, ensemble, [np.asarray(h) for h in history]))

    cfg = preset_config("pde_test1", n_max=48, dump_residuals=True,
                        strategies=("nat",))
    cfg = dataclasses.replace(cfg, mesh=dataclasses.replace(cfg.mesh, mesh_cells=4))
    rep = adaptive_run(cfg, residual_sink=sink)
    assert rep.n_samples_total == 48
    assert [c[:2] for c in calls] == [(1, k) for k in range(48 // 4)]
    for _, _, history in calls:
        assert all(h.shape == (4,) for h in history)
        assert np.all(history[0] > 0)  # initial residual = ||b||
        # norms decrease overall from first to last record
        assert np.all(history[-1] <= history[0])


def _small_pde_config(**overrides):
    return preset_config("pde_test1", n_max=48, mesh=MeshConfig(mesh_cells=4), **overrides)


def test_unconverged_lanes_mark_ratios_nan(tmp_path):
    cfg = _small_pde_config(solver=SolverConfig(maxit=3), base_curve=((4, 2.72),))
    rep = adaptive_run(cfg)
    assert not rep.all_lanes_converged
    assert any("lane(s) hit maxit (3) unconverged" in note for note in rep.notes)
    assert all(math.isnan(r) for r in rep.work_ratios.values())
    assert all(math.isnan(r) for s in cfg.strategies for r in rep.level_ratios(s))
    assert set(rep.predicted_speedups) == set(cfg.strategies)
    assert all(math.isnan(v) for v in rep.predicted_speedups.values())
    # the mark survives the manifest round trip
    assert not parse_manifest(emit_reports(rep, tmp_path)["manifest"])[0].all_lanes_converged


def test_converged_run_is_trusted(corner_report):
    rep = adaptive_run(_small_pde_config(strategies=("nat",)))
    assert rep.all_lanes_converged and corner_report.all_lanes_converged
    assert not any("unconverged" in note for note in rep.notes)
    assert rep.work_ratios["nat"] >= 1.0


def test_frozen_unconverged_lanes_noted_apart(monkeypatch):
    real = harness.ensemble_pcg

    def freeze_lane0(*args, **kwargs):
        result = real(*args, **kwargs)
        result.converged_per_lane[0] = False
        result.frozen_lanes[0] = True
        return result

    monkeypatch.setattr(harness, "ensemble_pcg", freeze_lane0)
    rep = adaptive_run(_small_pde_config(strategies=("nat",)))
    assert not any("hit maxit" in note for note in rep.notes)
    assert "level 1 ensemble 0: 1 lane(s) froze unconverged" in rep.notes
    assert not rep.all_lanes_converged
    assert math.isnan(rep.work_ratios["nat"])


def test_residual_sink_needs_flag():
    calls = []
    cfg = preset_config("pde_test1", n_max=48, strategies=("nat",))
    cfg = dataclasses.replace(cfg, mesh=dataclasses.replace(cfg.mesh, mesh_cells=4))
    adaptive_run(cfg, residual_sink=lambda *a: calls.append(a))
    assert calls == []


# ---------------------------------------------------------------------------
# concurrent ensemble solves
# ---------------------------------------------------------------------------


def _run_on_cpus(monkeypatch, n_cpus, out_dir, args):
    """One CLI run of `pde_test1` in a process that sees n_cpus CPUs; returns
    the exit code, the worker count of each level's pool, the threads offered
    to each solve and the residual sink's calls."""
    pools, teams, calls = [], [], []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    def pcg(matrix, rhs, threads, **kwargs):
        teams.append(threads)
        return ensemble_pcg(matrix, rhs, threads=threads, **kwargs)

    def run(config, residual_sink=None):
        def sink(level, k, history):
            calls.append((level, k))
            residual_sink(level, k, history)
        return adaptive_run(config, residual_sink=sink)

    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
    monkeypatch.setattr(harness, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(harness, "ensemble_pcg", pcg)
    monkeypatch.setattr(cli, "adaptive_run", run)
    code = cli_main(["run", "--problem", "pde_test1", *args, "--n-max", "100",
                     "--dump-residuals", "--out-dir", str(out_dir)])
    return code, pools, teams, calls


def test_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, capsys):
    # Width 5 pads the last ensemble of both levels (48 and 52 samples): ten
    # and eleven ensembles, a pool worker per CPU and one thread per solve.
    # Width 48 on an 8^3 mesh makes level 1 one ensemble and level 2 two, the
    # second padded: a solve's twelve blocks of lanes get its worker's share
    # of the CPUs.
    cases = {
        "padded": (["--mesh-cells", "4", "--S", "5"], 10, 11),
        "wide": (["--mesh-cells", "8", "--S", "48"], 1, 2),
    }
    for name, (args, level1, level2) in cases.items():
        runs = {c: _run_on_cpus(monkeypatch, c, tmp_path / f"{name}{c}", args) for c in (1, 2, 4)}
        capsys.readouterr()
        for c, (code, pools, teams, calls) in runs.items():
            assert code == 2
            assert pools == [min(c, level1), min(c, level2)]
            assert teams == [c // min(c, size) for size in (level1, level2) for _ in range(size)]
            # the sink sees each level's ensembles in plan order, whatever finished first
            assert calls == [(1, k) for k in range(level1)] + [(2, k) for k in range(level2)]
        assert runs[4][2] == ([1] * 21 if name == "padded" else [4, 2, 2])
        files = _snapshot(tmp_path / f"{name}1")
        assert len([f for f in files if f.startswith("residuals_")]) == level1 + level2
        assert {"manifest.json", "r_table.csv", "iterations_by_level.csv"} <= set(files)
        assert _snapshot(tmp_path / f"{name}2") == files
        assert _snapshot(tmp_path / f"{name}4") == files


@pytest.mark.parametrize("where", ["solve", "sink"])
def test_a_failed_level_raises_its_first_error_in_plan_order_and_stops(monkeypatch, where):
    cfg = _small_pde_config(ensemble_size=2, strategies=("nat",), dump_residuals=where == "sink")
    # level 1 is solved in generation order: group k holds nodes 2k and 2k + 1
    grid = HierGrid(cfg.n_dims, domain=((-1.0, 1.0),) * cfg.n_dims)
    n_groups = grid.add_initial_levels(cfg.initial_level) // 2
    group_of = {tuple(y): k for k, y in enumerate(grid.node_coords()[::2])}
    local, later = threading.local(), []
    real_assemble, real_pcg = harness.assemble, harness.ensemble_pcg

    def assemble(mesh, field, samples, mode_vals):
        local.group = group_of[tuple(samples[0])]
        return real_assemble(mesh, field, samples, mode_vals)

    def ensemble_pcg(matrix, rhs, **kwargs):
        k = local.group
        if where == "solve" and k in (2, 4):
            if k == 2:
                time.sleep(0.1)  # the fifth group fails first on the clock
            raise NumericalBreakdownError(f"group {k}")
        if k > 4:
            later.append(k)
            time.sleep(0.02)
        return real_pcg(matrix, rhs, **kwargs)

    def sink(level, k, history):
        if k == 2:
            raise OSError(f"disk full at group {k}")

    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(harness, "assemble", assemble)
    monkeypatch.setattr(harness, "ensemble_pcg", ensemble_pcg)
    threads = threading.active_count()
    error = NumericalBreakdownError if where == "solve" else OSError
    with pytest.raises(error, match="group 2"):
        adaptive_run(cfg, residual_sink=sink)
    assert threading.active_count() == threads
    # the groups not started when the failure surfaced were cancelled
    assert n_groups == 24 and len(later) < n_groups - 5


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli_main(["run", "--problem", "analytic_g2", "--out-dir", str(out)])
    assert code == 2  # the g2 preset exhausts its budget
    for name in ("r_table.csv", "manifest.json", "iterations_by_level.csv"):
        assert (out / name).exists()
    text = capsys.readouterr().out
    assert "problem=analytic_g2" in text and "R(nat)" in text


def test_cli_run_exit_zero_on_tolerance(tmp_path):
    out = tmp_path / "run"
    code = cli_main(
        ["run", "--problem", "analytic_g1", "--n-max", "2000", "--out-dir", str(out)]
    )
    assert code == 0
    reports = parse_manifest(out / "manifest.json")
    assert reports[0].stop_reason == "tolerance_met"


def test_cli_table(tmp_path, capsys):
    out = tmp_path / "run"
    cli_main(["run", "--problem", "analytic_g2", "--out-dir", str(out)])
    capsys.readouterr()
    assert cli_main(["table", "--out-dir", str(out)]) == 0
    text = capsys.readouterr().out
    assert "problem=analytic_g2" in text and "total" in text
    # analytic runs have no lane counters, and their errors are not printed
    assert all(line.split()[-6:-1] == ["-"] * 5 for line in text.splitlines()[2:4])


def test_cli_table_prints_lane_counters_and_mean_qoi(tmp_path, capsys, pde_report):
    emit_reports(pde_report, tmp_path)
    assert cli_main(["table", "--out-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[-6:] == ["executed", "streamed", "useful", "mean_err", "max_err", "mean_qoi"]
    for lv, line in zip(pde_report.levels, lines[2:]):
        cells = line.split()
        assert cells[0] == str(lv.level)
        errors = ["-", "-"] if lv.level == 1 else [f"{lv.mean_abs_prediction_error:.3f}",
                                                   f"{lv.max_abs_prediction_error:.3f}"]
        assert cells[-6:] == [str(lv.executed_lane_iterations), str(lv.streamed_lane_iterations),
                              str(lv.useful_lane_iterations), *errors, f"{lv.mean_qoi:.6g}"]


def test_qois_and_grids_do_not_depend_on_the_width():
    # A lane stops at its own convergence, so its solution and QoI are those
    # of its solo solve whatever its companions; the refinement reads the QoI
    # surpluses, so every width picks the same samples.
    reports = {
        S: adaptive_run(preset_config("pde_test1", ensemble_size=S, n_max=100,
                                      mesh=MeshConfig(mesh_cells=6)))
        for S in (1, 4, 7)
    }
    want = reports[1]
    assert len(want.levels) > 1
    for S, rep in reports.items():
        assert json.dumps(rep.grid) == json.dumps(want.grid)
        for lv, ref in zip(rep.levels, want.levels, strict=True):
            assert lv.samples == ref.samples
            assert json.dumps([lv.mean_qoi, lv.error_indicator]) == json.dumps(
                [ref.mean_qoi, ref.error_indicator])
            assert lv.useful_lane_iterations == ref.useful_lane_iterations
            assert lv.streamed_lane_iterations <= lv.executed_lane_iterations
    # one lane is never narrowed; at width 7 every level narrows some ensemble
    assert all(lv.streamed_lane_iterations == lv.executed_lane_iterations for lv in want.levels)
    assert all(lv.streamed_lane_iterations < lv.executed_lane_iterations for lv in reports[7].levels)


def test_cli_table_refuses_an_old_manifest(tmp_path, capsys, corner_report):
    # the layout before format 2: no format key, indented
    (tmp_path / "manifest.json").write_text(json.dumps({"reports": [harness._dump(corner_report)]}, indent=1))
    assert cli_main(["table", "--out-dir", str(tmp_path)]) == 1
    assert "manifest format None is not format 5" in capsys.readouterr().err


def test_cli_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--problem", "bogus", "--out-dir", "/tmp/x"],  # bad choice
        ["run", "--problem", "analytic_g1"],  # missing --out-dir
        ["run"],  # neither --config nor --problem (out-dir also missing)
    ],
)
def test_cli_usage_errors(argv, tmp_path, capsys):
    assert cli_main(argv) == 1
    capsys.readouterr()


def test_cli_neither_config_nor_problem(tmp_path, capsys):
    assert cli_main(["run", "--out-dir", str(tmp_path)]) == 1
    assert "either --config or --problem" in capsys.readouterr().err


def test_cli_refuses_config_and_problem_together(tmp_path, capsys):
    # Flags override the document, so a --problem beside it would be ignored.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"problem": "analytic_g1", "n_max": 40}))
    out = tmp_path / "out"
    code = cli_main(["run", "--config", str(cfg_path), "--problem", "analytic_g2", "--out-dir", str(out)])
    assert code == 1
    assert "not allowed with" in capsys.readouterr().err
    assert not out.exists()


def test_cli_mesh_cells_rejected_on_analytic(tmp_path, capsys):
    code = cli_main(
        ["run", "--problem", "analytic_g1", "--mesh-cells", "8",
         "--out-dir", str(tmp_path)]
    )
    assert code == 1
    assert "PDE" in capsys.readouterr().err


def test_cli_unconverged_lanes_exit_three(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli_main(
        ["run", "--problem", "pde_test1", "--mesh-cells", "4", "--n-max", "48",
         "--maxit", "3", "--out-dir", str(out)]
    )
    assert code == 3
    text = capsys.readouterr().out
    assert "R(nat) = nan" in text and "hit maxit" in text
    assert not parse_manifest(out / "manifest.json")[0].all_lanes_converged


def test_cli_maxit_zero_exits_three_with_every_ratio_nan(tmp_path, capsys):
    # every lane stops unconverged at count 0, so no level has ideal work to divide by
    out = tmp_path / "run"
    code = cli_main(["run", "--problem", "pde_test1", "--maxit", "0", "--mesh-cells", "4", "--n-max", "60",
                     "--out-dir", str(out)])
    assert code == 3
    # every solution is the zero start, so every surplus is 0: the refinement
    # would stop on tolerance, but it read untrusted QoIs
    assert "stop=lanes_unconverged" in capsys.readouterr().out
    assert sorted(f.name for f in out.iterdir()) == ["iterations_by_level.csv", "manifest.json", "r_table.csv"]
    rows = [line.split(",") for line in (out / "r_table.csv").read_text().splitlines()[1:]]
    assert rows and all(row[5] == "nan" or row[6] == "nan" for row in rows)
    [report] = parse_manifest(out / "manifest.json")
    assert report.stop_reason == "lanes_unconverged"
    assert all(math.isnan(r) for r in report.work_ratios.values())
    assert all(math.isnan(p.work_ratio) for lv in report.levels for p in lv.plans)


def test_cli_flags_override_config_file_keys(tmp_path):
    doc = preset_config("pde_test2").to_dict()
    doc["solver"]["tol"] = 1e-9
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    args = _build_parser().parse_args(
        ["run", "--config", str(cfg_path), "--maxit", "50", "--mesh-cells", "6",
         "--S", "8", "--strategies", "nat, its", "--out-dir", str(tmp_path)]
    )
    assert _config_from_args(args) == dataclasses.replace(
        preset_config("pde_test2"), ensemble_size=8, strategies=("nat", "its"),
        solver=SolverConfig(tol=1e-9, maxit=50), mesh=MeshConfig(mesh_cells=6),
    )


def test_cli_config_unknown_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"problem": "analytic_g1", "Tau": 1e-9}))
    code = cli_main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")])
    assert code == 1
    assert "'Tau'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [(["pde_test1"], "expected a JSON object"),
     ({"problem": "pde_test1", "solver": "x"}, "config.solver: expected an object")],
)
def test_cli_config_not_an_object(tmp_path, capsys, doc, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    code = cli_main(["run", "--config", str(cfg_path), "--tol", "1e-8", "--out-dir", str(tmp_path)])
    assert code == 1
    assert message in capsys.readouterr().err


def test_cli_missing_config_file(tmp_path, capsys):
    code = cli_main(
        ["run", "--config", str(tmp_path / "none.json"), "--out-dir", str(tmp_path)]
    )
    assert code == 1
    capsys.readouterr()


def test_cli_config_file_matches_flags(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(preset_config("analytic_g2").to_dict()))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--config", str(cfg_path), "--out-dir", str(out_a)]) == 2
    assert cli_main(["run", "--problem", "analytic_g2", "--out-dir", str(out_b)]) == 2
    capsys.readouterr()
    for name in ("r_table.csv", "manifest.json", "iterations_by_level.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_cli_residual_dump(tmp_path, capsys):
    out = tmp_path / "run"
    code = cli_main(
        ["run", "--problem", "pde_test1", "--mesh-cells", "4", "--n-max", "48",
         "--strategies", "nat", "--dump-residuals", "--out-dir", str(out)]
    )
    assert code == 2
    capsys.readouterr()
    files = sorted(out.glob("residuals_level1_ens*.csv"))
    assert len(files) == 12  # 48 samples in width-4 ensembles
    lines = files[0].read_text().splitlines()
    assert lines[0] == "iteration,lane0,lane1,lane2,lane3"
    assert lines[1].split(",")[0] == "0"
    assert all(float(v) > 0 for v in lines[1].split(",")[1:])


def test_cli_base_curve_pde(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    curve.write_text("4,2.72\n8,4.4\n")
    out = tmp_path / "run"
    code = cli_main(
        ["run", "--problem", "pde_test1", "--mesh-cells", "4", "--n-max", "48",
         "--strategies", "nat", "--base-curve", str(curve), "--out-dir", str(out)]
    )
    assert code == 2
    capsys.readouterr()
    reports = parse_manifest(out / "manifest.json")
    rep = reports[0]
    assert rep.predicted_speedups is not None
    assert rep.predicted_speedups["nat"] == pytest.approx(
        2.72 / rep.work_ratios["nat"], rel=1e-12
    )
    # the summary row carries the same number
    rows = [l.split(",") for l in (out / "r_table.csv").read_text().splitlines()[1:]]
    summary = [r for r in rows if r[2] == ""][0]
    assert float(summary[7]) == rep.predicted_speedups["nat"]


@pytest.mark.parametrize("config", [{"problem": "pde_test1", "field": {"a_hat": "test3"}}, None],
                         ids=["field-fails", "n-max-below-initial-grid"])
def test_cli_makes_no_out_dir_for_a_run_that_fails_before_writing(tmp_path, capsys, config):
    out = tmp_path / "run"
    if config is None:
        args = ["--problem", "pde_test1", "--n-max", "10"]
    else:
        (tmp_path / "config.json").write_text(json.dumps(config))
        args = ["--config", str(tmp_path / "config.json")]
    assert cli_main(["run", *args, "--out-dir", str(out)]) == 1
    assert "uqgroup: error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_analytic_study.py", ["--sizes", "3", "4", "--budgets", "100", "--problems", "analytic_g1"]),
        ("run_pde_study.py", ["--sizes", "3", "--problems", "pde_test1", "--mesh-cells", "4", "--n-max", "60"]),
    ],
)
def test_study_scripts_write_their_table(tmp_path, script, args):
    out = tmp_path / "study"
    script_path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", script)
    proc = subprocess.run([sys.executable, script_path, *args, "--out-dir", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (out / "r_table.csv").read_text().startswith("strategy,S,level,")


def test_console_script_smoke(tmp_path):
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "uqgroup.cli", "run", "--problem", "analytic_g2",
         "--out-dir", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert (out / "manifest.json").exists()
    assert "R(its)" in proc.stdout


@pytest.mark.parametrize(
    "args",
    [
        ["--problem", "pde_test1", "--n-max", "60"],
        # 23^3 = 12,167 dofs: past the length at which OpenBLAS splits a dot
        # across its threads
        ["--problem", "pde_test1", "--mesh-cells", "24", "--initial-level", "0", "--n-max", "16"],
    ],
    ids=["16cube", "24cube"],
)
def test_outputs_do_not_depend_on_blas_threads(tmp_path, args):
    outs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "uqgroup.cli", "run", *args, "--out-dir", str(out)],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
        )
        assert proc.returncode in (0, 2), proc.stderr
        outs[threads] = {f.name: f.read_bytes() for f in out.iterdir()}
    assert {"r_table.csv", "manifest.json", "iterations_by_level.csv"} <= outs["1"].keys()
    assert outs["1"].keys() == outs["2"].keys()
    for name, data in outs["1"].items():
        assert data == outs["2"][name], name
