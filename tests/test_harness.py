"""Tests for the adaptive study driver, its record types and the CLI."""

import dataclasses
import json
import math
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from uqgroup import (
    AnalyticConfig,
    ConfigurationError,
    GroupingPlan,
    HierGrid,
    MeshConfig,
    NumericalBreakdownError,
    RunConfig,
    SolverConfig,
    adaptive_run,
    compute_R,
    emit_reports,
    ensemble_pcg,
    parse_manifest,
    preset_config,
)
from uqgroup import cli, harness
from uqgroup import ensemble as ensemble_module
from uqgroup.harness import (
    RunReport,
    analytic_iters,
    analytic_qoi,
    config_from_dict,
    read_base_curve,
)
from uqgroup.cli import _build_parser, _config_from_args, main as cli_main


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


def test_g2_custom_radii():
    got = analytic_qoi(np.array([[0.0, 0.0]]), "g2", r1=0.2, r2=0.6)[0]
    assert got == 1.0


def test_analytic_qoi_unknown():
    with pytest.raises(ConfigurationError):
        analytic_qoi(np.zeros((1, 2)), "g3")


def test_iteration_profile_peak_and_floor():
    assert analytic_iters(np.array([[0.0, 0.0]]))[0] == pytest.approx(2.0)
    # one e-folding length along y1 for a1 = 1
    got = analytic_iters(np.array([[1.0, 0.0]]), a1=1.0, a2=1.0)[0]
    assert got == pytest.approx(1.0 + np.exp(-1.0), rel=1e-15)
    far = analytic_iters(np.array([[40.0, 40.0]]))[0]
    assert far == pytest.approx(1.0, abs=1e-12)


def test_iteration_profile_centre_shift():
    got = analytic_iters(np.array([[0.3, -0.7]]), u1=0.3, u2=-0.7)[0]
    assert got == pytest.approx(2.0)


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
        {"analytic": None},
        {"mesh": MeshConfig()},  # mesh and field blocks are PDE-only
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


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"problem": "analytic_g1", "s": 64, "Tau": 1e-9}, "Tau"),
        ({"problem": "pde_test1", "solver": {"maxiter": 5}}, "maxiter"),
        ({"problem": "pde_test1", "field": {"sigma": 1.0}}, "sigma"),
        ({"problem": "pde_test1", "field": {"a_hat_mode": "test2"}}, "a_hat_mode"),
        ({"problem": "pde_test1", "field": {"a_hat.mode": "test2"}}, "a_hat.mode"),
        ({"problem": "pde_test1", "field": {"a_hat": {"mode": "test2", "vlaue": 2.0}}}, "vlaue"),
        ({"problem": "pde_test1", "mesh": {"cells": 8}}, "cells"),
        ({"problem": "analytic_g1", "analytic": {"a3": 1.0}}, "a3"),
    ],
)
def test_config_from_dict_rejects_unknown_keys(doc, key):
    with pytest.raises(ConfigurationError, match=f"unknown key.*{key}"):
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
        {"field": {"a_hat": "test2"}},
        {"n_dims": 4, "field": {"N": 3}},
    ],
)
def test_config_from_dict_rejects_bad_values(patch):
    with pytest.raises(ConfigurationError):
        config_from_dict({"problem": "pde_test1", **patch})


def test_config_from_dict_absent_keys_take_preset_values():
    # absent keys fall back to the preset also inside a block, so a partial
    # field block keeps pde_test2's coefficient mode and sigma convention
    cfg = config_from_dict({"problem": "pde_test2", "S": 8, "field": {"delta": 0.5}})
    preset = preset_config("pde_test2")
    assert cfg == dataclasses.replace(
        preset, ensemble_size=8, field=dataclasses.replace(preset.field, delta=0.5)
    )


def test_solver_config_validated_on_construction():
    for bad in ({"tol": 0.0}, {"tol": math.inf}, {"maxit": -1}):
        with pytest.raises(ConfigurationError):
            SolverConfig(**bad)
    assert SolverConfig(maxit=0).maxit == 0


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


def test_sample_ids_unique_and_dense(g1_report):
    ids = [sid for lv in g1_report.levels for sid in lv.samples.sample_id]
    assert ids == list(range(len(ids)))


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
    assert by_strat["sur"].ensembles == by_strat["nat"].ensembles


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
    # rebuild each strategy's R from the stored plans and iteration counts
    iters = {
        sid: its for lv in g1_report.levels for sid, its in zip(lv.samples.sample_id, lv.samples.iterations)
    }
    cfg = g1_report.config
    for strat, want in g1_report.work_ratios.items():
        levels = []
        for lv in g1_report.levels:
            plan_rec = next(p for p in lv.plans if p.strategy == strat)
            plan = GroupingPlan(
                level=lv.level,
                ensemble_size=cfg["S"],
                ensembles=plan_rec.ensembles,
                padding=plan_rec.padding,
            )
            slot_iters = [[iters[i] for i in group] for group in plan_rec.ensembles]
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


def test_strategy_choice_does_not_change_physics():
    base = adaptive_run(preset_config("analytic_g2", strategies=("nat",)))
    other = adaptive_run(preset_config("analytic_g2", strategies=("its", "sur")))
    assert len(base.levels) == len(other.levels)
    for lv_a, lv_b in zip(base.levels, other.levels):
        assert lv_a.samples == lv_b.samples
    assert base.grid == other.grid


def test_repeat_run_identical(g1_report):
    again = adaptive_run(preset_config("analytic_g1"))
    assert again.to_dict() == g1_report.to_dict()


# ---------------------------------------------------------------------------
# a run small enough to check R by hand
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corner_report():
    # level-0 grid on [-2,2]^2 is just the four corners; n_max equal to the
    # initial batch forces a single-level run
    cfg = RunConfig(
        problem="analytic_g1",
        n_dims=2,
        ensemble_size=2,
        tau=5e-4,
        n_max=4,
        initial_level=0,
        strategies=("nat", "its"),
        solver=SolverConfig(),
        analytic=AnalyticConfig(a1=1.0, a2=1.0, u1=1.0, u2=1.0),
    )
    return adaptive_run(cfg)


def test_corner_run_shape(corner_report):
    assert corner_report.stop_reason == "budget_exhausted"
    assert len(corner_report.levels) == 1
    coords = corner_report.levels[0].samples.coords
    assert coords == ((-2.0, -2.0), (-2.0, 2.0), (2.0, -2.0), (2.0, 2.0))


def test_corner_run_hand_ratio(corner_report):
    samples = corner_report.levels[0].samples
    profile = analytic_iters(np.array(samples.coords), a1=1.0, a2=1.0, u1=1.0, u2=1.0)
    got = dict(zip(samples.sample_id, samples.iterations))
    assert got == {i: profile[i] for i in range(4)}
    # natural chunks: (0,1) and (2,3); width 2 => cost 2*(max per group)
    hand = 2.0 * (max(profile[0], profile[1]) + max(profile[2], profile[3]))
    hand /= profile.sum()
    assert corner_report.work_ratios["nat"] == pytest.approx(hand, rel=1e-14)
    # the ascending order coincides with the natural one here
    assert corner_report.work_ratios["its"] == pytest.approx(hand, rel=1e-14)
    plan = corner_report.levels[0].plans[0]
    assert plan.ensembles == ((0, 1), (2, 3)) and plan.padding == (0, 0)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def test_report_dict_round_trip(corner_report):
    doc = corner_report.to_dict()
    back = RunReport.from_dict(doc)
    assert back == corner_report
    # the dict itself must be JSON-clean
    assert json.loads(json.dumps(doc)) == doc


def test_report_from_dict_rejects_unknown_and_missing_keys(corner_report):
    doc = corner_report.to_dict()
    doc["levels"][0]["samples"]["iters"] = [3, 3, 3, 3]
    with pytest.raises(ConfigurationError, match=r"levels\[0\]\.samples.*'iters'"):
        RunReport.from_dict(doc)
    doc = corner_report.to_dict()
    doc["levels"][0]["samples"]["iterations"].pop()
    with pytest.raises(ConfigurationError, match="unequal length"):
        RunReport.from_dict(doc)
    doc = corner_report.to_dict()
    del doc["levels"][0]["plans"][0]["R_l"]
    with pytest.raises(ConfigurationError, match="missing key 'R_l'"):
        RunReport.from_dict(doc)


def test_emit_and_parse_round_trip(tmp_path, corner_report, g1_report):
    reports = [corner_report, g1_report]
    paths = emit_reports(reports, tmp_path)
    assert set(paths) == {"table", "manifest", "iterations"}
    back = parse_manifest(paths["manifest"])
    assert [r.to_dict() for r in back] == [r.to_dict() for r in reports]


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
    doc = {"format": 2, "reports": [corner_report.to_dict()]}
    assert text == json.dumps(doc, separators=(",", ":")) + "\n"
    assert text.count("\n") == 1
    samples = json.loads(text)["reports"][0]["levels"][0]["samples"]
    assert samples["sample_id"] == [0, 1, 2, 3] and samples["indicator"] is None


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
    want = float if report.config["problem"].startswith("analytic") else int
    assert {type(v) for lv in back[0].levels for v in lv.samples.iterations} == {want}


def test_lane_counters_agree_with_the_accounting(pde_report):
    assert pde_report.all_lanes_converged and len(pde_report.levels) == 2
    S = pde_report.config["S"]
    for lv in pde_report.levels:
        # the executed plan is "sur", which is generation order on level 1
        executed_plan = next(p for p in lv.plans if p.strategy == "sur")
        assert sum(executed_plan.padding) > 0
        assert lv.executed_lane_iterations / lv.useful_lane_iterations == executed_plan.work_ratio
        assert lv.useful_lane_iterations == sum(lv.samples.iterations)
        assert lv.executed_lane_iterations == S * lv.spmv_calls
        assert lv.frozen_lanes == lv.unconverged_lanes == 0
    assert pde_report.levels[1].executed_lane_iterations > pde_report.levels[1].useful_lane_iterations


def test_capped_run_counts_its_unconverged_lanes(capped_report):
    lv = capped_report.levels[0]
    assert lv.spmv_calls == 3 * len(next(p for p in lv.plans if p.strategy == "nat").ensembles)
    assert lv.unconverged_lanes == lv.executed_lane_iterations // 3


def test_analytic_levels_carry_no_lane_counters(g1_report):
    for lv in g1_report.levels:
        assert all(getattr(lv, name) is None for name in harness._LANE_COUNTERS)


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
    [({}, "format None is not format 2"), ({"format": 1}, "format 1 is not"),
     ({"format": 3}, "format 3 is not"), ({"format": "2"}, "format '2' is not"),
     ({"format": 2.0}, "format 2.0 is not")],
    ids=["no-format-key", "format-1", "format-3", "string-format", "float-format"],
)
def test_parse_manifest_refuses_other_formats(tmp_path, corner_report, top, match):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**top, "reports": [corner_report.to_dict()]}, indent=1) + "\n")
    with pytest.raises(ConfigurationError, match=match):
        parse_manifest(path)


def test_parse_manifest_rejects_unknown_top_level_keys(tmp_path, corner_report):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"format": 2, "reports": [corner_report.to_dict()], "extra": 1}))
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


def test_unconverged_lanes_mark_ratios_nan():
    cfg = _small_pde_config(solver=SolverConfig(maxit=3), base_curve=((4, 2.72),))
    rep = adaptive_run(cfg)
    assert not rep.all_lanes_converged
    assert any("lane(s) hit maxit (3) unconverged" in note for note in rep.notes)
    assert all(math.isnan(r) for r in rep.work_ratios.values())
    assert all(math.isnan(r) for s in cfg.strategies for r in rep.level_ratios(s))
    assert set(rep.predicted_speedups) == set(cfg.strategies)
    assert all(math.isnan(v) for v in rep.predicted_speedups.values())
    # the mark survives the manifest round trip
    assert not RunReport.from_dict(json.loads(json.dumps(rep.to_dict()))).all_lanes_converged


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
    """One CLI run of `pde_test1` in a process that sees n_cpus CPUs, with the
    team grain lowered so that any solve offered more than one thread forms a
    team; returns the exit code, the worker count of each level's pool, the
    threads offered to each solve and the residual sink's calls."""
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
    monkeypatch.setattr(ensemble_module, "_TEAM_GRAIN", 1)
    monkeypatch.setattr(cli, "adaptive_run", run)
    code = cli_main(["run", "--problem", "pde_test1", *args, "--n-max", "100",
                     "--dump-residuals", "--out-dir", str(out_dir)])
    return code, pools, teams, calls


def test_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, capsys):
    # Width 5 pads the last ensemble of both levels (48 and 52 samples): ten
    # and eleven ensembles, a pool worker per CPU and one thread per solve.
    # Width 48 on 343 rows (six row tiles) makes level 1 one ensemble and
    # level 2 two, the second padded: a solve's team is its worker's share of
    # the CPUs.
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
    # analytic runs have no lane counters
    assert text.splitlines()[2].split()[-3:-1] == ["-", "-"]


def test_cli_table_prints_lane_counters_and_mean_qoi(tmp_path, capsys, pde_report):
    emit_reports(pde_report, tmp_path)
    assert cli_main(["table", "--out-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split()[-3:] == ["executed", "useful", "mean_qoi"]
    for lv, line in zip(pde_report.levels, lines[2:]):
        cells = line.split()
        assert cells[0] == str(lv.level)
        assert cells[-3:] == [str(lv.executed_lane_iterations), str(lv.useful_lane_iterations),
                              f"{lv.mean_qoi:.6g}"]


def test_cli_table_refuses_an_old_manifest(tmp_path, capsys, corner_report):
    # the layout before format 2: no format key, indented
    (tmp_path / "manifest.json").write_text(json.dumps({"reports": [corner_report.to_dict()]}, indent=1))
    assert cli_main(["table", "--out-dir", str(tmp_path)]) == 1
    assert "manifest format None is not format 2" in capsys.readouterr().err


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
