"""Command-line front end.

`uqgroup run` executes one grouped adaptive-refinement study and writes
r_table.csv, manifest.json and iterations_by_level.csv into --out-dir;
`uqgroup table` prints a previously written manifest as per-level rows: R_l
per strategy, executed, streamed and useful lane-iterations, the mean and
largest |predicted - iterations| of the surrogate's iteration counts (`-` on
level 1, before a surrogate exists, and for analytic runs, whose counts are a
closed-form proxy), and the QoI mean.  A run reads either a --config
document or a --problem preset, not both, and flags override its keys; a
PDE problem's field block holds sigma0, a_min and a_hat ("constant" or
"test2").  The stop reason is tolerance_met, budget_exhausted, or
lanes_unconverged whenever a lane stopped unconverged.  Exit codes: 0 when
the run stopped on tolerance, 2 when it exhausted the sample budget, 3 when
a lane stopped unconverged (every R is then NaN), 1 on any error (bad flags
included).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .harness import (
    ANALYTIC_PROBLEMS,
    PDE_PROBLEMS,
    ConfigurationError,
    RunConfig,
    adaptive_run,
    config_from_dict,
    emit_reports,
    parse_manifest,
    read_base_curve,
)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="uqgroup", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one adaptive grouping study")
    source = run_p.add_mutually_exclusive_group()
    source.add_argument("--config", type=Path, help="JSON run configuration")
    source.add_argument(
        "--problem",
        choices=ANALYTIC_PROBLEMS + PDE_PROBLEMS,
        help="named preset, instead of a --config document",
    )
    run_p.add_argument("--out-dir", type=Path, required=True)
    run_p.add_argument("--strategies", help="comma list drawn from nat,par,sur,its")
    run_p.add_argument("--S", type=int, help="ensemble width")
    run_p.add_argument("--tau", type=float, help="refinement tolerance")
    run_p.add_argument("--n-max", type=int, help="total sample budget")
    run_p.add_argument("--initial-level", type=int)
    run_p.add_argument("--mesh-cells", type=int)
    run_p.add_argument("--tol", type=float, help="linear solver relative tolerance")
    run_p.add_argument("--maxit", type=int, help="linear solver iteration cap")
    run_p.add_argument(
        "--base-curve", type=Path,
        help="CSV of measured perfect-grouping speed-ups, columns S,speedup",
    )
    run_p.add_argument(
        "--dump-residuals", action="store_true", default=None,
        help="write per-ensemble lane residual histories next to the run outputs",
    )

    table_p = sub.add_parser("table", help="print the table for an existing run")
    table_p.add_argument("--out-dir", type=Path, required=True)
    return parser


# Keys of the configuration document that flags override; a flag is named
# after the last part of its key, and "block.key" is a key inside a block.
_FLAG_KEYS = ("S", "strategies", "tau", "n_max", "initial_level", "mesh.mesh_cells",
              "solver.tol", "solver.maxit", "base_curve", "dump_residuals")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.config is not None:
        doc = json.loads(args.config.read_text())
        if not isinstance(doc, dict):
            raise ConfigurationError(f"{args.config}: expected a JSON object")
    elif args.problem is not None:
        doc = {"problem": args.problem}
    else:
        raise ValueError("give either --config or --problem")
    flags = vars(args).copy()
    if args.strategies is not None:
        flags["strategies"] = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if args.base_curve is not None:
        flags["base_curve"] = read_base_curve(args.base_curve)
    for path in _FLAG_KEYS:
        block, _, key = path.rpartition(".")
        if flags[key] is not None:
            target = doc
            if block:
                target = doc[block] = doc.get(block) or {}
                if not isinstance(target, dict):
                    raise ConfigurationError(f"config.{block}: expected an object, got {target!r}")
            target[key] = flags[key]
    return config_from_dict(doc)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    out_dir: Path = args.out_dir

    # out_dir is made by its first write, so a run that fails before it leaves none.
    sink = None
    if config.dump_residuals:
        def sink(level: int, ensemble: int, history) -> None:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"residuals_level{level}_ens{ensemble}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(
                    ["iteration"] + [f"lane{s}" for s in range(config.ensemble_size)]
                )
                for it, norms in enumerate(history):
                    writer.writerow([it] + [repr(float(v)) for v in norms])

    report = adaptive_run(config, residual_sink=sink)
    emit_reports(report, out_dir)

    print(f"problem={config.problem} S={config.ensemble_size} "
          f"levels={len(report.levels)} samples={report.n_samples_total} "
          f"stop={report.stop_reason}")
    for strat in config.strategies:
        line = f"  R({strat}) = {report.work_ratios[strat]:.4f}"
        if report.predicted_speedups is not None:
            line += f"  predicted speed-up = {report.predicted_speedups[strat]:.3f}"
        print(line)
    for note in report.notes:
        print(f"  note: {note}")
    if not report.all_lanes_converged:
        return 3
    return 0 if report.stop_reason == "tolerance_met" else 2


def _cmd_table(args: argparse.Namespace) -> int:
    for report in parse_manifest(args.out_dir / "manifest.json"):
        cfg = report.config
        strategies = cfg.strategies
        print(f"problem={cfg.problem} S={cfg.ensemble_size} stop={report.stop_reason} "
              f"samples={report.n_samples_total}")
        pde = cfg.is_pde
        print("  level  n_samples" + "".join(f"  R({s:>3})" for s in strategies)
              + "    executed    streamed      useful  mean_err   max_err    mean_qoi")
        for lv in report.levels:
            cells = "".join(f"  {p.work_ratio:6.3f}" for p in lv.plans)
            counts = "".join(f"  {'-' if v is None else v:>10}"
                             for v in (lv.executed_lane_iterations, lv.streamed_lane_iterations,
                                       lv.useful_lane_iterations))
            errors = "".join(f"  {'-':>8}" if v is None or not pde else f"  {v:8.3f}"
                             for v in (lv.mean_abs_prediction_error, lv.max_abs_prediction_error))
            print(f"  {lv.level:5d}  {len(lv.samples):9d}{cells}{counts}{errors}  {lv.mean_qoi:10.6g}")
        if strategies:
            total = "".join(f"  {report.work_ratios[s]:6.3f}" for s in strategies)
            print(f"  total           {total}")
            if report.predicted_speedups is not None:
                pred = "".join(f"  {report.predicted_speedups[s]:6.3f}" for s in strategies)
                print(f"  speed-up        {pred}")
        print()
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
        return 1
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_table(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary, every failure is exit 1
        print(f"uqgroup: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
