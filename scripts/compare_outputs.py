#!/usr/bin/env python3
"""Check that two source trees write byte-identical study outputs.

Runs `python -m uqgroup.cli run` once per case with each tree's `src`
directory on PYTHONPATH, then compares the exit codes, the names of the
files each run wrote and the bytes of every one of them.  The cases are the
five presets, the `sg-refine` benchmark unit, an `analytic_g2` run to tau
1e-7 and 5,000 nodes (it reaches deep level vectors and both level-0
candidates in each dimension of the compiled hat sums), an `analytic_g1`
run at width 7 (float counts, a padded last ensemble and a width that is not
a power of two, so its bytes pin the sum order of the work ratios), a
`pde_test1` run whose width pads the last ensemble (a block of four lanes
and one of three), a `pde_test1` run at width 1 (one-lane blocks alone,
reading their input in place), one at width 2 and one at width 3 on an 8^3
mesh (a lone block of two or of three lanes per ensemble, until its solve
narrows to one lane), a `pde_test2` run at
width 16 (four blocks of four lanes) on a 12^3 mesh, one at width 33 on an
8^3 mesh (eight blocks of four and one of one), one at width 8 on the
preset's 16^3 mesh (many ensembles per level through the solve pool, two
blocks each), one at width 32 on a 10^3 mesh, one at width 64 on a 6^3 mesh
(sixteen blocks, each narrowing from four lanes to one as its lanes
converge), one that dumps every ensemble's residual history, one cut off by
a low `--maxit` (exit 3), one at `--maxit 0` (exit 3: every solution is the
zero start, so every surplus is 0 and the refinement alone would stop on
tolerance), one whose only level is one width-16 ensemble on a 32^3 mesh
(on a machine of two or more CPUs its four blocks run on two threads or
more), one whose only ensemble is 48 distinct samples on a 20^3 mesh
(twelve blocks, shared out the same way), one that requests `nat`, `par`
and `its` but not `sur` (it
executes generation order, which its lane counters pin), a 7-mode
`pde_test2` run on a 7^3 mesh, given as a `--config` document that the
script writes into its work directory (its modes (0,1,1), (1,0,1) and
(1,1,0) take the second 1D factor on two axes, which no 4-mode preset
reaches), and a `pde_test1` run whose `--config` document sets the field
block's sigma0 and a_min, a partial block that both a tree with the flat
field block and one with the nested format-4 block read.

Each `manifest.json` is also loaded by its own tree's `parse_manifest` in a
subprocess on that tree's PYTHONPATH, so that the two files may differ in
bytes across a change of the manifest format, and the values a tree derives
on load are compared even when the bytes are equal.  A fixed list of
attributes is compared, NaN equal to NaN: per level its number, sample
columns, error indicator, QoI mean, truncation mark, every plan's strategy,
order and R_l, all six lane counters and both prediction errors; per report
its work_ratios, predicted_speedups, stop_reason and notes.  Prints one line
per case: `identical`, `manifest moved, reports equal` (the case passes), or
the differing files, the first five differing attribute paths, the number
of differing values and the distinct attributes they are in, list indices
dropped (`$.levels.streamed_lane_iterations`); exits 1 on any difference
other than a moved manifest.

    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 scripts/compare_outputs.py /tmp/parent/src src
"""

import argparse
import filecmp
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

CASES = {
    "analytic_g1": ["--problem", "analytic_g1"],
    "analytic_g2": ["--problem", "analytic_g2"],
    "pde_test1": ["--problem", "pde_test1"],
    "pde_test2": ["--problem", "pde_test2"],
    "pde_isotropic_baseline": ["--problem", "pde_isotropic_baseline"],
    "sg-refine": ["--problem", "analytic_g1", "--S", "8", "--tau", "1e-6", "--n-max", "8000"],
    "analytic_g2-deep": ["--problem", "analytic_g2", "--tau", "1e-7", "--n-max", "5000"],
    "analytic_g1-S7": ["--problem", "analytic_g1", "--S", "7"],
    "pde_test1-S7": ["--problem", "pde_test1", "--S", "7", "--n-max", "200"],
    "pde_test1-S1": ["--problem", "pde_test1", "--S", "1", "--mesh-cells", "8", "--n-max", "60"],
    "pde_test1-S2": ["--problem", "pde_test1", "--S", "2", "--mesh-cells", "8", "--n-max", "60"],
    "pde_test1-S3": ["--problem", "pde_test1", "--S", "3", "--mesh-cells", "8", "--n-max", "60"],
    "pde_test2-S16": ["--problem", "pde_test2", "--S", "16", "--mesh-cells", "12", "--n-max", "200"],
    "pde_test2-S33": ["--problem", "pde_test2", "--S", "33", "--mesh-cells", "8", "--n-max", "120"],
    "pde_test2-S8": ["--problem", "pde_test2", "--S", "8"],
    "pde_test2-S32": ["--problem", "pde_test2", "--S", "32", "--mesh-cells", "10", "--n-max", "200"],
    "pde_test2-S64": ["--problem", "pde_test2", "--S", "64", "--mesh-cells", "6", "--n-max", "200"],
    "pde_test1-residuals": ["--problem", "pde_test1", "--mesh-cells", "6", "--n-max", "100",
                            "--dump-residuals"],
    "pde_test1-maxit30": ["--problem", "pde_test1", "--maxit", "30", "--mesh-cells", "8",
                          "--n-max", "100"],
    "pde_test1-maxit0": ["--problem", "pde_test1", "--maxit", "0", "--mesh-cells", "4", "--n-max", "60"],
    "pde_test1-S16-32cube": ["--problem", "pde_test1", "--S", "16", "--mesh-cells", "32",
                             "--initial-level", "0", "--n-max", "16"],
    "pde_test2-S48-team": ["--problem", "pde_test2", "--S", "48", "--mesh-cells", "20",
                           "--n-max", "48"],
    "pde_test1-no-sur": ["--problem", "pde_test1", "--strategies", "nat,par,its", "--mesh-cells", "8",
                         "--n-max", "100"],
    "pde_test2-7modes": ["--mesh-cells", "7", "--initial-level", "0", "--n-max", "200"],
    "pde_test1-field": ["--mesh-cells", "8", "--n-max", "100"],
}

# Cases run from a JSON configuration document; the flags of CASES override it.
CONFIGS = {
    "pde_test2-7modes": {"problem": "pde_test2", "n_dims": 7},
    "pde_test1-field": {"problem": "pde_test1", "field": {"sigma0": 10.0, "a_min": 0.2}},
}

# How many differing attribute paths to print per differing manifest.
SHOWN_PATHS = 5

# Run in a subprocess on one tree's PYTHONPATH: prints the compared
# attributes of each report in the manifest named by argv[1], as JSON.
REPORT_ATTRIBUTES = """
import json, sys
from uqgroup.harness import parse_manifest
LEVEL = ("level", "error_indicator", "mean_qoi", "budget_truncated",
         "executed_lane_iterations", "streamed_lane_iterations", "useful_lane_iterations",
         "spmv_calls", "frozen_lanes", "unconverged_lanes",
         "mean_abs_prediction_error", "max_abs_prediction_error")
SAMPLES = ("iterations", "predicted_iterations", "indicator")
REPORT = ("work_ratios", "predicted_speedups", "stop_reason", "notes")
print(json.dumps([
    {"levels": [{**{k: getattr(lv, k) for k in LEVEL},
                 "samples": {k: getattr(lv.samples, k) for k in SAMPLES},
                 "plans": [[p.strategy, p.order, p.work_ratio] for p in lv.plans]}
                for lv in report.levels],
     **{k: getattr(report, k) for k in REPORT}}
    for report in parse_manifest(sys.argv[1])
]))
"""


def run_case(src: Path, args: list[str], out_dir: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    cmd = [sys.executable, "-m", "uqgroup.cli", "run", *args, "--out-dir", str(out_dir)]
    return subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL).returncode


def differing_files(old: Path, new: Path) -> list[str]:
    """Names of the files written by only one run or with different bytes."""
    names = {f.name for d in (old, new) if d.is_dir() for f in d.iterdir()}
    return sorted(
        name for name in names
        if not ((old / name).is_file() and (new / name).is_file()
                and filecmp.cmp(old / name, new / name, shallow=False))
    )


def report_attributes(src: Path, manifest: Path):
    """The compared attributes of a manifest's reports, as its own tree's `parse_manifest` reads them."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    proc = subprocess.run([sys.executable, "-c", REPORT_ATTRIBUTES, str(manifest)],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        return {"parse_manifest failed": proc.stderr.strip().splitlines()[-1:]}
    return json.loads(proc.stdout)


def json_differences(old, new, path: str = "$"):
    """Yield the paths at which two parsed JSON documents hold different values.

    A list or object whose length or keys differ is one path; NaN equals NaN.
    """
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            yield from json_differences(old[key], new[key], f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from json_differences(a, b, f"{path}[{i}]")
    elif not (type(old) is type(new) and (old == new or old != old and new != new)):
        yield path


def report_differences(old_src: Path, new_src: Path, old: Path, new: Path) -> list[str]:
    """The paths of the attributes whose values differ between two runs' parsed reports."""
    old_doc = report_attributes(old_src, old / "manifest.json")
    new_doc = report_attributes(new_src, new / "manifest.json")
    return list(json_differences(old_doc, new_doc))


def attribute_names(paths: list[str]) -> list[str]:
    """The distinct attributes of the paths, list indices dropped: `$.levels.spmv_calls`."""
    return sorted({re.sub(r"\[\d+\]", "", path) for path in paths})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old_src", type=Path, help="src directory of the reference tree")
    ap.add_argument("new_src", type=Path, help="src directory of the tree under test")
    ap.add_argument("--work-dir", type=Path, help="keep the outputs here instead of a temporary directory")
    args = ap.parse_args()
    for src in (args.old_src, args.new_src):
        if not (src / "uqgroup" / "cli.py").is_file():
            ap.error(f"{src} holds no uqgroup package")

    with tempfile.TemporaryDirectory() as tmp:
        work = args.work_dir or Path(tmp)
        differ = moved = 0
        for name, case_args in CASES.items():
            old, new = work / "old" / name, work / "new" / name
            if name in CONFIGS:
                config = work / f"{name}.json"
                work.mkdir(parents=True, exist_ok=True)
                config.write_text(json.dumps(CONFIGS[name]))
                case_args = ["--config", str(config), *case_args]
            codes = (run_case(args.old_src, case_args, old), run_case(args.new_src, case_args, new))
            diffs = differing_files(old, new)
            paths = []
            if all((d / "manifest.json").is_file() for d in (old, new)):
                paths = report_differences(args.old_src, args.new_src, old, new)
            if codes[0] != codes[1] or (diffs and diffs != ["manifest.json"]) or paths:
                what = ["exit code"] * (codes[0] != codes[1]) + diffs + ["parsed reports"] * bool(paths)
                verdict = "DIFFERENT: " + ", ".join(what)
                differ += 1
            elif diffs:
                verdict = "manifest moved, reports equal"
                moved += 1
            else:
                verdict = "identical"
            written = len(list(new.iterdir())) if new.is_dir() else 0
            print(f"{name:<24} exit {codes[0]}/{codes[1]}  {written:>3} files  {verdict}", flush=True)
            for path in paths[:SHOWN_PATHS]:
                print(f"    {path}")
            if paths:
                print(f"    {len(paths)} differing values, in: {', '.join(attribute_names(paths))}")
    print(f"{len(CASES) - differ - moved} of {len(CASES)} cases identical, "
          f"{moved} with the manifest moved and the reports equal")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
