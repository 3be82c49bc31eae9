#!/usr/bin/env python3
"""Check that two source trees write byte-identical study outputs.

Runs `python -m uqgroup.cli run` once per case with each tree's `src`
directory on PYTHONPATH, then compares the exit codes, the names of the
files each run wrote and the bytes of every one of them.  The cases are the
five presets, the `sg-refine` benchmark unit, a `pde_test1` run whose width
pads the last ensemble, a `pde_test1` run at width 1 (the kernels' scalar
path), a `pde_test2` run at the specialised width 16 on a 12^3 mesh, one at
width 33 on an 8^3 mesh (past the 32-lane stack accumulator, so every row
sums through memory), one at width 8 on the preset's 16^3 mesh (many
ensembles per level through the solve pool, at a width with no specialised
kernel copy), one that dumps every ensemble's residual history, one cut
off by a low `--maxit` (exit 3), and one whose only level is one width-16
ensemble on a 32^3 mesh (12 M lane-nonzeros, so on a machine of two or more
CPUs its solve runs on a thread team).  Prints one line per case and exits
1 on any difference.

    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 scripts/compare_outputs.py /tmp/parent/src src
"""

import argparse
import filecmp
import os
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
    "pde_test1-S7": ["--problem", "pde_test1", "--S", "7", "--n-max", "200"],
    "pde_test1-S1": ["--problem", "pde_test1", "--S", "1", "--mesh-cells", "8", "--n-max", "60"],
    "pde_test2-S16": ["--problem", "pde_test2", "--S", "16", "--mesh-cells", "12", "--n-max", "200"],
    "pde_test2-S33": ["--problem", "pde_test2", "--S", "33", "--mesh-cells", "8", "--n-max", "120"],
    "pde_test2-S8": ["--problem", "pde_test2", "--S", "8"],
    "pde_test1-residuals": ["--problem", "pde_test1", "--mesh-cells", "6", "--n-max", "100",
                            "--dump-residuals"],
    "pde_test1-maxit30": ["--problem", "pde_test1", "--maxit", "30", "--mesh-cells", "8",
                          "--n-max", "100"],
    "pde_test1-S16-32cube": ["--problem", "pde_test1", "--S", "16", "--mesh-cells", "32",
                             "--initial-level", "0", "--n-max", "16"],
}


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
        differ = 0
        for name, case_args in CASES.items():
            old, new = work / "old" / name, work / "new" / name
            codes = (run_case(args.old_src, case_args, old), run_case(args.new_src, case_args, new))
            diffs = differing_files(old, new)
            ok = codes[0] == codes[1] and not diffs
            differ += not ok
            written = len(list(new.iterdir())) if new.is_dir() else 0
            print(f"{name:<24} exit {codes[0]}/{codes[1]}  {written:>3} files  "
                  + ("identical" if ok else "DIFFERENT: " + (", ".join(diffs) or "exit code")), flush=True)
    print(f"{len(CASES) - differ} of {len(CASES)} cases identical")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
