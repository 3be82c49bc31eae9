#!/usr/bin/env python3
"""Grouping study on the 3D anisotropic diffusion problems.

For each selected problem and ensemble size this runs the adaptive
collocation loop with every applicable grouping strategy, writes the combined
output table and prints total work ratios plus the final-level gap between
the learned surrogate ordering and the post-hoc oracle.  Expect a few seconds
per run at the default 16^3 mesh.
"""

import argparse
from pathlib import Path

from uqgroup import MeshConfig, adaptive_run, emit_reports, preset_config


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("out/pde"))
    ap.add_argument("--sizes", type=int, nargs="+", default=[4, 8])
    ap.add_argument("--problems", nargs="+",
                    default=["pde_test1", "pde_test2"],
                    help="any of pde_test1, pde_test2, pde_isotropic_baseline")
    ap.add_argument("--mesh-cells", type=int, default=None,
                    help="override the spatial mesh resolution")
    ap.add_argument("--n-max", type=int, default=None,
                    help="override the collocation sample budget")
    args = ap.parse_args()

    overrides = {}
    if args.n_max is not None:
        overrides["n_max"] = args.n_max
    if args.mesh_cells is not None:
        overrides["mesh"] = MeshConfig(mesh_cells=args.mesh_cells)

    reports = []
    for problem in args.problems:
        for size in args.sizes:
            cfg = preset_config(problem, ensemble_size=size, **overrides)
            rep = adaptive_run(cfg)
            reports.append(rep)
            R = rep.work_ratios
            ratios = "  ".join(f"R({s})={R[s]:.4f}" for s in cfg.strategies)
            print(f"{problem} S={size}: {ratios}")
            if "sur" in R and "its" in R:
                gap = rep.level_ratios("sur")[-1] - rep.level_ratios("its")[-1]
                print(f"  final-level sur-its gap: {gap:+.4f}   "
                      f"levels={len(rep.levels)} samples={rep.n_samples_total} "
                      f"stop={rep.stop_reason}")

    paths = emit_reports(reports, args.out_dir)
    print(f"\nwrote {paths['table']}")


if __name__ == "__main__":
    main()
