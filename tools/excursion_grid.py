"""Count the excursions of long solves on sparse scenes: rounds in which a
measurement lies behind its camera, and how far ARE climbs after it first
reaches the target.

    python3 tools/excursion_grid.py <tree> [--rounds 300]

Imports `gbp_ba` from the checkout at <tree>.  For `vis_radius` r in 0.85
and 1.0 and seeds s in 41-47 it makes `perturb(synthesize(60, 3000, seed=s,
pixel_sigma=1, vis_radius=r), 0.05, "backproject", seed=s + 1)`, builds it
and runs `--rounds` rounds of the tree's default `ScheduleParams` with
`engine.run`.  Per solve it prints the factor count, the first round whose
ARE is below 1.5 px ("-" for none), the rounds with `n_behind_camera` > 0,
the sum of `n_frozen_states` over the rounds, the peak ARE of the rounds
after that first hit and the final ARE; then the totals per `vis_radius`.
One BLAS thread; the output repeats exactly.  About 85 s on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

os.environ.update({name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

VIS_RADII = (0.85, 1.0)
SEEDS = range(41, 48)
TARGET_PX = 1.5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", type=Path, help="checkout holding src/gbp_ba")
    parser.add_argument("--rounds", type=int, default=300)
    return parser.parse_args(argv)


def main(argv=None) -> None:
    args = _parse(argv)
    tree = args.tree.resolve()
    sys.path.insert(0, str(tree / "src"))
    from gbp_ba import build, engine, perturb, synthesize

    if Path(engine.__file__).resolve().parents[2] != tree:
        sys.exit(f"imported gbp_ba from {engine.__file__}, not {tree}")
    print(f"{'vis':>5} {'seed':>4} {'factors':>7} {'hit':>4} {'behind':>6} {'frozen':>6} {'peak':>12} {'final':>10}")
    for vis in VIS_RADII:
        hits, behind_rounds, frozen, worst = 0, 0, 0, 0.0
        for seed in SEEDS:
            problem = synthesize(60, 3000, seed=seed, pixel_sigma=1, vis_radius=vis)
            graph = build(perturb(problem, 0.05, "backproject", seed=seed + 1))
            reports = engine.run(graph, engine.ScheduleParams(), n=args.rounds)
            hit = next((r.iteration for r in reports if r.are < TARGET_PX), None)
            behind = sum(r.n_behind_camera > 0 for r in reports)
            kept = sum(r.n_frozen_states for r in reports)
            peak = max((r.are for r in reports if r.iteration > hit), default=None) if hit else None
            print(f"{vis:5.2f} {seed:4d} {graph.n_measurement_factors:7d} {hit or '-':>4} {behind:6d} {kept:6d} "
                  f"{'-' if peak is None else f'{peak:.4f}':>12} {reports[-1].are:10.4f}", flush=True)
            hits += hit is not None
            behind_rounds += behind
            frozen += kept
            worst = max(worst, peak or 0.0)
        print(f"{vis:5.2f} total: {hits} of {len(SEEDS)} hit {TARGET_PX} px, {behind_rounds} rounds with a "
              f"measurement behind its camera, {frozen} frozen states, worst peak after a hit {worst:.4f}")


if __name__ == "__main__":
    main()
