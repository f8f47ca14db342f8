"""Interleaved in-process A/B of one solver round between two trees.

    python3 tools/phase_compare.py <tree_a> <tree_b> [--scene 20x1500] [--round 13] [--reps 40] [--seed 41]
                                   [--dtype float64]

Loads the `src/gbp_ba` of each checkout into one process, each under a
module name of its own, with one BLAS thread, as perfbench.  With tree A it
makes `perturb(synthesize(K, L, seed=S, pixel_sigma=1), 0.05, "backproject",
seed=S + 1)` for `--scene KxL` and `--seed S` and saves it once.  Each tree
then loads and builds its own graph, casts it to `--dtype` with `astype`
and runs it to just before `--round`: round 13 is a plain round, and round
11 relinearises every factor.  Each rep runs that round on a fresh `copy()`
of each tree's graph, the two in random order.  Prints per tree the median
and quartiles (ms) of the whole round and of each `IterationReport.phase_ms`
entry, the reps in which tree B was faster, and whether the two trees'
reports (without `phase_ms`) and graph arrays after the round are
bit-identical; where they are not, the three largest relative differences
and where they are.  About 3 s at its defaults and 6 s at `--scene 60x3000
--reps 10` on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import os
import random
import sys
import tempfile
import time
from pathlib import Path

os.environ.update({name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import numpy as np  # noqa: E402

from trace_compare import relative  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", type=Path, nargs=2, help="two checkouts holding src/gbp_ba")
    parser.add_argument("--scene", default="20x1500", help="keyframes x landmarks (default 20x1500)")
    parser.add_argument("--round", type=int, default=13, help="the round to time, from 1 (default 13)")
    parser.add_argument("--reps", type=int, default=40)
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--dtype", choices=("float64", "float32"), default="float64")
    args = parser.parse_args(argv)
    try:
        args.scene = tuple(int(n) for n in args.scene.split("x"))
    except ValueError:
        args.scene = ()
    if len(args.scene) != 2 or min(args.scene) < 1:
        parser.error(f"--scene takes KxL with K, L >= 1, got {args.scene}")
    if args.round < 1 or args.reps < 1:
        parser.error("--round and --reps must be >= 1")
    return args


def load_package(tree: Path, name: str):
    """The `src/gbp_ba` package of `tree`, imported as `name`."""
    package = tree.resolve() / "src" / "gbp_ba"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # before it runs, so its relative imports find it
    spec.loader.exec_module(module)
    return module


def _fields(report) -> dict:
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report) if f.name != "phase_ms"}


def _arrays(graph) -> dict:
    return {name: value for name, value in vars(graph).items() if isinstance(value, np.ndarray)}


def differences(a, b) -> list:
    """(relative difference, what) of every report field and graph array
    that is not bit-identical between the rounds `a` and `b`, each a (report,
    graph)."""
    out = []
    for what, (x, y) in (("report", (_fields(a[0]), _fields(b[0]))), ("array", (_arrays(a[1]), _arrays(b[1])))):
        for name in sorted(x.keys() | y.keys()):
            diff = relative(x[name], y[name]) if name in x and name in y else np.inf
            if diff:
                out.append((diff, f"{what} {name}"))
    return out


def _quartiles(values) -> str:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return f"{median:8.2f} [{q1:7.2f}, {q3:7.2f}]"


def main(argv=None) -> None:
    args = _parse(argv)
    packages = [load_package(tree, f"gbp_ba_tree_{side}") for tree, side in zip(args.trees, "ab")]
    (n_kf, n_lm), seed = args.scene, args.seed
    graphs = []
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "scene.txt"
        first = packages[0]
        first.save(first.perturb(first.synthesize(n_kf, n_lm, seed=seed, pixel_sigma=1), 0.05, "backproject",
                                 seed=seed + 1), path)
        for package in packages:
            graph = package.build(package.load(path)).astype(args.dtype)
            package.run(graph, n=args.round - 1)
            graphs.append(graph)

    order, times, phases, after = random.Random(seed), ([], []), ({}, {}), [None, None]
    for _ in range(args.reps):
        for side in order.sample(range(2), 2):
            graph = graphs[side].copy()
            gc.collect()
            start = time.perf_counter()
            report = packages[side].iterate(graph)
            times[side].append(1e3 * (time.perf_counter() - start))
            for phase, ms in report.phase_ms.items():
                phases[side].setdefault(phase, []).append(ms)
            after[side] = after[side] or (report, graph)

    report = after[0][0]
    print(f"A {args.trees[0]}\nB {args.trees[1]}")
    print(f"scene {n_kf}x{n_lm} ({graphs[0].n_measurement_factors} factors), {args.dtype}, seed {seed}, "
          f"round {args.round} ({report.n_relinearized} relinearised), {args.reps} reps; ms, median [quartiles]")
    print(f"{'':12} {'A':>26} {'B':>26}  B faster")
    rows = [("round", *times)] + [(phase, phases[0].get(phase, []), phases[1].get(phase, []))
                                  for phase in dict.fromkeys([*phases[0], *phases[1]])]
    for name, a, b in rows:
        if len(a) == len(b) == args.reps:
            faster = sum(y < x for x, y in zip(a, b))
            print(f"{name:12} {_quartiles(a):>26} {_quartiles(b):>26}  {faster}/{args.reps}")
        else:
            print(f"{name:12} timed by one tree alone")
    differ = differences(*after)
    if not differ:
        print("reports and graph arrays after the round: bit-identical")
    else:
        worst = ", ".join(f"{where} {diff:.2g}" for diff, where in sorted(differ, reverse=True)[:3])
        print(f"reports and graph arrays after the round: {len(differ)} differ; largest relative differences {worst}")


if __name__ == "__main__":
    main()
