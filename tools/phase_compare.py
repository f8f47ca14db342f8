"""Interleaved in-process A/B of a solver round or a keyframe arrival.

    python3 tools/phase_compare.py <tree_a> <tree_b> [--scene 20x1500] [--round 13] [--reps 40] [--seed 41]
                                   [--dtype float64] [--grow K]

Loads the `src/gbp_ba` of each checkout into one process, each under a
module name of its own, with one BLAS thread, as perfbench.  With tree A it
makes `perturb(synthesize(K, L, seed=S, pixel_sigma=1), 0.05, "backproject",
seed=S + 1)` for `--scene KxL` and `--seed S` and saves it once.  Each tree
then loads and builds its own graph, casts it to `--dtype` with `astype`
and runs it to just before `--round`: round 13 is a plain round, and round
11 relinearises every factor.  Each rep runs that round on a fresh `copy()`
of each tree's graph, the two in random order.

With `--grow K` the step timed is a keyframe arrival of the incremental
workload instead, on its scene size (44x30) unless `--scene` is given.  The
scene is ordered by first sight, and each tree builds its first keyframes
and adds the others up to K one at a time, each followed by a capped solve,
with the helpers and settings of its own `perfbench/workloads.py` (read
only), and casts the grown graph to `--dtype`.  Each rep then times, on a
fresh `copy()`, the arrival of keyframe K: `add_keyframe`, its new
landmarks, `add_measurements` and the capped solve.

Prints per tree the median and quartiles (ms) of the whole step and of each
`IterationReport.phase_ms` entry, summed over the step's rounds, the reps in
which tree B was faster, and whether the two trees' reports (without
`phase_ms`) and graph arrays after the step are bit-identical; where they
are not, the three largest relative differences and where they are.  About
3 s at its defaults, 6 s at `--scene 60x3000 --reps 10` and 3 s at `--grow
24` on 2 vCPUs.
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
    parser.add_argument("--scene", help="keyframes x landmarks (default 20x1500, with --grow 44x30)")
    parser.add_argument("--round", type=int, default=13, help="the round to time, from 1 (default 13)")
    parser.add_argument("--reps", type=int, default=40)
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--dtype", choices=("float64", "float32"), default="float64")
    parser.add_argument("--grow", type=int, metavar="K", help="time the arrival of keyframe K instead of a round")
    args = parser.parse_args(argv)
    scene = args.scene or ("20x1500" if args.grow is None else "44x30")
    try:
        args.scene = tuple(int(n) for n in scene.split("x"))
    except ValueError:
        args.scene = ()
    if len(args.scene) != 2 or min(args.scene) < 1:
        parser.error(f"--scene takes KxL with K, L >= 1, got {scene}")
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


def load_workloads(tree: Path, package, name: str):
    """The `perfbench/workloads.py` of `tree`, imported as `name`, with
    `package` standing in for `gbp_ba` while it imports."""
    aliases = {"gbp_ba": package, **{f"gbp_ba.{sub}": getattr(package, sub)
                                     for sub in ("camera", "dataset_io", "engine", "factor_graph")}}
    saved = {key: sys.modules.get(key) for key in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(name, tree.resolve() / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        for key, value in saved.items():
            if value is None:
                sys.modules.pop(key)
            else:
                sys.modules[key] = value
    return module


class Arrivals:
    """The incremental workload's arrivals on one tree: `grown(problem, k)`
    builds its first keyframes and adds the rest up to `k`, and `arrive`
    adds keyframe k to such a graph and runs the capped solve."""

    def __init__(self, package, workloads):
        self.package, self.workloads, self.cfg = package, workloads, workloads.INCREMENTAL
        self.schedule = package.ScheduleParams(are_target=workloads.ARE_TARGET_PX, max_iters=self.cfg["cap"])

    def grown(self, problem, k: int):
        graph = self.package.build(self.workloads._bootstrap(problem, self.cfg["bootstrap"]))
        self.package.solve(graph, self.schedule)
        for kf in range(self.cfg["bootstrap"], k):
            self.arrive(graph, problem, kf)
        return graph

    def arrive(self, graph, problem, kf: int):
        rows = np.flatnonzero(problem.meas_kf == kf)
        graph.add_keyframe(problem.kf_init[kf])
        while rows.size and graph.n_landmarks <= problem.meas_lm[rows].max():
            graph.add_landmark(problem.lm_init[graph.n_landmarks])
        graph.add_measurements(problem.meas_kf[rows], problem.meas_lm[rows], problem.meas_uv[rows],
                               problem.meas_sigma[rows])
        return self.package.solve(graph, self.schedule).reports


def _fields(report) -> dict:
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report) if f.name != "phase_ms"}


def _arrays(graph) -> dict:
    return {name: value for name, value in vars(graph).items() if isinstance(value, np.ndarray)}


def differences(a, b) -> list:
    """(relative difference, what) of every report field and graph array
    that is not bit-identical between the steps `a` and `b`, each a
    (reports, graph)."""
    out = []
    if len(a[0]) != len(b[0]):
        out.append((np.inf, f"rounds {len(a[0])} and {len(b[0])}"))
    pairs = [(f"report {i} ", _fields(x), _fields(y)) for i, (x, y) in enumerate(zip(a[0], b[0]))]
    for what, x, y in pairs + [("array ", _arrays(a[1]), _arrays(b[1]))]:
        for name in sorted(x.keys() | y.keys()):
            diff = relative(x[name], y[name]) if name in x and name in y else np.inf
            if diff:
                out.append((diff, what + name))
    return out


def _quartiles(values) -> str:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return f"{median:8.2f} [{q1:7.2f}, {q3:7.2f}]"


def main(argv=None) -> None:
    args = _parse(argv)
    packages = [load_package(tree, f"gbp_ba_tree_{side}") for tree, side in zip(args.trees, "ab")]
    (n_kf, n_lm), seed = args.scene, args.seed
    graphs, steps = [], []
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "scene.txt"
        first = packages[0]
        problem = first.perturb(first.synthesize(n_kf, n_lm, seed=seed, pixel_sigma=1), 0.05, "backproject",
                                seed=seed + 1)
        if args.grow is not None:
            problem = load_workloads(args.trees[0], first, "workloads_tree_a").order_by_first_sight(problem)
        first.save(problem, path)
        for tree, side, package in zip(args.trees, "ab", packages):
            problem = package.load(path)
            if args.grow is None:
                graph = package.build(problem).astype(args.dtype)
                package.run(graph, n=args.round - 1)
                steps.append(lambda graph, package=package: [package.iterate(graph)])
            else:
                arrivals = Arrivals(package, load_workloads(tree, package, f"workloads_tree_{side}"))
                if not arrivals.cfg["bootstrap"] <= args.grow < n_kf:
                    sys.exit(f"--grow takes K from {arrivals.cfg['bootstrap']} to {n_kf - 1}, got {args.grow}")
                graph = arrivals.grown(problem, args.grow).astype(args.dtype)
                steps.append(lambda graph, a=arrivals, p=problem: a.arrive(graph, p, args.grow))
            graphs.append(graph)

    order, times, phases, after = random.Random(seed), ([], []), ({}, {}), [None, None]
    for _ in range(args.reps):
        for side in order.sample(range(2), 2):
            graph = graphs[side].copy()
            gc.collect()
            start = time.perf_counter()
            reports = steps[side](graph)
            times[side].append(1e3 * (time.perf_counter() - start))
            for phase in dict.fromkeys(name for report in reports for name in report.phase_ms):
                phases[side].setdefault(phase, []).append(sum(r.phase_ms.get(phase, 0.0) for r in reports))
            after[side] = after[side] or (reports, graph)

    reports = after[0][0]
    print(f"A {args.trees[0]}\nB {args.trees[1]}")
    if args.grow is None:
        what = f"round {args.round} ({reports[0].n_relinearized} relinearised)"
    else:
        what = f"arrival of keyframe {args.grow} ({len(reports)} rounds, {graphs[0].n_measurement_factors} factors before)"
    print(f"scene {n_kf}x{n_lm} ({graphs[0].n_measurement_factors} factors), {args.dtype}, seed {seed}, "
          f"{what}, {args.reps} reps; ms, median [quartiles]")
    print(f"{'':12} {'A':>26} {'B':>26}  B faster")
    rows = [("round" if args.grow is None else "arrival", *times)]
    rows += [(phase, phases[0].get(phase, []), phases[1].get(phase, []))
             for phase in dict.fromkeys([*phases[0], *phases[1]])]
    for name, a, b in rows:
        if len(a) == len(b) == args.reps:
            faster = sum(y < x for x, y in zip(a, b))
            print(f"{name:12} {_quartiles(a):>26} {_quartiles(b):>26}  {faster}/{args.reps}")
        else:
            print(f"{name:12} timed by one tree alone")
    differ = differences(*after)
    if not differ:
        print("reports and graph arrays after the step: bit-identical")
    else:
        worst = ", ".join(f"{where} {diff:.2g}" for diff, where in sorted(differ, reverse=True)[:3])
        print(f"reports and graph arrays after the step: {len(differ)} differ; largest relative differences {worst}")


if __name__ == "__main__":
    main()
