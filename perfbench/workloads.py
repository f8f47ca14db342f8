"""The three benchmark workloads: problem generation and measured runs.

Every workload is a closed loop with one caller that drives only the public
gbp_ba API (`dataset_io.load`, `factor_graph.build`, `FactorGraph.add_*`,
`engine.solve` / `engine.run`) with the default `workers=1`.  Inputs are
generated from the seed with `dataset_io.synthesize` + `dataset_io.perturb`
and written with `dataset_io.save` before any timing starts.

A run performs a fixed amount of work (a "pass") and repeats whole passes,
with identical inputs, until at least `seconds` of measured time have
accumulated; counts from every repeat must equal those of the first pass.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gbp_ba import camera, dataset_io, engine, factor_graph
from gbp_ba.dataset_io import ProblemSpec

KEYFRAME_SIGMA_M = 0.05
ARE_TARGET_PX = 1.5
SETUP_REPEATS = 3

# Sizes.  batch-30k and ladder-180k are the 30k and 180k rungs of the
# ROADMAP problem ladder; incremental's scenes (~2.6k factors) are its 2k rung.
BATCH = {"n_keyframes": 20, "n_landmarks": 1500, "perturbed": True, "scenes": 3, "max_iters": 100}
LADDER = {"n_keyframes": 60, "n_landmarks": 3000, "perturbed": False, "scenes": 1, "iterations": 5}
INCREMENTAL = {"n_keyframes": 44, "n_landmarks": 30, "bootstrap": 4, "cap": 50, "scenes": 12}


class WrongOutput(RuntimeError):
    """A solver output failed a correctness check."""


@dataclass
class Measured:
    """Raw samples of one run; `summary` turns them into end-to-end metrics."""

    setup_s: list = field(default_factory=list)
    time_to_target_s: list = field(default_factory=list)
    iterations_to_target: list = field(default_factory=list)
    iter_ms: list = field(default_factory=list)
    final_are_px: list = field(default_factory=list)
    latency_ms: list = field(default_factory=list)  # one list of keyframe latencies per scene
    stream_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0       # solver calls that ended with non-finite states
    target_missed: int = 0
    target_solves: int = 0
    counts: list = field(default_factory=list)  # exact results, repeated passes must match
    graph_bytes: int = 0
    graph_factors: int = 0
    notes: dict = field(default_factory=dict)

    def summary(self, peak_rss_mb: float) -> dict:
        def med(values):
            return float(statistics.median(values))

        def scene_percentile(q):
            return med([np.percentile(scene, q) for scene in self.latency_ms])

        return {
            "setup_s": (med(self.setup_s), "s"),
            "time_to_target_s": (med(self.time_to_target_s), "s"),
            "iterations_to_target": (med(self.iterations_to_target), "count"),
            "iter_ms_p50": (med(self.iter_ms), "ms"),
            "final_are_px": (med(self.final_are_px), "px"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "keyframe_latency_p50_ms": (scene_percentile(50), "ms"),
            "keyframe_latency_p75_ms": (scene_percentile(75), "ms"),
            "stream_s": (med(self.stream_s), "s"),
        }


def graph_nbytes(graph) -> int:
    """Summed ndarray.nbytes of every array the graph holds (computed)."""
    return sum(v.nbytes for v in vars(graph).values() if isinstance(v, np.ndarray))


def generate(n_keyframes: int, n_landmarks: int, seed: int, perturbed: bool = True) -> ProblemSpec:
    """Synthetic scene with 1-px measurement noise.  Perturbed: keyframe
    translations get 5 cm noise and landmarks start on their first bearing
    ray at 1 m; otherwise the initial states are the ground truth."""
    problem = dataset_io.synthesize(n_keyframes, n_landmarks, seed=seed, pixel_sigma=1.0)
    if not perturbed:
        return problem
    return dataset_io.perturb(problem, KEYFRAME_SIGMA_M, "backproject", seed=seed)


def order_by_first_sight(problem: ProblemSpec) -> ProblemSpec:
    """Renumber landmarks in the order keyframes first observe them, so the
    landmarks known after k keyframes are a prefix of the landmark arrays."""
    first = np.full(problem.n_landmarks, problem.n_keyframes)
    np.minimum.at(first, problem.meas_lm, problem.meas_kf)
    order = np.argsort(first, kind="stable")
    new_id = np.empty_like(order)
    new_id[order] = np.arange(order.size)
    return ProblemSpec(
        intrinsics=problem.intrinsics,
        kf_init=problem.kf_init,
        lm_init=problem.lm_init[order],
        kf_gt=problem.kf_gt,
        lm_gt=problem.lm_gt[order],
        meas_kf=problem.meas_kf,
        meas_lm=new_id[problem.meas_lm],
        meas_uv=problem.meas_uv,
        meas_sigma=problem.meas_sigma,
        metadata=problem.metadata,
    )


def reprojection_error(graph) -> float:
    """ARE recomputed from the states by the benchmark itself."""
    uv, depth = camera.project_many(graph.kf_state[graph.f_kf], graph.lm_state[graph.f_lm], graph.intrinsics)
    if np.any(depth <= camera.DEPTH_EPSILON):
        return float("inf")
    return float(np.mean(np.linalg.norm(graph.f_z - uv, axis=1)))


def states_finite(graph) -> bool:
    return bool(np.all(np.isfinite(graph.kf_state)) and np.all(np.isfinite(graph.lm_state)))


def check_graph(graph, reported_are: float, what: str) -> None:
    """Checks every solver output must pass; raises WrongOutput otherwise."""
    bad = {k: v for k, v in graph.validate().items() if v}
    if bad:
        raise WrongOutput(f"{what}: graph.validate() reports {bad}")
    are = reprojection_error(graph)
    if not np.isclose(are, reported_are, rtol=1e-9, atol=1e-9):
        raise WrongOutput(f"{what}: reported ARE {reported_are!r} but the states give {are!r}")


def timed_solve(graph, schedule, measured: Measured, what: str):
    """`engine.solve` with per-iteration times taken from its callback.
    Returns (report, wall seconds, per-iteration milliseconds)."""
    stamps = [time.perf_counter()]
    report = engine.solve(graph, schedule, callback=lambda g, r: stamps.append(time.perf_counter()))
    elapsed = time.perf_counter() - stamps[0]
    measured.attempted += 1
    if not states_finite(graph):
        measured.failed += 1
        raise WrongOutput(f"{what}: non-finite states")
    if report.converged and not report.final_are < schedule.are_target:
        raise WrongOutput(f"{what}: converged with ARE {report.final_are} >= {schedule.are_target}")
    measured.target_solves += 1
    measured.target_missed += int(not report.converged)
    return report, elapsed, list(np.diff(stamps) * 1e3)


def timed_setup(path: Path, measured: Measured, subset=None):
    """Load + build, timed as one set-up sample; returns the build time too.
    `subset` picks the part of the loaded problem that is built."""
    t0 = time.perf_counter()
    problem = dataset_io.load(path)
    t1 = time.perf_counter()
    graph = factor_graph.build(problem if subset is None else subset(problem))
    t2 = time.perf_counter()
    measured.setup_s.append(t2 - t0)
    return problem, graph, t2 - t1


# ------------------------------------------------- batch-30k, ladder-180k


def scene_seed(seed: int, scene: int) -> int:
    return seed * 100 + scene


def prepare_single(seed: int, workdir: Path, cfg: dict) -> dict:
    paths = []
    for scene in range(cfg["scenes"]):
        problem = generate(cfg["n_keyframes"], cfg["n_landmarks"], scene_seed(seed, scene), cfg["perturbed"])
        paths.append(workdir / f"scene{scene}.gbpba")
        dataset_io.save(problem, paths[-1])
    return {"paths": paths}


def _record_single(measured: Measured, graph, build_s: float, elapsed: float, iterations: int, final_are: float):
    """A batch problem is a stream with one arrival that holds every keyframe."""
    measured.time_to_target_s.append(elapsed)
    measured.iterations_to_target.append(iterations)
    measured.final_are_px.append(final_are)
    measured.latency_ms.append([(build_s + elapsed) * 1e3])
    measured.stream_s.append(build_s + elapsed)
    measured.counts.append((iterations, final_are))
    measured.graph_bytes, measured.graph_factors = graph_nbytes(graph), graph.n_measurement_factors


def batch_pass(inputs: dict, measured: Measured, cfg: dict) -> None:
    """Per scene, one cold solve to the ARE target from a fresh load + build.
    The iteration cap keeps a stalled solve (a miss) from stretching a run."""
    for path in inputs["paths"]:
        _, graph, build_s = timed_setup(path, measured)
        schedule = engine.ScheduleParams(are_target=ARE_TARGET_PX, max_iters=cfg["max_iters"])
        report, elapsed, iter_ms = timed_solve(graph, schedule, measured, "batch solve")
        measured.iter_ms.extend(iter_ms)
        check_graph(graph, report.final_are, "batch solve")
        _record_single(measured, graph, build_s, elapsed, report.iterations, report.final_are)
        del graph


def ladder_pass(inputs: dict, measured: Measured, cfg: dict) -> None:
    """A fixed number of `engine.run` iterations from a fresh load + build,
    after extra set-ups whose graphs are dropped, for the set-up median."""
    for _ in range(SETUP_REPEATS - 1):
        timed_setup(inputs["paths"][0], measured)
    _, graph, build_s = timed_setup(inputs["paths"][0], measured)
    initial_are = graph.average_reprojection_error()
    schedule = engine.ScheduleParams(are_target=ARE_TARGET_PX)
    reports = []
    t_start = time.perf_counter()
    for _ in range(cfg["iterations"]):
        t0 = time.perf_counter()
        reports += engine.run(graph, schedule, n=1)
        measured.iter_ms.append((time.perf_counter() - t0) * 1e3)
        measured.attempted += 1
    elapsed = time.perf_counter() - t_start
    if not states_finite(graph):
        measured.failed += 1
        raise WrongOutput("ladder run: non-finite states")
    final_are = reports[-1].are
    if not final_are < initial_are:
        raise WrongOutput(f"ladder run: ARE went from {initial_are} to {final_are}")
    check_graph(graph, final_are, "ladder run")
    _record_single(measured, graph, build_s, elapsed, len(reports), final_are)


# ------------------------------------------------------------- incremental


def prepare_incremental(seed: int, workdir: Path, cfg: dict) -> dict:
    paths = []
    for scene in range(cfg["scenes"]):
        problem = generate(cfg["n_keyframes"], cfg["n_landmarks"], scene_seed(seed, scene))
        path = workdir / f"scene{scene}.gbpba"
        dataset_io.save(order_by_first_sight(problem), path)
        paths.append(path)
    return {"paths": paths}


def _bootstrap(problem: ProblemSpec, n_boot: int) -> ProblemSpec:
    sel = problem.meas_kf < n_boot
    n_lm = int(problem.meas_lm[sel].max()) + 1  # landmarks are numbered by first sight
    return ProblemSpec(
        intrinsics=problem.intrinsics,
        kf_init=problem.kf_init[:n_boot],
        lm_init=problem.lm_init[:n_lm],
        meas_kf=problem.meas_kf[sel],
        meas_lm=problem.meas_lm[sel],
        meas_uv=problem.meas_uv[sel],
        meas_sigma=problem.meas_sigma[sel],
    )


def incremental_scene(path: Path, measured: Measured, cfg: dict) -> None:
    """Bootstrap a few keyframes through `build`, then add the rest one at a
    time, each followed by a capped solve; finally a cold solve of the whole
    scene as the reference the warm-started stream should beat."""
    n_boot = cfg["bootstrap"]
    problem, graph, build_s = timed_setup(path, measured, lambda p: _bootstrap(p, n_boot))

    rows = [np.flatnonzero(problem.meas_kf == k) for k in range(problem.n_keyframes)]
    n_known = graph.n_landmarks
    capped = engine.ScheduleParams(are_target=ARE_TARGET_PX, max_iters=cfg["cap"])
    t_stream = time.perf_counter()
    report, _, _ = timed_solve(graph, capped, measured, "bootstrap solve")
    iterations = [report.iterations]
    latency_ms = []
    for k in range(n_boot, problem.n_keyframes):
        m = rows[k]
        t_arrive = time.perf_counter()
        graph.add_keyframe(problem.kf_init[k])
        while m.size and n_known <= problem.meas_lm[m].max():
            graph.add_landmark(problem.lm_init[n_known])
            n_known += 1
        graph.add_measurements(problem.meas_kf[m], problem.meas_lm[m], problem.meas_uv[m], problem.meas_sigma[m])
        report, _, _ = timed_solve(graph, capped, measured, f"arrival of keyframe {k}")
        latency_ms.append((time.perf_counter() - t_arrive) * 1e3)
        iterations.append(report.iterations)
    measured.latency_ms.append(latency_ms)
    measured.stream_s.append(build_s + time.perf_counter() - t_stream)
    check_graph(graph, report.final_are, "incremental stream")
    measured.final_are_px.append(report.final_are)
    measured.graph_bytes, measured.graph_factors = graph_nbytes(graph), graph.n_measurement_factors

    cold = factor_graph.build(problem)
    cold_report, elapsed, iter_ms = timed_solve(
        cold, engine.ScheduleParams(are_target=ARE_TARGET_PX), measured, "cold solve")
    measured.iter_ms.extend(iter_ms)
    check_graph(cold, cold_report.final_are, "cold solve")
    measured.time_to_target_s.append(elapsed)
    measured.iterations_to_target.append(cold_report.iterations)
    measured.counts.append((tuple(iterations), report.final_are, cold_report.iterations))


def incremental_pass(inputs: dict, measured: Measured, cfg: dict) -> None:
    for path in inputs["paths"]:
        incremental_scene(path, measured, cfg)


@dataclass(frozen=True)
class Workload:
    prepare: object       # (seed, workdir, cfg) -> inputs, written before timing
    run_pass: object      # (inputs, measured, cfg) -> None, one fixed pass
    lm_reference: bool    # traced runs also time the dense LM baseline
    cfg: dict


WORKLOADS = {
    "batch-30k": Workload(prepare_single, batch_pass, True, BATCH),
    "ladder-180k": Workload(prepare_single, ladder_pass, False, LADDER),
    "incremental": Workload(prepare_incremental, incremental_pass, False, INCREMENTAL),
}
