"""GBP bundle-adjustment benchmark.

    python3 perfbench/run.py --workload batch-30k --seed 1 --seconds 10 --trace 0

Generates the workload's problems from the seed, runs the solver from the
repository's `src/` and checks its outputs, prints every metric as
`metric <name> = <value> <unit>` and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  `--trace 0` reports the
end-to-end metrics of BENCHMARK.json; `--trace 1` wraps the program's public
functions (see tracing.py) and reports its per-layer metrics instead.
Work files and span dumps go to `.perfbench/` at the repository root.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# One closed-loop caller and engine workers=1: one BLAS thread keeps timings
# free of thread scheduling on a small shared machine.  Must be set before
# numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, os.cpu_count() or 1))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _import_program():
    """Import gbp_ba from this checkout's src/, never from elsewhere."""
    if not (SRC / "gbp_ba" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'gbp_ba'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gbp_ba

    if Path(gbp_ba.__file__).resolve().parent != (SRC / "gbp_ba").resolve():
        sys.exit(f"perfbench: imported gbp_ba from {gbp_ba.__file__}, not {SRC}")


def _cache_bytes(level: int) -> int | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if int((index / "level").read_text()) == level and (index / "type").read_text().strip() != "Instruction":
                size = (index / "size").read_text().strip()
                return int(size[:-1]) * 1024 if size.endswith("K") else int(size)
        except (OSError, ValueError):
            return None
    return None


def _blas():
    """(configuration string, runtime thread count) of numpy's OpenBLAS."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    if not libs:
        return "unknown", None
    lib = ctypes.CDLL(str(libs[0]))
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype, get_config.argtypes = ctypes.c_char_p, []
                get_threads.restype, get_threads.argtypes = ctypes.c_int, []
                return get_config().decode().strip(), int(get_threads())
    return "unknown", None


def environment() -> dict:
    import platform

    import numpy as np
    import scipy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas_config, blas_threads = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_config,
        "blas_threads": blas_threads,
    }


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float, workdir: Path, tracer=None):
    """Prepare inputs untimed, then run whole passes until `seconds` of
    measured time have passed.  Returns the raw samples."""
    import time
    from contextlib import nullcontext

    import tracing
    from workloads import Measured, WrongOutput

    inputs = workload.prepare(seed, workdir, workload.cfg)
    measured = Measured()
    with tracer.installed(tracing.program_targets()) if tracer else nullcontext():
        elapsed, passes = 0.0, 0
        while passes == 0 or elapsed < seconds:
            t0 = time.perf_counter()
            workload.run_pass(inputs, measured, workload.cfg)
            elapsed += time.perf_counter() - t0
            passes += 1
    per_pass = len(measured.counts) // passes
    first = measured.counts[:per_pass]
    for p in range(1, passes):
        if measured.counts[p * per_pass:(p + 1) * per_pass] != first:
            raise WrongOutput("a repeated pass over identical inputs gave different results")
    measured.notes.update(passes=passes, inputs=inputs)
    return measured


def lm_reference(inputs) -> dict:
    """Dense LM baseline on the workload's first scene (traced runs only)."""
    import time

    from gbp_ba import dataset_io, dense_oracle, factor_graph

    graph = factor_graph.build(dataset_io.load(inputs["paths"][0]))
    t0 = time.perf_counter()
    report = dense_oracle.lm_solve(graph)
    return {"s": time.perf_counter() - t0, "steps": report.steps,
            "final_are_px": report.final_are, "converged": report.converged}


def _print_metric(name, value, unit, note=""):
    print(f"metric {name} = {value!r} {unit}{'  # ' + note if note else ''}")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import json
    import shutil
    import tempfile

    import tracing
    from workloads import WORKLOADS, WrongOutput

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    tracer = tracing.Tracer() if args.trace else None
    try:
        baseline = reference = None
        if args.trace and workload.lm_reference:
            baseline = measure(workload, args.seed, 0.0, workdir)  # untraced, for the overhead
        measured = measure(workload, args.seed, args.seconds, workdir, tracer)
        if baseline is not None:
            reference = lm_reference(measured.notes["inputs"])
    except WrongOutput as err:
        print(f"WRONG OUTPUT: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end = measured.summary(_peak_rss_mb())
    ws = measured.graph_bytes
    print(f"workload {args.workload} seed {args.seed} passes {measured.notes['passes']} "
          f"factors {measured.graph_factors} (final graph)")
    print(f"computed working_set_bytes = {ws} (graph ndarray.nbytes), L3 = {env['l3_bytes']} bytes, "
          f"ratio {ws / env['l3_bytes'] if env['l3_bytes'] else float('nan'):.3f}")
    solves = measured.target_solves
    failed_frac = (measured.target_missed + measured.failed) / max(solves, 1)
    if args.trace:
        layers = tracing.layer_metrics(tracer.spans)
        layers["factor_graph.bytes_per_factor"] = (ws / max(measured.graph_factors, 1), "B")
        for name, (value, unit) in layers.items():
            _print_metric(name, value, unit)
        _print_metric("engine.solve.failed_frac", failed_frac, "frac",
                      f"{measured.target_missed + measured.failed} of {solves} solves")
        _print_metric("engine.iterate.balance_ms", tracing.iterate_balance_ms(tracer.spans), "ms",
                      "max |self + children - inclusive| over iterate spans")
        if baseline is not None:
            plain = baseline.summary(0.0)["time_to_target_s"][0]
            traced = end_to_end["time_to_target_s"][0]
            _print_metric("trace.overhead_s", traced - plain, "s",
                          f"traced {traced!r} s minus untraced {plain!r} s (base)")
            for key in ("s", "steps", "final_are_px"):
                _print_metric(f"dense_oracle.lm_solve.{key}", reference[key],
                              {"s": "s", "steps": "count", "final_are_px": "px"}[key])
            gbp = baseline.time_to_target_s[0]
            _print_metric("gbp_over_lm.wall_ratio", gbp / reference["s"], "ratio",
                          f"first scene: GBP untraced {gbp!r} s / LM {reference['s']!r} s")
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        wanted = [m["name"] for m in spec["per_layer"]]
        report = {name: layers[name] for name in wanted}
    else:
        for name, (value, unit) in end_to_end.items():
            _print_metric(name, value, unit)
        _print_metric("failed_frac", failed_frac, "frac",
                      f"{measured.target_missed} missed the ARE target, {measured.failed} non-finite, "
                      f"of {solves} solves")
        wanted = [m["name"] for m in spec["end_to_end"]]
        report = {name: end_to_end[name] for name in wanted}
    print(json.dumps({
        "correct": True,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
