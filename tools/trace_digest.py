"""Per-round digest of the three perfbench flows, to check that a change to
the solver leaves its traces bit-identical.

    python3 tools/trace_digest.py <tree> [--dtype float32] [--seed 7]

Runs one pass of batch-30k, ladder-180k and incremental from the checkout at
<tree>: its `src/gbp_ba` and, read-only, its `perfbench/workloads.py`.  After
every round (every `engine.iterate`) it hashes every array of the graph and
every `IterationReport` field except `phase_ms`.  It prints the round count
and the sha1 of each flow, then of all three together.  With `--dtype
float32` every graph that `factor_graph.build` returns is cast to float32
first.  One BLAS thread, as perfbench; about 30 s on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
import tempfile
from pathlib import Path

os.environ.update({name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import numpy as np  # noqa: E402

FLOWS = ("batch-30k", "ladder-180k", "incremental")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", type=Path, help="checkout holding src/gbp_ba and perfbench/workloads.py")
    parser.add_argument("--dtype", choices=("float64", "float32"), default="float64")
    parser.add_argument("--seed", type=int, default=7)
    return parser.parse_args(argv)


def _update(digest, graph, report) -> None:
    """Hash the graph's arrays, by name in sorted order, and the report's fields."""
    for name, value in sorted(vars(graph).items()):
        if isinstance(value, np.ndarray):
            digest.update(f"{name} {value.dtype} {value.shape}".encode())
            digest.update(np.ascontiguousarray(value).tobytes())
    for f in dataclasses.fields(report):
        if f.name != "phase_ms":
            digest.update(f"{f.name} {getattr(report, f.name)!r}".encode())


def run_flows(tree: Path, dtype: str, seed: int, on_round):
    """Runs one pass of each of FLOWS from the checkout at `tree`, calling
    `on_round(graph, report)` after every round, and yields each flow's
    name as it ends.  With dtype "float32" every graph that
    `factor_graph.build` returns is cast to float32 first."""
    tree = tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from gbp_ba import engine, factor_graph

    import workloads

    if Path(engine.__file__).resolve().parents[2] != tree:
        sys.exit(f"imported gbp_ba from {engine.__file__}, not {tree}")
    build, iterate = factor_graph.build, engine.iterate
    if dtype == "float32":
        factor_graph.build = lambda *a, **k: build(*a, **k).astype(np.float32)

    def traced_iterate(graph, schedule=None):
        report = iterate(graph, schedule)
        on_round(graph, report)
        return report

    engine.iterate = traced_iterate
    with tempfile.TemporaryDirectory() as workdir:
        for name in FLOWS:
            workload = workloads.WORKLOADS[name]
            scene_dir = Path(workdir) / name
            scene_dir.mkdir()
            inputs = workload.prepare(seed, scene_dir, workload.cfg)
            workload.run_pass(inputs, workloads.Measured(), workload.cfg)
            yield name


def main(argv=None) -> None:
    args = _parse(argv)
    flow = {"rounds": 0, "digest": hashlib.sha1()}

    def hashed(graph, report):
        flow["rounds"] += 1
        _update(flow["digest"], graph, report)

    total, rounds = hashlib.sha1(), 0
    for name in run_flows(args.tree, args.dtype, args.seed, hashed):
        print(f"{name:12} rounds {flow['rounds']:5}  sha1 {flow['digest'].hexdigest()}", flush=True)
        total.update(flow["digest"].digest())
        rounds += flow["rounds"]
        flow.update(rounds=0, digest=hashlib.sha1())
    print(f"{'all':12} rounds {rounds:5}  sha1 {total.hexdigest()}")


if __name__ == "__main__":
    main()
