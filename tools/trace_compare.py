"""Compare the per-round traces of the three perfbench flows of two trees, for
changes to the solver that cannot leave them bit-identical.

    python3 tools/trace_compare.py <tree_a> <tree_b> [--dtype float32] [--seed 7]

Runs one pass of batch-30k, ladder-180k and incremental from each checkout,
as `trace_digest.py` does, in a subprocess of its own.  After every round it
keeps every `IterationReport` field except `phase_ms`, and `kf_state` and
`lm_state`; when a flow moves on to another graph, and at its end, it keeps
every array of the graph it leaves.  Per flow it prints the round counts,
the rounds whose integer fields differ, the largest relative difference of
each float field in any round, and of the states and the final arrays,
each against its largest magnitude.  About 20 s on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from trace_digest import run_flows

STATES = ("kf_state", "lm_state")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", type=Path, nargs="+", help="two checkouts holding src/gbp_ba and perfbench")
    parser.add_argument("--dtype", choices=("float64", "float32"), default="float64")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--record", type=Path, help=argparse.SUPPRESS)  # a subprocess's output file
    args = parser.parse_args(argv)
    if len(args.trees) != (1 if args.record else 2):
        parser.error("give two trees")
    return args


def _arrays(graph) -> dict:
    return {name: value.copy() for name, value in vars(graph).items() if isinstance(value, np.ndarray)}


def record(tree: Path, dtype: str, seed: int, out: Path) -> None:
    """Runs the flows of `tree` and pickles, per flow, its rounds (report
    fields, states) and the final arrays of each graph it ran, in order."""
    flows, flow = {}, {"rounds": [], "finals": [], "graph": None}

    def on_round(graph, report):
        if graph is not flow["graph"]:
            if flow["graph"] is not None:
                flow["finals"].append(_arrays(flow["graph"]))
            flow["graph"] = graph
        fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report) if f.name != "phase_ms"}
        flow["rounds"].append((fields, {name: getattr(graph, name).copy() for name in STATES}))

    for name in run_flows(tree, dtype, seed, on_round):
        flow["finals"].append(_arrays(flow.pop("graph")))
        flows[name] = flow
        flow = {"rounds": [], "finals": [], "graph": None}
    with open(out, "wb") as file:
        pickle.dump(flows, file)


def relative(a, b) -> float:
    """The largest |a - b| of differing entries over the largest finite
    magnitude of a and b: 0 where every entry is equal (NaN to NaN), inf
    where the shapes differ or a differing entry is not finite."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    differ = ~((a == b) | (np.isnan(a) & np.isnan(b)))
    if not differ.any():
        return 0.0
    if not (np.isfinite(a[differ]).all() and np.isfinite(b[differ]).all()):
        return math.inf
    both = np.abs(np.concatenate([a.ravel(), b.ravel()]))
    return float(np.abs(a - b)[differ].max() / both[np.isfinite(both)].max())


def compare(name: str, flow_a: dict, flow_b: dict) -> None:
    rounds_a, rounds_b = flow_a["rounds"], flow_b["rounds"]
    print(f"{name}: rounds {len(rounds_a)} / {len(rounds_b)}")
    worst, differ = {}, []
    for k, ((fields_a, states_a), (fields_b, states_b)) in enumerate(zip(rounds_a, rounds_b)):
        wrong = [f for f, value in fields_a.items() if not isinstance(value, float) and value != fields_b[f]]
        if wrong:
            differ.append((k, fields_a["iteration"], wrong))
        pairs = [(f, value, fields_b[f]) for f, value in fields_a.items() if isinstance(value, float)]
        for f, a, b in pairs + [(s, states_a[s], states_b[s]) for s in STATES]:
            worst[f] = max(worst.get(f, 0.0), relative(a, b))
    print(f"  integer fields differ in {len(differ)} rounds", end="")
    if differ:
        k, iteration, wrong = differ[0]
        print(f", first round {k} (iteration {iteration}): {', '.join(wrong)}", end="")
    print()
    print("  largest relative difference: " + "  ".join(f"{f} {v:.2g}" for f, v in worst.items()))
    finals_a, finals_b = flow_a["finals"], flow_b["finals"]
    final = {}
    for arrays_a, arrays_b in zip(finals_a, finals_b):
        for f in arrays_a.keys() | arrays_b.keys():
            diff = relative(arrays_a[f], arrays_b[f]) if f in arrays_a and f in arrays_b else math.inf
            final[f] = max(final.get(f, 0.0), diff)
    ranked = sorted(final.items(), key=lambda item: -item[1])[:5]
    print(f"  final arrays of {len(finals_a)} / {len(finals_b)} graphs, worst: "
          + ", ".join(f"{f} {v:.2g}" for f, v in ranked))


def main(argv=None) -> None:
    args = _parse(argv)
    if args.record:
        record(args.trees[0], args.dtype, args.seed, args.record)
        return
    with tempfile.TemporaryDirectory() as workdir:
        outs = [Path(workdir) / f"{side}.pkl" for side in "ab"]
        procs = [
            subprocess.Popen([sys.executable, __file__, str(tree.resolve()), "--record", str(out),
                              "--dtype", args.dtype, "--seed", str(args.seed)])
            for tree, out in zip(args.trees, outs)
        ]
        if any([proc.wait() for proc in procs]):  # both, before either's output is read
            sys.exit("trace_compare: a tree's run failed")
        flows = []
        for out in outs:
            with open(out, "rb") as file:
                flows.append(pickle.load(file))
    print(f"{args.trees[0]} against {args.trees[1]}, {args.dtype}, seed {args.seed}")
    for name, flow_a in flows[0].items():
        compare(name, flow_a, flows[1][name])


if __name__ == "__main__":
    main()
