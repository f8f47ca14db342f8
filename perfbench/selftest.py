"""Self-test of the benchmark harness at tiny problem sizes (about a minute).

    python3 perfbench/selftest.py

Checks that self-time arithmetic is right, that every wrapper is restored,
that each workload emits exactly the metrics BENCHMARK.json names with their
units, and that every printed metric name matches [A-Za-z0-9_.-]+.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the BLAS thread count before numpy loads)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = {
    "batch-30k": {"n_keyframes": 6, "n_landmarks": 60, "perturbed": True, "scenes": 2, "max_iters": 100},
    "ladder-180k": {"n_keyframes": 6, "n_landmarks": 60, "perturbed": False, "scenes": 1, "iterations": 3},
    "incremental": {"n_keyframes": 10, "n_landmarks": 20, "bootstrap": 4, "cap": 10, "scenes": 2},
}


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def check_self_times() -> None:
    import tracing

    spans = [
        [0, -1, "a", 0.0, 10.0, None],
        [1, 0, "b", 1.0, 3.0, None],
        [2, 1, "c", 1.5, 2.0, None],
        [3, 0, "d", 4.0, 6.0, None],
    ]
    got = tracing.self_times(spans)
    check(all(math.isclose(g, w) for g, w in zip(got, [6.0, 1.5, 0.5, 2.0])), f"self times {got}")
    spans[0][2] = "engine.iterate"
    check(tracing.iterate_balance_ms(spans) < 1e-9, "self + children != inclusive")


def run_tiny(workload: str, trace_flag: int) -> tuple[dict, list[str]]:
    import workloads

    saved = workloads.WORKLOADS[workload]
    workloads.WORKLOADS[workload] = dataclasses.replace(saved, cfg=TINY[workload])
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace_flag)])
    finally:
        workloads.WORKLOADS[workload] = saved
    lines = out.getvalue().splitlines()
    check(code == 0, f"{workload} trace={trace_flag} exited {code}:\n" + "\n".join(lines))
    return json.loads(lines[-1]), lines


def main() -> int:
    check_self_times()
    run._import_program()
    import tracing

    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracing.program_targets()]
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in TINY:
        for trace_flag, key in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = run_tiny(workload, trace_flag)
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
            check(result["correct"] is True and result["attempted"] >= 1, f"{workload}: {result}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{workload} trace={trace_flag}: metrics {got} != BENCHMARK.json {want}")
            for name, m in result["metrics"].items():
                check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{name} = {m['value']}")
            for line in lines:
                if line.startswith("metric "):
                    name = line.split()[1]
                    check(NAME.fullmatch(name) is not None, f"bad metric name {name!r}")
                if line.startswith("metric engine.iterate.balance_ms"):
                    check(float(line.split()[3]) < 1e-6, line)
            for owner, attr, original in originals:
                check(vars(owner)[attr] is original, f"{owner.__name__}.{attr} was not restored")
            print(f"ok {workload} trace={trace_flag}")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
