"""The benchmark harness still runs against the program: its self-test wraps
the program's functions by name and checks every workload at tiny sizes, so
renaming a traced function fails here rather than in a benchmark run."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "selftest ok" in result.stdout
