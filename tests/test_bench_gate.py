"""The benchmark's layer gate, run at smoke sizes.

A traced smoke run fails when a layer listed in the workload's
`EXPECTED_LAYERS` is never called, or when `counting.ellipse_points`
stops being a generator function and returns an iterator: the tracer
counts a generator's yields but takes `len()` of a plain function's
result.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["n-ladder", "m-ladder", "oracle-bind", "class-groups"])
def test_smoke_trace_run_is_correct(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--smoke", "--trace", "1", "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    info = json.loads(out.stdout.strip().splitlines()[-2])["info"]
    assert result["correct"] and result["failed"] == 0, info["problems"]
