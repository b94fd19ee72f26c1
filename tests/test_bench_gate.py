"""The benchmark's layer gate, run at smoke sizes.

A traced smoke run fails when a layer listed in the workload's
`EXPECTED_LAYERS` is never called.  The tracer counts a generator's
yields but takes `len()` of a plain function's result, so the layers it
counts by yield must stay generator functions: a list-returning
`oracle.brute_quartics` would read 0 forms, and a list-returning
`counting.ellipse_points` an `empty_frac` of 1.0, and both would still
pass the gate.
"""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from jzero import counting, oracle

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


def test_yield_counted_layers_are_generator_functions():
    assert inspect.isgeneratorfunction(counting.ellipse_points)
    assert inspect.isgeneratorfunction(oracle.brute_quartics)
