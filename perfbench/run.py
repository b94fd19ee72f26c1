"""jzero benchmark: one workload per invocation, every iteration in a fresh process.

    python3 perfbench/run.py --workload n-ladder --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; jzero is imported from its `src/`.  The
workload is a closed loop with one client: iterations run one after another,
each in a new interpreter (so module caches start empty), until the next one
would overrun `--seconds` (at least one runs).  With `--trace 0` the last
stdout line carries the end-to-end metrics (medians over the iterations);
with `--trace 1` it carries the per-layer metrics of traced iterations, which
follow one untraced iteration used for `trace.overhead_s`.  Every iteration's
outputs are checked; a wrong output, crash or timeout is a failed attempt.
`--smoke` swaps in tiny sizes for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7  # import-only interpreters per untraced run, after one warm-up
RUN_LIMIT_S = 170.0  # a run ends within this, whatever --seconds says

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _spawn(job: dict, deadline: float) -> tuple[dict | None, str]:
    """Run one worker; return (its result or None, error)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, "-s", str(WORKER), json.dumps(job)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            timeout=timeout,
            text=True,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"worker exited with {proc.returncode}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, "worker printed no result"


def measure(workload: str, size: dict, pinned, seconds: float, trace: bool) -> dict:
    """Run the iterations of one benchmark run and collect what they report."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    job = {
        "workload": workload,
        "sizes": size,
        "pinned": pinned,
        "expect_layers": list(workloads.EXPECTED_LAYERS[workload]),
    }
    setups: list[float] = []
    numpy_version = None
    if not trace:
        for probe in range(SETUP_PROBES + 1):
            res, err = _spawn({"setup_only": True}, deadline)
            if res is None:
                raise RuntimeError(f"import probe failed: {err}")
            numpy_version = res["numpy"]
            if probe:  # the first import may compile bytecode; users pay that once
                setups.append(res["setup_s"])

    iterations = []  # (traced, result or None, problems)
    t_loop = time.monotonic()
    while True:
        traced = trace and bool(iterations)
        t0 = time.monotonic()
        res, err = _spawn({**job, "trace": traced}, deadline)
        last = time.monotonic() - t0
        problems = [err] if err else list(res["problems"])
        if res is not None:
            numpy_version = res["numpy"]
            setups.append(res["setup_s"])
        iterations.append((traced, res, problems))
        elapsed = time.monotonic() - t_loop
        if trace and not traced:
            continue
        if elapsed + last > seconds or time.monotonic() + last > deadline:
            break

    ref = next((r["digest"] for _, r, _ in iterations if r is not None), None)
    for _, res, problems in iterations:
        if res is not None and res["digest"] != ref:
            problems.append("output digest differs from the run's first iteration")
    if trace:
        _check_trace_counts(iterations)
    return {"setups": setups, "iterations": iterations, "numpy": numpy_version}


def _check_trace_counts(iterations) -> None:
    """Every traced iteration must record the same per-layer counts."""
    traced = [(res, problems) for t, res, problems in iterations if t and res is not None]
    if not traced:
        return
    units = tracer.layer_metric_units()
    first = traced[0][0]["layers"]
    for res, problems in traced[1:]:
        moved = [k for k, v in first.items() if units[k] == "count" and res["layers"][k] != v]
        if moved:
            problems.append(f"per-layer counts differ between traced iterations: {moved}")


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(run: dict) -> dict:
    done = [r for _, r, problems in run["iterations"] if r is not None and not problems]
    if not done:
        done = [r for _, r, _ in run["iterations"] if r is not None]
    values = {
        "setup_s": _median(run["setups"]),
        "wall_s": _median([r["wall_s"] for r in done]),
        "cpu_s": _median([r["cpu_s"] for r in done]),
        "work_per_s": _median([r["work"] / r["wall_s"] for r in done]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in done]),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items() if v is not None}


def per_layer(run: dict) -> dict:
    """Counts from the first traced iteration (all must agree), times as medians."""
    untraced = [r for traced, r, _ in run["iterations"] if not traced and r is not None]
    traced = [r for t, r, _ in run["iterations"] if t and r is not None]
    if not traced:
        return {}
    units = tracer.layer_metric_units()
    out = {}
    for key, first in traced[0]["layers"].items():
        exact = units[key] == "count"
        out[key] = first if exact else _median([r["layers"][key] for r in traced])
    if untraced:
        out["trace.overhead_s"] = _median([r["wall_s"] for r in traced]) - untraced[0]["wall_s"]
    return {k: {"value": v, "unit": units[k]} for k, v in out.items()}


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "jzero" / "counting.py").is_file():
        print(f"error: no jzero sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    facts = machine_facts()
    size = workloads.sizes(args.workload, args.seed, args.smoke)
    pinned = workloads.pinned(args.workload, size)
    try:
        run = measure(args.workload, size, pinned, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = per_layer(run) if args.trace else end_to_end(run)
    iters = run["iterations"]
    failed = sum(1 for _, res, problems in iters if res is None or problems)
    if not metrics:
        print("error: no iteration completed", file=sys.stderr)
        for _, _, problems in iters:
            print("  " + "; ".join(problems), file=sys.stderr)
        return 1
    facts["numpy"] = run["numpy"]
    first = next((r for _, r, _ in iters if r is not None), {})
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "sizes": size,
        "pinned": pinned is not None,
        "machine": facts,
        "samples": {"setup": len(run["setups"]), "iterations": len(iters), "traced": sum(t for t, *_ in iters)},
        "iteration_wall_s": [r["wall_s"] if r else None for _, r, _ in iters],
        "iteration_raw_wall_s": [r["raw_wall_s"] if r else None for _, r, _ in iters],
        "iteration_slowdown": [r["slowdown"] if r else None for _, r, _ in iters],
        "failed_frac": failed / len(iters),
        "counts": first.get("counts"),
        "problems": [p for _, _, problems in iters for p in problems][:20],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": len(iters), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
