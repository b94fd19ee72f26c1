"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/worker.py '<job json>'

The job names the workload, its sizes, whether to trace, the pinned counts
to compare against (or null) and the layers a traced run must see.  With
`"setup_only": true` the worker only imports jzero.  It prints one JSON line
with the import time, the body's wall and CPU time (all in reference seconds,
see `hostspeed.py`; the raw wall time and the host's slowdown too), its work,
the output digest, peak RSS, every failed gate and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLE_S = 0.005  # host-speed sampling period during the import
BODY_SAMPLE_S = 0.01  # and during the workload body
MODULES = ("forms", "lattices", "classes", "hensel", "families", "reducible", "counting", "oracle", "verify", "cli")


def _import_jzero() -> float:
    """Import numpy and every jzero module from this checkout; return the
    time it took in reference seconds (see hostspeed)."""
    sys.path.insert(0, str(SRC))
    with HostSpeed(SETUP_SAMPLE_S) as speed:
        t0 = time.perf_counter()
        import numpy  # noqa: F401  (part of what a jzero user pays for)

        for name in MODULES:
            importlib.import_module(f"jzero.{name}")
        elapsed = time.perf_counter() - t0
    for name, mod in list(sys.modules.items()):
        if name == "jzero" or name.startswith("jzero."):
            for path in getattr(mod, "__path__", None) or [getattr(mod, "__file__", "")]:
                if not Path(path).resolve().is_relative_to(SRC):
                    raise ImportError(f"{name} imported from {path}, outside {SRC}")
    return speed.ref_seconds(elapsed)


def _cpu_s() -> float:
    """User + system CPU of this process and of the children it waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _digest(counts, detail) -> str:
    blob = json.dumps([counts, detail], sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _compare(pins, counts, where="") -> list[str]:
    if isinstance(pins, dict):
        out = []
        for key, want in pins.items():
            if not isinstance(counts, dict) or key not in counts:
                out.append(f"missing output {where}{key}")
            else:
                out.extend(_compare(want, counts[key], f"{where}{key}."))
        return out
    return [] if pins == counts else [f"{where.rstrip('.')}: got {counts}, pinned {pins}"]


def run_job(job: dict) -> dict:
    setup_s = _import_jzero()
    import numpy

    out = {"setup_s": setup_s, "numpy": numpy.__version__}
    if job.get("setup_only"):
        return out
    import workloads

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        with HostSpeed(BODY_SAMPLE_S) as speed:
            cpu0 = _cpu_s()
            t0 = time.perf_counter()
            counts, detail, work, problems = workloads.run(job["workload"], job["sizes"])
            wall = time.perf_counter() - t0
            cpu = _cpu_s() - cpu0
    finally:
        if tracer is not None:
            tracer.restore()
    if job.get("pinned") is not None:
        problems += _compare(job["pinned"], counts)
    if tracer is not None:
        leaks = tracer.leaks()
        if leaks:
            problems.append(f"trace patches left behind: {leaks}")
        layers = tracer.metrics(wall, speed.slowdown)
        for name in job.get("expect_layers", ()):
            if not tracer.calls[tracer.names.index(name)]:
                problems.append(f"layer {name} expected to run but recorded 0 calls")
        out["layers"] = layers
    out.update(
        wall_s=speed.ref_seconds(wall),
        cpu_s=speed.ref_seconds(cpu),
        raw_wall_s=wall,
        slowdown=speed.slowdown,
        work=work,
        counts=counts,
        digest=_digest(counts, detail),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        problems=problems,
    )
    return out


def main() -> int:
    job = json.loads(sys.argv[1])
    try:
        out = run_job(job)
    except Exception:
        traceback.print_exc()
        return 1
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
