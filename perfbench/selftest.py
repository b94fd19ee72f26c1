"""The benchmark's own tests, on tiny sizes.

    python3 perfbench/selftest.py

Not collected by the repository's pytest run (the file name does not match
`test_*.py`): every case here starts worker interpreters.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    def check_result(self, out: dict, declared: list[dict]) -> None:
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        want = {m["name"]: m["unit"] for m in declared}
        self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()}, want)
        for value in out["metrics"].values():
            self.assertIsInstance(value["value"], (int, float))

    def test_end_to_end_metrics_have_names_and_units(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.NAMES))
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                out = result(bench(name, 1, 0))
                self.check_result(out, SPEC["end_to_end"])
                for metric in out["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_per_layer_counts_repeat_between_traced_runs(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                a, b = (result(bench(name, 2, 1)) for _ in range(2))
                self.check_result(a, SPEC["per_layer"])
                self.check_result(b, SPEC["per_layer"])
                counts = [k for k, v in a["metrics"].items() if v["unit"] == "count"]
                self.assertTrue(counts)
                self.assertEqual({k: a["metrics"][k] for k in counts}, {k: b["metrics"][k] for k in counts})
                self.assertIn("trace.overhead_s", a["metrics"])

    def test_no_patch_leaks_after_traced_run(self):
        worker._import_jzero()
        before = {
            (id(c), key): value
            for c in tracer._containers()
            for key, value in tracer._items(c)
        }
        t = tracer.Tracer()
        t.install()
        self.assertTrue(t.leaks())
        try:
            for name in workloads.NAMES:
                workloads.run(name, workloads.sizes(name, 0, smoke=True))
        finally:
            t.restore()
        self.assertEqual(t.leaks(), [])
        after = {(id(c), key): value for c in tracer._containers() for key, value in tracer._items(c)}
        for key, value in before.items():
            self.assertIs(after[key], value)
        self.assertGreater(sum(t.calls), 0)

    def test_wrong_pinned_count_is_a_failure(self):
        size = workloads.sizes("n-ladder", 0, smoke=True)
        wrong = {str(size["xs"][0]): [-1, -1]}
        got = run.measure("n-ladder", size, wrong, 0, False)
        self.assertTrue(got["iterations"])
        for _, res, problems in got["iterations"]:
            self.assertIsNotNone(res)
            self.assertTrue(any("pinned" in p for p in problems), problems)

    def test_missed_layer_is_a_failure(self):
        size = workloads.sizes("n-ladder", 0, smoke=True)
        job = {"workload": "n-ladder", "sizes": size, "pinned": None, "trace": True,
               "expect_layers": ["counting.count_N", "hensel.nu_of"]}
        res, err = run._spawn(job, time.monotonic() + 60)
        self.assertEqual(err, "")
        self.assertEqual(len(res["problems"]), 1)
        self.assertIn("hensel.nu_of", res["problems"][0])

    def test_host_speed_sampling(self):
        previous = signal.getsignal(signal.SIGALRM)
        with hostspeed.HostSpeed(0.002) as speed:
            t0 = time.perf_counter()
            end = t0 + 0.2
            while time.perf_counter() < end:
                sum(range(100))
            elapsed = time.perf_counter() - t0
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)
        self.assertGreater(len(speed.samples), 10)
        self.assertGreater(speed.slowdown, 0)
        self.assertAlmostEqual(
            speed.ref_seconds(elapsed), (elapsed - sum(speed.samples[1:-1])) / speed.slowdown
        )

    def test_seeded_sizes(self):
        for name in workloads.NAMES:
            self.assertEqual(workloads.sizes(name, workloads.DEFAULT_SEED), workloads.BASE[name])
            self.assertIsNotNone(workloads.pinned(name, workloads.BASE[name]))
            for seed in (1, 2, 77):
                size = workloads.sizes(name, seed)
                self.assertEqual(size, workloads.sizes(name, seed))
                for key, base in workloads.BASE[name].items():
                    if key == "xs":
                        for x, b in zip(size[key], base):
                            self.assertTrue(b <= x < b * (1 + workloads.XBAND[name]))
                    else:
                        self.assertTrue(abs(size[key] - base) <= workloads.DBAND * base + 0.5)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("n-ladder", 0, 0, Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
