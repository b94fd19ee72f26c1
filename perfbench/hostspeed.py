"""Host-speed sampling, so that the benchmark's timings follow the program,
not the load of a shared host.

On a shared virtual machine the same pure-Python work runs up to 1.6 times
slower for seconds at a time, and process CPU time slows with it, so neither
wall nor CPU time of one run says how fast the program is.  `HostSpeed`
measures that slowdown while the timed section runs: a SIGALRM timer fires
every `interval_s` seconds, and its handler times one fixed calibration unit
on the same CPU, between two bytecodes of the timed code.  The section's
time is then rescaled to what it would have been on a host where the unit
takes `REF_UNIT_S`:

    ref_s = (elapsed - time spent in the handler) * REF_UNIT_S / mean(unit time)

The unit uses only the standard library, never jzero, so a change to jzero
moves the section's time and leaves the unit's time alone.  It mixes the
operations jzero spends its time in: multiword integer arithmetic and gcd,
`Fraction` arithmetic, tuple-keyed dicts and small sorted lists.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction

# Time of one `_unit()` on an unloaded 2-vCPU shared VM (CPython 3.11); only
# a scale, so that reference seconds read close to wall seconds there.
REF_UNIT_S = 0.00032


def _unit() -> int:
    acc = Fraction(0)
    seen: dict[tuple, int] = {}
    x = 10**30 + 7
    for i in range(1, 40):
        acc += Fraction(i, 2 * i + 1)
        g = math.gcd(x * i + 3, 10**25 * i + 9)
        key = (i % 17, g % 5, i * i % 11)
        seen[key] = seen.get(key, 0) + 1
        v = sorted([(i * 31) % 7, (i * 17) % 5, i % 3, g % 4])
        x = (x * 1103515245 + v[0]) % (1 << 96)
    return acc.numerator % 97 + len(seen)


class HostSpeed:
    """Context manager that samples the unit's time while its body runs."""

    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, *_args) -> None:
        t0 = time.perf_counter()
        _unit()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostSpeed":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def handler_s(self) -> float:
        """Time spent sampling (all samples but the ones outside the body)."""
        return sum(self.samples[1:-1])

    @property
    def slowdown(self) -> float:
        """Mean unit time over the reference: above 1 when the host is slow."""
        return statistics.fmean(self.samples) / REF_UNIT_S

    def ref_seconds(self, elapsed: float) -> float:
        """`elapsed` (wall or CPU time over the body) at the reference speed."""
        return max(elapsed - self.handler_s, 0.0) / self.slowdown
