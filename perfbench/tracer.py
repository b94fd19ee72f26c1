"""Per-layer span tracer for jzero, applied from outside the package.

`Tracer.install()` replaces every binding of each function in `LAYERS`
across the loaded `jzero.*` modules (module attributes, values of module
level dicts such as `verify.SUITES`, and class attributes, which covers the
`FiberAction` methods and the staticmethod `SubLattice.from_congruences`)
with a timing wrapper.  `restore()` puts every original back.

Each call is a span (name, start, end, parent).  Generator functions are
timed per `next()` step, so the time a consumer spends between steps is not
charged to the generator; `points`/`forms` count the items a generator
yields or a list-returning function returns.  Spans live in compact arrays
in memory; self time is a span's duration minus the durations of its direct
children, which is exact because spans of a single thread nest.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# (module, qualified name, statistics reported for it)
LAYERS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("forms", "is_irreducible_Q", ("calls", "self_s", "true_frac")),
    ("forms", "quartic_factorization", ("calls", "self_s")),
    ("forms", "invariants", ("calls", "self_s")),
    ("forms", "hessian_sqrt", ("calls", "self_s")),
    ("lattices", "SubLattice.from_congruences", ("calls", "self_s")),
    ("families", "lattice_Lfa", ("calls", "self_s")),
    ("families", "family_coefficients", ("calls", "self_s")),
    ("families", "fiber_action", ("calls", "self_s")),
    ("families", "FiberAction.canonical", ("calls", "self_s")),
    ("families", "FiberAction.orbit", ("calls", "self_s")),
    ("families", "member_of", ("calls", "self_s")),
    ("classes", "enumerate_reduced", ("calls", "self_s")),
    ("classes", "reduce_form", ("calls", "self_s")),
    ("classes", "class_of", ("calls", "self_s")),
    ("classes", "compose", ("calls", "self_s")),
    ("classes", "representations", ("calls", "self_s")),
    ("classes", "cover_multiplicity", ("calls", "self_s")),
    ("classes", "signed_automorphisms", ("calls", "self_s")),
    ("classes", "canonical_square_label", ("calls", "self_s")),
    ("hensel", "nu_of", ("calls", "self_s")),
    ("hensel", "w_of", ("calls", "self_s")),
    ("counting", "ellipse_points", ("calls", "points", "self_s", "empty_frac")),
    ("counting", "square_family_points", ("calls", "points", "self_s")),
    ("counting", "count_N", ("self_s",)),
    ("counting", "count_M", ("self_s",)),
    ("oracle", "brute_quartics", ("forms", "self_s")),
    ("oracle", "orbit_key", ("calls", "self_s")),
    ("oracle", "certify_cover", ("calls", "total_s")),
    ("oracle", "value_candidates", ("calls", "self_s")),
    ("oracle", "compose_oracle", ("calls",)),
    ("verify", "suite_classgroup", ("self_s",)),
    ("verify", "suite_hensel", ("self_s",)),
    ("verify", "suite_oracle_equivalence", ("self_s",)),
)

UNITS = {
    "calls": "count",
    "points": "count",
    "forms": "count",
    "self_s": "s",
    "total_s": "s",
    "true_frac": "ratio",
    "empty_frac": "ratio",
}

# Traced-run metrics that are not tied to one function.
TRACE_METRICS = {"trace.overhead_s": "s", "trace.coverage": "ratio"}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    out = {}
    for mod, qual, stats in LAYERS:
        for stat in stats:
            out[f"{mod}.{qual}.{stat}"] = UNITS[stat]
    out.update(TRACE_METRICS)
    return out


def _jzero_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "jzero" or n.startswith("jzero.")]


def _containers():
    """Every namespace that can hold a binding: module dicts, the dicts they
    hold at top level, and the dicts of classes defined in jzero."""
    for mod in _jzero_modules():
        ns = vars(mod)
        yield ns
        for val in list(ns.values()):
            if isinstance(val, dict):
                yield val
            elif inspect.isclass(val) and getattr(val, "__module__", "").startswith("jzero"):
                yield val


def _items(container):
    if isinstance(container, dict):
        return list(container.items())
    return list(vars(container).items())


def _assign(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


def _unwrap(value):
    return value.__func__ if isinstance(value, staticmethod) else value


class Tracer:
    """Times the functions of `LAYERS` while installed."""

    def __init__(self) -> None:
        self.names = [f"{mod}.{qual}" for mod, qual, _ in LAYERS]
        n = len(LAYERS)
        self.calls = [0] * n
        self.trues = [0] * n
        self.yields = [0] * n
        self.nonempty = [0] * n
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: list = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        originals = []
        for i, (mod, qual, stats) in enumerate(LAYERS):
            owner = importlib.import_module(f"jzero.{mod}")
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr] if inspect.isclass(owner) else getattr(owner, attr)
            fn = _unwrap(raw)
            if inspect.isgeneratorfunction(fn):
                wrapper = self._wrap_generator(i, fn)
            else:
                wrapper = self._wrap_function(i, fn, "true_frac" in stats, "points" in stats)
            self._wrappers.append(wrapper)
            originals.append((fn, wrapper))
        by_id = {id(fn): wrapper for fn, wrapper in originals}
        found = set()
        for container in _containers():
            for key, value in _items(container):
                wrapper = by_id.get(id(_unwrap(value)))
                if wrapper is None:
                    continue
                found.add(id(_unwrap(value)))
                new = staticmethod(wrapper) if isinstance(value, staticmethod) else wrapper
                self._patches.append((container, key, value))
                _assign(container, key, new)
        missing = [self.names[i] for i, (fn, _) in enumerate(originals) if id(fn) not in found]
        if missing:
            self.restore()
            raise LookupError(f"no binding found for {missing}")

    def restore(self) -> None:
        while self._patches:
            container, key, value = self._patches.pop()
            _assign(container, key, value)

    def leaks(self) -> list[str]:
        """Bindings that still point at a wrapper of this tracer."""
        ids = {id(w) for w in self._wrappers}
        out = []
        for container in _containers():
            for key, value in _items(container):
                if id(_unwrap(value)) in ids:
                    out.append(f"{getattr(container, '__name__', type(container).__name__)}.{key}")
        return out

    # -- wrappers ---------------------------------------------------------

    def _wrap_function(self, i: int, fn, count_true: bool, count_items: bool):
        clock = time.perf_counter
        calls, trues, yields, stack = self.calls, self.trues, self.yields, self._stack
        name, parent, start, end = self.span_name, self.span_parent, self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[i] += 1
            idx = len(name)
            name.append(i)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if count_true and result:
                trues[i] += 1
            if count_items:
                yields[i] += len(result)
            return result

        return wrapper

    def _wrap_generator(self, i: int, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[i] += 1
            return tracer._steps(i, fn(*args, **kwargs))

        return wrapper

    def _steps(self, i: int, gen):
        clock = time.perf_counter
        stack = self._stack
        name, parent, start, end = self.span_name, self.span_parent, self.span_start, self.span_end
        yielded = 0
        try:
            while True:
                idx = len(name)
                name.append(i)
                parent.append(stack[-1])
                start.append(0.0)
                end.append(0.0)
                stack.append(idx)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end[idx] = clock()
                    start[idx] = t0
                    stack.pop()
                if not yielded:
                    self.nonempty[i] += 1
                yielded += 1
                self.yields[i] += 1
                yield item
        finally:
            gen.close()

    # -- results ----------------------------------------------------------

    def metrics(self, wall_s: float, slowdown: float = 1.0) -> dict[str, float]:
        """Per-layer statistics of everything traced so far.

        Span times are divided by `slowdown`, the host's measured slowdown
        over the run (`hostspeed.HostSpeed`), so they read in reference
        seconds like the end-to-end times.  `trace.coverage` is the share of
        `wall_s` covered by spans; the caller adds `trace.overhead_s`, which
        needs an untraced run.
        """
        n = len(LAYERS)
        names = np.asarray(self.span_name)
        parents = np.asarray(self.span_parent)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        child = np.zeros(len(dur))
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_t = np.bincount(names, weights=dur - child, minlength=n)
        total_t = np.bincount(names, weights=dur, minlength=n)
        out: dict[str, float] = {}
        for i, (mod, qual, stats) in enumerate(LAYERS):
            calls = self.calls[i]
            values = {
                "calls": calls,
                "points": self.yields[i],
                "forms": self.yields[i],
                "self_s": float(self_t[i]) / slowdown,
                "total_s": float(total_t[i]) / slowdown,
                "true_frac": self.trues[i] / calls if calls else 0.0,
                "empty_frac": (calls - self.nonempty[i]) / calls if calls else 0.0,
            }
            for stat in stats:
                out[f"{mod}.{qual}.{stat}"] = values[stat]
        covered = float(dur[~nested].sum())
        out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
        return out
