"""Outside-in tracing of the bilevelreg package, plus the harness's statistics.

The tracer wraps the public functions and methods of each package module
from outside, without editing the package.  The modules import each other's
functions by name (``lower``, ``hypergrad`` and ``forward`` each bind
``circ_conv``; ``upper``, ``hypergrad`` and ``cli`` each bind
``gd_minimize``), so a wrapper replaces every module-level binding of the
original function, not only the one in the defining module.  Methods are
wrapped on their classes, which every caller shares.

Spans are aggregated in memory per name: call count, inclusive time and self
time (inclusive time minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import inspect
import math
import re
import time
from types import ModuleType
from typing import Callable

# Layers are the package modules named in the benchmark's per-layer table.
LAYERS = (
    "signals",
    "potentials",
    "forward",
    "lower",
    "solvers",
    "hypergrad",
    "upper",
    "losses",
    "data",
)

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """Names are 1-64 of [A-Za-z0-9_.-], starting with a letter or digit."""
    return METRIC_NAME.fullmatch(name) is not None


def median(values) -> float:
    s = sorted(values)
    if not s:
        raise ValueError("median of no values")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


def tail_percentile(values, beyond: int = 10):
    """Highest integer percentile in [50, 99] with at least ``beyond`` samples
    above it, by the nearest-rank rule.

    Returns ``(percentile, value, n)``, or ``(None, None, n)`` when even the
    median has fewer than ``beyond`` samples above it.
    """
    s = sorted(values)
    n = len(s)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= beyond:
            return p, s[rank - 1], n
    return None, None, n


class Tracer:
    """Aggregating span recorder; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counters: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self._stack: list[float] = []  # child time accumulated per open span
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = {name: [0, 0.0, 0.0] for name in self.stats}
        self.counters = {name: 0 for name in self.counters}
        self.durations = {name: [] for name in self.durations}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None,
             keep_durations: bool = False) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``observe(tracer, args, kwargs, result)`` runs after a successful call
        and adds work counts.  With ``keep_durations`` every inclusive
        duration is kept, for percentiles.
        """
        self.stats.setdefault(name, [0, 0.0, 0.0])
        if keep_durations:
            self.durations.setdefault(name, [])
        clock = self.clock
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                rec = self.stats[name]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child
                if stack:
                    stack[-1] += dur
                if keep_durations:
                    self.durations[name].append(dur)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(rec[2] for name, rec in self.stats.items()
                   if name.startswith(prefix))


def _public_functions(mod: ModuleType):
    for attr, obj in vars(mod).items():
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__):
            yield attr, obj


def _public_classes(mod: ModuleType):
    for attr, obj in vars(mod).items():
        if (not attr.startswith("_") and inspect.isclass(obj)
                and obj.__module__ == mod.__name__):
            yield obj


def install_package(tracer: Tracer, package: ModuleType,
                    observers: dict[str, Callable] | None = None,
                    keep_durations=(), callers=()) -> list[str]:
    """Wrap every public function and method of the package's layer modules.

    Each wrapped function replaces every binding of it found in any module of
    the package, the package namespace itself, and the ``callers`` modules
    (code outside the package that imported functions by name).  Methods are
    wrapped on the class that defines them.  Returns the span names installed.
    """
    observers = observers or {}
    modules = [package, *callers] + [
        mod for name, mod in sorted(vars(package).items())
        if isinstance(mod, ModuleType) and mod.__name__.startswith(package.__name__ + ".")
    ]
    names = []
    for layer in LAYERS:
        mod = getattr(package, layer)
        for attr, fn in list(_public_functions(mod)):
            name = f"{layer}.{attr}"
            wrapped = tracer.wrap(name, fn, observers.get(name), name in keep_durations)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        tracer.patch(holder, key, wrapped)
            names.append(name)
        for cls in _public_classes(mod):
            for attr, member in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(member):
                    continue
                name = f"{layer}.{attr}"
                tracer.patch(cls, attr, tracer.wrap(
                    name, member, observers.get(name), name in keep_durations))
                names.append(name)
    return names
