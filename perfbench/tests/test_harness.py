"""Tests of the benchmark harness's own arithmetic.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import json
import math
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from tracer import (  # noqa: E402
    Tracer,
    install_package,
    median,
    tail_percentile,
    valid_metric_name,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.advance(1.0)

    def middle():
        clock.advance(2.0)
        leaf()
        clock.advance(0.5)
        leaf()

    def root():
        clock.advance(3.0)
        middle()
        leaf()

    leaf = tr.wrap("a.leaf", leaf)
    middle = tr.wrap("a.middle", middle)
    root = tr.wrap("a.root", root)
    root()

    calls = {k: v[0] for k, v in tr.stats.items()}
    inclusive = {k: v[1] for k, v in tr.stats.items()}
    self_s = {k: v[2] for k, v in tr.stats.items()}
    assert calls == {"a.leaf": 3, "a.middle": 1, "a.root": 1}
    assert inclusive == {"a.leaf": 3.0, "a.middle": 4.5, "a.root": 8.5}
    assert self_s == {"a.leaf": 3.0, "a.middle": 2.5, "a.root": 3.0}
    # self times partition the root span exactly
    assert sum(self_s.values()) == inclusive["a.root"]
    assert tr.layer_self_s("a") == 8.5


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def boom():
        clock.advance(2.0)
        raise ValueError("x")

    def outer():
        clock.advance(1.0)
        with pytest.raises(ValueError):
            boom()

    boom = tr.wrap("b.boom", boom)
    outer = tr.wrap("b.outer", outer)
    outer()
    assert tr.stats["b.boom"] == [1, 2.0, 2.0]
    assert tr.stats["b.outer"] == [1, 3.0, 1.0]


def test_install_wraps_every_binding_and_uninstall_restores():
    # a two-module package where one module imports the other's function
    pkg = types.ModuleType("pkg")
    signals = types.ModuleType("pkg.signals")
    lower = types.ModuleType("pkg.lower")

    def conv(x):
        return x + 1

    conv.__module__ = "pkg.signals"
    signals.conv = conv
    lower.conv = conv  # "from .signals import conv"
    pkg.signals, pkg.lower = signals, lower
    for layer in ("potentials", "forward", "solvers", "hypergrad", "upper",
                  "losses", "data"):
        setattr(pkg, layer, types.ModuleType(f"pkg.{layer}"))
    caller = types.ModuleType("caller")
    caller.conv = conv

    tr = Tracer()
    names = install_package(tr, pkg, callers=(caller,))
    assert names == ["signals.conv"]
    assert signals.conv is not conv and lower.conv is signals.conv
    assert caller.conv is signals.conv
    assert lower.conv(1) == 2 and caller.conv(1) == 2
    assert tr.stats["signals.conv"][0] == 2
    tr.uninstall()
    assert signals.conv is conv and lower.conv is conv and caller.conv is conv


@pytest.mark.parametrize("n, pct", [
    (19, None), (20, 50), (25, 60), (30, 66), (100, 90), (101, 90),
    (110, 90), (200, 95), (1000, 99), (5000, 99),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, pct):
    values = [float(i) for i in range(n, 0, -1)]  # unsorted input
    p, value, count = tail_percentile(values)
    assert count == n
    assert p == pct
    if p is not None:
        assert sum(v > value for v in values) >= 10
        if p < 99:  # one percentile higher leaves fewer than ten beyond it
            next_rank = math.ceil((p + 1) * n / 100)
            assert n - next_rank < 10


def test_tail_percentile_p90_value():
    values = list(range(1, 101))
    assert tail_percentile(values) == (90, 90, 100)


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


@pytest.mark.parametrize("name, ok", [
    ("run_s", True),
    ("signals.circ_conv.us_per_call", True),
    ("lower.hess_vec.per_upper_iter", True),
    ("a-b_c.9", True),
    ("9lives", True),
    ("", False),
    (".hidden", False),
    ("_private", False),
    ("has space", False),
    ("slash/name", False),
    ("percent%", False),
    ("x" * 64, True),
    ("x" * 65, False),
])
def test_metric_name_validity(name, ok):
    assert valid_metric_name(name) is ok


def test_benchmark_json_names_are_valid_and_unique():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(valid_metric_name(n) for n in names)


def test_layer_metrics_match_benchmark_json():
    from run import layer_metrics
    from tracer import LAYERS

    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    data_s = {"data.load_config": 0.1, "data.build_train_set": 0.2,
              "data.build_theta": 0.3}
    emitted = layer_metrics({}, {}, {layer: 0.0 for layer in LAYERS}, data_s,
                            [1.0] * 20, 10, 0.05)
    assert list(emitted) == [m["name"] for m in spec["per_layer"]]
    assert {name: unit for name, (_, unit) in emitted.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
