"""The tracer's partition check and restore-after-run."""

import sys
import threading
import types

import pytest

import layers
from tracer import REMAINDER, LayerTracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


@pytest.fixture
def toy(monkeypatch):
    """A throwaway package ``toypkg`` with a function bound twice."""
    clock = FakeClock()
    mod = types.ModuleType("toypkg.work")

    def inner():
        clock.tick(2.0)
        return "inner"

    def outer():
        clock.tick(1.0)
        result = mod.inner()
        clock.tick(0.5)
        return result

    mod.inner, mod.outer = inner, outer
    user = types.ModuleType("toypkg.user")
    user.inner = inner  # a ``from toypkg.work import inner`` binding
    monkeypatch.setitem(sys.modules, "toypkg.work", mod)
    monkeypatch.setitem(sys.modules, "toypkg.user", user)
    return clock, mod, user


def test_self_times_and_remainder_add_up(toy):
    clock, mod, _ = toy
    tracer = LayerTracer(package="toypkg", clock=clock)
    tracer.wrap_function(mod, "outer", "outer")
    tracer.wrap_function(mod, "inner", "inner")
    with tracer.root():
        clock.tick(0.25)
        assert mod.outer() == "inner"
    self_s, error = tracer.partition(3.75)
    assert error is None
    assert self_s == {"inner": 2.0, "outer": 1.5, REMAINDER: 0.25}
    assert tracer.calls["inner"] == 1


def test_partition_reports_a_gap(toy):
    clock, mod, _ = toy
    tracer = LayerTracer(package="toypkg", clock=clock)
    tracer.wrap_function(mod, "inner", "inner")
    with tracer.root():
        mod.inner()
    # The caller timed 4 s around a root span that covered 2 s.
    _, error = tracer.partition(4.0)
    assert error is not None and "root spans cover" in error


def test_restore_puts_every_binding_back(toy):
    clock, mod, user = toy
    original_inner, original_outer = mod.inner, mod.outer
    tracer = LayerTracer(package="toypkg", clock=clock)
    tracer.wrap_function(mod, "inner", "inner")
    tracer.wrap_function(mod, "outer", "outer")
    assert user.inner is not original_inner  # the re-binding is wrapped
    assert tracer.installed == 3
    tracer.restore()
    assert mod.inner is original_inner
    assert mod.outer is original_outer
    assert user.inner is original_inner
    assert tracer.installed == 0


def test_other_threads_are_their_own_top_level(toy):
    clock, mod, _ = toy
    tracer = LayerTracer(package="toypkg", clock=clock)
    tracer.wrap_function(mod, "inner", "inner")
    thread = threading.Thread(target=mod.inner, name="side")
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    with tracer.root():
        clock.tick(1.0)
    self_s, error = tracer.partition(1.0)
    assert error is None
    assert self_s["inner"] == 2.0 and tracer.top_s["side"] == 2.0


def test_install_and_restore_on_the_program():
    from repro.core import framework
    from repro.graph import builders, canonical
    import repro.graph as graph_pkg
    before = (framework.Gamma.__dict__["aggregation"], builders.from_edges,
              canonical.canonical_form, getattr(graph_pkg, "from_edges", None))
    tracer = LayerTracer()
    layers.install(tracer)
    assert framework.Gamma.__dict__["aggregation"] is not before[0]
    assert builders.from_edges is not before[1]
    tracer.restore()
    after = (framework.Gamma.__dict__["aggregation"], builders.from_edges,
             canonical.canonical_form, getattr(graph_pkg, "from_edges", None))
    assert after == before
