"""Tests for the simulated-time breakdown: clock buckets and their bars."""

import math

from repro.algorithms import triangle_count
from repro.core import Gamma
from repro.graph import kronecker
from repro.gpusim import make_platform
from repro.gpusim import clock as clk
from repro.gpusim.clock import SimClock
from repro.obs import render_bars, render_buckets


def _bar_names(out):
    return [line.split()[0] for line in out.splitlines()]


class TestBucketBars:
    def test_rows_sorted_descending(self):
        platform = make_platform()
        platform.clock.advance("a", 1.0)
        platform.clock.advance("b", 3.0)
        out = render_buckets(platform.clock.snapshot())
        assert _bar_names(out) == ["b", "a"]

    def test_render(self):
        platform = make_platform()
        platform.clock.advance(clk.COMPUTE, 1.5)
        platform.clock.advance(clk.COMPUTE, 1.5)
        platform.clock.advance(clk.PAGE_FAULT, 1.0)
        out = render_buckets(platform.clock.snapshot(), width=20)
        assert "compute" in out
        assert "75.0%" in out
        assert "25.0%" in out

    def test_render_empty(self):
        assert "no simulated time" in render_buckets({})

    def test_bars_match_clock_on_real_run(self):
        graph = kronecker(7, 4, seed=1)
        platform = make_platform()
        with Gamma(graph, platform=platform) as engine:
            triangle_count(engine)
            buckets = platform.clock.snapshot()
            assert math.fsum(buckets.values()) == engine.simulated_seconds
            assert sorted(_bar_names(render_buckets(buckets))) \
                == sorted(buckets)


class TestPhaseTimerNesting:
    def test_render_preserves_first_entry_order(self):
        # --profile renders its wall-clock phases through render_bars in
        # the order they ran; unlike the bucket bars, the rows are not
        # re-sorted by size.
        rows = [("first", 0.001, 0.1), ("second", 0.009, 0.9)]
        out = render_bars(rows)
        assert _bar_names(out) == ["first", "second"]


class TestClockListeners:
    def test_legacy_listener_shim_is_gone(self):
        # The breakdown reads the clock's buckets directly; SimClock keeps
        # no per-charge callbacks.  Check the *class* too: after an
        # attribute is deleted, instance assignment would silently create
        # a plain one, so an instance check alone would not catch a
        # reintroduction.
        assert not [name for name in vars(SimClock) if "listener" in name]
        assert not [name for name in vars(SimClock()) if "listener" in name]
