"""Span-tree reassembly, critical-path analysis, and slowdown injection."""

import pytest

from repro import obs
from repro.gpusim import clock as clk
from repro.gpusim import make_platform
from repro.obs.profile import (
    aggregate_paths,
    build_tree,
    critical_path,
    critical_path_report,
    hot_subtrees,
    inject_slowdown,
    render_critical_path,
)
from repro.obs.profile.spantree import SpanNode, path_depth


@pytest.fixture(autouse=True)
def clean_default_slot():
    yield
    obs.uninstall()


def _records():
    """A three-level tree: run > {setup, work > {kernel, kernel}}."""
    platform = make_platform()
    collector = obs.SpanCollector().bind(platform)
    with collector.span("setup"):
        platform.clock.advance(clk.HOST_PREP, 1e-3)
    with collector.span("work"):
        platform.clock.advance(clk.COMPUTE, 1e-3)
        with collector.span("kernel:a", kind="kernel"):
            platform.clock.advance(clk.COMPUTE, 4e-3)
        with collector.span("kernel:b", kind="kernel"):
            platform.clock.advance(clk.COMPUTE, 2e-3)
    collector.finish()
    return obs.span_tree_records(collector)


class TestSpanTree:
    def test_build_tree_reassembles_parents(self):
        root = build_tree(_records())
        assert root.name == "run"
        names = {node.name for node in root.walk()}
        assert {"run", "setup", "work", "kernel:a", "kernel:b"} <= names
        work = next(n for n in root.walk() if n.name == "work")
        assert {c.name for c in work.children} == {"kernel:a", "kernel:b"}

    def test_paths_are_slash_joined_and_depth_counted(self):
        root = build_tree(_records())
        kernel = next(n for n in root.walk() if n.name == "kernel:a")
        assert kernel.path == "run/work/kernel:a"
        assert path_depth(kernel.path) == 2
        assert path_depth(root.path) == 0

    def test_roundtrip_through_records(self):
        records = _records()
        rebuilt = [node.to_record() for node in build_tree(records).walk()]
        by_index = {r["index"]: r for r in rebuilt}
        for record in records:
            assert by_index[record["index"]]["sim_seconds"] == pytest.approx(
                record["sim_seconds"])

    def test_aggregate_paths_inclusive_and_self(self):
        paths = aggregate_paths(build_tree(_records()))
        work = paths["run/work"]
        assert work["sim_seconds"] == pytest.approx(7e-3)
        assert work["sim_self_seconds"] == pytest.approx(1e-3)
        assert paths["run"]["sim_seconds"] == pytest.approx(8e-3)

    def test_empty_tree(self):
        assert build_tree([]) is None
        assert aggregate_paths(None) == {}


class TestCriticalPath:
    def test_descends_into_heaviest_child(self):
        rows = critical_path(_records())
        assert [r["name"] for r in rows] == ["run", "work", "kernel:a"]
        assert rows[-1]["inclusive"] == pytest.approx(4e-3)

    def test_shares_are_relative_to_root(self):
        rows = critical_path(_records())
        assert rows[0]["share"] == pytest.approx(1.0)
        assert rows[1]["share"] == pytest.approx(7 / 8)

    def test_hot_subtrees_rank_by_self_time(self):
        rows = hot_subtrees(_records(), top=3)
        assert rows[0]["path"] == "run/work/kernel:a"
        assert rows[0]["self"] == pytest.approx(4e-3)
        assert sum(r["share"] for r in rows) <= 1.0 + 1e-9

    def test_report_and_render(self):
        report = critical_path_report(_records())
        assert report["schema"] == "gamma-critical-path/1"
        text = render_critical_path(_records())
        assert "critical path" in text
        assert "kernel:a" in text

    def test_empty_records(self):
        assert critical_path([]) == []
        assert "no spans" in render_critical_path([])


class TestInjectSlowdown:
    def test_scales_subtree_and_propagates_to_ancestors(self):
        records = _records()
        slowed, added = inject_slowdown(records, "run/work", 1.5)
        assert added == pytest.approx(7e-3 * 0.5)
        paths = aggregate_paths(build_tree(slowed))
        assert paths["run/work"]["sim_seconds"] == pytest.approx(7e-3 * 1.5)
        # The root grows by exactly the injected delta; the sibling
        # subtree is untouched.
        assert paths["run"]["sim_seconds"] == pytest.approx(8e-3 + added)
        assert paths["run/setup"]["sim_seconds"] == pytest.approx(1e-3)

    def test_leaf_injection(self):
        slowed, added = inject_slowdown(_records(), "run/work/kernel:b", 2.0)
        assert added == pytest.approx(2e-3)
        paths = aggregate_paths(build_tree(slowed))
        assert paths["run/work/kernel:b"]["sim_seconds"] == pytest.approx(
            4e-3)
        assert paths["run/work/kernel:a"]["sim_seconds"] == pytest.approx(
            4e-3)

    def test_unknown_path_raises(self):
        with pytest.raises(KeyError):
            inject_slowdown(_records(), "run/nonesuch", 1.3)

    def test_input_records_unmodified(self):
        records = _records()
        before = [dict(r) for r in records]
        inject_slowdown(records, "run/work", 1.5)
        assert records == before


class TestSpanNodeFromRecord:
    def test_defaults_for_sparse_record(self):
        node = SpanNode({"index": 0, "name": "x"})
        assert node.parent == -1
        assert node.sim_seconds == 0.0
        assert node.counters == {}
