"""Exporter formats: Chrome trace events, metrics JSONL, ASCII renderers."""

import json

import pytest

from repro import obs
from repro.gpusim import clock as clk
from repro.gpusim import make_platform


@pytest.fixture(autouse=True)
def clean_default_slot():
    yield
    obs.uninstall()


def _collected():
    platform = make_platform()
    collector = obs.SpanCollector().bind(platform)
    with collector.span("phase-a"):
        platform.clock.advance(clk.COMPUTE, 1e-3)
        platform.counters.add("widgets", 5)
        collector.metric("widgets.batch", 5)
        with collector.span("kernel:x", kind="kernel"):
            platform.clock.advance(clk.COMPUTE, 2e-3)
    collector.finish()
    return collector


class TestChromeTrace:
    def test_structure(self):
        trace = obs.chrome_trace(_collected())
        payload = json.loads(json.dumps(trace))  # must be JSON-serializable
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert any(e["ph"] == "M" for e in events), "track metadata missing"
        complete = [e for e in events if e["ph"] == "X"]
        names = {e["name"] for e in complete}
        assert {"run", "phase-a", "kernel:x"} <= names
        for event in complete:
            assert event["dur"] >= 0
            assert {"ts", "pid", "tid", "args"} <= set(event)

    def test_sim_track_present_when_time_charged(self):
        events = obs.chrome_trace_events(_collected())
        sim_track = [e for e in events if e["ph"] == "X" and e["pid"] == 1]
        assert sim_track, "simulated-clock track missing"
        kernel = next(e for e in sim_track if e["name"] == "kernel:x")
        assert kernel["dur"] == pytest.approx(2e-3 * 1e6)  # microseconds

    def test_span_args_carry_counter_deltas(self):
        events = obs.chrome_trace_events(_collected())
        phase = next(e for e in events
                     if e["ph"] == "X" and e["name"] == "phase-a")
        assert phase["args"]["counters"]["widgets"] == 5

    def test_write_chrome_trace(self, tmp_path):
        path = obs.write_chrome_trace(_collected(), tmp_path / "t.json")
        assert json.loads(path.read_text())["traceEvents"]


class TestMetricsJsonl:
    def test_lines_parse_and_carry_fields(self):
        lines = obs.metrics_jsonl_lines(_collected())
        assert lines
        samples = [json.loads(line) for line in lines]
        batch = next(s for s in samples if s["name"] == "widgets.batch")
        assert batch["value"] == 5
        assert batch["span"] is not None

    def test_write_metrics_jsonl(self, tmp_path):
        path = obs.write_metrics_jsonl(_collected(), tmp_path / "m.jsonl")
        assert len(path.read_text().splitlines()) >= 1


class TestSpanTreeRecords:
    def test_parent_links_and_depths(self):
        records = obs.span_tree_records(_collected())
        by_name = {r["name"]: r for r in records}
        root = by_name["run"]
        assert root["parent"] == -1 or root["parent"] == root["index"]
        assert by_name["phase-a"]["parent"] == root["index"]
        assert by_name["kernel:x"]["parent"] == by_name["phase-a"]["index"]
        assert by_name["kernel:x"]["depth"] == by_name["phase-a"]["depth"] + 1
        assert by_name["kernel:x"]["kind"] == "kernel"

    def test_self_sim_partitions_the_clock(self):
        import math
        collector = _collected()
        records = obs.span_tree_records(collector)
        total_self = math.fsum(r["sim_self_seconds"] for r in records)
        assert total_self == pytest.approx(3e-3)
        # sim_self_seconds is exactly the sum of the per-bucket self table.
        for record in records:
            assert record["sim_self_seconds"] == pytest.approx(
                math.fsum(record["sim_self"].values()))

    def test_inclusive_counters_roll_up(self):
        records = obs.span_tree_records(_collected())
        by_name = {r["name"]: r for r in records}
        assert by_name["phase-a"]["counters"]["widgets"] == 5
        assert by_name["run"]["counters"]["widgets"] == 5
        assert by_name["kernel:x"]["counters_self"].get("widgets", 0) == 0

    def test_records_are_json_stable(self):
        records = obs.span_tree_records(_collected())
        assert json.loads(json.dumps(records)) == records


class TestAsciiRenderers:
    def test_render_bars_rows(self):
        out = obs.render_bars([("compute", 0.003, 0.75),
                               ("pcie", 0.001, 0.25)], width=20)
        assert "compute" in out
        assert "75.0%" in out
        assert "3.000 ms" in out

    def test_render_bars_empty(self):
        assert obs.render_bars([], empty="(nothing)") == "(nothing)"

    def test_render_span_tree_indents_children(self):
        out = obs.render_span_tree(_collected())
        lines = out.splitlines()
        run_line = next(l for l in lines if l.lstrip().startswith("run"))
        kernel_line = next(l for l in lines if "kernel:x" in l)
        indent = lambda l: len(l) - len(l.lstrip())  # noqa: E731
        assert indent(kernel_line) > indent(run_line)

    def test_render_span_tree_max_depth_prunes(self):
        out = obs.render_span_tree(_collected(), max_depth=1)
        assert "phase-a" in out
        assert "kernel:x" not in out

    def test_render_span_tree_shows_hot_counters(self):
        out = obs.render_span_tree(_collected())
        assert "widgets" in out
