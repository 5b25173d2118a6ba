"""Exit-code contract of the manifest regression gate, ``repro report
CANDIDATE --against BASELINE``."""

import copy
import json

import pytest

from repro import obs
from repro.algorithms import triangle_count
from repro.cli import main
from repro.core import Gamma
from repro.graph import kronecker


def _report(capsys, candidate, baseline, *flags):
    code = main(["report", str(candidate), "--against", str(baseline),
                 *flags])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    graph = kronecker(7, 4, seed=3)
    collector = obs.install(obs.SpanCollector())
    with Gamma(graph) as engine:
        triangle_count(engine)
        collector.finish()
        manifest = obs.build_manifest(
            engine.platform, collector,
            system="GAMMA", dataset="K7", task="triangles")
    obs.uninstall()
    path = tmp_path_factory.mktemp("manifests") / "base.json"
    obs.write_manifest(manifest, path)
    return path


def _regressed_copy(manifest_path, target):
    manifest = json.loads(manifest_path.read_text())
    worse = copy.deepcopy(manifest)
    worse["counters"]["page_faults"] = (
        worse["counters"].get("page_faults", 0) * 2 + 100)
    target.write_text(json.dumps(worse))
    return target


class TestObsDiffTool:
    def test_identical_manifests_exit_zero(self, capsys, manifest_path):
        code, out, err = _report(capsys, manifest_path, manifest_path)
        assert code == obs.EXIT_OK, err
        assert "within thresholds" in out

    def test_injected_regression_exits_nonzero(self, capsys, manifest_path,
                                               tmp_path):
        worse = _regressed_copy(manifest_path, tmp_path / "worse.json")
        code, out, __ = _report(capsys, worse, manifest_path)
        assert code == obs.EXIT_REGRESSIONS
        assert "REGRESSION" in out
        assert "page_faults" in out

    def test_warn_only_exits_zero(self, capsys, manifest_path, tmp_path):
        worse = _regressed_copy(manifest_path, tmp_path / "worse.json")
        code, out, __ = _report(capsys, worse, manifest_path, "--warn-only")
        assert code == obs.EXIT_OK
        assert "REGRESSION" in out

    def test_bench_report_shape(self, capsys, manifest_path, tmp_path):
        manifest = json.loads(manifest_path.read_text())
        report = {"schema": 2, "workloads": [
            {"workload": "triangles", "manifest": manifest}]}
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(report))
        code, out, err = _report(capsys, manifest_path, report_path)
        assert code == obs.EXIT_OK, err
        assert "GAMMA/K7/triangles" in out
        # ...and a bench report is accepted on the candidate side too.
        code, out, err = _report(capsys, report_path, manifest_path)
        assert code == obs.EXIT_OK, err
        assert "GAMMA/K7/triangles" in out

    def test_manifestless_baseline_is_skipped(self, capsys, manifest_path,
                                              tmp_path):
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps({"schema": 1, "workloads": [
            {"workload": "triangles", "fast_seconds": 1.0}]}))
        code, out, __ = _report(capsys, manifest_path, legacy)
        assert code == obs.EXIT_OK
        assert "nothing to gate" in out

    def test_disjoint_workloads_compare_nothing(self, capsys, manifest_path,
                                                tmp_path):
        manifest = json.loads(manifest_path.read_text())
        other = copy.deepcopy(manifest)
        other["dataset"] = "ZZ"
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        code, out, __ = _report(capsys, other_path, manifest_path)
        assert code == obs.EXIT_OK
        assert "no comparable manifests" in out

    def test_manifestless_candidate_exits_two_strict(self, capsys,
                                                     manifest_path,
                                                     tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        code, __, err = _report(capsys, empty, manifest_path)
        assert code == obs.EXIT_NO_CANDIDATE
        assert "no manifests found" in err
        # ...but warn-only reports and succeeds (bedding-in mode).
        code, __, __ = _report(capsys, empty, manifest_path, "--warn-only")
        assert code == obs.EXIT_OK

    def test_named_exit_code_constants(self):
        assert (obs.EXIT_OK, obs.EXIT_REGRESSIONS,
                obs.EXIT_NO_CANDIDATE) == (0, 1, 2)
