"""The percentile rule and failed-share counting."""

import json
from pathlib import Path

import layers
import run
from common import MIN_BEYOND, nearest_rank, tail_percentile


def test_p99_needs_ten_samples_beyond_it():
    values = list(range(1000))
    pct, value, beyond = tail_percentile(values)
    assert (pct, value, beyond) == (99.0, 989.0, 10)


def test_falls_back_to_p90_below_a_thousand_samples():
    values = list(range(999))
    pct, _, beyond = tail_percentile(values)
    assert pct == 90.0 and beyond >= MIN_BEYOND


def test_no_percentile_without_ten_beyond():
    assert tail_percentile(list(range(99))) is None
    assert tail_percentile([]) is None
    assert tail_percentile(list(range(100)))[0] == 90.0


def test_nearest_rank_counts_what_lies_beyond():
    assert nearest_rank([5, 1, 4, 2, 3], 50) == (3.0, 2)


def test_serve_counting_adds_worker_deaths():
    import serve_mix
    one = serve_mix.Pass()
    outcomes = ["completed"] * 16 + ["refused", "late", "failed", "wrong"]
    for outcome in outcomes:
        query = serve_mix.Query({"family": "kcl"}, 0.0, "open")
        query.outcome = outcome
        one.queries.append(query)
    one.worker_deaths = 1
    from common import Result
    result = Result()
    serve_mix._count(one, result)
    assert (result.attempted, result.failed) == (20, 5)


def test_a_late_query_counts_as_the_deadline():
    import serve_mix
    query = serve_mix.Query({"family": "kcl"}, 0.0, "open")
    query.outcome = "late"
    assert query.latency_s == serve_mix.DEADLINE_S


def test_benchmark_json_matches_the_metric_lists():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.BATCH_E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [tuple(m) for m in layers.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


class _TinyWrongFpm:
    """``fpm-cl``'s code path on a small graph, with a wrong digest."""

    @staticmethod
    def make(seed):
        import batch

        class Tiny(batch.FpmCl):
            dataset = "EA"
            min_support = 8
            setups = 2
            expected = "0" * 64

        return Tiny(seed)


def test_a_wrong_answer_fails_the_run_and_exits_nonzero(monkeypatch, capsys):
    import batch
    monkeypatch.setitem(batch.WORKLOADS, "fpm-cl", _TinyWrongFpm.make)
    code = run.main(["--workload", "fpm-cl", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] == 1 + batch.MIN_ITERATIONS
