#!/usr/bin/env python
"""Wall-clock hot-path benchmark: batched (fast) pipeline vs. reference.

Times SM(q1), 4-clique, and FPM end-to-end on GAMMA under both hot-path
pipelines (see :mod:`repro.perf`), verifies the simulated results are
bit-for-bit identical (exit 1 when they diverge), and writes
``BENCH_hotpath.json`` at the repo root — the perf trajectory.  The
previous run's figures (if any) are diffed inline, and each workload's
manifest is gated with ``repro report BENCH_hotpath.json --against OLD``.

Usage:
    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick    # CI smoke

This is a standalone script, not a pytest-benchmark module: it exists to
compare the two wall-clock pipelines *within* one process, which the figure
benchmarks (one pipeline, simulated-time focused) cannot do.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs, perf  # noqa: E402
from repro.bench.runner import SYSTEMS  # noqa: E402
from repro.bench.workloads import (  # noqa: E402
    fpm_support,
    fpm_task,
    kcl_task,
    sm_task,
)
from repro.graph import datasets  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_hotpath.json"
REPORTS_DIR = REPO_ROOT / "benchmarks" / "reports"
DEFAULT_HISTORY = REPORTS_DIR / "history"


def _workloads(quick: bool):
    """(name, system, dataset, task-factory) grid; quick mode shrinks the
    datasets so a CI smoke run finishes in seconds."""
    sm_ds = "CL" if quick else "CL*8"
    fpm_ds = "EA" if quick else "CL"
    return [
        ("SM(q1)", "GAMMA", sm_ds, lambda g: sm_task(1)),
        ("4-clique", "GAMMA", "CL", lambda g: kcl_task(4)),
        ("FPM", "GAMMA", fpm_ds,
         lambda g: fpm_task(fpm_support(g.num_edges))),
    ]


def _run_cell(system: str, dataset: str, task):
    """One timed end-to-end run; returns (wall_seconds, simulated, counters)."""
    graph = datasets.load(dataset)
    start = time.perf_counter()
    engine = SYSTEMS[system](graph)
    try:
        task.run(engine)
        wall = time.perf_counter() - start
        return wall, engine.simulated_seconds, engine.platform.counters.snapshot()
    finally:
        engine.close()


def _collected_run(system, dataset, task):
    """One extra run with a span collector attached; returns the manifest,
    the number of spans the run produced, and the flat span-tree records
    (the shape the perf-history store and critical-path report consume)."""
    collector = obs.install(obs.SpanCollector())
    graph = datasets.load(dataset)
    start = time.perf_counter()
    engine = SYSTEMS[system](graph)
    try:
        task.run(engine)
        wall = time.perf_counter() - start
        collector.finish()
        manifest = obs.build_manifest(
            engine.platform, collector,
            system=system, dataset=dataset, task=task.name,
            config=getattr(engine, "config", None), wall_seconds=wall,
        )
        return manifest, len(collector.spans), obs.span_tree_records(collector)
    finally:
        collector.finish()
        engine.close()


#: Null-telemetry budget: the instrumented hot paths may cost at most this
#: fraction of a workload's wall time when no collector is attached.
NULL_OVERHEAD_BUDGET = 0.02


def _null_span_cost(iters: int = 200_000) -> float:
    """Per-span wall cost of the no-sink fast path (enter + exit)."""
    from repro.obs.spans import NULL_TELEMETRY

    span = NULL_TELEMETRY.span  # the attribute lookup engines pay
    start = time.perf_counter()
    for __ in range(iters):
        with span("bench:null"):
            pass
    return (time.perf_counter() - start) / iters


def _null_resilience_cost(iters: int = 200_000) -> float:
    """Per-hook wall cost of the fault-injection fast path with no plan.

    Every telemetry span in the hot paths is paired with one resilience
    ``phase()`` bracket (plus ``active``-guarded ``io()`` checks that cost
    a single attribute read), so the per-span null cost is the right unit
    to bound against the same budget.
    """
    from repro.resilience.faults import NULL_RESILIENCE

    phase = NULL_RESILIENCE.phase  # the attribute lookup engines pay
    start = time.perf_counter()
    for level in range(iters):
        with phase(f"level:{level}"):  # f-string arg, as the hot path pays
            pass
        if NULL_RESILIENCE.active:  # the guard the io() sites pay
            pass
    return (time.perf_counter() - start) / iters


def _measure(name, system, dataset, task_factory, repeats, null_cost):
    graph = datasets.load(dataset)
    task = task_factory(graph)
    with perf.pipeline(perf.FAST):
        _run_cell(system, dataset, task)  # warm caches (incl. bitset build)
        fast_runs = [_run_cell(system, dataset, task) for __ in range(repeats)]
        manifest, span_count, span_records = _collected_run(
            system, dataset, task)
    with perf.pipeline(perf.REFERENCE):
        ref_runs = [_run_cell(system, dataset, task) for __ in range(repeats)]
    fast_wall = min(r[0] for r in fast_runs)
    ref_wall = min(r[0] for r in ref_runs)
    simulated = {r[1] for r in fast_runs} | {r[1] for r in ref_runs}
    counters = [r[2] for r in fast_runs + ref_runs]
    identical = len(simulated) == 1 and all(c == counters[0] for c in counters)
    # Every span an instrumented run records is a null telemetry enter/exit
    # plus a null resilience phase bracket in the uninstrumented runs above
    # — bound that combined cost against the budget.
    overhead = (span_count * null_cost / fast_wall) if fast_wall else 0.0
    return {
        "workload": name,
        "system": system,
        "dataset": dataset,
        "task": task.name,
        "fast_seconds": fast_wall,
        "reference_seconds": ref_wall,
        "speedup": (ref_wall / fast_wall) if fast_wall else float("inf"),
        "simulated_seconds": fast_runs[0][1],
        "results_identical": identical,
        "telemetry": {
            "span_count": span_count,
            "null_overhead_fraction": overhead,
            "within_budget": overhead <= NULL_OVERHEAD_BUDGET,
        },
        "manifest": manifest,
        # Consumed by the history append + critical-path artifact in
        # main(); popped before the report is serialised (the manifest
        # already summarises the spans, the raw records would bloat it).
        "_span_records": span_records,
    }


def _render(rows):
    head = (f"{'workload':10s} {'dataset':8s} {'fast':>9s} {'reference':>10s}"
            f" {'speedup':>8s}  {'spans':>5s} {'null-ovh':>8s}  identical")
    lines = [head, "-" * len(head)]
    for r in rows:
        tel = r["telemetry"]
        lines.append(
            f"{r['workload']:10s} {r['dataset']:8s}"
            f" {r['fast_seconds'] * 1e3:8.1f}ms"
            f" {r['reference_seconds'] * 1e3:9.1f}ms"
            f" {r['speedup']:7.2f}x"
            f" {tel['span_count']:5d} {tel['null_overhead_fraction']:7.3%} "
            f" {r['results_identical']}"
        )
    return "\n".join(lines)


def _diff_against_previous(rows, previous):
    by_name = {r["workload"]: r for r in previous.get("workloads", [])}
    lines = []
    for r in rows:
        old = by_name.get(r["workload"])
        if old is None or not old.get("fast_seconds"):
            continue
        delta = (r["fast_seconds"] - old["fast_seconds"]) / old["fast_seconds"]
        lines.append(
            f"{r['workload']:10s} fast {old['fast_seconds'] * 1e3:8.1f}ms"
            f" -> {r['fast_seconds'] * 1e3:8.1f}ms  ({delta:+.1%})"
        )
    return "\n".join(lines) if lines else "(no comparable previous run)"


def _record_history(rows, history_dir) -> None:
    """Append each workload's fast/reference arms to the perf-history
    store and write the critical-path artifact; pops the private
    ``_span_records`` key either way so the JSON report stays lean."""
    from repro.obs.profile import HistoryStore, render_critical_path

    sections = []
    records_by_row = [(row, row.pop("_span_records", None)) for row in rows]
    for row, records in records_by_row:
        if records:
            sections.append(f"== {row['workload']} ({row['dataset']}) ==\n"
                            + render_critical_path(records))
    if sections:
        REPORTS_DIR.mkdir(exist_ok=True)
        (REPORTS_DIR / "critical_path_hotpath.txt").write_text(
            "\n\n".join(sections) + "\n")
        print(f"critical-path report -> "
              f"{REPORTS_DIR / 'critical_path_hotpath.txt'}")
    if not history_dir:
        return
    with HistoryStore(history_dir) as store:
        for row, records in records_by_row:
            manifest = row.get("manifest") or {}
            store.append(
                bench="hotpath", workload=row["workload"], arm="fast",
                wall_seconds=row["fast_seconds"],
                simulated_seconds=row["simulated_seconds"],
                clock_buckets=manifest.get("clock_buckets"),
                counters=manifest.get("counters"),
                span_tree=records,
            )
            # The reference pipeline simulates identically (the bench
            # asserts it); only its wall time is its own.
            store.append(
                bench="hotpath", workload=row["workload"], arm="reference",
                wall_seconds=row["reference_seconds"],
                simulated_seconds=row["simulated_seconds"],
            )
    print(f"perf history: appended {2 * len(rows)} record(s) "
          f"to {history_dir}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small datasets / 1 repeat (CI smoke)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repeats per pipeline (min is reported)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"report path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--history-dir", default=str(DEFAULT_HISTORY),
                        help="perf-history store directory (empty string "
                             "disables the append)")
    args = parser.parse_args(argv)
    repeats = 1 if args.quick else max(1, args.repeats)

    previous = None
    if args.output.exists():
        try:
            previous = json.loads(args.output.read_text())
        except (OSError, ValueError):
            previous = None

    null_span = _null_span_cost()
    null_res = _null_resilience_cost()
    null_cost = null_span + null_res
    print(f"null-telemetry span cost: {null_span * 1e9:.0f} ns/span, "
          f"null-resilience hook cost: {null_res * 1e9:.0f} ns/hook")

    rows = []
    for name, system, dataset, factory in _workloads(args.quick):
        print(f"measuring {name} on {dataset} "
              f"({repeats} repeat(s) per pipeline)...", flush=True)
        rows.append(_measure(name, system, dataset, factory, repeats,
                             null_cost))
        datasets.clear_cache()

    print()
    print(_render(rows))
    if previous is not None:
        print("\nvs previous run:")
        print(_diff_against_previous(rows, previous))

    _record_history(rows, args.history_dir)

    report = {
        "schema": 2,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": args.quick,
        "repeats": repeats,
        "null_span_cost_seconds": null_span,
        "null_resilience_cost_seconds": null_res,
        "workloads": rows,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.output}")

    bad = [r["workload"] for r in rows if not r["results_identical"]]
    if bad:
        print(f"ERROR: simulated results diverged between pipelines: {bad}",
              file=sys.stderr)
        return 1
    heavy = [r["workload"] for r in rows
             if not r["telemetry"]["within_budget"]]
    if heavy:
        worst = max(r["telemetry"]["null_overhead_fraction"] for r in rows)
        print(f"ERROR: null-telemetry overhead exceeds "
              f"{NULL_OVERHEAD_BUDGET:.0%} of wall time on {heavy} "
              f"(worst {worst:.2%})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
