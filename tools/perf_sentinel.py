#!/usr/bin/env python
"""Perf regression sentinel self-smoke (the CI perf-sentinel leg).

``smoke``
    Execute a small workload three times into a scratch history store,
    assert a fourth identical run is NOT flagged, then inject a synthetic
    1.3x slowdown into one span subtree (``inject_slowdown``) and assert
    the sentinel flags it *and* attributes it to that subtree.  Writes the
    verdicts and the clean run's critical-path report under ``--out``.
    Exit 0 when every assertion holds, 1 otherwise.

Gating a real history is ``repro perf-report --history DIR``.

Usage:
    PYTHONPATH=src python tools/perf_sentinel.py smoke --out reports/
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Synthetic slowdown factor the smoke injects (well past the sentinel's
#: 2% simulated-time floor, far below anything a real run would hide).
SMOKE_FACTOR = 1.3
#: Identical baseline runs recorded before the candidate is gated.
SMOKE_BASELINE_RUNS = 3


def _smoke_run():
    """One instrumented triangle-count run on a small Kronecker graph.

    Returns ``(simulated_seconds, clock_buckets, counters, span_records)``.
    Wall time is deliberately not recorded: the smoke asserts on exact
    sentinel behaviour, and only simulated time is deterministic enough
    for "three identical runs" to mean identical.
    """
    from repro import obs
    from repro.algorithms import triangle_count
    from repro.core import Gamma
    from repro.graph import kronecker

    graph = kronecker(7, 4, seed=1)
    collector = obs.install(obs.SpanCollector())
    engine = Gamma(graph)
    try:
        triangle_count(engine)
        collector.finish()
        return (
            engine.platform.clock.total,
            engine.platform.clock.snapshot(),
            engine.platform.counters.snapshot(),
            obs.span_tree_records(collector),
        )
    finally:
        collector.finish()
        engine.close()


def _heaviest_subtree(records) -> str:
    """Deterministic injection target: the heaviest depth-1 subtree."""
    from repro.obs.profile import aggregate_paths, build_tree
    from repro.obs.profile.spantree import path_depth

    paths = aggregate_paths(build_tree(records))
    candidates = [p for p in paths if path_depth(p) == 1]
    if not candidates:
        raise SystemExit("smoke: span tree has no depth-1 subtrees")
    return max(candidates, key=lambda p: (paths[p]["sim_seconds"], p))


def _cmd_smoke(args: argparse.Namespace) -> int:
    from repro.obs.profile import (
        HistoryStore,
        SentinelConfig,
        check_run,
        inject_slowdown,
        render_critical_path,
        render_verdicts,
    )

    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    with tempfile.TemporaryDirectory(prefix="perf-sentinel-smoke-") as tmp:
        store = HistoryStore(Path(tmp) / "history")
        config = SentinelConfig()
        runs = [_smoke_run() for __ in range(SMOKE_BASELINE_RUNS + 1)]
        sims = sorted({sim for sim, *__ in runs})
        check(len(sims) == 1,
              f"{len(runs)} runs simulate identically ({sims})")
        for sim, buckets, counters, records in runs:
            store.append(bench="smoke", workload="triangles-kron7",
                         simulated_seconds=sim, clock_buckets=buckets,
                         counters=counters, span_tree=records)

        rows = store.window("smoke", "triangles-kron7",
                            limit=config.window + 1)
        clean = check_run(rows[0], rows[1:], config)
        check(not clean["flagged"], "clean re-run is not flagged")
        check(not clean["insufficient_history"],
              f"window of {len(rows) - 1} is enough history")

        sim, buckets, counters, records = runs[-1]
        target = _heaviest_subtree(records)
        slowed, added = inject_slowdown(records, target, SMOKE_FACTOR)
        check(added > 0.0, f"injection at {target} added {added:.3e} s")
        injected = store.append(
            bench="smoke", workload="triangles-kron7",
            simulated_seconds=sim + added, clock_buckets=buckets,
            counters=counters, span_tree=slowed,
            extra={"injected": {"path": target, "factor": SMOKE_FACTOR}})
        window = store.window("smoke", "triangles-kron7",
                              limit=config.window + 1,
                              before_seq=injected["seq"])
        verdict = check_run(injected, window, config)
        check(verdict["flagged"],
              f"{SMOKE_FACTOR}x slowdown at {target} is flagged")
        flags = {f["metric"]: f for f in verdict["flags"]}
        sim_flag = flags.get("simulated_seconds")
        check(sim_flag is not None, "simulated_seconds carries the flag")
        top = None
        if sim_flag and sim_flag["attribution"]:
            top = sim_flag["attribution"][0]["path"]
        # Deepest-subtree semantics: the top attribution may name a child
        # of the injected subtree (the heavy node inside it), never an
        # unrelated sibling or a bare ancestor.
        check(top is not None
              and (top == target or top.startswith(target + "/")),
              f"top attribution {top!r} lies within {target!r}")

        store.close()
        print()
        print(render_verdicts([clean, verdict]))
        if out_dir is not None:
            (out_dir / "critical-path.txt").write_text(
                render_critical_path(records) + "\n")
            (out_dir / "perf-verdict-clean.json").write_text(
                json.dumps(clean, indent=2, sort_keys=True) + "\n")
            (out_dir / "perf-verdict-injected.json").write_text(
                json.dumps(verdict, indent=2, sort_keys=True) + "\n")
            print(f"\nartifacts written to {out_dir}")

    if failures:
        print(f"\nsmoke FAILED ({len(failures)} assertion(s))",
              file=sys.stderr)
        return 1
    print("\nsmoke passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    smk = sub.add_parser(
        "smoke", help="self-test: inject a 1.3x slowdown, assert flagged "
                      "and attributed")
    smk.add_argument("--out", metavar="DIR",
                     help="write verdicts + critical-path artifacts here")

    args = parser.parse_args(argv)
    return _cmd_smoke(args)


if __name__ == "__main__":
    sys.exit(main())
