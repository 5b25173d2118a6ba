"""Which public calls belong to which layer, and the per-layer metrics.

:func:`install` points a :class:`~tracer.LayerTracer` at the program's
public entry points, one ``src/repro/`` module at a time.  The names in
:data:`PER_LAYER` are the per-layer contract later changes claim gains
against; every traced run reports all of them, with 0 where a layer did
not run.  ``BENCHMARK.json`` lists the same names (a test checks it).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from tracer import REMAINDER, LayerTracer

#: Simulated-clock buckets reported one metric each; anything else the
#: clock carries lands in ``gpusim.sim.other_ms`` so the buckets always
#: add up to ``sim_ms``.
SIM_BUCKETS = (
    "compute", "device_mem", "pcie_unified", "pcie_zerocopy",
    "pcie_explicit", "page_fault", "kernel_launch", "host_prep",
    "cpu_compute", "interconnect", "shard_sync", "disk_io", "pcie_stall",
    "resilience_backoff",
)

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("graph.build_s", "s", "lower"),
    ("graph.canonical_s", "s", "lower"),
    ("graph.canonical_calls", "count", "lower"),
    ("graph.quick_patterns", "count", "lower"),
    ("core.extension_s", "s", "lower"),
    ("core.aggregation_s", "s", "lower"),
    ("core.sort_s", "s", "lower"),
    ("core.filter_dedup_s", "s", "lower"),
    ("core.engine_build_s", "s", "lower"),
    ("core.embeddings", "count", "lower"),
    ("gpusim.account_s", "s", "lower"),
    *[(f"gpusim.sim.{b}_ms", "ms", "lower") for b in SIM_BUCKETS],
    ("gpusim.sim.other_ms", "ms", "lower"),
    ("gpusim.page_faults", "count", "lower"),
    ("gpusim.page_accesses", "count", "lower"),
    ("gpusim.page_hit_ratio", "ratio", "higher"),
    ("gpusim.bytes_h2d", "bytes", "lower"),
    ("shard.coord_s", "s", "lower"),
    ("shard.util_min", "ratio", "higher"),
    ("shard.skew_ms", "ms", "lower"),
    ("plan.resolve_s", "s", "lower"),
    ("plan.cache_lookups", "count", "higher"),
    ("plan.cache_hit_ratio", "ratio", "higher"),
    ("resilience.checkpoint_s", "s", "lower"),
    ("resilience.checkpoint_bytes", "bytes", "lower"),
    ("resilience.leaked", "count", "lower"),
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.exec_ms_p50", "ms", "lower"),
    ("serve.overhead_ms_p50", "ms", "lower"),
    ("serve.preemptions", "count", "lower"),
    ("serve.worker_deaths", "count", "lower"),
    ("serve.gen_late_ms_p99", "ms", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.remainder_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]
UNITS: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}

#: Tracer layer -> the ``*_s`` metric carrying its self time.
SELF_TIME_METRICS = {
    "graph.build": "graph.build_s",
    "graph.canonical": "graph.canonical_s",
    "core.extension": "core.extension_s",
    "core.aggregation": "core.aggregation_s",
    "core.sort": "core.sort_s",
    "core.filter_dedup": "core.filter_dedup_s",
    "core.engine_build": "core.engine_build_s",
    "gpusim.account": "gpusim.account_s",
    "shard.coord": "shard.coord_s",
    "plan.resolve": "plan.resolve_s",
    "resilience.checkpoint": "resilience.checkpoint_s",
    REMAINDER: "trace.remainder_s",
}

#: ``ShardedGamma`` primitives; their self time is coordination, since
#: the per-shard ``Gamma`` calls nested in them are spans of their own.
SHARD_PRIMITIVES = (
    "new_vertex_table", "new_edge_table", "seed_vertices", "seed_edges",
    "vertex_extension", "vertex_extension_any", "edge_extension", "dedup",
    "aggregation", "filtering", "output_results",
)


class Extras:
    """Counts the wrappers observe besides time."""

    def __init__(self) -> None:
        self.quick_patterns = 0
        self.plan_lookups = 0
        self.plan_hits = 0
        self.checkpoint_bytes = 0

    def on_close(self, args) -> None:
        engine = args[0]
        if not engine._closed:
            self.quick_patterns += engine.encoder.cache_size

    def on_plan_get(self, args, result) -> None:
        self.plan_lookups += 1
        self.plan_hits += result is not None

    def on_save(self, args, result) -> None:
        self.checkpoint_bytes += int(result)

    def on_load(self, args) -> None:
        path = args[0].path
        if os.path.exists(path):
            self.checkpoint_bytes += os.path.getsize(path)


def _region_classes():
    from repro.gpusim import hybrid, regions, unified, zerocopy  # noqa: F401
    seen, todo = [], [regions.HostRegion]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def install(tracer: LayerTracer) -> Extras:
    """Wrap every measured layer's public calls (undone by
    :meth:`LayerTracer.restore`)."""
    from repro.core import framework, sort
    from repro.gpusim import kernel
    from repro.graph import builders, canonical
    from repro.plan import cache, planner
    from repro.resilience import checkpoint
    from repro.shard import engine as shard_engine

    extras = Extras()
    tracer.wrap_function(builders, "from_edges", "graph.build")
    tracer.wrap_method(canonical.QuickPatternEncoder,
                       "encode_edge_embeddings", "graph.canonical")
    for name in ("canonical_form", "canonical_code", "canonical_code_int"):
        tracer.wrap_function(canonical, name, "graph.canonical")
    gamma = framework.Gamma
    for name in ("vertex_extension", "vertex_extension_any",
                 "edge_extension"):
        tracer.wrap_method(gamma, name, "core.extension")
    tracer.wrap_method(gamma, "aggregation", "core.aggregation")
    for name in ("sort_and_count", "out_of_core_sort", "multi_merge"):
        tracer.wrap_function(sort, name, "core.sort")
    for name in ("filtering", "dedup"):
        tracer.wrap_method(gamma, name, "core.filter_dedup")
    tracer.wrap_method(gamma, "__init__", "core.engine_build")
    tracer.wrap_method(gamma, "close", None, before=extras.on_close)
    sharded = shard_engine.ShardedGamma
    tracer.wrap_method(sharded, "__init__", "core.engine_build")
    for name in SHARD_PRIMITIVES:
        tracer.wrap_method(sharded, name, "shard.coord")
    for cls in _region_classes():
        for name in ("gather", "gather_ranges"):
            if name in cls.__dict__:
                tracer.wrap_method(cls, name, "gpusim.account")
    tracer.wrap_method(kernel.KernelLauncher, "launch", "gpusim.account")
    tracer.wrap_function(planner, "resolve_plan", "plan.resolve")
    tracer.wrap_method(cache.PlanCache, "get", "plan.resolve",
                       observe=extras.on_plan_get)
    manager = checkpoint.CheckpointManager
    tracer.wrap_method(manager, "save", "resilience.checkpoint",
                       observe=extras.on_save)
    tracer.wrap_method(manager, "load", "resilience.checkpoint",
                       before=extras.on_load)
    return extras


def empty_metrics() -> Dict[str, float]:
    return {name: 0.0 for name, _, _ in PER_LAYER}


def tracer_metrics(self_s: Dict[str, float], calls: Dict[str, int],
                   extras: Extras, per: int) -> Dict[str, float]:
    """Per-iteration values of what the in-process wrappers measured,
    averaged over ``per`` traced iterations (or passes)."""
    out: Dict[str, float] = {}
    for layer, metric in SELF_TIME_METRICS.items():
        out[metric] = self_s.get(layer, 0.0) / per
    out["graph.canonical_calls"] = calls.get("graph.canonical", 0) / per
    out["graph.quick_patterns"] = extras.quick_patterns / per
    out["plan.cache_lookups"] = extras.plan_lookups / per
    out["plan.cache_hit_ratio"] = (extras.plan_hits / extras.plan_lookups
                                   if extras.plan_lookups else 0.0)
    out["resilience.checkpoint_bytes"] = extras.checkpoint_bytes / per
    return out


def sim_metrics(buckets: Dict[str, float],
                counters: Dict[str, int]) -> Dict[str, float]:
    """``gpusim.*`` and ``core.embeddings`` from one iteration's clock
    buckets (seconds) and counters."""
    out = {f"gpusim.sim.{b}_ms": buckets.get(b, 0.0) * 1e3
           for b in SIM_BUCKETS}
    out["gpusim.sim.other_ms"] = sum(
        v for k, v in buckets.items() if k not in SIM_BUCKETS) * 1e3
    faults = counters.get("page_faults", 0)
    hits = counters.get("page_hits", 0)
    out["gpusim.page_faults"] = faults
    out["gpusim.page_accesses"] = faults + hits
    out["gpusim.page_hit_ratio"] = hits / (faults + hits) if faults + hits \
        else 0.0
    out["gpusim.bytes_h2d"] = counters.get("bytes_h2d", 0)
    out["core.embeddings"] = counters.get("embeddings_produced", 0)
    return out


def sim_sum_error(metrics: Dict[str, float],
                  sim_ms: float) -> Optional[str]:
    """``None`` when the ``gpusim.sim.*`` buckets add up to ``sim_ms``
    (each bucket is converted to ms on its own, so only float rounding
    may separate them)."""
    total = sum(v for k, v in metrics.items() if k.startswith("gpusim.sim."))
    if abs(total - sim_ms) > 1e-9 * max(1.0, sim_ms):
        return f"gpusim.sim.* buckets sum to {total!r} ms, sim_ms {sim_ms!r}"
    return None
