"""The batch workloads: ``fpm-cl`` and ``kclique-shard``.

A batch workload is one user running one mining job after another: build
the CSR from the seeded edge arrays, build the engine, mine, close.  Set-up
(CSR build plus engine construction) and the mining call are timed
separately.  Set-up takes milliseconds, so each iteration sets up
:attr:`setups` times and every set-up is one sample; the metric is the
median of all of them.  One untimed, checked warm-up iteration runs first.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Dict, List, Optional

from common import Result, median, seeded_edges, self_peak_rss_mib
import layers
from tracer import LayerTracer

#: Iterations every timed phase runs at least, however short ``--seconds``.
MIN_ITERATIONS = 3


def fpm_digest(patterns: Dict[int, int], per_level: List[int]) -> str:
    """sha256 of the frequent pattern set with supports; vertex ids do
    not enter, so every seed gives the same digest."""
    doc = {"patterns": sorted((int(c), int(s)) for c, s in patterns.items()),
           "per_level": [int(n) for n in per_level]}
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


class BatchWorkload:
    """One batch workload over a seeded copy of a stand-in graph."""

    name = ""
    dataset = ""
    #: Set-ups per timed iteration (each one is a ``setup_s`` sample).
    setups = 1
    executor = ""

    def __init__(self, seed: int) -> None:
        from repro.graph import datasets
        self.seed = seed
        standin = datasets.load(self.dataset)
        self.src, self.dst, self.labels, self.n = seeded_edges(standin, seed)

    def params(self) -> Dict:
        return {"dataset": self.dataset,
                "vertices": int(self.n), "edge_rows": int(len(self.src))}

    def build_graph(self):
        from repro.graph import builders
        return builders.from_edges(self.src, self.dst, self.n,
                                   labels=self.labels, name=self.dataset)

    def setup(self):
        raise NotImplementedError

    def mine(self, engine):
        raise NotImplementedError

    def check(self, result) -> Optional[str]:
        raise NotImplementedError

    def sim(self, engine) -> Dict[str, float]:
        """``sim_ms`` plus the per-layer simulator metrics of one
        iteration, read before the engine closes."""
        raise NotImplementedError


class FpmCl(BatchWorkload):
    """FPM, 2 levels, support 118, on the CL stand-in, one simulated GPU."""

    name = "fpm-cl"
    dataset = "CL"
    iterations = 2
    min_support = 118
    setups = 8
    executor = "Gamma (one simulated GPU)"
    #: :func:`fpm_digest` of the stand-in's answer, computed once under
    #: the reference pipeline by :func:`reference_digest`.
    expected = ("1f48d2d819b97f367c549ab0fc110d41"
                "e160e54044eba63d7fbb8dd8006caa56")

    def params(self) -> Dict:
        return {**super().params(), "iterations": self.iterations,
                "min_support": self.min_support, "pipeline": "fast"}

    def setup(self):
        from repro.core.framework import Gamma, GammaConfig
        return Gamma(self.build_graph(), GammaConfig())

    def mine(self, engine):
        from repro.algorithms import frequent_pattern_mining
        return frequent_pattern_mining(engine, self.iterations,
                                       self.min_support)

    def check(self, result) -> Optional[str]:
        digest = fpm_digest(result.patterns, result.frequent_per_level)
        if digest != self.expected:
            return (f"fpm-cl answer digest {digest} != reference "
                    f"{self.expected} ({len(result.patterns)} patterns)")
        return None

    def sim(self, engine) -> Dict[str, float]:
        clock = engine.platform.clock
        out = layers.sim_metrics(clock.snapshot(),
                                 engine.platform.counters.snapshot())
        out["sim_ms"] = clock.total * 1e3
        return out


class KcliqueShard(BatchWorkload):
    """4-clique counting on CL*8 over 4 simulated GPUs (serial executor)."""

    name = "kclique-shard"
    dataset = "CL*8"
    k = 4
    shards = 4
    policy = "stealing"
    setups = 2
    executor = "serial"
    #: 4-cliques of the CL*8 stand-in, from the independent set-based
    #: counter :func:`independent_kclique_count`; relabelling keeps it.
    expected = 1_380_794

    def params(self) -> Dict:
        return {**super().params(), "k": self.k, "shards": self.shards,
                "policy": self.policy}

    def setup(self):
        from repro.shard import ShardedGamma
        return ShardedGamma(self.build_graph(), num_shards=self.shards,
                            policy=self.policy, executor=self.executor)

    def mine(self, engine):
        from repro.algorithms import count_kcliques
        return count_kcliques(engine, self.k)

    def check(self, result) -> Optional[str]:
        if result.cliques != self.expected:
            return (f"kclique-shard counted {result.cliques} 4-cliques, "
                    f"expected {self.expected}")
        return None

    def sim(self, engine) -> Dict[str, float]:
        states = engine.shard_states()
        # Shards barrier after every op, so the slowest shard's clock is
        # the makespan; its buckets add up to sim_ms.
        slowest = max(states, key=lambda s: s["clock_total"])
        counters: Dict[str, int] = {}
        for state in states:
            for key, value in state["counters"].items():
                counters[key] = counters.get(key, 0) + value
        out = layers.sim_metrics(slowest["clock_buckets"], counters)
        out["sim_ms"] = engine.simulated_seconds * 1e3
        busy = [s["clock_total"] - s["sync_seconds"] for s in states]
        out["shard.util_min"] = min(engine.shard_utilization(states))
        out["shard.skew_ms"] = (max(busy) - min(busy)) * 1e3
        return out


def independent_kclique_count(src, dst, n: int, k: int = 4) -> int:
    """k-cliques by intersecting degree-ordered out-neighbour sets; shares
    no code with the program."""
    import numpy as np
    src = np.asarray(src)
    dst = np.asarray(dst)
    keep = src != dst
    pairs = {(int(min(a, b)), int(max(a, b)))
             for a, b in zip(src[keep], dst[keep])}
    degree = [0] * n
    for a, b in pairs:
        degree[a] += 1
        degree[b] += 1
    rank = sorted(range(n), key=lambda v: (degree[v], v))
    position = [0] * n
    for index, v in enumerate(rank):
        position[v] = index
    out = [set() for _ in range(n)]
    for a, b in pairs:
        if position[a] < position[b]:
            out[a].add(b)
        else:
            out[b].add(a)

    def grow(candidates, depth):
        if depth == k:
            return len(candidates)
        return sum(grow(candidates & out[v], depth + 1) for v in candidates)

    return sum(grow(out[v], 2) for v in range(n)) if k >= 2 else n


def reference_digest() -> str:
    """The ``fpm-cl`` digest under the retained reference pipeline, on the
    stand-in as generated (no relabelling)."""
    from repro import perf
    from repro.algorithms import frequent_pattern_mining
    from repro.core.framework import Gamma
    from repro.graph import datasets
    previous = perf.pipeline_mode()
    perf.set_pipeline(perf.REFERENCE)
    try:
        with Gamma(datasets.load(FpmCl.dataset)) as engine:
            result = frequent_pattern_mining(engine, FpmCl.iterations,
                                             FpmCl.min_support)
    finally:
        perf.set_pipeline(previous)
    return fpm_digest(result.patterns, result.frequent_per_level)


WORKLOADS = {cls.name: cls for cls in (FpmCl, KcliqueShard)}


class _Iteration:
    """Times one set-up, the mining call and close; checks the answer."""

    def __init__(self, workload: BatchWorkload, setups: int) -> None:
        self.setup_s: List[float] = []
        for index in range(setups):
            start = time.perf_counter()
            engine = workload.setup()
            self.setup_s.append(time.perf_counter() - start)
            if index < setups - 1:
                engine.close()
        start = time.perf_counter()
        result = workload.mine(engine)
        self.run_s = time.perf_counter() - start
        self.error = workload.check(result)
        self.sim = workload.sim(engine)
        engine.close()


def _checked(workload: BatchWorkload, result: Result, setups: int
             ) -> _Iteration:
    it = _Iteration(workload, setups)
    result.attempted += 1
    if it.error is not None:
        result.failed += 1
        result.wrong(it.error)
    return it


def _sim_ms(result: Result, sims: List[float]) -> float:
    if len(set(sims)) != 1:
        result.wrong(f"sim_ms differs between iterations of one seed: "
                     f"{sorted(set(sims))}")
    return sims[0]


def run(workload: BatchWorkload, seconds: float, result: Result) -> None:
    """End-to-end metrics, tracing off."""
    _checked(workload, result, 1)  # warm-up
    its: List[_Iteration] = []
    start = time.perf_counter()
    while (len(its) < MIN_ITERATIONS
           or time.perf_counter() - start < seconds):
        its.append(_checked(workload, result, workload.setups))
    result.put("setup_s", median(s for it in its for s in it.setup_s), "s")
    result.put("run_s", median(it.run_s for it in its), "s")
    result.put("sim_ms", _sim_ms(result, [it.sim["sim_ms"] for it in its]),
               "ms")
    result.put("peak_rss_mib", self_peak_rss_mib(), "MiB")
    print(f"  {len(its)} timed iterations, "
          f"{sum(len(it.setup_s) for it in its)} set-up samples")


def traced(workload: BatchWorkload, seconds: float, result: Result) -> None:
    """Per-layer metrics: untraced iterations for the baseline, then
    traced ones, each one set-up + mine + close."""
    _checked(workload, result, 1)  # warm-up
    plain: List[float] = []
    start = time.perf_counter()
    while len(plain) < 2 or time.perf_counter() - start < 0.4 * seconds:
        t0 = time.perf_counter()
        _checked(workload, result, 1)
        plain.append(time.perf_counter() - t0)

    tracer = LayerTracer()
    extras = layers.install(tracer)
    walls: List[float] = []
    its: List[_Iteration] = []
    try:
        start = time.perf_counter()
        while len(walls) < 2 or time.perf_counter() - start < 0.6 * seconds:
            t0 = time.perf_counter()
            with tracer.root():
                its.append(_checked(workload, result, 1))
            walls.append(time.perf_counter() - t0)
    finally:
        tracer.restore()

    metrics = layers.empty_metrics()
    self_s, error = tracer.partition(sum(walls))
    if error is not None:
        result.wrong(f"trace partition: {error}")
    calls = tracer.totals()[1]
    metrics.update(layers.tracer_metrics(self_s, calls, extras, len(its)))
    sims = {k: v for k, v in its[-1].sim.items() if k != "sim_ms"}
    metrics.update(sims)
    sim_error = layers.sim_sum_error(
        metrics, _sim_ms(result, [it.sim["sim_ms"] for it in its]))
    if sim_error is not None:
        result.wrong(sim_error)
    metrics["trace.wall_s"] = sum(walls) / len(walls)
    metrics["trace.overhead_share"] = median(walls) / median(plain) - 1.0
    for name, value in metrics.items():
        result.put(name, value, layers.UNITS[name])
    print(f"  {len(plain)} untraced + {len(walls)} traced iterations; "
          f"traced self time by layer (s/iteration):")
    for layer, seconds_ in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<22} {seconds_ / len(its):9.4f}"
              f"  ({seconds_ / sum(walls):6.1%})")
