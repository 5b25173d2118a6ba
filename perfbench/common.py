"""Benchmark-side helpers: seeded inputs, statistics, provenance, output.

Everything here belongs to the benchmark.  The program under test only
ever receives what these helpers generate: edge arrays, labels and query
schedules.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Repository root of the checkout the benchmark runs in.
ROOT = Path(__file__).resolve().parent.parent

#: Vertex ids move only within aligned blocks of this many ids, so a
#: seeded input keeps the stand-in's locality (and with it its paging).
BLOCK = 16

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


# -- seeded inputs -----------------------------------------------------------

def block_permutation(n: int, seed: int, block: int = BLOCK) -> np.ndarray:
    """``new_id[old_id]``: a seeded permutation of ``range(n)`` that moves
    every id only within its aligned block of ``block`` ids."""
    # NumPy seeds must be non-negative; the modulus leaves those unchanged.
    rng = np.random.default_rng(seed % (1 << 64))
    order = np.argsort(np.arange(n) // block + rng.random(n), kind="stable")
    new_id = np.empty(n, dtype=np.int64)
    new_id[order] = np.arange(n, dtype=np.int64)
    return new_id


def seeded_edges(graph, seed: int):
    """Relabel a stand-in graph's edge arrays by :func:`block_permutation`.

    Returns ``(src, dst, labels, num_vertices)``, the raw arrays a user
    would load before the program builds its CSR from them.  Relabelling
    is an isomorphism, so every count and support is unchanged.
    """
    n = graph.num_vertices
    new_id = block_permutation(n, seed)
    src = new_id[np.asarray(graph.edge_src, dtype=np.int64)]
    dst = new_id[np.asarray(graph.edge_dst, dtype=np.int64)]
    labels = np.empty(n, dtype=np.int64)
    labels[new_id] = np.asarray(graph.labels, dtype=np.int64)
    return src, dst, labels, n


# -- statistics --------------------------------------------------------------

def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def nearest_rank(values: Sequence[float], pct: float) -> Tuple[float, int]:
    """Nearest-rank ``pct`` percentile and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1]), len(ordered) - rank


def tail_percentile(values: Sequence[float],
                    candidates: Sequence[float] = (99.0, 90.0)
                    ) -> Optional[Tuple[float, float, int]]:
    """The highest of ``candidates`` with at least :data:`MIN_BEYOND`
    samples beyond it, as ``(pct, value, beyond)``; ``None`` when no
    candidate has enough samples."""
    for pct in sorted(candidates, reverse=True):
        if not values:
            break
        value, beyond = nearest_rank(values, pct)
        if beyond >= MIN_BEYOND:
            return pct, value, beyond
    return None


# -- memory ------------------------------------------------------------------

def self_peak_rss_mib() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- provenance --------------------------------------------------------------

def _git_rev(root: Path) -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        packed = git / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(root: Path) -> str:
    """sha256 over the program's Python sources (``src/``), in path order."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, workload: str, params: Dict,
               executor: str) -> Dict:
    rev = _git_rev(ROOT)
    return {
        "rev": rev if rev else "src-sha256:" + source_digest(ROOT),
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "workload": workload,
        "params": params,
        "executor": executor,
    }


# -- output ------------------------------------------------------------------

class Result:
    """Metrics of one benchmark run plus its correctness record."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, float | str]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def wrong(self, message: str) -> None:
        """Record a wrong answer or a broken invariant; fails the run."""
        self.errors.append(message)

    @property
    def correct(self) -> bool:
        return not self.errors

    def line(self, names: Sequence[str]) -> str:
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise KeyError(f"metrics not measured: {missing}")
        return json.dumps({
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: self.metrics[name] for name in names},
        })


def print_table(result: Result, names: Sequence[str]) -> None:
    width = max(len(name) for name in names)
    for name in names:
        metric = result.metrics.get(name)
        if metric is not None:
            print(f"  {name:<{width}}  {metric['value']:.6g} {metric['unit']}")
    for message in result.errors:
        print(f"  WRONG: {message}", file=sys.stderr)
