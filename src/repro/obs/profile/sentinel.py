"""Regression sentinel: noise-aware gating plus subtree attribution.

A candidate run is compared against the baseline *window* — the last K
history records of the same (bench, workload, arm) cell.  The threshold
per metric is ``median + max(nsigma * 1.4826 * MAD, min_rel * median)``:
the MAD term absorbs real wall-clock noise (scaled to a normal sigma
equivalent), while the relative floor keeps tiny-MAD windows from turning
scheduler jitter into pages.  Simulated time is deterministic for fixed
code, so its relative floor is much tighter than wall time's.

When a metric is flagged, the sentinel *attributes* the regression: it
diffs the candidate's span tree against the window's representative tree
path-by-path, keeps the subtrees whose inclusive delta explains at least
``attribution_share`` of the total regression, and then drops any
ancestor whose selected descendant already explains it — so the ranked
table points at the *deepest* responsible subtree, not at ``run``.  Runs
without recorded span trees fall back to clock-bucket deltas.

The machine-readable verdict (``gamma-perf-verdict/1``) is what CI
consumes via ``repro perf-report``; ``tools/perf_sentinel.py smoke``
self-tests it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from .spantree import SEP, aggregate_paths, build_tree, path_depth

__all__ = [
    "SentinelConfig",
    "check_run",
    "attribute_subtrees",
    "attribute_buckets",
    "inject_slowdown",
    "render_verdicts",
    "VERDICT_SCHEMA",
]

VERDICT_SCHEMA = "gamma-perf-verdict/1"

#: MAD-to-sigma scale for normally distributed noise.
_MAD_SIGMA = 1.4826


@dataclass(frozen=True)
class SentinelConfig:
    """Gating knobs; defaults suit the deterministic-sim, noisy-wall split."""

    #: Baseline window size (records consulted per cell).
    window: int = 8
    #: Minimum completed baseline runs before gating at all.
    min_window: int = 3
    #: MAD multiplier (in sigma equivalents) on top of the median.
    nsigma: float = 4.0
    #: Relative floor for wall-clock metrics (machine noise).
    min_rel_wall: float = 0.10
    #: Relative floor for simulated time (deterministic; drift is real).
    min_rel_sim: float = 0.02
    #: A subtree/bucket must explain at least this share of the
    #: regression delta to appear in the attribution table.
    attribution_share: float = 0.20
    #: Attribution rows kept (deepest-qualifying, ranked by delta).
    max_attributions: int = 8


def _metric_values(window: Sequence[Dict[str, Any]],
                   metric: str) -> List[float]:
    values = []
    for record in window:
        value = record.get(metric)
        if isinstance(value, (int, float)) and math.isfinite(value):
            values.append(float(value))
    return values


def _check_metric(candidate: float, values: List[float], nsigma: float,
                  min_rel: float) -> Dict[str, Any]:
    median = statistics.median(values)
    mad = statistics.median([abs(v - median) for v in values])
    margin = max(nsigma * _MAD_SIGMA * mad, min_rel * abs(median))
    threshold = median + margin
    return {
        "candidate": candidate,
        "median": median,
        "mad": mad,
        "threshold": threshold,
        "ratio": (candidate / median) if median else None,
        "flagged": bool(candidate > threshold and margin > 0.0),
    }


def _representative(window: Sequence[Dict[str, Any]], metric: str,
                    median: float) -> "Dict[str, Any] | None":
    """The window record with a span tree closest to the metric median."""
    best = None
    best_gap = math.inf
    for record in window:
        if not record.get("span_tree"):
            continue
        value = record.get(metric)
        gap = (abs(float(value) - median)
               if isinstance(value, (int, float)) else math.inf)
        if gap < best_gap:
            best, best_gap = record, gap
    return best


def attribute_subtrees(baseline_tree: Sequence[Dict[str, Any]],
                       candidate_tree: Sequence[Dict[str, Any]],
                       *, metric_field: str = "sim_seconds",
                       share: float = 0.20,
                       max_rows: int = 8) -> List[Dict[str, Any]]:
    """Deepest span subtrees whose inclusive delta explains the regression.

    Diffs the aggregated path tables of the two trees on ``metric_field``
    (inclusive).  Qualifying paths explain at least ``share`` of the root
    delta; ancestors of a qualifying path are dropped in its favour, so
    the table names the most specific subtree that carries the slowdown.
    """
    base = aggregate_paths(build_tree(baseline_tree))
    cand = aggregate_paths(build_tree(candidate_tree))
    deltas = {}
    for path in sorted(set(base) | set(cand)):
        delta = (cand.get(path, {}).get(metric_field, 0.0)
                 - base.get(path, {}).get(metric_field, 0.0))
        if delta > 0.0:
            deltas[path] = delta
    if not deltas:
        return []
    root_paths = [p for p in deltas if path_depth(p) == 0]
    total = max((deltas[p] for p in root_paths), default=0.0)
    if total <= 0.0:
        total = max(deltas.values())
    qualifying = {path for path, delta in deltas.items()
                  if delta >= share * total}
    deepest = {
        path for path in qualifying
        if not any(other.startswith(path + SEP) for other in qualifying)
    }
    ranked = sorted(deepest, key=lambda p: (-deltas[p], p))[:max_rows]
    return [
        {
            "kind": "span_subtree",
            "path": path,
            "baseline": base.get(path, {}).get(metric_field, 0.0),
            "candidate": cand.get(path, {}).get(metric_field, 0.0),
            "delta": deltas[path],
            "share_of_regression": deltas[path] / total,
        }
        for path in ranked
    ]


def attribute_buckets(baseline: Dict[str, float],
                      candidate: Dict[str, float],
                      *, share: float = 0.20,
                      max_rows: int = 8) -> List[Dict[str, Any]]:
    """Clock-bucket fallback attribution (no span trees recorded)."""
    deltas = {}
    for name in sorted(set(baseline) | set(candidate)):
        delta = (float(candidate.get(name, 0.0))
                 - float(baseline.get(name, 0.0)))
        if delta > 0.0:
            deltas[name] = delta
    if not deltas:
        return []
    total = math.fsum(deltas.values())
    ranked = sorted(
        (name for name, delta in deltas.items() if delta >= share * total),
        key=lambda n: (-deltas[n], n))[:max_rows]
    return [
        {
            "kind": "clock_bucket",
            "path": name,
            "baseline": float(baseline.get(name, 0.0)),
            "candidate": float(candidate.get(name, 0.0)),
            "delta": deltas[name],
            "share_of_regression": deltas[name] / total,
        }
        for name in ranked
    ]


#: Metric field -> span-tree field carrying its inclusive per-span value.
_TREE_FIELDS = {
    "simulated_seconds": "sim_seconds",
    "wall_seconds": "wall_seconds",
}


def check_run(candidate: Dict[str, Any],
              window: Sequence[Dict[str, Any]],
              config: "SentinelConfig | None" = None) -> Dict[str, Any]:
    """Gate one candidate record against its baseline window.

    Returns a ``gamma-perf-verdict/1`` document: per-metric stats, the
    flagged metrics with their attribution tables, and the top-level
    ``flagged`` bit CI keys off.  Windows smaller than
    ``config.min_window`` produce an unflagged ``insufficient_history``
    verdict — a new workload must build a baseline before it can fail.
    """
    cfg = config or SentinelConfig()
    verdict: Dict[str, Any] = {
        "schema": VERDICT_SCHEMA,
        "bench": candidate.get("bench"),
        "workload": candidate.get("workload"),
        "arm": candidate.get("arm"),
        "candidate_seq": candidate.get("seq"),
        "candidate_git_rev": candidate.get("git_rev"),
        "window": len(window),
        "metrics": {},
        "flags": [],
        "flagged": False,
        "insufficient_history": False,
    }
    for metric in ("simulated_seconds", "wall_seconds"):
        cand_value = candidate.get(metric)
        if not isinstance(cand_value, (int, float)):
            continue
        values = _metric_values(window, metric)
        if len(values) < cfg.min_window:
            verdict["insufficient_history"] = True
            continue
        min_rel = (cfg.min_rel_sim if metric == "simulated_seconds"
                   else cfg.min_rel_wall)
        stats = _check_metric(float(cand_value), values, cfg.nsigma, min_rel)
        verdict["metrics"][metric] = stats
        if not stats["flagged"]:
            continue
        attribution: List[Dict[str, Any]] = []
        attribution_kind = None
        baseline_record = _representative(window, metric, stats["median"])
        if candidate.get("span_tree") and baseline_record is not None:
            attribution = attribute_subtrees(
                baseline_record["span_tree"], candidate["span_tree"],
                metric_field=_TREE_FIELDS[metric],
                share=cfg.attribution_share,
                max_rows=cfg.max_attributions,
            )
            attribution_kind = "span_tree"
        if not attribution and candidate.get("clock_buckets"):
            base_buckets: Dict[str, float] = {}
            counted = 0
            for record in window:
                buckets = record.get("clock_buckets")
                if not buckets:
                    continue
                counted += 1
                for name in sorted(buckets):
                    base_buckets[name] = (base_buckets.get(name, 0.0)
                                          + float(buckets[name]))
            if counted:
                base_buckets = {name: total / counted
                                for name, total in base_buckets.items()}
                attribution = attribute_buckets(
                    base_buckets, candidate["clock_buckets"],
                    share=cfg.attribution_share,
                    max_rows=cfg.max_attributions,
                )
                attribution_kind = "clock_buckets"
        verdict["flags"].append({
            "metric": metric,
            **stats,
            "attribution_kind": attribution_kind,
            "attribution": attribution,
        })
    verdict["flagged"] = bool(verdict["flags"])
    return verdict


def inject_slowdown(records: Sequence[Dict[str, Any]], path: str,
                    factor: float) -> "tuple[List[Dict[str, Any]], float]":
    """Scale one subtree's simulated time by ``factor`` (test/CI helper).

    Returns ``(new_records, added_seconds)``: every span at ``path`` and
    below has its inclusive/self simulated time scaled, and the added
    inclusive time is propagated up through the ancestors so the tree
    stays internally consistent — exactly what a real slowdown in that
    subtree would look like.  Raises ``KeyError`` for an unknown path.
    """
    root = build_tree(records)
    if root is None:
        raise KeyError(f"no spans to inject into (path {path!r})")
    nodes = {node.index: node for node in root.walk()}
    targets = [node for node in root.walk() if node.path == path]
    if not targets:
        raise KeyError(f"span path {path!r} not found")

    scaled = set()
    for target in targets:
        for node in target.walk():
            scaled.add(node.index)
    added = math.fsum(
        node.sim_seconds * (factor - 1.0) for node in targets)

    out: List[Dict[str, Any]] = []
    for record in records:
        record = dict(record)
        index = int(record.get("index", -1))
        if index in scaled:
            record["sim_seconds"] = (
                float(record.get("sim_seconds", 0.0)) * factor)
            record["sim_self_seconds"] = (
                float(record.get("sim_self_seconds", 0.0)) * factor)
            record["sim_buckets"] = {
                name: value * factor
                for name, value in (record.get("sim_buckets") or {}).items()
            }
            record["sim_self"] = {
                name: value * factor
                for name, value in (record.get("sim_self") or {}).items()
            }
        out.append(record)

    # Propagate each target's inclusive delta to its proper ancestors.
    by_index = {int(r.get("index", -1)): r for r in out}
    for target in targets:
        delta = target.sim_seconds * (factor - 1.0)
        parent = nodes.get(target.parent)
        while parent is not None:
            record = by_index.get(parent.index)
            if record is not None and parent.index not in scaled:
                record["sim_seconds"] = (
                    float(record.get("sim_seconds", 0.0)) + delta)
            parent = nodes.get(parent.parent)
    return out, added


def render_verdicts(verdicts: Sequence[Dict[str, Any]]) -> str:
    """Ranked human-readable table over one or more verdicts."""
    lines: List[str] = []
    flagged = [v for v in verdicts if v.get("flagged")]
    clean = [v for v in verdicts if not v.get("flagged")]
    for verdict in sorted(
            flagged,
            key=lambda v: -max((f.get("ratio") or 0.0)
                               for f in v["flags"])):
        cell = (f"{verdict.get('bench')}/{verdict.get('workload')}"
                f"/{verdict.get('arm') or '-'}")
        lines.append(f"REGRESSION {cell} (window {verdict['window']})")
        for flag in verdict["flags"]:
            ratio = flag.get("ratio")
            lines.append(
                f"  {flag['metric']}: {flag['median']:.6g} -> "
                f"{flag['candidate']:.6g}"
                + (f" ({ratio:.2f}x)" if ratio else "")
                + f"  [threshold {flag['threshold']:.6g}]")
            for row in flag.get("attribution") or []:
                lines.append(
                    f"    {row['share_of_regression'] * 100:5.1f}%  "
                    f"{row['path']}  "
                    f"(+{row['delta'] * 1e3:.3f} ms, {row['kind']})")
    for verdict in clean:
        cell = (f"{verdict.get('bench')}/{verdict.get('workload')}"
                f"/{verdict.get('arm') or '-'}")
        note = (" [insufficient history]"
                if verdict.get("insufficient_history") else "")
        lines.append(f"ok         {cell} (window {verdict['window']}){note}")
    return "\n".join(lines) if lines else "(no verdicts)"
