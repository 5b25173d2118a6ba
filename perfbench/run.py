"""The repository benchmark: one workload per call, every answer checked.

Run from the repository root::

    python3 perfbench/run.py --workload fpm-cl --seed 1 --seconds 40 --trace 0

Workloads: ``fpm-cl``, ``kclique-shard`` and ``serve-mix`` (see
``perfbench/README.md``).  With ``--trace 0`` the last line of standard
output is one JSON object carrying the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a separate traced run.
A wrong answer, or a broken trace invariant, exits 1 after that line.
"""

from __future__ import annotations

import os
import sys

# Pin what the program sees before NumPy is imported anywhere: one BLAS
# thread (no workload may keep more busy threads than the host's two
# cores) and no pipeline or executor chosen by the caller's environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("REPRO_PIPELINE", "REPRO_SHARD_EXECUTOR"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metrics of the batch workloads, in report order.
BATCH_E2E = ("setup_s", "run_s", "sim_ms", "peak_rss_mib")
#: End-to-end metrics of ``serve-mix``.
SERVE_E2E = ("setup_s", "sim_ms", "peak_rss_mib", "latency_p50_ms",
             "latency_tail_ms", "throughput_qps", "failed_share")
WORKLOAD_NAMES = ("fpm-cl", "kclique-shard", "serve-mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from repro import perf
    perf.set_pipeline(perf.FAST)
    import layers
    from common import Result, print_table, provenance

    result = Result()
    if args.workload == "serve-mix":
        import serve_mix
        params, executor = serve_mix.params(), "serial"
        names = SERVE_E2E
        (serve_mix.traced if args.trace else serve_mix.run)(
            args.seed, args.seconds, result)
    else:
        import batch
        workload = batch.WORKLOADS[args.workload](args.seed)
        params, executor = workload.params(), workload.executor
        names = BATCH_E2E
        (batch.traced if args.trace else batch.run)(
            workload, args.seconds, result)
    if args.trace:
        names = tuple(name for name, _, _ in layers.PER_LAYER)

    print("provenance " + json.dumps(provenance(
        args.seed, args.workload, params, executor), sort_keys=True))
    print_table(result, names)
    print(result.line(names))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
