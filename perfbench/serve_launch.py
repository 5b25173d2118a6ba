"""Start ``python -m repro serve`` with the layer wrappers installed.

The traced ``serve-mix`` run starts the server through this launcher
instead of ``-m repro``: it wraps the program's layer entry points (see
:mod:`layers`) before the service starts and, once the service has shut
down, writes the per-layer totals to the JSON file named first.  Each
attempt a worker thread makes at a query (``Scheduler._execute``) is a
root span, so the remainder is scheduler and mining-loop time outside every
measured layer, and the traced wall time is the summed busy time of the
server's threads, not their idle waiting::

    python3 -u perfbench/serve_launch.py OUT.json serve --port 0 ...
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import layers
    from repro import cli
    from repro.serve.scheduler import Scheduler
    from repro.shard import shm
    from tracer import REMAINDER, LayerTracer

    tracer = LayerTracer()
    extras = layers.install(tracer)
    tracer.wrap_method(Scheduler, "_execute", REMAINDER)
    start = time.perf_counter()
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        wall = time.perf_counter() - start
        tracer.restore()
        self_s, calls = tracer.totals()
        _, error = tracer.partition(None)
        doc = {
            "wall_s": wall,
            "self_s": self_s,
            "calls": calls,
            "top_s": dict(tracer.top_s),
            "partition_error": error,
            "quick_patterns": extras.quick_patterns,
            "plan_lookups": extras.plan_lookups,
            "plan_hits": extras.plan_hits,
            "checkpoint_bytes": extras.checkpoint_bytes,
            "live_segments": len(shm.live_segments()),
        }
        Path(out_path).write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
