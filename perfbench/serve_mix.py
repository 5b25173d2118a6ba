"""serve-mix: four tenants over HTTP against a 2-slot serial-executor server.

The server (``python -m repro serve --slots 2 --executor serial``, graphs
preloaded) runs as its own process; this module is the load generator,
one process with at most two threads and two open connections.  One pass:

* **Set-up** — the server is started :data:`SETUPS` times; each time runs
  from process start until ``/healthz`` answers with the graphs loaded.
  The last start serves the rest of the pass.
* **Warm-up** — every distinct spec once, all submitted together.  Its
  failures count like any other.
* **Open loop** — seeded Poisson arrivals at :data:`RATE_QPS`, every
  :data:`LONG_EVERY`-th one a long low-priority query, submitted with
  ``?wait=0`` by one thread while a second polls for completion.  A
  query's latency runs from its due time: generator lateness plus the
  submit round trip plus the server's own submit-to-finish time.
* **Closed loop** — two clients, each streaming one query and waiting for
  its answer before sending the next.
* **Teardown** — ``POST /v1/shutdown``, terminate after a timeout, record
  the exit status, count checkpoint directories left behind.

A query not finished :data:`DEADLINE_S` after its due time counts as
failed, as do errors, HTTP 429 refusals and dead server worker threads
(counted from the server's standard error).  Every completed answer, and
the fold of its streamed partials, must equal a direct ``Gamma`` run of
its spec.
"""

from __future__ import annotations

import json
import os
import random
import resource
import selectors
import shutil
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import ROOT, Result, median, tail_percentile
import layers

#: Datasets the server preloads (the mix touches no other).
PRELOAD = ("CP", "EA", "ER")
SLOTS = 2
#: Server starts per pass; ``setup_s`` is their median.
SETUPS = 5
#: Open-loop arrival rate, about half the closed-loop throughput the
#: seed commit sustains on a 2-core host.
RATE_QPS = 7.0
#: Every LONG_EVERY-th arrival (open and closed loop) is a long query.
LONG_EVERY = 10
#: A query not finished this long after its due time has failed.
DEADLINE_S = 15.0
#: Seconds between completion polls in the open loop.
POLL_S = 0.02
SHORT_PRIORITY, LONG_PRIORITY = 2, 0

_SHORT_TENANTS: Dict[str, List[dict]] = {
    "t-match": [dict(family="sm", query=q, dataset=d, plan="auto")
                for d in ("CP", "EA") for q in (1, 2, 3)],
    "t-clique": [dict(family="kcl", k=3, dataset="EA"),
                 dict(family="kcl", k=4, dataset="ER"),
                 dict(family="kcl", k=3, dataset="ER", gpus=2,
                      shard_policy="stealing", executor="serial")],
    "t-mine": [dict(family="fpm", iterations=2, min_support=8, dataset="EA"),
               dict(family="fpm", iterations=2, min_support=8, dataset="ER"),
               dict(family="motifs", num_edges=2, dataset="EA"),
               dict(family="motifs", num_edges=2, dataset="ER")],
}
_LONG = ("t-batch", dict(family="motifs", num_edges=3, dataset="ER"))


def _spec(tenant: str, doc: dict, priority: int) -> dict:
    return {**doc, "tenant": tenant, "priority": priority}


def distinct_specs() -> List[dict]:
    specs = [_spec(t, d, SHORT_PRIORITY)
             for t, docs in _SHORT_TENANTS.items() for d in docs]
    return specs + [_spec(_LONG[0], _LONG[1], LONG_PRIORITY)]


class Mix:
    """Seeded draw of specs: a short tenant uniformly, then one of its
    specs; every :data:`LONG_EVERY`-th draw is the long query."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.count = 0

    def draw(self) -> dict:
        self.count += 1
        if self.count % LONG_EVERY == 0:
            return _spec(_LONG[0], _LONG[1], LONG_PRIORITY)
        tenant = self.rng.choice(sorted(_SHORT_TENANTS))
        return _spec(tenant, self.rng.choice(_SHORT_TENANTS[tenant]),
                     SHORT_PRIORITY)


def open_schedule(seed: int, seconds: float) -> List[Tuple[float, dict]]:
    """``(offset_s, spec)`` pairs: Poisson arrivals at :data:`RATE_QPS`."""
    rng = random.Random(seed * 7919 + 1)
    mix = Mix(seed)
    out, offset = [], rng.expovariate(RATE_QPS)
    while offset < seconds:
        out.append((offset, mix.draw()))
        offset += rng.expovariate(RATE_QPS)
    return out


def spec_key(spec: dict) -> str:
    doc = {k: v for k, v in spec.items() if k not in ("tenant", "priority")}
    return json.dumps(doc, sort_keys=True)


def params() -> Dict:
    return {"preload": list(PRELOAD), "slots": SLOTS, "setups": SETUPS,
            "rate_qps": RATE_QPS, "long_every": LONG_EVERY,
            "deadline_s": DEADLINE_S, "closed_clients": 2,
            "tenants": sorted([*_SHORT_TENANTS, _LONG[0]])}


# -- the server process -------------------------------------------------------

def _server_env() -> Dict[str, str]:
    env = dict(os.environ)
    for var in ("REPRO_PIPELINE", "REPRO_SHARD_EXECUTOR"):
        env.pop(var, None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Server:
    """One ``repro serve`` process with its own work directory."""

    def __init__(self, workdir: str, trace_out: Optional[str]) -> None:
        from repro.serve import ServeClient
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        serve_args = ["serve", "--slots", str(SLOTS), "--executor", "serial",
                      "--port", "0", "--workdir",
                      os.path.join(workdir, "serve")]
        for abbrev in PRELOAD:
            serve_args += ["--preload", abbrev]
        if trace_out is None:
            command = [sys.executable, "-u", "-m", "repro", *serve_args]
        else:
            command = [sys.executable, "-u",
                       str(ROOT / "perfbench" / "serve_launch.py"),
                       trace_out, *serve_args]
        self.stderr_path = os.path.join(workdir, "stderr.txt")
        start = time.perf_counter()
        with open(self.stderr_path, "wb") as stderr:
            self.proc = subprocess.Popen(
                command, cwd=str(ROOT), env=_server_env(),
                stdout=subprocess.PIPE, stderr=stderr)
        self.url = self._read_url(timeout=60.0)
        self.client = ServeClient(self.url, timeout=DEADLINE_S)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                self.client.health()
                break
            except OSError:
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    self.stop()
                    raise RuntimeError("serve-mix: server never became "
                                       "healthy; see " + self.stderr_path)
                time.sleep(0.005)
        self.setup_s = time.perf_counter() - start
        self.exit_code: Optional[int] = None

    def _read_url(self, timeout: float) -> str:
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + timeout
        try:
            while time.monotonic() < deadline:
                if selector.select(timeout=0.1):
                    line = self.proc.stdout.readline().decode()
                    if not line:
                        break
                    if "http://" in line:
                        return "http://" + line.split("http://", 1)[1].split()[0]
        finally:
            selector.close()
        self.stop()
        raise RuntimeError("serve-mix: server printed no address; see "
                           + self.stderr_path)

    def worker_deaths(self) -> int:
        with open(self.stderr_path, "rb") as handle:
            return handle.read().count(b"Exception in thread gamma-serve-")

    def stop(self, timeout: float = 30.0) -> Optional[int]:
        """Shut down over HTTP; terminate, then kill, after ``timeout``."""
        if self.proc.poll() is None:
            try:
                from repro.serve import ServeClient
                ServeClient(getattr(self, "url", ""), timeout=5.0).shutdown()
            except Exception:  # a dead or unreachable server: terminate
                pass
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        self.proc.stdout.close()
        self.exit_code = self.proc.returncode
        return self.exit_code

    def leaked_checkpoints(self) -> int:
        root = os.path.join(self.workdir, "serve")
        if not os.path.isdir(root):
            return 0
        return sum(1 for name in os.listdir(root) if name.startswith("q"))


# -- one query's record ---------------------------------------------------------

class Query:
    def __init__(self, spec: dict, due: float, phase: str) -> None:
        self.spec, self.due, self.phase = spec, due, phase
        self.id: Optional[int] = None
        self.sent: Optional[float] = None
        self.acked: Optional[float] = None
        self.done: Optional[float] = None
        self.doc: Optional[dict] = None
        #: pending, completed, failed, refused, late or wrong.
        self.outcome = "pending"

    @property
    def latency_s(self) -> float:
        """Due time to completion; a failure counts as the deadline."""
        if self.outcome != "completed":
            return DEADLINE_S
        return (self.acked - self.due) + self.doc["billing"]["latency_seconds"]


def _submit(client, query: Query) -> None:
    from repro.errors import AdmissionError, ExecutionError
    query.sent = time.perf_counter()
    try:
        query.id = client.submit_nowait(query.spec)["query"]
        query.acked = time.perf_counter()
    except AdmissionError:
        query.outcome = "refused"
    except (ExecutionError, OSError):
        query.outcome = "failed"


def _settle(query: Query, doc: dict) -> None:
    if doc["status"] in ("completed", "failed"):
        query.doc, query.outcome = doc, doc["status"]


def _poll_until_done(client, queries: List[Query], stop_at: float) -> None:
    """Poll every submitted query until it settles or passes its deadline."""
    from repro.errors import ExecutionError
    while True:
        open_ = [q for q in queries if q.outcome == "pending"
                 and q.id is not None]
        waiting = [q for q in queries if q.outcome == "pending"
                   and q.id is None]
        if not open_ and (not waiting or time.perf_counter() > stop_at):
            return
        now = time.perf_counter()
        for query in open_:
            if now > query.due + DEADLINE_S:
                query.outcome = "late"
                continue
            try:
                _settle(query, client.query(query.id))
            except (ExecutionError, OSError):
                query.outcome = "failed"
        time.sleep(POLL_S)


def open_loop(server: Server, schedule, phase: str) -> List[Query]:
    """Submit on schedule from one thread, poll from another."""
    start = time.perf_counter() + 0.05
    queries = [Query(spec, start + offset, phase) for offset, spec in schedule]
    last_due = queries[-1].due if queries else start

    def sender():
        from repro.serve import ServeClient
        client = ServeClient(server.url, timeout=DEADLINE_S)
        for query in queries:
            delay = query.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            _submit(client, query)

    thread = threading.Thread(target=sender, name="perfbench-sender")
    thread.start()
    try:
        _poll_until_done(server.client, queries, last_due + 1.0)
    finally:
        thread.join()
    _poll_until_done(server.client, queries, 0.0)
    return queries


def closed_loop(server: Server, seed: int, seconds: float
                ) -> Tuple[List[Query], float]:
    """Two clients, each waiting for its answer before the next query."""
    from repro.errors import AdmissionError, ExecutionError
    from repro.serve import ServeClient
    queries: List[Query] = []
    lock = threading.Lock()
    end = time.perf_counter() + seconds

    def client_loop(index: int) -> None:
        client = ServeClient(server.url, timeout=DEADLINE_S)
        mix = Mix(seed * 31 + index)
        while time.perf_counter() < end:
            query = Query(mix.draw(), time.perf_counter(), "closed")
            with lock:
                queries.append(query)
            query.sent = query.acked = query.due
            try:
                doc = client.run(query.spec, timeout=DEADLINE_S)
                query.done = time.perf_counter()
                _settle(query, doc)
                if query.outcome == "pending":
                    query.outcome = "late"
            except AdmissionError:
                query.outcome = "refused"
            except (ExecutionError, OSError, ValueError):
                query.outcome = "late" if (time.perf_counter() - query.due
                                           >= DEADLINE_S) else "failed"

    start = time.perf_counter()
    threads = [threading.Thread(target=client_loop, args=(i,),
                                name=f"perfbench-client-{i}")
               for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return queries, time.perf_counter() - start


# -- answers ----------------------------------------------------------------------

class Reference:
    """Direct ``Gamma`` runs of each distinct spec, made once per run."""

    def __init__(self) -> None:
        self._cache: Dict[str, Tuple[dict, dict]] = {}

    def get(self, spec: dict) -> Tuple[dict, dict]:
        """``(payload, sim)`` of a direct run: the result document and
        ``sim`` holding simulated seconds, clock buckets and counters."""
        key = spec_key(spec)
        if key not in self._cache:
            from repro.core.framework import Gamma
            from repro.graph import datasets
            from repro.serve.query import QuerySpec, result_payload, run_query
            from repro.shard import ShardedGamma
            qspec = QuerySpec.from_dict(spec)
            graph = datasets.load(qspec.dataset)
            sharded = qspec.gpus > 1
            engine = (ShardedGamma(graph, num_shards=qspec.gpus,
                                   policy=qspec.shard_policy,
                                   executor="serial")
                      if sharded else Gamma(graph))
            try:
                result = run_query(engine, qspec)
                if sharded:
                    states = engine.shard_states()
                    slowest = max(states, key=lambda s: s["clock_total"])
                    buckets = dict(slowest["clock_buckets"])
                    counters: Dict[str, int] = {}
                    for state in states:
                        for name, value in state["counters"].items():
                            counters[name] = counters.get(name, 0) + value
                else:
                    buckets = engine.platform.clock.snapshot()
                    counters = engine.platform.counters.snapshot()
                sim = {"seconds": engine.simulated_seconds,
                       "buckets": buckets, "counters": counters}
                self._cache[key] = (result_payload(qspec, result), sim)
            finally:
                engine.close()
        return self._cache[key]

    def check(self, query: Query) -> Optional[str]:
        from repro.serve.query import QuerySpec, fold_partials
        payload, sim = self.get(query.spec)
        served = query.doc["result"]
        for field in ("cliques", "embeddings", "histogram",
                      "total_instances", "patterns", "frequent_per_level"):
            if field in payload and served.get(field) != payload[field]:
                return (f"query {query.id} ({query.spec['family']}) served "
                        f"{field} differs from a direct run")
        if served.get("simulated_seconds") != sim["seconds"]:
            return (f"query {query.id} billed {served.get('simulated_seconds')}"
                    f" simulated s, a direct run takes {sim['seconds']}")
        partials = [r for r in query.doc.get("records") or []
                    if r["type"] == "partial"]
        folded = fold_partials(QuerySpec.from_dict(query.spec), partials)
        for field, value in folded.items():
            if payload.get(field) != value:
                return (f"query {query.id} folded partials give {field} "
                        f"!= direct run")
        return None

    def one_pass(self) -> Tuple[float, Dict[str, float], Dict[str, int]]:
        """Simulated time, buckets and counters summed over one pass of
        the distinct specs."""
        seconds, buckets, counters = 0.0, {}, {}
        for spec in distinct_specs():
            _, sim = self.get(spec)
            seconds += sim["seconds"]
            for name, value in sim["buckets"].items():
                buckets[name] = buckets.get(name, 0.0) + value
            for name, value in sim["counters"].items():
                counters[name] = counters.get(name, 0) + value
        return seconds, buckets, counters


# -- one pass -------------------------------------------------------------------

class Pass:
    """Servers started, queries sent and what came back, for one pass."""

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        self.queries: List[Query] = []
        self.closed_s = 0.0
        self.worker_deaths = 0
        self.leaked = 0
        self.exit_codes: List[Optional[int]] = []

    def phase(self, name: str) -> List[Query]:
        return [q for q in self.queries if q.phase == name]


def _work_root() -> str:
    return str(ROOT / ".perfbench_work" / f"serve-{os.getpid()}")


def _remove_work_root() -> None:
    shutil.rmtree(_work_root(), ignore_errors=True)
    try:
        os.rmdir(ROOT / ".perfbench_work")
    except OSError:
        pass  # another run's work directory is still there


def one_pass(seed: int, open_s: float, closed_s: float, setups: int,
             trace_out: Optional[str] = None) -> Pass:
    """Set up ``setups`` times, warm up, open loop, closed loop, close.
    Only the last server serves; ``trace_out`` makes it a traced one."""
    result = Pass()
    root = os.path.join(_work_root(), f"p{int(time.time() * 1e6)}")
    servers: List[Server] = []
    try:
        for index in range(setups):
            last = index == setups - 1
            server = Server(os.path.join(root, f"s{index}"),
                            trace_out if last else None)
            servers.append(server)
            result.setup_s.append(server.setup_s)
            if not last:
                server.stop()
        warm = [(0.0, spec) for spec in distinct_specs()]
        result.queries += open_loop(server, warm, "warm-up")
        if open_s > 0:
            result.queries += open_loop(
                server, open_schedule(seed, open_s), "open")
        if closed_s > 0:
            queries, result.closed_s = closed_loop(server, seed, closed_s)
            result.queries += queries
    finally:
        for server in servers:
            result.exit_codes.append(server.stop())
            result.worker_deaths += server.worker_deaths()
            result.leaked += server.leaked_checkpoints()
        shutil.rmtree(root, ignore_errors=True)
    return result


def _check_answers(one: Pass, ref: Reference, result: Result) -> int:
    """Check every completed answer; returns how many were wrong."""
    wrong = 0
    for query in one.queries:
        if query.outcome == "completed":
            error = ref.check(query)
            if error is not None:
                wrong += 1
                query.outcome = "wrong"
                result.wrong(error)
    return wrong


def _count(one: Pass, result: Result) -> None:
    failed = sum(q.outcome != "completed" for q in one.queries)
    result.attempted += len(one.queries)
    result.failed += min(len(one.queries), failed + one.worker_deaths)


def _client_s(query: Query) -> float:
    billing = query.doc["billing"]
    if query.phase == "closed":
        return query.done - query.sent
    return (query.acked - query.sent) + billing["latency_seconds"]


def _describe(one: Pass) -> None:
    outcomes: Dict[str, int] = {}
    for query in one.queries:
        key = f"{query.phase}:{query.outcome}"
        outcomes[key] = outcomes.get(key, 0) + 1
    print(f"  outcomes {json.dumps(outcomes, sort_keys=True)}; "
          f"worker deaths {one.worker_deaths}; "
          f"server exit codes {one.exit_codes}")


def run(seed: int, seconds: float, result: Result) -> None:
    """End-to-end metrics, tracing off."""
    try:
        one = one_pass(seed, seconds / 2, seconds / 2, SETUPS)
    finally:
        _remove_work_root()
    ref = Reference()
    wrong = _check_answers(one, ref, result)
    _count(one, result)
    _describe(one)
    opened = one.phase("open")
    latencies = [q.latency_s for q in opened]
    tail = tail_percentile(latencies)
    closed_done = [q for q in one.phase("closed")
                   if q.outcome == "completed"]
    result.put("setup_s", median(one.setup_s), "s")
    result.put("sim_ms", ref.one_pass()[0] * 1e3, "ms")
    result.put("peak_rss_mib", resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MiB")
    result.put("latency_p50_ms", median(latencies) * 1e3, "ms")
    if tail is None:
        result.wrong(f"{len(latencies)} open-loop samples leave no "
                     f"percentile with ten beyond it")
        result.put("latency_tail_ms", max(latencies, default=0.0) * 1e3, "ms")
    else:
        print(f"  latency_tail_ms is p{tail[0]:g} "
              f"({tail[2]} of {len(latencies)} samples beyond it)")
        result.put("latency_tail_ms", tail[1] * 1e3, "ms")
    result.put("throughput_qps",
               len(closed_done) / one.closed_s if one.closed_s else 0.0,
               "1/s")
    result.put("failed_share", result.failed / result.attempted, "ratio")
    if wrong:
        print(f"  {wrong} wrong answers", file=sys.stderr)


def traced(seed: int, seconds: float, result: Result) -> None:
    """Per-layer metrics: an untraced closed-loop baseline, then a pass
    against a server started with the layer wrappers installed."""
    ref = Reference()
    os.makedirs(_work_root(), exist_ok=True)
    trace_out = os.path.join(_work_root(), "trace.json")
    try:
        base = one_pass(seed, 0.0, 0.3 * seconds, 1)
        one = one_pass(seed, 0.35 * seconds, 0.35 * seconds, 1, trace_out)
        with open(trace_out) as handle:
            doc = json.load(handle)
    finally:
        _remove_work_root()
    for each in (base, one):
        _check_answers(each, ref, result)
        _count(each, result)
    _describe(one)
    if doc["partition_error"]:
        result.wrong(f"trace partition: {doc['partition_error']}")

    done = [q for q in one.queries
            if q.outcome == "completed" and q.phase != "warm-up"]
    per = max(1, len(done))
    extras = layers.Extras()
    extras.quick_patterns = doc["quick_patterns"]
    extras.plan_lookups = doc["plan_lookups"]
    extras.plan_hits = doc["plan_hits"]
    extras.checkpoint_bytes = doc["checkpoint_bytes"]
    metrics = layers.empty_metrics()
    metrics.update(layers.tracer_metrics(doc["self_s"], doc["calls"],
                                         extras, per))
    sim_s, buckets, counters = ref.one_pass()
    metrics.update(layers.sim_metrics(buckets, counters))
    error = layers.sim_sum_error(metrics, sim_s * 1e3)
    if error:
        result.wrong(error)

    def p50(values: List[float]) -> float:
        return median(values) * 1e3 if values else 0.0

    bills = [q.doc["billing"] for q in done]
    metrics["serve.queue_wait_ms_p50"] = p50(
        [b["queue_seconds"] for b in bills])
    metrics["serve.exec_ms_p50"] = p50([b["exec_seconds"] for b in bills])
    metrics["serve.overhead_ms_p50"] = p50(
        [_client_s(q) - q.doc["billing"]["queue_seconds"]
         - q.doc["billing"]["exec_seconds"] for q in done])
    metrics["serve.preemptions"] = sum(b["preemptions"] for b in bills)
    metrics["serve.worker_deaths"] = one.worker_deaths
    late = [q.sent - q.due for q in one.phase("open") if q.sent is not None]
    tail = tail_percentile(late, (99.0, 90.0, 50.0))
    metrics["serve.gen_late_ms_p99"] = tail[1] * 1e3 if tail else 0.0
    metrics["resilience.leaked"] = one.leaked + doc["live_segments"]
    busy = sum(doc["top_s"].values())
    metrics["trace.wall_s"] = busy / per

    def closed_exec(each: Pass) -> List[float]:
        return [q.doc["billing"]["exec_seconds"] for q in each.queries
                if q.outcome == "completed" and q.phase == "closed"]

    if closed_exec(base) and closed_exec(one):
        metrics["trace.overhead_share"] = (
            median(closed_exec(one)) / median(closed_exec(base)) - 1.0)
    for name, value in metrics.items():
        result.put(name, value, layers.UNITS[name])
    print(f"  {per} timed queries completed; server self time by layer "
          f"(share of {busy:.2f} s busy, summed over threads; "
          f"{doc['wall_s']:.2f} s server wall time):")
    for layer, secs in sorted(doc["self_s"].items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<22} {secs:9.4f}  ({secs / busy:6.1%})")
