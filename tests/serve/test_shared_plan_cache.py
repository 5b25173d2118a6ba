"""One PlanCache shared by several threads, as the scheduler's workers
share it: no thread dies and every lookup is counted once."""

import sys
import threading
import types

from repro.graph import kronecker, sm_query
from repro.plan import PlanCache, resolve_plan

THREADS = 6
ROUNDS = 4


def test_threads_resolve_through_one_cache(tmp_path):
    engine = types.SimpleNamespace(graph=kronecker(6, 4, seed=2))
    cache = PlanCache(tmp_path / "plans.sqlite", lru_capacity=2)
    errors = []
    plans = {}

    def worker(index):
        try:
            for round_ in range(ROUNDS):
                query = 1 + (index + round_) % 3
                plan = resolve_plan(engine, "sm", pattern=sm_query(query),
                                    plan="auto", cache=cache)
                plans.setdefault(query, set()).add(plan.plan_id)
            cache.stats()
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert cache.hits + cache.misses == THREADS * ROUNDS
    assert all(len(ids) == 1 for ids in plans.values())
    # Closing from a thread other than the one that opened the
    # connection is what a scheduler shutdown does.
    closer = threading.Thread(target=cache.close)
    closer.start()
    closer.join(timeout=30)
    assert not closer.is_alive()
    assert cache.stats()["persisted"] == 3
    cache.close()
