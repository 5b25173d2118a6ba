"""Persistent plan cache: SQLite blob store with an in-process LRU.

Cache key is ``(pattern_hash, profile_hash)`` — the pattern (or task
signature for pattern-less tasks) plus the dataset profile are the only
inputs the cost model reads, so a hit is guaranteed to be the plan the
planner would have produced.  Staleness is checked three ways on every
read: the stored ``planner_version`` must match the current
:data:`~repro.plan.plan.PLANNER_VERSION`, the stored ``profile_hash``
must match the requesting profile, and the payload must hash to its
recorded sha256 (guards torn writes / manual edits).  Stale rows are
treated as misses and overwritten.

The in-process LRU (a bounded ``OrderedDict``) sits in front so repeated
runs in one process never touch SQLite; ``hits``/``misses`` counters
feed the bench harness's warm-cache gate.  One lock guards the
connection, the LRU and the counters, so the serve scheduler's worker
threads can share a cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sqlite3
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional

from .plan import PLANNER_VERSION, CompiledPlan

__all__ = ["PlanCache"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS plans (
    cache_key       TEXT PRIMARY KEY,
    planner_version INTEGER NOT NULL,
    profile_hash    TEXT NOT NULL,
    payload         BLOB NOT NULL,
    payload_sha     TEXT NOT NULL,
    created_utc     TEXT NOT NULL
);
"""

#: Default bound on the in-process LRU layer.
_LRU_CAPACITY = 64


class PlanCache:
    """Hash-keyed plan store: LRU in front of a SQLite blob table.

    Fork-safe by construction: the SQLite connection and the lock are
    created lazily and keyed on ``os.getpid()``, so a child process (shard
    worker, Pool fork) that inherits a cache never reuses the parent's
    handle or a lock some parent thread held at the fork — it makes its
    own on first touch.  Pickling drops the connection, the lock and the
    in-process LRU (all per-process state); the unpickled cache
    reconnects to the same database file on demand.

    Thread-safe: every method holds the per-process lock while it touches
    the connection, the LRU or the counters, so the connection is opened
    without SQLite's same-thread check and ``hits + misses`` always
    equals the number of lookups.
    """

    def __init__(self, path: "str | pathlib.Path",
                 lru_capacity: int = _LRU_CAPACITY) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_pid: Optional[int] = None
        self._lock: Optional[threading.Lock] = None
        self._lock_pid: Optional[int] = None
        self._lru: "OrderedDict[str, CompiledPlan]" = OrderedDict()
        self._lru_capacity = max(1, lru_capacity)
        self.hits = 0
        self.misses = 0
        with self._guard():
            self._db.execute("SELECT 1")  # fail fast on an unopenable path

    # -- process boundary ----------------------------------------------

    def _guard(self) -> threading.Lock:
        """This process's lock (made afresh after a fork or unpickle)."""
        pid = os.getpid()
        if self._lock is None or self._lock_pid != pid:
            self._lock = threading.Lock()
            self._lock_pid = pid
        return self._lock

    @property
    def _db(self) -> sqlite3.Connection:
        """This process's connection (reopened after a fork); callers
        hold :meth:`_guard`."""
        pid = os.getpid()
        if self._conn is None or self._conn_pid != pid:
            # A connection inherited across fork() must not be used *or
            # closed* — closing could checkpoint the parent's journal.
            # Drop the reference and open a fresh handle for this pid.
            self._conn = sqlite3.connect(str(self.path),
                                         check_same_thread=False)
            self._conn_pid = pid
            self._conn.executescript(_SCHEMA)
            self._conn.commit()
        return self._conn

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["_conn"] = None
        state["_conn_pid"] = None
        state["_lock"] = None
        state["_lock_pid"] = None
        state["_lru"] = OrderedDict()
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)

    # ------------------------------------------------------------------

    @staticmethod
    def cache_key(pattern_hash: str, profile_hash: str) -> str:
        return f"{pattern_hash}:{profile_hash}"

    def _lru_get(self, key: str) -> Optional[CompiledPlan]:
        plan = self._lru.get(key)
        if plan is not None:
            self._lru.move_to_end(key)
        return plan

    def _lru_put(self, key: str, plan: CompiledPlan) -> None:
        self._lru[key] = plan
        self._lru.move_to_end(key)
        while len(self._lru) > self._lru_capacity:
            self._lru.popitem(last=False)

    # ------------------------------------------------------------------

    def get(self, pattern_hash: str,
            profile_hash: str) -> Optional[CompiledPlan]:
        """Fresh cached plan, or ``None`` (stale rows count as misses)."""
        key = self.cache_key(pattern_hash, profile_hash)
        with self._guard():
            plan = self._lru_get(key)
            if plan is not None:
                self.hits += 1
                return plan
            row = self._db.execute(
                "SELECT planner_version, profile_hash, payload, payload_sha "
                "FROM plans WHERE cache_key = ?", (key,)).fetchone()
            if row is None:
                self.misses += 1
                return None
            version, stored_profile, payload, payload_sha = row
            stale = (
                int(version) != PLANNER_VERSION
                or stored_profile != profile_hash
                or hashlib.sha256(payload).hexdigest() != payload_sha
            )
            if stale:
                self.misses += 1
                return None
            try:
                plan = CompiledPlan.from_json(
                    json.loads(payload.decode("utf-8")))
            except (ValueError, KeyError, json.JSONDecodeError):
                self.misses += 1
                return None
            self._lru_put(key, plan)
            self.hits += 1
            return plan

    def put(self, pattern_hash: str, profile_hash: str,
            plan: CompiledPlan) -> None:
        key = self.cache_key(pattern_hash, profile_hash)
        payload = json.dumps(plan.to_json(), sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        with self._guard():
            self._db.execute(
                "INSERT INTO plans (cache_key, planner_version, profile_hash,"
                " payload, payload_sha, created_utc)"
                " VALUES (?, ?, ?, ?, ?, ?)"
                " ON CONFLICT(cache_key) DO UPDATE SET"
                " planner_version=excluded.planner_version,"
                " profile_hash=excluded.profile_hash,"
                " payload=excluded.payload,"
                " payload_sha=excluded.payload_sha,"
                " created_utc=excluded.created_utc",
                (key, PLANNER_VERSION, profile_hash, payload,
                 hashlib.sha256(payload).hexdigest(),
                 time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())))
            self._db.commit()
            self._lru_put(key, plan)

    def get_or_plan(self, pattern_hash: str, profile_hash: str,
                    build: Callable[[], CompiledPlan]) -> CompiledPlan:
        """Cached plan if fresh, else ``build()`` and store the result."""
        plan = self.get(pattern_hash, profile_hash)
        if plan is not None:
            return plan
        plan = build()
        self.put(pattern_hash, profile_hash, plan)
        return plan

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._guard():
            count = self._db.execute(
                "SELECT COUNT(*) FROM plans").fetchone()[0]
            return {
                "hits": self.hits, "misses": self.misses,
                "persisted": int(count), "lru": len(self._lru),
            }

    def close(self) -> None:
        with self._guard():
            if self._conn is not None and self._conn_pid == os.getpid():
                self._conn.close()
            self._conn = None
            self._conn_pid = None

    def __enter__(self) -> "PlanCache":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
