"""Publisher and subscriber version stores (§4.2).

Publisher side, per dependency: two counters, ``ops`` (operations that
referenced the object) and ``version`` (set to ``ops`` on writes). For
each operation the publisher, holding locks on its write dependencies,
bumps the counters and emits ``version`` for read dependencies and
``version - 1`` for write dependencies (the exact Fig 8 arithmetic).

Subscriber side, per dependency: a single ``ops`` counter. A message is
processable once every dependency's stored counter is >= the version in
the message; after processing, the counter of every (non-external)
dependency is incremented.

All counter updates run as atomic scripts on Redis-like shards behind a
consistent-hash ring. Dependency names can be hashed into a fixed space
for O(1) memory — a 1-entry space degenerates to global ordering, the
ablation the paper points out.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.databases.kv import RedisLike
from repro.runtime.interleave import observe_point, yield_point
from repro.versionstore.hashring import HashRing, stable_hash


class DependencyHasher:
    """Maps full dependency names to version-store keys.

    ``space=None`` keeps names verbatim; an integer folds them into that
    many buckets (collisions serialise unrelated objects, trading
    parallelism for memory, §4.2).
    """

    def __init__(self, space: Optional[int] = None) -> None:
        if space is not None and space < 1:
            raise ValueError("hash space must be >= 1")
        self.space = space

    def hash(self, dep: str) -> str:
        if self.space is None:
            return dep
        return f"d{stable_hash(dep) % self.space}"


class ShardedKV:
    """Routes keys across Redis-like shards via a consistent-hash ring."""

    def __init__(self, shards: List[RedisLike], vnodes: int = 64) -> None:
        if not shards:
            raise ValueError("need at least one shard")
        self.shards = list(shards)
        self._ring = HashRing(self.shards, vnodes=vnodes)

    def shard_for(self, key: str) -> RedisLike:
        return self._ring.node_for(key)

    def hget(self, key: str, field: str) -> Any:
        return self.shard_for(key).hget(key, field)

    def hset(self, key: str, field: str, value: Any) -> None:
        self.shard_for(key).hset(key, field, value)

    def eval_on(self, key: str, script) -> Any:
        return self.shard_for(key).eval(script)

    def entries(self, prefix: str = "") -> Dict[str, Dict[str, Any]]:
        """All hashes under ``prefix`` across every shard (bootstrap bulk
        transfer, §4.4)."""
        out: Dict[str, Dict[str, Any]] = {}
        for shard in self.shards:
            for key in shard.keys(prefix):
                out[key] = shard.hgetall(key)
        return out

    def flushall(self) -> None:
        for shard in self.shards:
            shard.flushall()

    @property
    def any_down(self) -> bool:
        return any(shard.is_down for shard in self.shards)

    def total_keys(self) -> int:
        return sum(shard.dbsize() for shard in self.shards)


class _LockTable:
    """Per-dependency locks, acquired in sorted order (deadlock-free)."""

    def __init__(self) -> None:
        self._locks: Dict[str, threading.Lock] = {}
        self._guard = threading.Lock()

    def _lock_for(self, dep: str) -> threading.Lock:
        with self._guard:
            lock = self._locks.get(dep)
            if lock is None:
                lock = threading.Lock()
                self._locks[dep] = lock
            return lock

    def acquire(self, deps: Iterable[str]) -> List[threading.Lock]:
        held = []
        for dep in sorted(set(deps)):
            lock = self._lock_for(dep)
            lock.acquire()
            held.append(lock)
        return held

    @staticmethod
    def release(held: List[threading.Lock]) -> None:
        for lock in reversed(held):
            lock.release()


class PublisherVersionStore:
    """The publisher's two-counter store plus its lock table."""

    def __init__(
        self,
        kv: ShardedKV,
        hasher: Optional[DependencyHasher] = None,
        metrics: Optional[Any] = None,
        owner: str = "",
    ) -> None:
        self.kv = kv
        self.hasher = hasher or DependencyHasher()
        self.locks = _LockTable()
        # Counter bumps mirrored into the ecosystem metrics registry.
        self._bumps = (
            metrics.counter(f"versionstore.{owner or 'publisher'}.bumps")
            if metrics is not None
            else None
        )

    @staticmethod
    def _key(hashed_dep: str) -> str:
        return f"v:{hashed_dep}"

    # -- the §4.2 publisher algorithm steps --------------------------------

    def acquire_write_locks(self, deps: Iterable[str]) -> List[threading.Lock]:
        return self.locks.acquire(self.hasher.hash(d) for d in deps)

    def release_locks(self, held: List[threading.Lock]) -> None:
        self.locks.release(held)

    def bump(self, dep: str, is_write: bool) -> int:
        """Increment ``ops`` (and ``version`` for writes); return the
        version number to embed in the message."""
        if self._bumps is not None:
            self._bumps.increment()
        key = self._key(self.hasher.hash(dep))

        def script(store: RedisLike) -> int:
            ops = (store.hget(key, "ops") or 0) + 1
            store.hset(key, "ops", ops)
            if is_write:
                store.hset(key, "version", ops)
                return ops - 1
            return store.hget(key, "version") or 0

        return self.kv.eval_on(key, script)

    def register_operation(
        self, read_deps: Iterable[str], write_deps: Iterable[str]
    ) -> Dict[str, int]:
        """Bump every dependency; returns {hashed_dep: message_version}.

        Write-dep versions win when a name appears as both (hash
        collisions or explicit duplicates).
        """
        versions: Dict[str, int] = {}
        for dep in read_deps:
            hashed = self.hasher.hash(dep)
            if hashed not in versions:
                versions[hashed] = self.bump(dep, is_write=False)
        for dep in write_deps:
            versions[self.hasher.hash(dep)] = self.bump(dep, is_write=True)
        return versions

    # -- introspection / bootstrap -------------------------------------------

    def current(self, dep: str) -> Tuple[int, int]:
        key = self._key(self.hasher.hash(dep))
        return (self.kv.hget(key, "ops") or 0, self.kv.hget(key, "version") or 0)

    def snapshot(self) -> Dict[str, int]:
        """hashed_dep -> ops, the bulk payload of bootstrap step 1 (§4.4)."""
        out = {}
        for key, fields in self.kv.entries("v:").items():
            out[key[len("v:"):]] = fields.get("ops", 0)
        return out

    def watermark(self) -> int:
        """Total operations registered across every dependency."""
        return sum(self.snapshot().values())

    def flush(self) -> None:
        self.kv.flushall()


class SubscriberVersionStore:
    """The subscriber's single-counter store, plus the readiness index
    that parks messages until the counters reach their versions."""

    def __init__(
        self, kv: ShardedKV, metrics: Optional[Any] = None, owner: str = ""
    ) -> None:
        self.kv = kv
        self._applied = (
            metrics.counter(f"versionstore.{owner or 'subscriber'}.applied")
            if metrics is not None
            else None
        )
        # Readiness index (§4.2's "wait until the version store reaches
        # the message's versions", as an event): hashed dep -> heap of
        # [ops needed, tie, key, on_ready]; ``_parked`` maps each key to
        # its live entry (stale heap entries are skipped), ``_ages``
        # orders keys by ``since`` for give-up.
        self._index_lock = threading.Lock()
        self._index: Dict[str, list] = {}
        self._parked: Dict[Any, list] = {}
        self._ages: list = []
        self._released: List[Callable[[], None]] = []
        self._tie = itertools.count()

    @staticmethod
    def _key(hashed_dep: str) -> str:
        return f"s:{hashed_dep}"

    def ops(self, hashed_dep: str) -> int:
        return self.kv.hget(self._key(hashed_dep), "ops") or 0

    def snapshot(self) -> Dict[str, int]:
        """hashed_dep -> ops across every shard (audit watermarks)."""
        out: Dict[str, int] = {}
        for shard in self.kv.shards:
            for key in shard.keys("s:"):
                out[key[len("s:"):]] = shard.hget(key, "ops") or 0
        return out

    def deficits(self, publisher_snapshot: Dict[str, int]) -> Dict[str, int]:
        """Per-dependency counter deficits vs a publisher snapshot:
        only the dependencies this store is strictly behind on."""
        out: Dict[str, int] = {}
        for hashed_dep, ops in publisher_snapshot.items():
            behind = ops - self.ops(hashed_dep)
            if behind > 0:
                out[hashed_dep] = behind
        return out

    def satisfied(self, dependencies: Dict[str, int]) -> bool:
        return all(self.ops(dep) >= version for dep, version in dependencies.items())

    def missing(self, dependencies: Dict[str, int]) -> Dict[str, Tuple[int, int]]:
        """Unsatisfied deps -> (required, current); for diagnostics."""
        out = {}
        for dep, version in dependencies.items():
            current = self.ops(dep)
            if current < version:
                out[dep] = (version, current)
        return out

    def apply(self, dependencies: Iterable[str]) -> None:
        """Post-processing increment of every (non-external) dependency."""
        self.apply_counts({dep: 1 for dep in dependencies})

    def apply_counts(
        self, counts: Dict[str, int], record_only: bool = False
    ) -> None:
        """Post-processing bump of each dependency by ``counts[dep]``.

        Coalesced messages carry summed increments, and batched apply
        bumps per message inside the group-commit transaction —
        ``record_only=True`` downgrades the interleave events to
        observe-only because the caller holds the engine mutex there
        (a suspended scheduler step would deadlock the harness). For the
        same reason a record-only bump only collects the parked keys it
        releases; the dispatch step runs them after the apply.
        """
        emit = observe_point if record_only else yield_point
        for dep, amount in counts.items():
            if amount <= 0:
                continue
            emit("counter.bump", dep=dep)
            if self._applied is not None:
                self._applied.increment(amount)
            key = self._key(dep)

            def script(
                store: RedisLike, key: str = key, amount: int = amount
            ) -> int:
                ops = (store.hget(key, "ops") or 0) + amount
                store.hset(key, "ops", ops)
                return ops

            value = self.kv.eval_on(key, script)
            emit("counter.bumped", dep=dep, value=value)
            if self._parked:  # unlocked, after the increment (see park)
                self._fire(dep, value)
        if not record_only and self._released:
            self.run_released()

    # Weak-mode per-object freshness -----------------------------------------

    def is_stale(self, hashed_dep: str, message_version: int) -> bool:
        """Weak delivery: a message older than the applied state is
        discarded rather than waited for (§3.2)."""
        return message_version < self.ops(hashed_dep)

    def fast_forward(self, hashed_dep: str, message_version: int) -> None:
        """Weak delivery: jump the counter past a (possibly out-of-order)
        message that was just applied."""
        key = self._key(hashed_dep)

        def script(store: RedisLike) -> int:
            ops = max(store.hget(key, "ops") or 0, message_version + 1)
            store.hset(key, "ops", ops)
            return ops

        # Record-only, releases collected: callers may hold the
        # subscriber's per-object lock.
        value = self.kv.eval_on(key, script)
        observe_point("counter.fast_forward", dep=hashed_dep, value=value)
        if self._parked:
            self._fire(hashed_dep, value)

    # Readiness index ------------------------------------------------------------

    def park(
        self,
        key: Any,
        dependencies: Dict[str, int],
        on_ready: Callable[[], None],
        since: Optional[float] = None,
    ) -> bool:
        """Register ``on_ready`` to run once the counters reach
        ``dependencies`` (False, nothing registered, if they already
        do). A key waits on its first unmet dependency; its wake-up
        re-checks the rest. Re-checking *after* registering closes the
        lost-wakeup window: bumpers test ``_parked`` unlocked after
        their increment, so one side always sees the other. ``since``
        enrols the key for :meth:`expire`."""
        with self._index_lock:
            for dep, need in dependencies.items():
                if self.ops(dep) >= need:
                    continue
                entry = [need, next(self._tie), key, on_ready]
                heapq.heappush(self._index.setdefault(dep, []), entry)
                self._parked[key] = entry
                if self.ops(dep) < need:
                    if since is not None:
                        heapq.heappush(self._ages, (since, entry[1], key))
                    return True
                del self._parked[key]
            return False

    def _fire(self, dep: str, value: int) -> None:
        """Collect the keys parked on ``dep`` whose need ``value`` meets."""
        with self._index_lock:
            heap = self._index.get(dep)
            while heap and heap[0][0] <= value:
                entry = heapq.heappop(heap)
                if self._parked.get(entry[2]) is entry:
                    del self._parked[entry[2]]
                    self._released.append(entry[3])
            self._compact_locked()

    def _compact_locked(self) -> None:
        if not self._parked:
            self._index.clear()
            self._ages.clear()

    def run_released(self) -> None:
        """Run the callbacks of released keys; callers hold no locks."""
        if not self._released:
            return
        with self._index_lock:
            released, self._released = self._released, []
        for on_ready in released:
            on_ready()

    def expire(self, before: float) -> List[Any]:
        """Withdraw and return the parked keys whose ``since`` is at or
        before ``before`` — the §6.5 give-up deadline."""
        if not self._parked:
            return []
        expired = []
        with self._index_lock:
            ages = self._ages
            while ages and ages[0][0] <= before:
                _, _, key = heapq.heappop(ages)
                if self._parked.pop(key, None) is not None:
                    expired.append(key)
            self._compact_locked()
        return expired

    def parked(self) -> List[Any]:
        with self._index_lock:
            return list(self._parked)

    def wait_satisfied(self, dependencies: Dict[str, int], timeout: float) -> bool:
        """Block until ``dependencies`` are met, at most ``timeout`` s."""
        deadline = time.monotonic() + timeout
        while True:
            ready = threading.Event()
            if not self.park(ready, dependencies, ready.set):
                return True
            if not ready.wait(max(0.0, deadline - time.monotonic())):
                with self._index_lock:
                    if self._parked.pop(ready, None) is not None:
                        return False  # withdrawn before any release

    def release_all(self) -> None:
        """Release every parked key, running its callback."""
        with self._index_lock:
            self._released.extend(entry[3] for entry in self._parked.values())
            self._parked.clear()
            self._compact_locked()
        self.run_released()

    # Bootstrap ---------------------------------------------------------------

    def bulk_load(self, snapshot: Dict[str, int]) -> None:
        """Bootstrap step 1: adopt the publisher's ops counters (§4.4).
        Every parked key is released: bootstrap re-decides each message
        under weak semantics (§3.2)."""
        for hashed_dep, ops in snapshot.items():
            key = self._key(hashed_dep)

            def script(store: RedisLike, key: str = key, ops: int = ops) -> None:
                current = store.hget(key, "ops") or 0
                store.hset(key, "ops", max(current, ops))

            self.kv.eval_on(key, script)
        self.release_all()

    def flush(self) -> None:
        """Drop every counter; parked keys are released to re-check
        against the new generation's counters (§4.4)."""
        yield_point("store.flush")
        self.kv.flushall()
        self.release_all()
