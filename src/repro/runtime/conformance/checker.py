"""Delivery-semantics checker: the §3.2 invariants, asserted per event.

The checker subscribes to the scheduler's event stream (every
``yield_point``/``observe_point`` on the hot path) and maintains its own
model of what a correct execution may do. It is deliberately
independent of the code under test: e.g. the causal invariant is
re-checked *at apply time* from the version store, so a racing
generation flush that invalidates a dependency between the
subscriber's own check and its apply is caught even though the
subscriber believed the check passed.

Invariant identifiers (stable, used by tests and the CLI):

- ``causal.dependency-order`` — no message applies before its
  dependency counters are satisfied (causal and global modes).
- ``global.total-order`` — messages of one publisher apply in total
  (global-object version) order.
- ``weak.fresh-or-discard`` — weak mode applies fresh versions in
  per-object order and only discards genuinely stale ones.
- ``counters.monotone`` — version-store counters never step backwards
  outside a legitimate generation flush.
- ``generation.flush-safety`` — dependency counters are never flushed
  while an older-generation message is in flight.
- ``delivery.at-least-once`` — every message that entered the queue is
  applied or explicitly accounted (give-up, decommission).
- ``delivery.dedup`` — no message uid is applied more than once.
- ``worker.no-silent-death`` — no worker dies on an unexpected
  exception from the queue/subscriber layer.
- ``queue.pop-deadline`` — a blocking pop never returns early on a
  spurious wakeup or stolen notify.
- ``fleet.idle-deadline`` — ``WorkerFleet.wait_until_idle`` respects
  the caller's timeout as a whole-call deadline.
- ``drain.no-leaked-deliveries`` — ``drain`` returns popped-but-pending
  messages when the queue is decommissioned mid-round.
- ``dispatch.parked-give-up`` — a message parked on a lost dependency
  is reported by ``stuck_dependencies`` and gives up exactly at its age.
- ``flow.admission-safety`` — graduated backpressure only sheds
  weak-mode publishes (causal/global messages carry dependency bumps
  downstream messages wait on; shedding one wedges the stream), and
  every coalesced-away message is accounted through its survivor.
- ``views.read-freshness`` — a cache hit is never served at a version
  older than the key's last invalidation (no cached read is staler
  than an applied write), and at quiescence every derived read model
  equals a from-scratch recomputation over the base rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.delivery import GLOBAL, GLOBAL_OBJECT, WEAK, effective_dependencies

INV_CAUSAL = "causal.dependency-order"
INV_GLOBAL = "global.total-order"
INV_WEAK = "weak.fresh-or-discard"
INV_MONOTONE = "counters.monotone"
INV_GATE = "generation.flush-safety"
INV_ALO = "delivery.at-least-once"
INV_DEDUP = "delivery.dedup"
INV_WORKER = "worker.no-silent-death"
INV_POP = "queue.pop-deadline"
INV_IDLE = "fleet.idle-deadline"
INV_LEAK = "drain.no-leaked-deliveries"
INV_FLOW = "flow.admission-safety"
INV_DURABLE = "durability.restore-equivalence"
INV_VIEW = "views.read-freshness"
INV_CDC = "cdc.outbox-delivery"
INV_SAGA = "saga.inventory-balance"
INV_PARK = "dispatch.parked-give-up"


@dataclass
class Violation:
    """One broken invariant, named and located in the schedule."""

    invariant: str
    detail: str
    step: int = -1
    worker: str = ""

    def __str__(self) -> str:
        where = f" @step {self.step} [{self.worker}]" if self.step >= 0 else ""
        return f"{self.invariant}{where}: {self.detail}"


@dataclass
class _MessageFate:
    message: Any
    finishes: int = 0


class DeliveryChecker:
    """Event-driven checker for one conformance schedule."""

    def __init__(self, subscriber: Any) -> None:
        self.subscriber = subscriber
        self.store = subscriber.service.subscriber_version_store
        self.hasher = subscriber.service.ecosystem.hasher
        self.violations: List[Violation] = []
        #: uid -> fate, for every message that actually entered the queue.
        self.entered: Dict[str, _MessageFate] = {}
        #: uid -> message, popped but not yet acked/nacked.
        self.in_flight: Dict[str, Any] = {}
        self.gave_up: set = set()
        self.crashed: set = set()
        #: absorbed uid -> survivor uid (flow-control coalescing).
        self.coalesced_into: Dict[str, str] = {}
        #: uids the admission layer shed (never entered the queue).
        self.shed: set = set()
        self.duplicates = 0
        self.tolerated_acks = 0
        self.tolerated_nacks = 0
        self.queue_decommissioned = False
        #: Set by the harness when the schedule runs with views: the
        #: quiescent aggregate check compares incremental vs recomputed.
        self.views: Optional[Any] = None
        #: Set by the harness on CDC schedules: the publisher's outbox
        #: table, checked at quiescence (every entry published, cursor
        #: caught up to the max sequence).
        self.outbox: Optional[Any] = None
        self.cdc_poller: Optional[Any] = None
        #: Set by the saga workload: a callable returning a list of
        #: (detail,) strings for every INV_SAGA imbalance at quiescence.
        self.saga: Optional[Any] = None
        #: key -> latest invalidation version (the applied frontier).
        self.cache_frontier: Dict[str, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self._counter_floor: Dict[str, int] = {}
        self._weak_applied: Dict[str, int] = {}
        self._last_global_version: Optional[int] = None
        self._step = -1
        self._worker = ""

    # -- wiring --------------------------------------------------------------

    def on_event(self, step: int, worker: str, label: str, info: Dict[str, Any]) -> None:
        self._step, self._worker = step, worker
        handler = getattr(self, "_on_" + label.replace(".", "_"), None)
        if handler is not None:
            handler(info)

    def violation(self, invariant: str, detail: str) -> None:
        self.violations.append(
            Violation(invariant, detail, step=self._step, worker=self._worker)
        )

    # -- queue lifecycle -----------------------------------------------------

    def _on_queue_published(self, info: Dict[str, Any]) -> None:
        message = info["message"]
        self.entered.setdefault(message.uid, _MessageFate(message))

    def _on_queue_decommissioned(self, info: Dict[str, Any]) -> None:
        self.queue_decommissioned = True

    def _on_queue_popped(self, info: Dict[str, Any]) -> None:
        self.in_flight[info["message"].uid] = info["message"]

    def _on_queue_acked(self, info: Dict[str, Any]) -> None:
        self.in_flight.pop(info["message"].uid, None)

    def _on_queue_nacked(self, info: Dict[str, Any]) -> None:
        self.in_flight.pop(info["message"].uid, None)

    def _on_queue_ack_tolerated(self, info: Dict[str, Any]) -> None:
        self.tolerated_acks += 1
        self.in_flight.pop(info["message"].uid, None)

    def _on_queue_nack_tolerated(self, info: Dict[str, Any]) -> None:
        self.tolerated_nacks += 1
        self.in_flight.pop(info["message"].uid, None)

    def _on_queue_requeued(self, info: Dict[str, Any]) -> None:
        # Crash recovery returned every unacked delivery to the queue.
        self.in_flight.clear()

    # -- flow control ---------------------------------------------------------

    def _on_queue_shed(self, info: Dict[str, Any]) -> None:
        """Credit-exhausted admission may only shed weak-mode traffic:
        a causal/global message carries counter bumps that downstream
        messages wait on, so shedding it wedges the stream (the §4.4
        kill remains the last resort for those)."""
        message = info["message"]
        self.shed.add(message.uid)
        if self._mode_for(message) != WEAK:
            self.violation(
                INV_FLOW,
                f"admission shed {self._mode_for(message)}-mode message "
                f"{message.uid} — only weak-mode publishes are sheddable",
            )

    def _on_queue_coalesced(self, info: Dict[str, Any]) -> None:
        """An absorbed message is accounted through its survivor: track
        the merge edge so finalize() can follow it."""
        message, survivor = info["message"], info["into"]
        self.entered.setdefault(message.uid, _MessageFate(message))
        self.coalesced_into[message.uid] = survivor.uid

    # -- read path (views + cache) --------------------------------------------

    def _on_cache_invalidate(self, info: Dict[str, Any]) -> None:
        """The apply path advanced a key's watermark: every cached
        entry below it is now unservable. Invalidation events are
        emitted inside the cache's atomic KV script, so event order
        here equals version order."""
        key, version = info["key"], info["version"]
        self.cache_frontier[key] = max(
            self.cache_frontier.get(key, 0), version
        )

    def _on_cache_read(self, info: Dict[str, Any]) -> None:
        """A *hit* served a cached entry at ``version``; serving below
        the key's invalidation frontier means a reader observed state
        older than a write the subscriber already applied. Misses load
        from the authoritative store and may *fill* stale (the next
        read reloads) — only what is served is checked."""
        key, version, hit = info["key"], info["version"], info["hit"]
        if not hit:
            self.cache_misses += 1
            return
        self.cache_hits += 1
        frontier = self.cache_frontier.get(key, 0)
        if version < frontier:
            self.violation(
                INV_VIEW,
                f"cache hit on {key!r} served version {version} below the "
                f"invalidation frontier {frontier} — a cached read is "
                "staler than an already-applied write",
            )

    # -- apply-side invariants -----------------------------------------------

    def _mode_for(self, message: Any) -> str:
        return self.subscriber.app_modes.get(message.app, WEAK)

    def _on_apply(self, info: Dict[str, Any]) -> None:
        """Causal/global: dependencies must hold *at the moment of apply*,
        not merely at the subscriber's own earlier check."""
        message = info["message"]
        mode = self._mode_for(message)
        if (
            mode == WEAK
            or message.bootstrap
            or message.repair
            or self.subscriber.bootstrapping
        ):
            return
        object_deps = set(self.subscriber._object_deps(message))
        required = dict(
            effective_dependencies(message.dependencies, mode, object_deps)
        )
        required.update(message.external_dependencies)
        missing = self.store.missing(required)
        if missing:
            self.violation(
                INV_CAUSAL,
                f"message {message.uid} applied with unsatisfied dependencies "
                f"{missing} (required vs current) — counters changed between "
                f"the subscriber's check and its apply",
            )
        if mode == GLOBAL:
            # Apply events are ordered identically to the engine writes
            # (no yield point sits between the two), so the global-object
            # versions seen here must be strictly increasing.
            version = message.dependencies.get(self.hasher.hash(GLOBAL_OBJECT))
            if version is not None:
                last = self._last_global_version
                if last is not None and version <= last:
                    self.violation(
                        INV_GLOBAL,
                        f"message {message.uid} (global version {version}) "
                        f"applied after version {last} — total order broken",
                    )
                if last is None or version > last:
                    self._last_global_version = version

    def _on_msg_finished(self, info: Dict[str, Any]) -> None:
        message = info["message"]
        fate = self.entered.get(message.uid)
        if fate is not None:
            fate.finishes += 1
            if fate.finishes > 1:
                self.violation(
                    INV_DEDUP,
                    f"message {message.uid} applied {fate.finishes} times — "
                    "at-least-once redelivery must deduplicate",
                )

    def _on_dedup_duplicate(self, info: Dict[str, Any]) -> None:
        self.duplicates += 1

    def _on_apply_weak(self, info: Dict[str, Any]) -> None:
        dep, version = info["dep"], info["version"]
        last = self._weak_applied.get(dep)
        if last is not None and version <= last:
            self.violation(
                INV_WEAK,
                f"object {dep}: version {version} applied after {last} — a "
                "stale write landed on top of a fresher one",
            )
        self._weak_applied[dep] = max(version, last if last is not None else version)

    def _on_apply_weak_discarded(self, info: Dict[str, Any]) -> None:
        dep, version = info["dep"], info["version"]
        if version >= self.store.ops(dep):
            self.violation(
                INV_WEAK,
                f"object {dep}: fresh version {version} discarded "
                f"(counter only at {self.store.ops(dep)})",
            )

    # -- counters and generation flushes -------------------------------------

    def _on_counter_bumped(self, info: Dict[str, Any]) -> None:
        dep, value = info["dep"], info["value"]
        floor = self._counter_floor.get(dep, 0)
        if value <= floor:
            self.violation(
                INV_MONOTONE,
                f"counter {dep} moved to {value}, at or below its prior "
                f"value {floor}",
            )
        self._counter_floor[dep] = value

    def _on_counter_fast_forward(self, info: Dict[str, Any]) -> None:
        dep, value = info["dep"], info["value"]
        floor = self._counter_floor.get(dep, 0)
        if value < floor:
            self.violation(
                INV_MONOTONE,
                f"counter {dep} fast-forwarded backwards: {floor} -> {value}",
            )
        self._counter_floor[dep] = value

    def _on_generation_flush(self, info: Dict[str, Any]) -> None:
        app, generation = info["app"], info["generation"]
        older = [
            message.uid
            for message in self.in_flight.values()
            if message.app == app and message.generation < generation
        ]
        if older:
            self.violation(
                INV_GATE,
                f"dependency counters for {app!r} flushed for generation "
                f"{generation} while older-generation deliveries {older} "
                "were still in flight (popped, unacked)",
            )
        self._counter_floor.clear()
        self._weak_applied.clear()
        self._last_global_version = None

    def _on_store_flush(self, info: Dict[str, Any]) -> None:
        self._counter_floor.clear()
        self._weak_applied.clear()

    # -- worker fates ---------------------------------------------------------

    def _on_worker_gave_up(self, info: Dict[str, Any]) -> None:
        self.gave_up.add(info["message"].uid)

    def _on_worker_crashed(self, info: Dict[str, Any]) -> None:
        self.crashed.add(info["message"].uid)

    # -- end-of-schedule accounting ------------------------------------------

    def _accounted(self, uid: str) -> bool:
        """Applied or given up — following coalesce edges: an absorbed
        message is delivered exactly when its (transitive) survivor is."""
        seen = set()
        while uid not in seen:
            seen.add(uid)
            fate = self.entered.get(uid)
            if (fate is not None and fate.finishes > 0) or uid in self.gave_up:
                return True
            survivor = self.coalesced_into.get(uid)
            if survivor is None:
                return False
            uid = survivor
        return False

    def finalize(self) -> List[Violation]:
        """At-least-once: every enqueued message must be applied or
        explicitly accounted for by the end of a quiescent schedule."""
        self._step, self._worker = -1, ""
        for uid in sorted(self.entered):
            if not self._accounted(uid) and not self.queue_decommissioned:
                self.violations.append(
                    Violation(
                        INV_ALO,
                        f"message {uid} entered the queue but was never "
                        "applied, given up on, or decommissioned away",
                    )
                )
        if self.views is not None:
            # The aggregate half of INV_VIEW: after quiescence every
            # incrementally maintained view must equal the same
            # projection recomputed from a full base-row scan.
            for spec in self.views.specs():
                incremental = self.views.canonical(spec.name)
                recomputed = self.views.recompute_canonical(spec.name)
                if incremental != recomputed:
                    self.violations.append(
                        Violation(
                            INV_VIEW,
                            f"view {spec.name!r} diverged from recomputation: "
                            f"incremental={incremental!r} "
                            f"recomputed={recomputed!r}",
                        )
                    )
        if self.outbox is not None and self.cdc_poller is not None:
            # INV_CDC: a quiescent schedule may not leave committed
            # outbox entries untailed — every raw write must have been
            # fed to the publisher path before the run declared idle.
            pending = self.outbox.backlog(self.cdc_poller.cursor)
            if pending:
                self.violations.append(
                    Violation(
                        INV_CDC,
                        f"{pending} committed outbox entries never "
                        f"published (cursor={self.cdc_poller.cursor})",
                    )
                )
        if self.saga is not None:
            for detail in self.saga():
                self.violations.append(Violation(INV_SAGA, detail))
        return self.violations
