"""The Synapse subscriber engine (§4.1, §4.2).

Workers take write messages off the service's durable queue, check
that the message's dependencies are satisfied in the local version
store (per the subscription's delivery mode), apply the operations
through the local ORM (firing the application's active-model
callbacks), increment the dependency counters, and ack. A message whose
dependencies are not met yet does not block its worker: it *parks* in
the version store's readiness index, still an unacked delivery, until
a counter bump reaches its versions and nacks it back to the queue
front (:class:`Dispatcher`).

Weak mode never waits: it applies fresh updates and discards stale ones.
During bootstrap every message is handled with weak semantics (§3.2).
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.broker.message import Message
from repro.core.delivery import (
    CAUSAL,
    GLOBAL,
    GLOBAL_OBJECT,
    WEAK,
    check_subscription_mode,
    effective_dependencies,
)
from repro.core.dependencies import dep_name
from repro.errors import SubscriptionError
from repro.orm.associations import snake_case
from repro.orm.callbacks import run_callbacks
from repro.orm.model import pluralize
from repro.runtime.interleave import observe_point, yield_point
from repro.runtime.tracing import (
    STAGE_APPLY,
    STAGE_BATCH,
    STAGE_DEP_WAIT,
    activate_trace,
    trace_now,
)


@dataclass
class SubscriptionSpec:
    """One ``subscribe from:`` declaration on a model (§3.1)."""

    from_app: str
    model_name: str
    model_cls: type
    #: remote attribute -> local attribute (identity unless ``as:`` used).
    fields: Dict[str, str]
    mode: str
    observer: bool = False


def table_for_type(type_name: str) -> str:
    return pluralize(snake_case(type_name))


class BatchOutcome(NamedTuple):
    """What :meth:`SynapseSubscriber.process_batch` made of a batch."""

    #: Applied, or already applied (a redelivered duplicate): ack.
    done: List[Message]
    #: Not applicable yet, each with its unmet requirements — None when
    #: the §4.4 generation gate holds it behind older messages.
    waiting: List[Tuple[Message, Optional[Dict[str, int]]]]
    #: Kept from landing by an apply error (theirs or an earlier
    #: member's): nack.
    retry: List[Message]
    #: Apply errors raised.
    errors: int


class StepResult(NamedTuple):
    """One :meth:`Dispatcher.step`: what it popped and how it settled."""

    popped: List[Message]
    applied: int = 0
    parked: int = 0
    retried: int = 0
    errors: int = 0


_IDLE = StepResult([])


class SynapseSubscriber:
    """Per-service subscribing engine."""

    def __init__(self, service: Any) -> None:
        self.service = service
        #: (from_app, model_name) -> spec
        self.specs: Dict[Tuple[str, str], SubscriptionSpec] = {}
        #: per-publisher delivery mode (weakest spec wins).
        self.app_modes: Dict[str, str] = {}
        #: per-publisher generation last seen.
        self.generations: Dict[str, int] = {}
        self.bootstrapping = False
        registry = service.ecosystem.metrics
        self.metrics = registry
        self._processed = registry.counter(f"subscriber.{service.name}.processed")
        self._stale = registry.counter(f"subscriber.{service.name}.stale_discarded")
        self._duplicates = registry.counter(f"subscriber.{service.name}.duplicates")
        #: Objects healed by anti-entropy repair messages (targeted
        #: repair instead of a full re-bootstrap).
        self._repaired = registry.counter(f"repair.{service.name}.applied_objects")
        #: Rollback-recovery redo writes that failed a second time; the
        #: divergence they leave behind is anti-entropy's to heal.
        self._redo_failed = registry.counter(f"subscriber.{service.name}.redo_failed")
        #: Time applied messages spent blocked on dependency counters.
        self.dep_wait = registry.histogram(f"subscriber.{service.name}.dep_wait")
        #: Time spent applying operations through the local ORM.
        self.apply_time = registry.histogram(f"subscriber.{service.name}.apply")
        self.queue = None
        # At-least-once deduplication: remember recently-applied message
        # uids so a redelivery after a missed ack is a no-op (applying
        # twice would double-increment the dependency counters).
        # Regression note: the deque/set pair used to be mutated without a
        # lock; N pool workers marking applied concurrently could pop the
        # same oldest uid or interleave deque/set updates, leaving the set
        # out of sync with the deque (phantom or lost dedup entries).
        self._applied_lock = threading.Lock()
        self._applied_uids: "deque[str]" = deque(maxlen=4096)
        self._applied_uid_set: set = set()
        # Per-object serialisation of the weak/repair fresh-or-discard
        # paths: the stale check, the ORM write and the counter
        # fast-forward must be one atomic step per object, or two
        # parallel workers can interleave check-then-apply and land an
        # older version on top of a newer one.
        self._object_locks: Dict[str, threading.Lock] = {}
        self._object_locks_guard = threading.Lock()

    # -- migrated ad-hoc counters (registry-backed, read-only views) -------

    @property
    def processed_messages(self) -> int:
        return self._processed.value

    @property
    def discarded_stale(self) -> int:
        return self._stale.value

    @property
    def duplicate_messages(self) -> int:
        return self._duplicates.value

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def add_subscription(self, spec: SubscriptionSpec) -> None:
        service = self.service
        published = service.broker.published_fields(spec.from_app, spec.model_name)
        if published is None:
            raise SubscriptionError(
                f"{service.name!r} subscribes to {spec.from_app}/{spec.model_name} "
                "but that publisher is not deployed (publishers deploy first, §4.3)"
            )
        unknown = sorted(set(spec.fields) - set(published))
        if unknown:
            raise SubscriptionError(
                f"{service.name!r} subscribes to unpublished attributes "
                f"{unknown} of {spec.from_app}/{spec.model_name} (§4.5)"
            )
        publisher_mode = service.broker.publisher_mode(spec.from_app) or CAUSAL
        check_subscription_mode(spec.mode, publisher_mode)
        current = self.app_modes.get(spec.from_app)
        if current is not None and current != spec.mode:
            # Delivery modes are chosen per publisher (§3.2): one app's
            # message stream cannot be half-causal, half-weak.
            raise SubscriptionError(
                f"{service.name!r} already subscribes to {spec.from_app!r} "
                f"in {current!r} mode; cannot mix with {spec.mode!r}"
            )
        self.specs[(spec.from_app, spec.model_name)] = spec
        self.app_modes[spec.from_app] = spec.mode
        self.queue = service.broker.bind(service.name, spec.from_app)

    def spec_for(self, app: str, types: List[str]) -> Optional[SubscriptionSpec]:
        """Match the most-derived subscribed type in the inheritance chain
        (polymorphic consumption, §4.1)."""
        for type_name in types:
            spec = self.specs.get((app, type_name))
            if spec is not None:
                return spec
        return None

    # ------------------------------------------------------------------
    # Synchronous draining (deterministic execution)
    # ------------------------------------------------------------------

    def drain(self) -> int:
        """Process queued messages until quiescent; returns the number
        applied. Messages whose dependencies cannot be satisfied end up
        back in the queue (the §6.5 deadlock scenario when messages were
        lost)."""
        if self.queue is None:
            return 0
        flow = getattr(self.service.ecosystem, "flow", None)
        batched = flow is not None and flow.config.batch_apply
        batch_max = flow.config.batch_max if batched else 1
        dispatcher = Dispatcher(self)
        processed = idle = 0
        try:
            # Quiescent once a whole revolution of the queue neither
            # applied nor parked anything (only deferrals and retries).
            while idle <= len(self.queue):
                step = dispatcher.step(batch_max)
                processed += step.applied
                idle = 0 if step.applied or step.parked else idle + 1
        finally:
            # Parked deliveries go back to the queue (a tolerated no-op
            # on a decommissioned one) instead of leaking as phantom
            # in-flight messages.
            self.service.subscriber_version_store.release_all()
        if self.bootstrapping and not len(self.queue):
            self.bootstrapping = False
        return processed

    def stuck_dependencies(self) -> Dict[str, Tuple[int, int]]:
        """Unsatisfied deps of queued and parked messages (deadlock
        diagnostics): dep -> (required, current)."""
        if self.queue is None:
            return {}
        out: Dict[str, Tuple[int, int]] = {}
        store = self.service.subscriber_version_store
        parked = [key for key in store.parked() if isinstance(key, Message)]
        for message in self.queue.peek_all() + parked:
            required = {**message.dependencies, **message.external_dependencies}
            out.update(store.missing(required))
        return out

    # ------------------------------------------------------------------
    # Message processing
    # ------------------------------------------------------------------

    def process_message(self, message: Message) -> bool:
        """Apply one message if its dependencies allow; True when done."""
        return bool(self.process_batch([message]).done)

    def process_batch(self, messages: List[Message]) -> "BatchOutcome":
        """Verify and apply a batch; a single message is a batch of one.

        Dependencies are verified once for the whole batch: a message
        is eligible when the store *plus the bumps earlier batch
        members will make* satisfies it, so in-batch causal chains
        (e.g. consecutive writes by the same session user) land
        together. Eligible messages of a larger batch apply in one
        engine transaction (group commit) when the local engine
        supports transactions; inside it, interleave events are
        record-only — the batch is one atomic step, and a suspended
        scheduler step while holding the engine mutex would deadlock
        the conformance harness. A batch of one skips all of that and
        lets an apply error propagate; larger batches contain it.
        """
        done: List[Message] = []
        waiting: List[Tuple[Message, Optional[Dict[str, int]]]] = []
        eligible: List[tuple] = []
        if len(messages) == 1:
            self._verify(messages[0], None, done, waiting, eligible)
            for entry in eligible:  # at most one; an apply error propagates
                self._apply_one(*entry, False)
                done.append(entry[0])
            return BatchOutcome(done, waiting, [], 0)
        pending: Dict[str, int] = {}
        for message in sorted(messages, key=lambda m: m.seq):
            self._verify(message, pending, done, waiting, eligible)
        if not eligible:
            return BatchOutcome(done, waiting, [], 0)
        retry, errors = self._apply_eligible(eligible, done)
        return BatchOutcome(done, waiting, retry, errors)

    def _verify(
        self, message: Message, pending: Optional[Dict[str, int]],
        done: list, waiting: list, eligible: list,
    ) -> None:
        """Sort one message into ``done`` (duplicate, or repair applied),
        ``waiting`` (with its unmet requirements; None for the
        generation gate) or ``eligible``. ``pending`` accumulates the
        counter bumps of earlier eligible batch members."""
        if self._already_applied(message.uid):
            self._duplicates.increment()
            yield_point("dedup.duplicate", message=message)
            done.append(message)  # redelivered duplicate: safe to ack again
            return
        if message.repair:
            # Anti-entropy repair: never waits (the whole point is to
            # heal counter deficits that would make waiting eternal) and
            # bypasses the generation gate, which could itself be
            # deadlocked behind the very divergence being repaired.
            with activate_trace(message.trace):
                self._apply_repair(message)
            done.append(message)
            return
        if not self._generation_ready(message):
            waiting.append((message, None))
            return
        mode = self.app_modes.get(message.app, WEAK)
        weak = mode == WEAK
        object_deps = self._object_deps(message)
        wait = None
        # Bootstrap forces weak semantics (§3.2): apply without waiting,
        # but keep full counter accounting so the configured mode
        # resumes cleanly once in sync.
        if not weak and not (self.bootstrapping or message.bootstrap):
            required = dict(
                effective_dependencies(message.dependencies, mode, set(object_deps))
            )
            required.update(message.external_dependencies)
            yield_point("dep.check", message=message, required=required)
            check = trace_now()
            store = self.service.subscriber_version_store
            if pending:
                ready = all(
                    store.ops(dep) + pending.get(dep, 0) >= version
                    for dep, version in required.items()
                )
            else:
                ready = store.satisfied(required)
            if not ready:
                waiting.append((message, required))
                return
            # Dependency wait: the time spent parked, else the check.
            start = check if message.parked_at is None else message.parked_at
            wait = (start, trace_now() - start)
        eligible.append((message, weak, object_deps, wait))
        if pending is not None and not weak:
            for dep, amount in message.counter_increments().items():
                pending[dep] = pending.get(dep, 0) + amount

    def _apply_eligible(
        self, eligible: List[tuple], done: List[Message]
    ) -> Tuple[List[Message], int]:
        """Apply a larger batch's verified messages in order, appending
        them to ``done``; returns ``(retry, errors)`` for the ones an
        apply error kept from landing."""
        db = self.service.database
        use_tx = (
            len(eligible) > 1
            and db is not None
            and getattr(db, "supports_transactions", False)
            and db.current_transaction() is None
        )
        yield_point("batch.apply", size=len(eligible), group_commit=use_tx)
        batch_start = trace_now()
        completed: List[Tuple[Message, Dict[str, Any]]] = []
        retry: List[Message] = []
        errors = 0
        if use_tx:
            views = self.service.views
            # Views buffer the whole group commit and fold once after it
            # lands, so each derived aggregate updates — and each cache
            # key invalidates — once per batch, never mid-transaction.
            if views is not None:
                views.begin_batch()
            try:
                with db.begin():
                    for entry in eligible:
                        completed.append((entry[0], self._apply_one(*entry, True)))
            except Exception:
                # The engine rolled back: drop the buffered transitions
                # before redo re-lands the writes (redo re-enters
                # on_applied with fresh post-rollback row states).
                if views is not None:
                    views.abort_batch()
                errors = 1
                retry = [entry[0] for entry in eligible[len(completed):]]
                self._redo_after_rollback(completed)
            else:
                if views is not None:
                    views.commit_batch()
        else:
            for index, entry in enumerate(eligible):
                try:
                    completed.append((entry[0], self._apply_one(*entry, False)))
                except Exception:
                    # Later members may depend on this one's bumps.
                    errors = 1
                    retry = [later[0] for later in eligible[index:]]
                    break
        elapsed = trace_now() - batch_start
        for message, _ in completed:
            done.append(message)
            if message.trace is not None:
                message.trace.add(STAGE_BATCH, batch_start, elapsed)
        yield_point("batch.applied", size=len(completed), retried=len(retry))
        return retry, errors

    def _apply_one(
        self,
        message: Message,
        weak: bool,
        object_deps: Dict[str, Dict[str, Any]],
        wait: Optional[Tuple[float, float]],
        record_only: bool,
    ) -> Dict[str, Dict[str, Any]]:
        """Apply one verified message. ``record_only`` (inside the group
        commit) downgrades its interleave events to observe-only.
        Returns {hashed object dep: operation} for the engine writes
        that actually ran — the redo set for rollback recovery."""
        if message.trace is None:
            return self._apply_verified(message, weak, object_deps, wait, record_only)
        # Traced message: make the trace the thread's current trace so an
        # over-threshold histogram observation anywhere in the apply path
        # captures this message's uid as its exemplar.
        with activate_trace(message.trace):
            return self._apply_verified(message, weak, object_deps, wait, record_only)

    def _apply_verified(
        self,
        message: Message,
        weak: bool,
        object_deps: Dict[str, Dict[str, Any]],
        wait: Optional[Tuple[float, float]],
        record_only: bool,
    ) -> Dict[str, Dict[str, Any]]:
        if weak:
            applied = self._apply_weak(message, object_deps, record_only)
            self._finish(message, record_only)
            return {hashed: object_deps[hashed] for hashed in applied}
        if wait is not None:
            start, waited = wait
            self.dep_wait.record(waited)
            if message.trace is not None:
                message.trace.add(STAGE_DEP_WAIT, start, waited)
        self._apply_timed(message, record_only)
        # Increment every own-app dependency; externals are never bumped.
        self._finish(message, record_only, message.counter_increments())
        return object_deps

    def _redo_after_rollback(
        self, completed: List[Tuple[Message, Dict[str, Dict[str, Any]]]]
    ) -> None:
        """A mid-batch engine fault rolled back the whole group-commit
        transaction, but the completed prefix already bumped its
        counters and entered the dedup window — re-processing would
        dedup-skip it and its engine writes would be lost. Redo just
        those writes outside any transaction: applies are idempotent
        upserts, and the per-object freshness check skips objects a
        concurrent fresher apply has already moved past. The ceiling
        must budget for *every* completed sibling's bumps on the key —
        a later batch member's session read-dep bumps the same counter,
        and counting only the message's own increments would mistake
        those sibling bumps for a concurrent fresher apply and skip a
        redo whose write is genuinely lost."""
        batch_bumps: Dict[str, int] = {}
        for message, _ in completed:
            for dep, amount in message.counter_increments().items():
                batch_bumps[dep] = batch_bumps.get(dep, 0) + amount
        for message, redo in completed:
            increments = message.counter_increments()
            for hashed, operation in redo.items():
                version = message.dependencies.get(hashed, 0)
                ceiling = version + batch_bumps.get(
                    hashed, increments.get(hashed, 1)
                )
                try:
                    with self._object_lock(hashed):
                        if self.service.subscriber_version_store.ops(hashed) > ceiling:
                            continue
                        self._apply_operation(message.app, operation)
                except Exception:
                    # A redo that fails again must not abandon the
                    # remaining redos, and above all must not escape to
                    # the worker loop: every completed message is
                    # already _finish'ed (deduped, counters bumped), so
                    # a batch-wide nack would have its redelivery
                    # dedup-skip while the rolled-back engine write —
                    # and every redo after this one — is silently lost.
                    # Count it and let anti-entropy repair the object.
                    self._redo_failed.increment()

    def _apply_timed(self, message: Message, record_only: bool = False) -> None:
        """Apply all operations, feeding the apply histogram/span.

        ``record_only=True`` (batched apply inside the group-commit
        transaction) downgrades the interleave event to observe-only:
        the caller holds the engine mutex, where a suspended scheduler
        step would deadlock the conformance harness.
        """
        emit = observe_point if record_only else yield_point
        emit("apply", message=message)
        start = trace_now()
        self._apply_all(message)
        elapsed = trace_now() - start
        self.apply_time.record(elapsed)
        if message.trace is not None:
            message.trace.add(STAGE_APPLY, start, elapsed)

    def _finish(
        self,
        message: Message,
        record_only: bool = False,
        counts: Optional[Dict[str, int]] = None,
    ) -> None:
        """Common bookkeeping once a message has been applied, bumping
        ``counts`` after the WAL ``apply`` record: a causal successor
        can only apply once the bump lands, so the WAL keeps applies in
        dependency order and replay re-lands them in that order."""
        self._mark_applied(message.uid)
        self._processed.increment()
        durability = getattr(self.service.ecosystem, "durability", None)
        if durability is not None:
            durability.log_apply(self.service.name, message)
        if counts:
            self.service.subscriber_version_store.apply_counts(
                counts, record_only=record_only
            )
        emit = observe_point if record_only else yield_point
        emit("msg.finished", message=message)
        monitor = getattr(self.service.ecosystem, "monitor", None)
        if monitor is not None:
            monitor.observe_applied(self.service.name, message)
        if message.trace is not None:
            self.service.ecosystem.tracer.record(message.trace)

    def _apply_all(self, message: Message) -> None:
        """Apply every operation of one message, atomically when the
        local engine supports transactions — a multi-write publisher
        transaction then lands as one subscriber transaction (§4.2)."""
        db = self.service.database
        if (
            len(message.operations) > 1
            and db is not None
            and getattr(db, "supports_transactions", False)
            and db.current_transaction() is None
        ):
            views = self.service.views
            if views is not None:
                views.begin_batch()
            try:
                with db.begin():
                    for operation in message.operations:
                        self._apply_operation(message.app, operation)
            except Exception:
                if views is not None:
                    views.abort_batch()
                raise
            if views is not None:
                views.commit_batch()
            return
        for operation in message.operations:
            self._apply_operation(message.app, operation)

    def force_apply(self, message: Message) -> None:
        """Give up waiting for a late/lost dependency and apply anyway
        (the configurable-timeout semantics recommended in §6.5: causal
        is timeout=∞, weak is timeout=0, this is anything in between)."""
        if self._already_applied(message.uid):
            return
        with activate_trace(message.trace):
            self._apply_timed(message)
            self._finish(message, counts=message.counter_increments())

    def _already_applied(self, uid: str) -> bool:
        with self._applied_lock:
            return uid in self._applied_uid_set

    def _mark_applied(self, uid: str) -> None:
        with self._applied_lock:
            if uid in self._applied_uid_set:
                return
            if len(self._applied_uids) == self._applied_uids.maxlen:
                oldest = self._applied_uids.popleft()
                self._applied_uid_set.discard(oldest)
            self._applied_uids.append(uid)
            self._applied_uid_set.add(uid)

    def _object_lock(self, hashed_dep: str) -> threading.Lock:
        with self._object_locks_guard:
            lock = self._object_locks.get(hashed_dep)
            if lock is None:
                lock = threading.Lock()
                self._object_locks[hashed_dep] = lock
            return lock

    def _object_deps(self, message: Message) -> Dict[str, Dict[str, Any]]:
        """hashed object dep -> operation, for the written objects."""
        hasher = self.service.ecosystem.hasher
        out: Dict[str, Dict[str, Any]] = {}
        for operation in message.operations:
            table = table_for_type(operation["types"][0])
            hashed = hasher.hash(dep_name(message.app, table, operation["id"]))
            out[hashed] = operation
        return out

    def _apply_repair(self, message: Message) -> None:
        """Anti-entropy repair (``repro.repair``): per object, apply the
        publisher's current state unless the local replica is already
        ahead, then *fast-forward* the object's dependency counter to
        the carried version — unlike :meth:`_apply_weak`'s plain
        fast-forward-on-apply, the counter heals even for stale-skipped
        objects, so increments lost with dropped messages (§6.5) stop
        deadlocking causal delivery without a re-bootstrap."""
        start = trace_now()
        store = self.service.subscriber_version_store
        for hashed, operation in self._object_deps(message).items():
            version = message.dependencies.get(hashed, 0)
            with self._object_lock(hashed):
                if store.is_stale(hashed, version):
                    self._stale.increment()
                else:
                    observe_point(
                        "apply.repair", message=message, dep=hashed,
                        version=version,
                    )
                    self._apply_operation(message.app, operation)
                    self._repaired.increment()
                store.fast_forward(hashed, version)
        elapsed = trace_now() - start
        self.apply_time.record(elapsed)
        if message.trace is not None:
            message.trace.add(STAGE_APPLY, start, elapsed)
        self._finish(message)

    def _apply_weak(
        self,
        message: Message,
        object_deps: Dict[str, Dict[str, Any]],
        record_only: bool = False,
    ) -> List[str]:
        """Weak delivery: apply fresh operations, discard stale ones, and
        fast-forward per-object counters (§3.2, §4.2). Returns the
        hashed deps actually applied (the batched path needs them to
        redo engine writes after a mid-batch rollback)."""
        store = self.service.subscriber_version_store
        claim = observe_point if record_only else yield_point
        increments = message.counter_increments()
        applied: List[str] = []
        for hashed, operation in object_deps.items():
            version = message.dependencies.get(hashed, 0)
            claim(
                "apply.weak.claim", message=message, dep=hashed, version=version
            )
            with self._object_lock(hashed):
                if store.is_stale(hashed, version):
                    self._stale.increment()
                    observe_point(
                        "apply.weak.discarded", message=message, dep=hashed,
                        version=version,
                    )
                    continue
                observe_point(
                    "apply.weak", message=message, dep=hashed, version=version
                )
                self._apply_operation(message.app, operation)
                # A coalesced message stands in for several publisher
                # bumps: fast-forward past all of them, or the lag audit
                # would report a phantom per-merge counter deficit.
                store.fast_forward(
                    hashed, version + max(0, increments.get(hashed, 1) - 1)
                )
                applied.append(hashed)
        return applied

    def _generation_ready(self, message: Message) -> bool:
        """Handle publisher generation bumps (§4.4): older-generation
        messages must all be processed, then the app's dependency
        counters are flushed before the new generation flows."""
        current = self.generations.get(message.app, 1)
        if message.generation < current:
            return True  # stale generation: process (weakly harmless)
        if message.generation == current:
            return True
        if self.queue is not None:
            # The gate must see *in-flight* deliveries too: an older-
            # generation message a parallel worker has popped but not yet
            # acked is no longer queued, and flushing the app's counters
            # while it is mid-apply wipes state its apply is about to
            # read and bump. (The message under evaluation is itself in
            # the unacked table; its equal generation excludes it.)
            pending = self.queue.peek_all() + self.queue.peek_unacked()
            for queued in pending:
                if queued.app == message.app and queued.generation < message.generation:
                    yield_point(
                        "generation.deferred",
                        message=message,
                        blocked_on=queued,
                    )
                    return False
        yield_point(
            "generation.flush", app=message.app, generation=message.generation
        )
        self._flush_app_dependencies(message.app)
        self.generations[message.app] = message.generation
        durability = getattr(self.service.ecosystem, "durability", None)
        if durability is not None:
            durability.log_gen(
                self.service.name, message.app, message.generation
            )
        return True

    def _flush_app_dependencies(self, app: str) -> None:
        store = self.service.subscriber_version_store
        if self.service.ecosystem.hasher.space is None:
            for shard in store.kv.shards:
                for key in shard.keys(f"s:{app}/"):
                    shard.delete(key)
            if self.app_modes.get(app) == GLOBAL:
                # The global-ordering dependency carries no app prefix,
                # so the prefix sweep above misses it. The bumped
                # publisher restarts global versions at 0; left at its
                # old high value, the counter makes every new-generation
                # message trivially "satisfied" and the total order
                # silently evaporates.
                hashed = self.service.ecosystem.hasher.hash(GLOBAL_OBJECT)
                for shard in store.kv.shards:
                    shard.delete(store._key(hashed))
        else:
            store.flush()  # hashed space: cannot tell apps apart

    # ------------------------------------------------------------------
    # Applying operations through the local ORM
    # ------------------------------------------------------------------

    def _apply_operation(self, app: str, operation: Dict[str, Any]) -> None:
        spec = self.spec_for(app, operation["types"])
        if spec is None:
            return  # this service does not subscribe to the model
        model_cls = spec.model_cls
        kind = operation["operation"]
        attrs = {
            local: operation["attributes"][remote]
            for remote, local in spec.fields.items()
            if remote in operation["attributes"]
        }
        service = self.service
        # Read-path hook (docs/read_path.md): views need the row state
        # around the write — raw mapper reads, so neither capture fires
        # callbacks or read-dependency tracking. The pre-write state is
        # read only when an aggregate actually depends on this model.
        views = service.views
        track = (
            views is not None
            and not spec.observer
            and model_cls.__mapper__ is not None
            and model_cls.__mapper__.db is not None
        )
        old_row = None
        if track and views.needs_old_row(model_cls.__name__):
            old_row = model_cls.__mapper__._do_find(operation["id"])
        with service.applying_remote_scope(model_cls.__name__, operation["id"]), \
                model_cls._suspend_readonly_guard():
            if spec.observer:
                self._apply_to_observer(model_cls, kind, operation, attrs)
            elif kind == "delete":
                row = model_cls.__mapper__.find(operation["id"])
                if row is not None:
                    model_cls.from_row(row).destroy()
            else:
                instance = model_cls.find_or_initialize(operation["id"])
                for name, value in attrs.items():
                    setattr(instance, name, value)
                instance.save()
        if track:
            new_row = model_cls.__mapper__._do_find(operation["id"])
            views.on_applied(
                model_cls.__name__, operation["id"], old_row, new_row
            )

    @staticmethod
    def _apply_to_observer(
        model_cls: type, kind: str, operation: Dict[str, Any], attrs: Dict[str, Any]
    ) -> None:
        """Observers are never persisted: hydrate and fire callbacks."""
        instance = model_cls.__new__(model_cls)
        instance._attributes = {
            name: f.default_value() for name, f in model_cls._fields.items()
        }
        instance._changed = set()
        instance._new_record = kind == "create"
        instance._attributes["id"] = operation["id"]
        for name, value in attrs.items():
            setattr(instance, name, value)
        if kind == "create":
            run_callbacks(instance, "before_create")
            instance._new_record = False
            run_callbacks(instance, "after_create")
        elif kind == "update":
            run_callbacks(instance, "before_update")
            run_callbacks(instance, "after_update")
        elif kind == "delete":
            run_callbacks(instance, "before_destroy")
            run_callbacks(instance, "after_destroy")


class Dispatcher:
    """The subscriber's one pop → verify → apply → settle step, run by
    :meth:`SynapseSubscriber.drain`, every ``SubscriberWorkerPool``
    thread and the conformance harness's virtual workers.

    Each popped message is acked (applied or duplicate), parked
    (dependencies unmet: it stays an unacked delivery in the version
    store's readiness index until the bump that meets them nacks it to
    the queue front), deferred (the §4.4 generation gate), nacked (apply
    error) or given up (§6.5): a waiting message at ``give_up_age``
    since first delivery (0 ≡ weak, ∞ ≡ causal), an erroring one at
    ``max_deliveries``. ``give_up(message)`` settles those (default:
    drop). ``clock`` measures age — ``time.monotonic`` in worker pools,
    the scheduler's step count in the harness (replays stay identical).
    """

    def __init__(
        self,
        subscriber: SynapseSubscriber,
        clock: Callable[[], float] = time.monotonic,
        give_up_age: float = math.inf,
        max_deliveries: float = math.inf,
        give_up: Optional[Callable[[Message], None]] = None,
    ) -> None:
        self.subscriber = subscriber
        self.clock = clock
        self.give_up_age = give_up_age
        self.max_deliveries = max_deliveries
        self.give_up = give_up or (lambda message: subscriber.queue.ack(message))

    def step(
        self, batch_max: int = 1, timeout: float = 0.0, abandon: bool = False
    ) -> StepResult:
        """Pop up to ``batch_max`` messages (blocking up to ``timeout``
        for the first), run them through ``process_batch`` and settle
        each. ``abandon`` simulates a worker crash after the apply: the
        popped deliveries are left unacked (conformance crash
        recovery)."""
        subscriber = self.subscriber
        queue = subscriber.queue
        store = subscriber.service.subscriber_version_store
        if self.give_up_age != math.inf:
            for message in store.expire(self.clock() - self.give_up_age):
                self.give_up(message)
        batch = queue.pop_many(batch_max, timeout)
        if not batch:
            store.run_released()  # collected outside a step, or by an abandoned one
            return _IDLE
        now = self.clock()
        for message in batch:
            if message.first_delivered is None:
                message.first_delivered = now
        try:
            outcome = subscriber.process_batch(batch)
        except Exception:
            # A batch of one propagates its apply error; a fault while
            # verifying a larger batch lands here too.
            outcome = BatchOutcome([], [], list(batch), 1)
        if abandon:
            return StepResult(batch)
        for message in outcome.done:
            queue.ack(message)
        parked = 0
        for message, required in outcome.waiting:
            if now - message.first_delivered >= self.give_up_age:
                self.give_up(message)
            elif required is None:
                queue.defer(message)
            else:
                if message.parked_at is None:
                    message.parked_at = trace_now()
                since = message.first_delivered if self.give_up_age != math.inf else None
                if store.park(
                    message, required, functools.partial(queue.nack, message), since
                ):
                    parked += 1
                else:
                    queue.nack(message)  # the counters caught up meanwhile
        for message in outcome.retry:
            if message.delivery_count >= self.max_deliveries:
                self.give_up(message)
            else:
                queue.nack(message)
        # Releases collected by record-only bumps (group commit, weak
        # and repair fast-forwards) run here, outside every lock.
        store.run_released()
        if queue.flow is not None:
            queue.flow.batch_size.record(len(batch))
        return StepResult(
            batch, len(outcome.done), parked, len(outcome.retry), outcome.errors
        )
