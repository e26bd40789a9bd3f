"""Durable per-subscriber queue with ack/redeliver semantics."""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

from repro.broker.message import Message
from repro.errors import BrokerError, QueueDecommissioned
from repro.runtime.interleave import yield_point
from repro.runtime.tracing import MARK_ACKED, MARK_ENQUEUED, STAGE_DWELL, trace_now


class SubscriberQueue:
    """FIFO queue of write messages for one subscriber application.

    ``pop`` hands out a message and keeps it *unacked*; ``ack`` removes
    it; ``nack`` (or :meth:`requeue_unacked`) pushes it back to the front
    for redelivery. When the backlog exceeds ``max_size`` the queue is
    killed and the subscriber must re-bootstrap (§4.4).

    The ``yield_point`` calls mark the interleaving boundaries driven by
    the deterministic conformance harness; they are no-ops in production
    and always sit *outside* ``self._lock``.
    """

    def __init__(self, name: str, max_size: Optional[int] = None) -> None:
        self.name = name
        self.max_size = max_size
        self._items: deque = deque()
        self._unacked: Dict[int, Message] = {}
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self.decommissioned = False
        self.total_published = 0
        self.total_acked = 0
        #: Per-queue flow state (admission credits + coalescing index),
        #: attached by the broker when ``Ecosystem.enable_flow`` is on.
        #: Its hooks are called under ``self._lock`` and never suspend.
        self.flow = None
        #: DurabilityManager, attached by the broker when
        #: ``Ecosystem.enable_durability`` is on. Log hooks run under
        #: ``self._lock`` so WAL order equals queue-mutation order.
        self.durability = None

    # -- broker side ---------------------------------------------------------

    def publish(self, message: Message) -> None:
        yield_point("queue.publish", queue=self.name, message=message)
        outcome, killed, survivor = "published", False, None
        with self._lock:
            if self.decommissioned:
                outcome = "dropped"
            elif self.flow is not None and (
                survivor := self.flow.coalesce(self._items, self._unacked, message)
            ) is not None:
                outcome = "coalesced"
            elif (
                self.flow is not None
                and self.flow.admit(message, len(self._items) + len(self._unacked))
                == "shed"
            ):
                outcome = "shed"
            else:
                # Dwell is measured for every message (the lag monitor
                # needs it), not just traced ones.
                message.enqueued_at = trace_now()
                if message.trace is not None:
                    message.trace.mark(MARK_ENQUEUED)
                self._items.append(message)
                if self.flow is not None:
                    self.flow.register(message)
                self.total_published += 1
                killed = (
                    self.max_size is not None and len(self._items) > self.max_size
                )
                if killed:
                    self._items.clear()
                    self._unacked.clear()
                    self.decommissioned = True
                    if self.flow is not None:
                        self.flow.reset()
                    # Everyone must notice the decommission, not just
                    # one worker — the single wake-one case is below.
                    self._available.notify_all()
                else:
                    self._available.notify()
            if self.durability is not None:
                if outcome == "published":
                    self.durability.log_pub(self.name, message)
                    if killed:
                        self.durability.log_decom(self.name)
                elif outcome == "coalesced":
                    self.durability.log_coal(self.name, survivor)
                elif outcome == "shed":
                    self.durability.log_shed(self.name, message, self.flow)
        if outcome == "dropped":
            yield_point("queue.drop.decommissioned", queue=self.name, message=message)
            return
        if outcome == "coalesced":
            yield_point(
                "queue.coalesced", queue=self.name, message=message, into=survivor
            )
            return
        if outcome == "shed":
            yield_point("queue.shed", queue=self.name, message=message)
            return
        yield_point("queue.published", queue=self.name, message=message)
        if killed:
            yield_point("queue.decommissioned", queue=self.name)

    def recommission(self) -> None:
        """Bring a killed queue back (start of a partial bootstrap)."""
        with self._lock:
            self.decommissioned = False
            self._items.clear()
            self._unacked.clear()
            if self.flow is not None:
                self.flow.reset()
            if self.durability is not None:
                self.durability.log_recom(self.name)
            self._available.notify_all()

    # -- subscriber side -----------------------------------------------------

    def pop(self, timeout: Optional[float] = 0.0) -> Optional[Message]:
        """Take the next message (it stays unacked until :meth:`ack`)."""
        popped = self.pop_many(1, timeout)
        return popped[0] if popped else None

    def _take_locked(self) -> Message:
        """Pop the head with full per-delivery bookkeeping. Caller
        holds ``self._lock`` and has checked ``self._items``."""
        message = self._items.popleft()
        message.delivery_count += 1
        self._unacked[message.seq] = message
        if self.flow is not None:
            self.flow.on_pop(message)
        if message.enqueued_at is not None:
            message.dwell = trace_now() - message.enqueued_at
        if message.trace is not None:
            # Queue dwell: enqueue (or last redelivery) to this pop.
            enqueued = message.trace.marks.get(MARK_ENQUEUED)
            if enqueued is not None:
                message.trace.add(STAGE_DWELL, enqueued, trace_now() - enqueued)
        return message

    def pop_many(
        self, max_n: int, timeout: Optional[float] = 0.0
    ) -> List[Message]:
        """Take up to ``max_n`` messages in one lock round-trip; each
        stays unacked until :meth:`ack`.

        Waits for the *first* message only: ``timeout=0`` polls,
        ``timeout=None`` blocks indefinitely. The wait is a predicate
        re-check loop against a shared deadline: a spurious wakeup, or a
        notify consumed by a faster worker, puts the caller back to
        sleep for the *remaining* time instead of returning empty early
        (a dropped delivery from the caller's point of view). Every
        message gets its per-delivery bookkeeping (delivery count,
        unacked table, dwell, trace dwell span), and ``queue.popped`` is
        emitted per message, in pop order, after the lock is released.
        """
        if max_n <= 0:
            return []
        yield_point("queue.pop", queue=self.name)
        popped: List[Message] = []
        with self._lock:
            if self.decommissioned:
                raise QueueDecommissioned(self.name)
            if not self._items and timeout != 0.0:
                if timeout is None:
                    while not self._items and not self.decommissioned:
                        self._available.wait()
                else:
                    deadline = time.monotonic() + timeout
                    while not self._items and not self.decommissioned:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        self._available.wait(remaining)
            if self.decommissioned:
                raise QueueDecommissioned(self.name)
            while self._items and len(popped) < max_n:
                popped.append(self._take_locked())
        for message in popped:
            yield_point("queue.popped", queue=self.name, message=message)
        return popped

    def ack(self, message: Message) -> None:
        yield_point("queue.ack", queue=self.name, message=message)
        with self._lock:
            tolerated = message.seq not in self._unacked
            if tolerated:
                if not self.decommissioned:
                    raise BrokerError(f"ack of unknown delivery {message.seq}")
                # Decommission cleared the in-flight table while this
                # delivery was mid-message: the ack is a tolerated no-op
                # (the worker learns about the decommission on its next
                # pop and routes it to on_deadlock).
            else:
                del self._unacked[message.seq]
                self.total_acked += 1
                if self.durability is not None:
                    self.durability.log_ack(self.name, message)
                if message.trace is not None:
                    message.trace.mark(MARK_ACKED)
                    # The subscriber already handed the finished trace to
                    # the tracer/flight recorder (same object, so the ack
                    # mark above is visible there); releasing it here
                    # stops per-message growth once delivery completes.
                    message.trace = None
        if tolerated:
            yield_point("queue.ack.tolerated", queue=self.name, message=message)
        else:
            yield_point("queue.acked", queue=self.name, message=message)

    def nack(self, message: Message) -> None:
        """Return an unacked message to the front of the queue."""
        yield_point("queue.nack", queue=self.name, message=message)
        with self._lock:
            tolerated = self.decommissioned or message.seq not in self._unacked
            if not tolerated:
                del self._unacked[message.seq]
                message.enqueued_at = trace_now()  # dwell restarts
                if message.trace is not None:
                    message.trace.mark(MARK_ENQUEUED)
                self._items.appendleft(message)
                # One message back, one worker woken (the herd fix);
                # the predicate re-check loop in pop absorbs races.
                self._available.notify()
        if tolerated:
            yield_point("queue.nack.tolerated", queue=self.name, message=message)
        else:
            yield_point("queue.nacked", queue=self.name, message=message)

    def defer(self, message: Message) -> None:
        """Return an unacked message to the *back* of the queue: the
        §4.4 generation gate's rotation, whose blocker (an older
        generation's message) may sit behind it in this very queue."""
        yield_point("queue.defer", queue=self.name, message=message)
        with self._lock:
            tolerated = self.decommissioned or message.seq not in self._unacked
            if not tolerated:
                del self._unacked[message.seq]
                message.enqueued_at = trace_now()  # dwell restarts
                if message.trace is not None:
                    message.trace.mark(MARK_ENQUEUED)
                self._items.append(message)
                if self.durability is not None:
                    # The rotation is durable state: restore rebuilds the
                    # queue from pub records (original publish order).
                    self.durability.log_defer(self.name, message)
                self._available.notify()
        if tolerated:
            yield_point("queue.defer.tolerated", queue=self.name, message=message)
        else:
            yield_point("queue.deferred", queue=self.name, message=message)

    def requeue_unacked(self) -> int:
        """Crash recovery: everything in flight goes back on the queue."""
        with self._lock:
            pending = sorted(self._unacked.values(), key=lambda m: m.seq)
            for message in reversed(pending):
                self._items.appendleft(message)
            count = len(self._unacked)
            self._unacked.clear()
            if count:
                self._available.notify(count)
        if count:
            yield_point("queue.requeued", queue=self.name, count=count)
        return count

    # -- introspection ----------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def unacked_count(self) -> int:
        with self._lock:
            return len(self._unacked)

    def stats(self) -> Dict[str, int]:
        """Queued *and* delivered-but-unacked counts, plus lifetime
        published/acked totals — what an auditor needs to tell transit
        lag (messages still queued or in flight) from loss (published
        but neither queued, in flight, nor acked)."""
        with self._lock:
            return {
                "queued": len(self._items),
                "in_flight": len(self._unacked),
                "published": self.total_published,
                "acked": self.total_acked,
                "decommissioned": int(self.decommissioned),
            }

    def durable_state(self) -> Dict[str, Any]:
        """Snapshot payload for the durability subsystem: every message
        still owed to the subscriber as a wire payload dict (in-flight
        deliveries first, in seq order — the :meth:`requeue_unacked`
        ordering a crash produces), plus the lifetime counters."""
        with self._lock:
            owed = sorted(self._unacked.values(), key=lambda m: m.seq)
            owed.extend(self._items)
            pending = []
            for message in owed:
                payload = json.loads(message.to_json())
                payload.pop("trace", None)
                pending.append(payload)
            return {
                "pending": pending,
                "decommissioned": self.decommissioned,
                "published": self.total_published,
                "acked": self.total_acked,
            }

    def restore_state(
        self,
        messages: List[Message],
        published: int,
        acked: int,
        decommissioned: bool,
    ) -> None:
        """Re-inject restored messages directly (crash recovery).

        Bypasses :meth:`publish` deliberately: admission control must
        not re-shed or re-coalesce a backlog the original run already
        admitted — restore reproduces state, it does not re-decide."""
        with self._lock:
            self._items.clear()
            self._unacked.clear()
            for message in messages:
                message.enqueued_at = trace_now()
                self._items.append(message)
                if self.flow is not None:
                    self.flow.register(message)
            self.total_published = published
            self.total_acked = acked
            self.decommissioned = decommissioned
            self._available.notify_all()

    def peek_all(self) -> List[Message]:
        with self._lock:
            return list(self._items)

    def peek_unacked(self) -> List[Message]:
        """Deliveries popped but not yet acked/nacked, in seq order.

        The generation gate needs these: a message held by a parallel
        worker is invisible to :meth:`peek_all`, and flushing dependency
        counters while it is mid-apply wipes state the apply is about to
        bump."""
        with self._lock:
            return sorted(self._unacked.values(), key=lambda m: m.seq)
