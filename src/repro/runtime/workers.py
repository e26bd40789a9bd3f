"""Threaded subscriber worker pools.

"Messages in the queue are processed in parallel by multiple subscriber
workers per application" (§4). Each worker runs the subscriber's
dispatch step (:class:`~repro.core.subscriber.Dispatcher`): pop, verify,
apply and ack. A message whose dependencies are unmet parks without
blocking the worker, and is released by the counter bump that meets
them. One still waiting at the give-up age (§6.5's timeout) is dropped
or weak-applied and triggers the deadlock callback — production Synapse
rebootstraps the subscriber at that point.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, List, Optional

from repro.core.subscriber import Dispatcher
from repro.errors import QueueDecommissioned
from repro.runtime.metrics import Counter


class WorkerFleet:
    """One pool per subscribing service of an ecosystem.

    ::

        with WorkerFleet(eco, workers=4) as fleet:
            ...publish...
            fleet.wait_until_idle()
    """

    def __init__(self, ecosystem: Any, workers: int = 4, **pool_kwargs: Any) -> None:
        self.ecosystem = ecosystem
        # Only locally-owned services get worker pools: in a process-
        # sharded run each shard drains exactly its own queues.
        self.pools: List["SubscriberWorkerPool"] = [
            SubscriberWorkerPool(service, workers=workers, **pool_kwargs)
            for service in ecosystem.local_services()
            if service.subscriber.queue is not None
        ]

    def start(self) -> "WorkerFleet":
        for pool in self.pools:
            pool.start()
        return self

    def stop(self) -> None:
        for pool in self.pools:
            pool.stop()

    def wait_until_idle(self, timeout: float = 30.0, settle_rounds: int = 3) -> bool:
        """Idle only counts when every pool is simultaneously drained for
        ``settle_rounds`` consecutive checks (decorator cascades bounce
        messages between services).

        ``timeout`` bounds the *whole* call: one deadline is shared
        across every round and pool. Granting each pool the full budget
        would let a busy fleet block for ``settle_rounds × pools ×
        timeout`` — 24x the caller's stated patience at the defaults.

        With CDC enabled, idle additionally requires every outbox tail
        to be empty: a raw write whose entry the poller has not yet
        published is in-flight work, and reporting idle over it would
        let callers observe a missing replica row. Each pass tails the
        outboxes first, then re-checks after the pools settle.
        """
        deadline = time.monotonic() + timeout
        while True:
            cdc = self._cdc_manager()
            if cdc is not None:
                cdc.poll_all()
            for _ in range(settle_rounds):
                for pool in self.pools:
                    remaining = deadline - time.monotonic()
                    if not pool.wait_until_idle(timeout=max(0.0, remaining)):
                        return False
            if cdc is None or cdc.idle():
                return True
            if time.monotonic() >= deadline:
                return False

    def _cdc_manager(self) -> Optional[Any]:
        # getattr-tolerant: directed scenarios build bare fleets via
        # ``__new__`` with only ``pools`` populated.
        ecosystem = getattr(self, "ecosystem", None)
        return getattr(ecosystem, "cdc", None)

    def __enter__(self) -> "WorkerFleet":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


class SubscriberWorkerPool:
    """N threads draining one subscriber's queue concurrently."""

    def __init__(
        self,
        service: Any,
        workers: int = 4,
        give_up_age: float = 4.0,
        max_deliveries: int = 20,
        on_deadlock: Optional[Callable[[Any], None]] = None,
        give_up_action: str = "drop",
    ) -> None:
        if give_up_action not in ("drop", "apply"):
            raise ValueError("give_up_action must be 'drop' or 'apply'")
        self.service = service
        self.workers = workers
        self.on_deadlock = on_deadlock
        #: What to do with a message whose dependencies never arrive:
        #: "drop" it, or "apply" it with weak semantics (§6.5's
        #: configurable give-up timeout, ``give_up_age`` seconds since
        #: first delivery; ``max_deliveries`` bounds apply-error retries).
        self.give_up_action = give_up_action
        self._dispatcher = Dispatcher(
            service.subscriber,
            give_up_age=give_up_age,
            max_deliveries=max_deliveries,
            give_up=self._give_up,
        )
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        # Event-based idle signaling: workers notify after every step
        # that popped something (replacing the old 5 ms busy-poll in
        # :meth:`wait_until_idle`).
        self._idle = threading.Condition()
        # Local counters keep per-pool semantics (a fresh pool starts at
        # zero); the ecosystem registry accumulates across pools.
        self._deadlocked = Counter()
        self._apply_errors = Counter()
        registry = service.ecosystem.metrics
        self._reg_deadlocked = registry.counter(f"workers.{service.name}.deadlocked")
        self._reg_apply_errors = registry.counter(f"workers.{service.name}.apply_errors")
        self._recorder = getattr(service.ecosystem, "recorder", None)
        # Flow control: when the ecosystem has batched apply enabled the
        # workers pop up to the AIMD batch size (group-committed by
        # process_batch), sharing one sizer across the pool.
        controller = getattr(service.ecosystem, "flow", None)
        if controller is not None and controller.config.batch_apply:
            from repro.runtime.flow import BatchSizer

            self._flow = controller
            self._sizer = BatchSizer(controller.config)
        else:
            self._flow = None
            self._sizer = None
        self._batches = Counter()

    @property
    def deadlocked_messages(self) -> int:
        return self._deadlocked.value

    @property
    def apply_errors(self) -> int:
        """Messages whose apply raised (DB fault, bad payload): they are
        nacked and retried until the delivery budget runs out."""
        return self._apply_errors.value

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "SubscriberWorkerPool":
        self._stop.clear()
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._run, name=f"{self.service.name}-worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads.clear()

    def __enter__(self) -> "SubscriberWorkerPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- main loop ---------------------------------------------------------------

    def _run(self) -> None:
        if self.service.subscriber.queue is None:
            return
        sizer = self._sizer
        monitor = getattr(self.service.ecosystem, "monitor", None)
        while not self._stop.is_set():
            try:
                step = self._dispatcher.step(
                    sizer.current if sizer is not None else 1, timeout=0.05
                )
            except QueueDecommissioned:
                self._record_anomaly("queue.decommissioned")
                if self.on_deadlock is not None:
                    self.on_deadlock(self.service)
                return
            if not step.popped:
                continue
            if step.errors:
                # A transient engine fault (or poisonous payload) must
                # not kill the worker: the step nacked it for redelivery.
                self._apply_errors.increment(step.errors)
                self._reg_apply_errors.increment(step.errors)
            if sizer is not None:
                sizer.on_batch(
                    popped=len(step.popped),
                    applied=step.applied,
                    failed=step.retried + step.errors,
                )
                if self._batches.increment() % 32 == 0 and monitor is not None:
                    sizer.observe_pressure(
                        monitor.link_pressure(self.service.name)
                    )
            with self._idle:
                self._idle.notify_all()

    def _give_up(self, message: Any) -> None:
        """Give-up timeout reached (§6.5): drop or weak-apply, then ack."""
        subscriber = self.service.subscriber
        if self.give_up_action == "apply":
            subscriber.force_apply(message)
        subscriber.queue.ack(message)
        self._deadlocked.increment()
        self._reg_deadlocked.increment()
        self._record_anomaly(
            "worker.deadlock",
            uid=message.uid,
            app=message.app,
            deliveries=message.delivery_count,
            action=self.give_up_action,
        )
        if self.on_deadlock is not None:
            self.on_deadlock(self.service)

    def _record_anomaly(self, kind: str, **data: Any) -> None:
        """Flight-recorder hook: give-ups and decommissions are exactly
        the §6.5 events a postmortem needs frozen."""
        if self._recorder is not None:
            self._recorder.anomaly(kind, service=self.service.name, **data)

    # -- synchronisation -----------------------------------------------------------

    def wait_until_idle(self, timeout: float = 10.0) -> bool:
        """Block until the queue is drained and nothing is in flight —
        parked messages are unacked deliveries, so they count.

        Event-driven: workers notify the condition after every step that
        popped something; the short bounded wait is only a safety net
        against transitions with no notifier (e.g. an external publish
        while the pool is idle).
        """
        queue = self.service.subscriber.queue
        deadline = time.monotonic() + timeout

        def drained() -> bool:
            return queue is None or (len(queue) == 0 and queue.unacked_count == 0)

        with self._idle:
            while True:
                if drained():
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(min(remaining, 0.25))
