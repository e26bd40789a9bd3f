"""The conformance harness: seeded schedules over a real pub→sub pair.

One :func:`run_schedule` call builds a fresh two-service ecosystem
(Mongo-like publisher, Postgres-like subscriber, one published model),
derives a publisher *workload script* from the seed (creates, updates,
optional broker drops and a generation bump), and drives it together
with N virtual subscriber workers under the
:class:`~repro.runtime.conformance.scheduler.InterleavingScheduler`.
The :class:`~repro.runtime.conformance.checker.DeliveryChecker` listens
to every event and asserts the §3.2 delivery-semantics invariants.

Everything observable is derived from the seed: the workload script,
the worker interleaving, and therefore the normalized trace. Running
the same :class:`ScheduleConfig` twice yields byte-identical traces —
that is what makes a failing seed a *replayable* bug report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.delivery import CAUSAL, GLOBAL, WEAK, validate_mode
from repro.core.subscriber import Dispatcher
from repro.errors import QueueDecommissioned
from repro.runtime.conformance.checker import (
    INV_DURABLE,
    INV_WORKER,
    DeliveryChecker,
    Violation,
)
from repro.runtime.conformance.scheduler import (
    InterleavingScheduler,
    SchedulerStuck,
)
from repro.runtime.interleave import observe_point, yield_point

#: Invariant name for schedules that never quiesce (wedged scheduler).
INV_QUIESCENCE = "schedule.quiescence"


@dataclass(frozen=True)
class ScheduleConfig:
    """Everything that determines one schedule, and nothing else."""

    mode: str = CAUSAL
    seed: int = 0
    workers: int = 3
    messages: int = 10
    #: §6.5 give-up age of a waiting message, in scheduler steps since
    #: its first delivery (the timeout on the harness's clock).
    give_up_age: int = 300
    #: Crash one worker mid-message and run a recovery worker that
    #: calls ``requeue_unacked`` (at-least-once + dedup coverage).
    crash_recovery: bool = False
    #: Drop this many routed messages at the broker (§6.5 loss).
    faults: int = 0
    #: Publisher version-store death mid-stream (§4.4 generation bump).
    generation_bump: bool = False
    #: Decommission threshold for the subscriber queue (None = unbounded).
    queue_limit: Optional[int] = None
    #: Dependency-hash space (None = full names).
    hash_space: Optional[int] = None
    #: Enable the flow-control subsystem: coalescing at publish plus
    #: pop_many/process_batch subscriber workers (batched group commit).
    flow: bool = False
    #: Enable the durability subsystem: every schedule WALs to a
    #: throwaway data dir, and after quiescence a second fresh
    #: ecosystem restores from it — restored state must be
    #: byte-equivalent to the live one (``durability.restore-equivalence``).
    durability: bool = False
    #: Enable the read path: the subscriber maintains derived views
    #: behind the versioned cache, a dedicated reader worker races
    #: cache-aside reads against the apply stream, and the checker
    #: asserts ``views.read-freshness`` (no stale cached read; at
    #: quiescence every aggregate equals recomputation).
    views: bool = False
    #: Enable the CDC front-end: a seeded slice of the publisher's
    #: workload bypasses the ORM through ``raw_session`` (transactional
    #: outbox), a dedicated poller worker tails the outbox into the
    #: publisher path, and the checker asserts ``cdc.outbox-delivery``
    #: (no committed entry left unpublished at quiescence) on top of
    #: the ordinary mode invariants.
    cdc: bool = False
    max_steps: int = 50_000

    def describe(self) -> str:
        extras = []
        if self.crash_recovery:
            extras.append("crash")
        if self.faults:
            extras.append(f"faults={self.faults}")
        if self.generation_bump:
            extras.append("genbump")
        if self.queue_limit is not None:
            extras.append(f"qlimit={self.queue_limit}")
        if self.flow:
            extras.append("flow")
        if self.durability:
            extras.append("durability")
        if self.views:
            extras.append("views")
        if self.cdc:
            extras.append("cdc")
        suffix = f" [{','.join(extras)}]" if extras else ""
        return f"mode={self.mode} seed={self.seed}{suffix}"


@dataclass
class ScheduleResult:
    """Outcome of one schedule: violations, stats and a normalized trace."""

    config: ScheduleConfig
    violations: List[Violation]
    trace: List[str]
    steps: int
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def replay_command(self) -> str:
        """The CLI line that replays exactly this schedule."""
        parts = [
            "python -m repro conformance",
            f"--mode {self.config.mode}",
            f"--seed {self.config.seed}",
            f"--workers {self.config.workers}",
            f"--messages {self.config.messages}",
        ]
        if self.config.crash_recovery:
            parts.append("--crash")
        if self.config.faults:
            parts.append(f"--faults {self.config.faults}")
        if self.config.generation_bump:
            parts.append("--generation-bump")
        if self.config.queue_limit is not None:
            parts.append(f"--queue-limit {self.config.queue_limit}")
        if self.config.hash_space is not None:
            parts.append(f"--hash-space {self.config.hash_space}")
        if self.config.flow:
            parts.append("--flow")
        if self.config.durability:
            parts.append("--durability")
        if self.config.views:
            parts.append("--views")
        if self.config.cdc:
            parts.append("--cdc")
        return " ".join(parts)


def _build_script(config: ScheduleConfig, rng: random.Random) -> List[Tuple]:
    """Derive the publisher workload from the seed: object creates
    followed by seeded updates, with optional fault/generation ops
    spliced in at seeded positions."""
    n_objects = max(2, config.messages // 3)
    ops: List[Tuple] = [("create", i) for i in range(n_objects)]
    for _ in range(max(0, config.messages - n_objects)):
        ops.append(("update", rng.randrange(n_objects)))
    if config.cdc:
        # A seeded slice of the workload bypasses the ORM: raw creates
        # and updates over a disjoint object-id space, riffled into the
        # ORM ops preserving each stream's internal order (a raw update
        # must follow its raw create).
        n_raw = max(1, config.messages // 4)
        raw_ops: List[Tuple] = [("raw-create", i) for i in range(n_raw)]
        for _ in range(max(1, config.messages // 3) - n_raw):
            raw_ops.append(("raw-update", rng.randrange(n_raw)))
        merged: List[Tuple] = []
        i = j = 0
        while i < len(ops) or j < len(raw_ops):
            take_raw = j < len(raw_ops) and (
                i >= len(ops) or rng.random() < 0.4
            )
            if take_raw:
                merged.append(raw_ops[j])
                j += 1
            else:
                merged.append(ops[i])
                i += 1
        ops = merged
    if config.generation_bump:
        ops.insert(rng.randrange(n_objects, len(ops) + 1), ("bump",))
    if config.faults:
        ops.insert(rng.randrange(1, len(ops) + 1), ("drop", config.faults))
    return ops


class ConformanceHarness:
    """One schedule: ecosystem, workload, virtual workers, checker."""

    def __init__(self, config: ScheduleConfig) -> None:
        validate_mode(config.mode)
        self.config = config
        # Distinct stream from the scheduler's RNG, but derived from the
        # same seed by pure integer arithmetic (str/tuple seeding would
        # go through hash(), which is per-process randomized).
        self.workload_rng = random.Random(config.seed * 0x9E3779B1 + 0x5EED)
        self.script = _build_script(config, self.workload_rng)
        self.publisher_done = False
        self.crashed_uids: set = set()
        self._raw_rows: List[Dict[str, Any]] = []
        self._phase1_workers = 0
        self._instances: List[Any] = []
        # Trace normalization: message uids embed a process-global
        # counter, so raw uids differ across runs. First-seen aliasing
        # (m0, m1, ...) makes traces comparable run-to-run.
        self._aliases: Dict[str, str] = {}
        self.trace_lines: List[str] = []
        self._build_ecosystem()
        self.checker = DeliveryChecker(self.sub.subscriber)
        if config.views:
            self.checker.views = self.sub.views
        if config.cdc:
            self.checker.outbox = self.pub.outbox
            self.checker.cdc_poller = self.pub.cdc_poller
        self.scheduler = InterleavingScheduler(
            seed=config.seed, max_steps=config.max_steps
        )
        self.scheduler.listeners.append(self.checker.on_event)
        self.scheduler.listeners.append(self._trace_listener)

    # -- ecosystem ------------------------------------------------------------

    def _make_ecosystem(self) -> Tuple[Any, Any, Any, Any]:
        """Build one instance of the schedule's topology (the restore-
        equivalence check rebuilds it to restore into)."""
        from repro.core import Ecosystem
        from repro.databases.document import MongoLike
        from repro.databases.relational import PostgresLike
        from repro.orm import Field, Model
        from repro.versionstore import DependencyHasher

        config = self.config
        eco = Ecosystem(
            queue_limit=config.queue_limit,
            seed=config.seed,
            hasher=DependencyHasher(config.hash_space),
        )
        pub = eco.service(
            "pub", database=MongoLike("pub-db"), delivery_mode=config.mode
        )

        @pub.model(publish=["name", "value"], name="Doc")
        class PubDoc(Model):
            name = Field(str)
            value = Field(int, default=0)

        sub = eco.service("sub", database=PostgresLike("sub-db"))

        @sub.model(
            subscribe={
                "from": "pub",
                "fields": ["name", "value"],
                "mode": config.mode,
            },
            name="Doc",
        )
        class SubDoc(Model):
            name = Field(str)
            value = Field(int, default=0)

        if config.flow:
            from repro.runtime.flow import FlowConfig

            # Small batches keep schedules short; admission capacity
            # comes from the queue limit (admission stays off on
            # unbounded queues, coalescing/batching still exercise).
            eco.enable_flow(FlowConfig(batch_max=3, throttle_delay=0.0))
        if config.views:
            from repro.views import CountView, SumView, TopKView

            views = sub.enable_views()
            views.declare(CountView("docs", "Doc"))
            views.declare(SumView("total", "Doc", "value"))
            views.declare(TopKView("top", "Doc", "value", k=3))
        if config.cdc:
            pub.enable_outbox()
        return eco, pub, sub, PubDoc

    def _build_ecosystem(self) -> None:
        self.eco, self.pub, self.sub, self.doc_cls = self._make_ecosystem()
        self._durability_dir: Optional[str] = None
        if self.config.durability:
            import tempfile

            self._durability_dir = tempfile.mkdtemp(prefix="repro-conf-wal-")
            self.eco.enable_durability(data_dir=self._durability_dir)

    # -- durability: restore equivalence --------------------------------------

    @staticmethod
    def _normalized_durable_state(state: Dict[str, Any]) -> Dict[str, Any]:
        """Applied-uid *membership* is the durable contract (the dedup
        check is a set lookup); the deque's order reflects worker
        scheduling, not state, so normalize it before comparing."""
        import copy

        state = copy.deepcopy(state)
        for service_state in state.get("services", {}).values():
            service_state["applied_uids"] = sorted(
                service_state.get("applied_uids", [])
            )
        return state

    def _check_restore_equivalence(self) -> List[Violation]:
        """The durability invariant: a second fresh ecosystem restoring
        from this schedule's WAL must reproduce the live ecosystem's
        durable state exactly — rows, counters, generations, queue
        backlog, shed ledgers, dedup membership."""
        manager = self.eco.durability
        manager.wal.sync()
        live = self._normalized_durable_state(manager._capture_state())
        eco2, _pub2, _sub2, _doc2 = self._make_ecosystem()
        manager2 = eco2.enable_durability(data_dir=self._durability_dir)
        violations: List[Violation] = []
        try:
            report = manager2.restore()
            if report.unrecoverable:
                violations.append(
                    Violation(
                        INV_DURABLE,
                        "restore reported unrecoverable after a clean "
                        f"schedule: {report.error}",
                    )
                )
                return violations
            restored = self._normalized_durable_state(
                manager2._capture_state()
            )
            for section in ("generations", "services", "queues", "cdc"):
                if restored.get(section) != live.get(section):
                    violations.append(
                        Violation(
                            INV_DURABLE,
                            f"restored {section} diverge from the live "
                            f"ecosystem: live={live.get(section)!r} "
                            f"restored={restored.get(section)!r}",
                        )
                    )
        finally:
            manager2.close()
        return violations

    def _cleanup_durability(self) -> None:
        import shutil

        if self.eco.durability is not None:
            self.eco.durability.close()
        if self._durability_dir is not None:
            shutil.rmtree(self._durability_dir, ignore_errors=True)
            self._durability_dir = None

    # -- trace normalization --------------------------------------------------

    def _alias(self, message: Any) -> str:
        alias = self._aliases.get(message.uid)
        if alias is None:
            alias = f"m{len(self._aliases)}"
            self._aliases[message.uid] = alias
        return alias

    def _trace_listener(
        self, step: int, worker: str, label: str, info: Dict[str, Any]
    ) -> None:
        parts = [worker, label]
        for key in sorted(info):
            value = info[key]
            if key in ("message", "blocked_on", "into"):
                parts.append(f"{key}={self._alias(value)}")
            elif key == "required":
                rendered = ",".join(
                    f"{dep}:{version}" for dep, version in sorted(value.items())
                )
                parts.append(f"required={rendered}")
            elif isinstance(value, (str, int, float, bool)):
                parts.append(f"{key}={value}")
        self.trace_lines.append(" ".join(parts))

    # -- virtual workers ------------------------------------------------------

    def _publisher_loop(self) -> None:
        try:
            for op in self.script:
                yield_point("pub.op", kind=op[0])
                if op[0] == "create":
                    with self.pub.controller():
                        self._instances.append(
                            self.doc_cls.create(name=f"doc-{op[1]}", value=0)
                        )
                elif op[0] == "update":
                    instance = self._instances[op[1]]
                    with self.pub.controller():
                        instance.value += 1
                        instance.save()
                elif op[0] == "raw-create":
                    raw = self.pub.raw_session()
                    row = raw.insert(
                        self.doc_cls, {"name": f"raw-{op[1]}", "value": 0}
                    )
                    self._raw_rows.append(row)
                    observe_point("pub.raw_write", kind="create")
                elif op[0] == "raw-update":
                    raw = self.pub.raw_session()
                    row = self._raw_rows[op[1]]
                    updated = raw.update(
                        self.doc_cls, row["id"],
                        {"value": (row.get("value") or 0) + 1},
                    )
                    self._raw_rows[op[1]] = updated
                    observe_point("pub.raw_write", kind="update")
                elif op[0] == "bump":
                    self.pub.recover_publisher_version_store()
                    observe_point("pub.generation_bump")
                elif op[0] == "drop":
                    self.eco.broker.drop_next(op[1])
                    observe_point("pub.drop_armed", count=op[1])
        finally:
            self.publisher_done = True
            observe_point("pub.done")

    def _drained(self) -> bool:
        """Quiescence test for subscriber workers: publisher finished,
        nothing queued, and anything still unacked belongs to a crashed
        worker (the recovery worker's problem, not ours)."""
        if not self.publisher_done:
            return False
        if self.config.cdc and not self.pub.cdc_poller.idle():
            # Committed outbox entries the poller has not published yet
            # are pending work, not quiescence.
            return False
        queue = self.sub.subscriber.queue
        if len(queue):
            return False
        unacked = {message.uid for message in queue.peek_unacked()}
        return unacked <= self.crashed_uids

    def _subscriber_loop(self, wid: str, abandon_after: Optional[int] = None) -> None:
        """A virtual worker running the production dispatch step on the
        scheduler's clock; a crash worker pops batches of one so it
        abandons one precise in-flight delivery."""
        batch_max = 1
        if self.config.flow and abandon_after is None:
            batch_max = self.eco.flow.config.batch_max

        def give_up(message: Any) -> None:
            # §6.5 give-up: a dependency that will never arrive (dropped
            # message) must not wedge the worker forever.
            observe_point("worker.gave_up", worker=wid, message=message)
            self.sub.subscriber.queue.ack(message)

        dispatcher = Dispatcher(
            self.sub.subscriber,
            clock=lambda: self.scheduler.steps,
            give_up_age=self.config.give_up_age,
            give_up=give_up,
        )
        handled = 0
        while True:
            try:
                yield_point("worker.tick", worker=wid)
                abandon = abandon_after is not None and handled + 1 >= abandon_after
                step = dispatcher.step(batch_max, abandon=abandon)
                if not step.popped:
                    if self._drained():
                        observe_point("worker.drained", worker=wid)
                        return
                    continue
                handled += len(step.popped)
                if abandon:
                    # Simulated worker crash: exit without ack/nack; the
                    # delivery stays in the unacked table until recovery
                    # calls requeue_unacked().
                    for message in step.popped:
                        self.crashed_uids.add(message.uid)
                        observe_point("worker.crashed", worker=wid, message=message)
                    return
            except QueueDecommissioned:
                # Decommission surfaced by a pop, or by an ack/nack of a
                # delivery it cleared (the fixed queue tolerates those):
                # the worker exits cleanly instead of dying silently.
                observe_point("worker.decommissioned", worker=wid)
                return
            except Exception as exc:  # noqa: BLE001 — the invariant itself
                self.checker.violation(
                    INV_WORKER,
                    f"worker {wid} died on unexpected {type(exc).__name__}: {exc}",
                )
                return

    def _cdc_loop(self, wid: str) -> None:
        """The CDC poller as a scheduled virtual worker: tails the
        publisher's outbox into the publisher path, interleaved with the
        ORM workload and the subscriber workers by the scheduler."""
        poller = self.pub.cdc_poller
        while True:
            yield_point("cdc.tick", worker=wid)
            published = poller.poll()
            if published:
                observe_point("cdc.published", worker=wid, count=published)
            if self.publisher_done and poller.idle():
                observe_point("cdc.drained", worker=wid)
                return

    def _reader_loop(self, wid: str) -> None:
        """The read-path worker: races cache-aside view reads against
        the apply stream. Every read emits ``cache.read`` events the
        checker holds against the invalidation frontier — a hit served
        below it is the INV_VIEW staleness violation."""
        views = self.sub.views
        names = [spec.name for spec in views.specs()]
        while True:
            yield_point("reader.tick", worker=wid)
            for name in names:
                views.read(name)
            if self._drained():
                observe_point("reader.drained", worker=wid)
                return

    def _phase1_loop(self, wid: str, abandon_after: Optional[int]) -> None:
        try:
            self._subscriber_loop(wid, abandon_after)
        finally:
            self._phase1_workers -= 1

    def _recovery_loop(self) -> None:
        queue = self.sub.subscriber.queue
        while not (self.publisher_done and self._phase1_workers == 0):
            yield_point("recovery.wait")
        requeued = queue.requeue_unacked()
        observe_point("recovery.requeued", count=requeued)
        self.crashed_uids.clear()
        self._subscriber_loop("rec")

    # -- running --------------------------------------------------------------

    def run(self) -> ScheduleResult:
        config = self.config
        self.scheduler.add_worker("pub", self._publisher_loop)
        abandon: Dict[str, Optional[int]] = {}
        for i in range(config.workers):
            wid = f"w{i}"
            abandon[wid] = None
        if config.crash_recovery and config.workers:
            # Exactly one worker crashes, after a seeded number of
            # messages; the rest drain normally.
            abandon["w0"] = self.workload_rng.randint(1, 3)
        self._phase1_workers = config.workers
        for i in range(config.workers):
            wid = f"w{i}"
            self.scheduler.add_worker(
                wid,
                lambda wid=wid: self._phase1_loop(wid, abandon[wid]),
            )
        if config.crash_recovery:
            self.scheduler.add_worker("rec", self._recovery_loop)
        if config.views:
            self.scheduler.add_worker(
                "reader", lambda: self._reader_loop("reader")
            )
        if config.cdc:
            self.scheduler.add_worker("cdc", lambda: self._cdc_loop("cdc"))

        stuck: Optional[SchedulerStuck] = None
        try:
            self.scheduler.run()
        except SchedulerStuck as exc:
            stuck = exc
        if stuck is not None:
            self.checker.violations.append(
                Violation(INV_QUIESCENCE, str(stuck), step=self.scheduler.steps)
            )
        for name, error in self.scheduler.worker_errors().items():
            self.checker.violation(
                INV_WORKER,
                f"virtual worker {name} escaped with "
                f"{type(error).__name__}: {error}",
            )
        violations = self.checker.finalize()
        if self.config.durability:
            try:
                violations.extend(self._check_restore_equivalence())
            finally:
                self._cleanup_durability()
        # A broken delivery invariant is an anomaly by definition: feed
        # the ecosystem's flight recorder so a failing seed leaves the
        # same JSONL evidence as a production incident.
        recorder = getattr(self.eco, "recorder", None)
        if recorder is not None:
            for violation in violations:
                recorder.anomaly(
                    "conformance.violation",
                    invariant=violation.invariant,
                    detail=violation.detail,
                    step=violation.step,
                    schedule=config.describe(),
                )
        queue = self.sub.subscriber.queue
        stats = {
            "script_ops": len(self.script),
            "entered": len(self.checker.entered),
            "applied": sum(
                1 for fate in self.checker.entered.values() if fate.finishes
            ),
            "duplicates": self.checker.duplicates,
            "gave_up": len(self.checker.gave_up),
            "tolerated_acks": self.checker.tolerated_acks,
            "tolerated_nacks": self.checker.tolerated_nacks,
            "coalesced": len(self.checker.coalesced_into),
            "shed": len(self.checker.shed),
            "cache_hits": self.checker.cache_hits,
            "cache_misses": self.checker.cache_misses,
            "decommissioned": queue.decommissioned if queue is not None else False,
            "steps": self.scheduler.steps,
        }
        return ScheduleResult(
            config=config,
            violations=violations,
            trace=self.trace_lines,
            steps=self.scheduler.steps,
            stats=stats,
        )


def run_schedule(config: ScheduleConfig) -> ScheduleResult:
    """Run one seeded schedule; the sole entry point tests and the CLI use."""
    return ConformanceHarness(config).run()


def replay_twice(config: ScheduleConfig) -> Tuple[ScheduleResult, ScheduleResult]:
    """Run the same config twice (fresh ecosystem each time); the two
    normalized traces must be identical — the determinism self-test."""
    return run_schedule(config), run_schedule(config)


def default_matrix(
    seeds: int,
    modes: Optional[List[str]] = None,
    base: Optional[ScheduleConfig] = None,
) -> List[ScheduleConfig]:
    """The sweep the CI smoke step runs: for every mode and seed, one
    plain schedule, a crash-recovery variant, a flow-control variant
    (coalescing + batched group-commit apply), a durability variant
    (WAL everything, then prove restore-equivalence), and a read-path
    variant (views + cache racing a reader worker, with flow on so
    coalescing and batched apply must preserve invalidation), and a CDC
    variant (a seeded slice of the workload bypasses the ORM through
    the transactional outbox, with a poller worker racing the
    subscribers), with broker faults folded into a slice of the
    seeds."""
    base = base or ScheduleConfig()
    configs: List[ScheduleConfig] = []
    for mode in modes or [CAUSAL, GLOBAL, WEAK]:
        for seed in range(seeds):
            faults = 1 if seed % 4 == 3 else 0
            configs.append(
                replace(base, mode=mode, seed=seed, faults=faults)
            )
            configs.append(
                replace(
                    base,
                    mode=mode,
                    seed=seed,
                    crash_recovery=True,
                    faults=0,
                )
            )
            configs.append(
                replace(
                    base,
                    mode=mode,
                    seed=seed,
                    flow=True,
                    faults=faults,
                    crash_recovery=False,
                )
            )
            configs.append(
                replace(
                    base,
                    mode=mode,
                    seed=seed,
                    durability=True,
                    faults=faults,
                    crash_recovery=False,
                    flow=False,
                )
            )
            configs.append(
                replace(
                    base,
                    mode=mode,
                    seed=seed,
                    views=True,
                    flow=True,
                    faults=0,
                    crash_recovery=False,
                    durability=False,
                )
            )
            configs.append(
                replace(
                    base,
                    mode=mode,
                    seed=seed,
                    cdc=True,
                    faults=0,
                    crash_recovery=False,
                    flow=False,
                    durability=False,
                    views=False,
                )
            )
    return configs


def sweep(configs: List[ScheduleConfig]) -> List[ScheduleResult]:
    """Run every config; results in input order."""
    return [run_schedule(config) for config in configs]
