"""The durability manager: WAL logging hooks, snapshots, and restore.

``Ecosystem.enable_durability`` builds one :class:`DurabilityManager`
per process and attaches it to the broker (which hands it to every
subscriber queue, existing and future). The pipeline then logs each
durable state transition as one WAL record, appended *inside* the lock
that orders the transition, so WAL order equals effect order:

=========  =============================================================
``out``    publisher routed a message (captures the post-bump publisher
           version-store counters for the message's dependency keys)
``pub``    a queue admitted a message (payload, trace dropped)
``coal``   flow control merged a publish into a queued survivor
           (post-merge survivor payload — idempotent replace)
``shed``   flow control shed a weak publish (post-state deficit ledger)
``defer``  the §4.4 generation gate rotated a delivery to the back
``ack``    a delivery completed
``decom``  the queue hit its §4.4 kill cliff / ``recom`` recommission
``apply``  a subscriber finished applying a message
``gen``    subscriber flushed counters for a publisher generation bump
``pubgen`` publisher generation bump (version-store death, §4.4)
``obx``    a raw write committed a transactional-outbox entry (engines
           are in-memory: without this a crash before the CDC poll
           would lose the raw write entirely)
``cdc``    CDC poller cursor checkpoint (end of each poll batch); the
           ``out`` record of every CDC publish also piggybacks the
           cursor as ``cur``, making cursor-advance atomic with the
           publisher-counter capture
=========  =============================================================

:meth:`restore` is ARIES-lite: load the latest valid snapshot, replay
the WAL tail past its pin with at-least-once dedup (the snapshot's
applied-uid window plus in-replay queue membership), re-inject the
surviving pending messages into the real queues, and advance the
process-wide message sequence past every restored uid so new publishes
cannot collide into the dedup window. Replay applies operations at the
raw engine level — no callbacks, no publisher interception — because
every cascade a callback produced in the original run is already in the
log as its own records; re-firing it would double-publish.

If the log is unrecoverable (mid-log corruption, missing segment, newer
wire version) restore keeps the snapshot state, reports
``unrecoverable=True`` and the caller re-enters bootstrap/repair — the
pre-durability recovery ladder (docs/recovery.md).
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.broker.message import Message
from repro.core.delivery import WEAK
from repro.durability.datadir import snapshot_dir, wal_dir
from repro.durability.snapshot import SnapshotStore
from repro.durability.wal import (
    FSYNC_OFF,
    DEFAULT_GROUP_MAX,
    DEFAULT_SEGMENT_RECORDS,
    SegmentedWAL,
)
from repro.errors import WALCorrupt


def wire_payload(message: Message) -> Dict[str, Any]:
    """A message's wire payload as a dict, trace dropped (traces are
    runtime observability state, not durable data)."""
    data = json.loads(message.to_json())
    data.pop("trace", None)
    return data


def _uid_seq(uid: str) -> Optional[int]:
    """The numeric tail of a default ``app:seq`` uid, else None."""
    _, _, tail = uid.rpartition(":")
    return int(tail) if tail.isdigit() else None


@dataclass
class RestoreReport:
    """What :meth:`DurabilityManager.restore` did."""

    snapshot_id: Optional[int] = None
    replayed: int = 0
    requeued: int = 0
    applied: int = 0
    position: Optional[Tuple[int, int]] = None
    #: The WAL could not be trusted past ``position``; snapshot state
    #: was kept and the caller should re-enter bootstrap/repair.
    unrecoverable: bool = False
    error: str = ""
    #: Services whose queues/state may be behind after an unrecoverable
    #: log — the bootstrap/repair worklist.
    stale_services: List[str] = field(default_factory=list)


class DurabilityManager:
    """Per-process durability: one WAL + snapshot store for the
    ecosystem's local queues, version stores and engine rows."""

    def __init__(
        self,
        ecosystem: Any,
        data_dir: str,
        fsync: str = FSYNC_OFF,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        group_max: int = DEFAULT_GROUP_MAX,
        snapshot_every: Optional[int] = None,
    ) -> None:
        self.ecosystem = ecosystem
        self.data_dir = data_dir
        os.makedirs(data_dir, exist_ok=True)
        recorder = getattr(ecosystem, "recorder", None)
        self.wal = SegmentedWAL(
            wal_dir(data_dir),
            fsync=fsync,
            segment_records=segment_records,
            group_max=group_max,
            metrics=ecosystem.metrics,
            recorder=recorder,
        )
        self.snapshots = SnapshotStore(snapshot_dir(data_dir), recorder=recorder)
        #: Auto-snapshot cadence in WAL appends; None = explicit only.
        self.snapshot_every = snapshot_every
        self._appends_since_snapshot = 0
        #: True while :meth:`restore` runs: every log hook is a no-op so
        #: replayed effects are not re-logged.
        self._restoring = False
        #: Restored CDC poller cursors (service -> outbox seq), built
        #: set-to-max from snapshot + ``cdc``/``out`` records and pushed
        #: into the live pollers at the end of :meth:`restore`.
        self.cdc_cursors: Dict[str, int] = {}
        metrics = ecosystem.metrics
        self._snap_count = metrics.counter("durability.snapshot.count")
        self._replayed = metrics.counter("durability.restore.replayed")
        self._requeued = metrics.counter("durability.restore.requeued")
        self._restored_applies = metrics.counter("durability.restore.applied")
        self._unrecoverable = metrics.counter("durability.unrecoverable")

    # -- logging hooks (called by queue/broker/subscriber, see module doc) --

    @property
    def restoring(self) -> bool:
        return self._restoring

    def _append(self, rec: Dict[str, Any]) -> None:
        self.wal.append(rec)
        self._appends_since_snapshot += 1

    def log_out(self, message: Message) -> None:
        """Publisher routed a message: record the payload plus the
        post-bump publisher version-store counters of its dependency
        keys, so replay restores both the outbound intent and the
        counter state new publishes will continue from."""
        if self._restoring:
            return
        service = self.ecosystem.local_service(message.app)
        if service is None:
            return
        pvs = service.publisher_version_store
        counters: Dict[str, List[int]] = {}
        for hashed in message.dependencies:
            key = pvs._key(hashed)
            counters[hashed] = [
                pvs.kv.hget(key, "ops") or 0,
                pvs.kv.hget(key, "version") or 0,
            ]
        rec = {"t": "out", "app": message.app, "m": wire_payload(message),
               "vs": counters}
        if message.cdc is not None:
            # Piggybacked cursor: advancing past this outbox entry is
            # atomic with capturing the counters its publish bumped —
            # a crash can never leave the counters durable but the
            # cursor behind (which would republish and double-bump).
            rec["cur"] = message.cdc
        self._append(rec)
        self.maybe_snapshot()

    def log_pub(self, queue_name: str, message: Message) -> None:
        if self._restoring:
            return
        self._append(
            {"t": "pub", "q": queue_name, "m": wire_payload(message)}
        )

    def log_coal(self, queue_name: str, survivor: Message) -> None:
        if self._restoring:
            return
        # ``absorbed`` lists every uid the survivor has merged so far.
        # Replay must drop those from pending: an absorbed message whose
        # ``pub`` record is also in the log would otherwise be
        # re-injected on every restore, carrying dependency increments
        # the survivor already merged (dep-wait wedges or double-applied
        # counter bumps under causal/global delivery).
        self._append(
            {"t": "coal", "q": queue_name, "uid": survivor.uid,
             "m": wire_payload(survivor),
             "absorbed": list(survivor.coalesced_uids)}
        )

    def log_shed(self, queue_name: str, message: Message, flow: Any) -> None:
        """Post-state of the shed-deficit ledger for the message's app —
        an idempotent replace on replay.

        The append happens *inside* ``flow._shed_lock``: snapshotting
        the ledger under the lock but appending after releasing it lets
        a concurrent ledger writer (another shed, or an audit thread's
        ``reconcile_shed`` trim) slip its own record in between, so two
        records land in inverted order and last-writer-wins replay
        restores the stale ledger. Holding the lock across the append
        makes WAL order equal ledger-mutation order."""
        if self._restoring:
            return
        if flow is None:
            self._append(
                {"t": "shed", "q": queue_name, "app": message.app,
                 "ledger": {}}
            )
            return
        with flow._shed_lock:
            ledger = dict(flow._shed_deficits.get(message.app, {}))
            self._append(
                {"t": "shed", "q": queue_name, "app": message.app,
                 "ledger": ledger}
            )

    def log_defer(self, queue_name: str, message: Message) -> None:
        """The §4.4 generation gate rotated a delivery to the back of the
        queue (its only writer: dependency stalls park instead, as
        unacked deliveries that need no record). Without this record
        restore rebuilds the queue in original publish order, undoing
        the rotation. WALs from before parking also carry defers of
        dependency-stalled deliveries; they replay the same way."""
        if self._restoring:
            return
        self._append({"t": "defer", "q": queue_name, "uid": message.uid})

    def log_ack(self, queue_name: str, message: Message) -> None:
        if self._restoring:
            return
        if self.wal.injector is not None:
            self.wal.injector.fire("before-ack")
        self._append({"t": "ack", "q": queue_name, "uid": message.uid})

    def log_decom(self, queue_name: str) -> None:
        if self._restoring:
            return
        self._append({"t": "decom", "q": queue_name})

    def log_recom(self, queue_name: str) -> None:
        if self._restoring:
            return
        self._append({"t": "recom", "q": queue_name})

    def log_apply(self, service_name: str, message: Message) -> None:
        if self._restoring:
            return
        self._append(
            {"t": "apply", "svc": service_name, "uid": message.uid,
             "m": wire_payload(message)}
        )

    def log_gen(self, service_name: str, app: str, generation: int) -> None:
        if self._restoring:
            return
        self._append(
            {"t": "gen", "svc": service_name, "app": app, "g": generation}
        )

    def log_pubgen(self, app: str, generation: int) -> None:
        if self._restoring:
            return
        self._append({"t": "pubgen", "app": app, "g": generation})

    def log_outbox(self, service_name: str, entry: Dict[str, Any]) -> None:
        """A raw write committed its data row + outbox entry. The entry
        carries everything replay needs to restore both."""
        if self._restoring:
            return
        self._append({"t": "obx", "svc": service_name, "e": dict(entry)})

    def log_cdc_cursor(self, service_name: str, cursor: int) -> None:
        """CDC poller batch checkpoint — keeps an idle tail's position
        durable across compaction even when no piggybacked ``out``
        record follows."""
        if self._restoring:
            return
        self._append({"t": "cdc", "svc": service_name, "cur": cursor})

    # -- snapshot ------------------------------------------------------------

    def maybe_snapshot(self) -> Optional[int]:
        """Take a snapshot when the cadence is due. Only called from
        lock-free sites (the publisher path): capturing queue state
        takes each queue's lock, so a snapshot from inside one would
        deadlock."""
        if self.snapshot_every is None:
            return None
        if self._appends_since_snapshot < self.snapshot_every:
            return None
        return self.snapshot()

    def snapshot(self, pin: Optional[Tuple[int, int]] = None) -> int:
        """Checkpoint the process's durable state and compact the log.

        The WAL is synced and the pin taken *before* state capture, so
        records racing the capture appear both in the snapshot and the
        tail — replay dedup makes the overlap idempotent. ``pin``
        overrides the position (tests replaying a bounded prefix)."""
        self.wal.sync()
        if pin is None:
            pin = self.wal.position()
        state = self._capture_state()
        snapshot_id, _ = self.snapshots.write(state, pin)
        self.snapshots.compact(snapshot_id)
        self.wal.compact_below(pin[0])
        self._appends_since_snapshot = 0
        self._snap_count.increment()
        return snapshot_id

    def _local_queues(self) -> List[Any]:
        broker = self.ecosystem.broker
        placement = getattr(broker, "_placement", None)
        queues = list(broker._queues.values())
        if placement is None:
            return queues
        is_local, _ = placement
        return [queue for queue in queues if is_local(queue.name)]

    def _capture_state(self) -> Dict[str, Any]:
        eco = self.ecosystem
        state: Dict[str, Any] = {
            "generations": eco.generations.snapshot(),
            "services": {},
            "queues": {},
        }
        for service in eco.local_services():
            sub = service.subscriber
            pvs_state: Dict[str, List[int]] = {}
            for key, fields in service.publisher_version_store.kv.entries(
                "v:"
            ).items():
                pvs_state[key[len("v:"):]] = [
                    fields.get("ops", 0), fields.get("version", 0)
                ]
            models: Dict[str, List[Dict[str, Any]]] = {}
            for model_name, model_cls in sorted(service.registry.items()):
                mapper = model_cls.__mapper__
                if mapper is None or mapper.db is None:
                    continue  # ephemerals/observers persist nothing
                models[model_name] = mapper._do_where({}, None, None)
            with sub._applied_lock:
                applied = list(sub._applied_uids)
            state["services"][service.name] = {
                "pvs": pvs_state,
                "svs": service.subscriber_version_store.snapshot(),
                "sub_generations": dict(sub.generations),
                "applied_uids": applied,
                "bootstrapping": sub.bootstrapping,
                "models": models,
            }
        for queue in self._local_queues():
            durable = queue.durable_state()
            flow = queue.flow
            durable["shed"] = flow.shed_ledger() if flow is not None else {}
            state["queues"][queue.name] = durable
        cdc = getattr(eco, "cdc", None)
        if cdc is not None:
            state["cdc"] = cdc.cursors()
        return state

    # -- restore -------------------------------------------------------------

    def restore(self, replay_limit: Optional[int] = None) -> RestoreReport:
        """Rebuild the process's durable state: latest valid snapshot,
        then the WAL tail. ``replay_limit`` bounds replay to the first
        N tail records (crash-point tests replaying every prefix)."""
        report = RestoreReport()
        self._restoring = True
        self.cdc_cursors = {}
        try:
            snapshot = self.snapshots.load_latest()
            start = None
            #: queue -> uid -> payload dict, in queue order.
            pending: Dict[str, Dict[str, Any]] = {}
            stats: Dict[str, Dict[str, int]] = {}
            decommissioned: Dict[str, bool] = {}
            shed: Dict[str, Dict[str, Dict[str, int]]] = {}
            max_seq = 0
            if snapshot is not None:
                manifest = snapshot["manifest"]
                report.snapshot_id = manifest["id"]
                start = (manifest["wal"]["segment"], manifest["wal"]["offset"])
                max_seq = self._restore_snapshot_state(
                    snapshot, pending, stats, decommissioned, shed
                )
            replay_error: Optional[WALCorrupt] = None
            replayed = 0
            try:
                for position, rec in self.wal.replay(start=start):
                    if replay_limit is not None and replayed >= replay_limit:
                        report.position = position
                        break
                    replayed += 1
                    max_seq = max(
                        max_seq,
                        self._replay_record(
                            rec, pending, stats, decommissioned, shed, report
                        ),
                    )
                    report.position = (position[0], position[1] + 1)
            except WALCorrupt as exc:
                replay_error = exc
            report.replayed = replayed
            self._replayed.increment(replayed)
            # Re-inject survivors into the real queues (bypassing
            # publish: flow admission must not re-shed differently than
            # the run being restored did).
            broker = self.ecosystem.broker
            for queue_name, entries in pending.items():
                queue = broker.queue_for(queue_name)
                messages = []
                for payload in entries.values():
                    message = Message.from_json(json.dumps(payload))
                    seq = _uid_seq(message.uid)
                    if seq is not None:
                        max_seq = max(max_seq, seq)
                    messages.append(message)
                queue_stats = stats.get(queue_name, {})
                queue.restore_state(
                    messages,
                    published=queue_stats.get("published", 0),
                    acked=queue_stats.get("acked", 0),
                    decommissioned=decommissioned.get(queue_name, False),
                )
                if queue.flow is not None and queue_name in shed:
                    queue.flow.restore_shed(shed[queue_name])
                report.requeued += len(messages)
            for queue_name, dead in decommissioned.items():
                if dead and queue_name not in pending:
                    broker.queue_for(queue_name).restore_state(
                        [], published=stats.get(queue_name, {}).get("published", 0),
                        acked=stats.get(queue_name, {}).get("acked", 0),
                        decommissioned=True,
                    )
            self._requeued.increment(report.requeued)
            self._restored_applies.increment(report.applied)
            _advance_message_seq(max_seq)
            # Derived read models are not snapshotted: WAL replay lands
            # raw engine writes without the subscriber's view hook, so
            # any service with declared views rebuilds them from the
            # restored base rows (deterministic, and self-auditing
            # against INV_VIEW).
            for service in self.ecosystem.local_services():
                views = getattr(service, "views", None)
                if views is not None:
                    views.rebuild()
            # CDC pollers resume from the restored cursors, and each
            # outbox re-derives its next sequence from the restored
            # rows so new raw writes cannot collide with replayed ones.
            cdc = getattr(self.ecosystem, "cdc", None)
            if cdc is not None:
                cdc.adopt_cursors(self.cdc_cursors)
                cdc.resync()
            if replay_error is not None:
                report.unrecoverable = True
                report.error = str(replay_error)
                report.stale_services = sorted(
                    service.name for service in self.ecosystem.local_services()
                )
                self._unrecoverable.increment()
                recorder = getattr(self.ecosystem, "recorder", None)
                if recorder is not None:
                    recorder.anomaly(
                        "durability.unrecoverable", error=str(replay_error)
                    )
        finally:
            self._restoring = False
        return report

    def _restore_snapshot_state(
        self,
        snapshot: Dict[str, Any],
        pending: Dict[str, Dict[str, Any]],
        stats: Dict[str, Dict[str, int]],
        decommissioned: Dict[str, bool],
        shed: Dict[str, Dict[str, Dict[str, int]]],
    ) -> int:
        eco = self.ecosystem
        max_seq = 0
        eco.generations.restore_all(snapshot.get("generations", {}))
        for name, svc_state in snapshot.get("services", {}).items():
            service = eco.local_service(name)
            if service is None:
                continue
            pvs = service.publisher_version_store
            for hashed, (ops, version) in svc_state.get("pvs", {}).items():
                _pvs_fast_forward(pvs, hashed, ops, version)
            service.subscriber_version_store.bulk_load(
                svc_state.get("svs", {})
            )
            sub = service.subscriber
            for app, generation in svc_state.get(
                "sub_generations", {}
            ).items():
                if generation > sub.generations.get(app, 1):
                    sub.generations[app] = generation
            for uid in svc_state.get("applied_uids", []):
                sub._mark_applied(uid)
                seq = _uid_seq(uid)
                if seq is not None:
                    max_seq = max(max_seq, seq)
            sub.bootstrapping = bool(svc_state.get("bootstrapping", False))
            self._restore_rows(service, svc_state.get("models", {}))
        for queue_name, queue_state in snapshot.get("queues", {}).items():
            entries = pending.setdefault(queue_name, {})
            for payload in queue_state.get("pending", []):
                entries[payload["uid"]] = payload
            stats[queue_name] = {
                "published": queue_state.get("published", 0),
                "acked": queue_state.get("acked", 0),
            }
            decommissioned[queue_name] = bool(
                queue_state.get("decommissioned", False)
            )
            if queue_state.get("shed"):
                shed[queue_name] = {
                    app: dict(ledger)
                    for app, ledger in queue_state["shed"].items()
                }
        for svc_name, cursor in snapshot.get("cdc", {}).items():
            self._advance_cdc_cursor(svc_name, cursor)
        return max_seq

    def _restore_rows(
        self, service: Any, models: Dict[str, List[Dict[str, Any]]]
    ) -> None:
        """Make each model's engine rows exactly match the snapshot:
        raw mapper writes — no callbacks, no interception, no
        read-dependency tracking (mirroring the digest builder's raw
        reads)."""
        for model_name, rows in models.items():
            model_cls = service.registry.get(model_name)
            if model_cls is None:
                continue
            mapper = model_cls.__mapper__
            if mapper is None or mapper.db is None:
                continue
            want = {row["id"]: row for row in rows}
            for local_row in mapper._do_where({}, None, None):
                if local_row["id"] not in want:
                    mapper._do_delete(local_row["id"])
            for row_id, row in want.items():
                _raw_upsert(mapper, model_cls, row_id, row)

    # -- tail replay ---------------------------------------------------------

    def _replay_record(
        self,
        rec: Dict[str, Any],
        pending: Dict[str, Dict[str, Any]],
        stats: Dict[str, Dict[str, int]],
        decommissioned: Dict[str, bool],
        shed: Dict[str, Dict[str, Dict[str, int]]],
        report: RestoreReport,
    ) -> int:
        eco = self.ecosystem
        kind = rec.get("t")
        max_seq = 0
        if kind == "pub":
            payload = rec["m"]
            uid = payload["uid"]
            seq = _uid_seq(uid)
            if seq is not None:
                max_seq = seq
            queue_name = rec["q"]
            entries = pending.setdefault(queue_name, {})
            if uid not in entries and not self._uid_applied(queue_name, uid):
                entries[uid] = payload
                counters = stats.setdefault(
                    queue_name, {"published": 0, "acked": 0}
                )
                counters["published"] = counters.get("published", 0) + 1
        elif kind == "coal":
            entries = pending.get(rec["q"], {})
            if rec["uid"] in entries:
                entries[rec["uid"]] = rec["m"]
            # Absorbed messages ride inside the survivor now; any of
            # them still pending (its own ``pub`` record replayed
            # earlier) would be re-injected as a duplicate carrying
            # increments the survivor already merged.
            for absorbed_uid in rec.get("absorbed", []):
                if absorbed_uid == rec["uid"]:
                    continue
                if entries.pop(absorbed_uid, None) is not None:
                    counters = stats.setdefault(
                        rec["q"], {"published": 0, "acked": 0}
                    )
                    counters["published"] = max(
                        0, counters.get("published", 0) - 1
                    )
        elif kind == "defer":
            entries = pending.get(rec["q"], {})
            payload = entries.pop(rec["uid"], None)
            if payload is not None:
                # Rotate to the back: pending dicts are insertion-
                # ordered, and re-injection follows that order.
                entries[rec["uid"]] = payload
        elif kind == "shed":
            shed.setdefault(rec["q"], {})[rec["app"]] = dict(rec["ledger"])
        elif kind == "ack":
            entries = pending.get(rec["q"], {})
            if entries.pop(rec["uid"], None) is not None:
                counters = stats.setdefault(
                    rec["q"], {"published": 0, "acked": 0}
                )
                counters["acked"] = counters.get("acked", 0) + 1
        elif kind == "decom":
            decommissioned[rec["q"]] = True
            pending.pop(rec["q"], None)
            shed.pop(rec["q"], None)
        elif kind == "recom":
            decommissioned[rec["q"]] = False
            pending.pop(rec["q"], None)
            shed.pop(rec["q"], None)
        elif kind == "apply":
            message = Message.from_json(json.dumps(rec["m"]))
            seq = _uid_seq(message.uid)
            if seq is not None:
                max_seq = seq
            service = eco.local_service(rec["svc"])
            if service is not None and not service.subscriber._already_applied(
                message.uid
            ):
                self._replay_apply(service, message)
                report.applied += 1
        elif kind == "gen":
            service = eco.local_service(rec["svc"])
            if service is not None:
                sub = service.subscriber
                if rec["g"] > sub.generations.get(rec["app"], 1):
                    sub._flush_app_dependencies(rec["app"])
                    sub.generations[rec["app"]] = rec["g"]
        elif kind == "pubgen":
            service = eco.local_service(rec["app"])
            if service is not None and rec["g"] > eco.generations.current(
                rec["app"]
            ):
                service.publisher_version_store.kv.flushall()
            eco.generations.restore_all({rec["app"]: rec["g"]})
        elif kind == "out":
            service = eco.local_service(rec["app"])
            if service is not None:
                message = Message.from_json(json.dumps(rec["m"]))
                seq = _uid_seq(message.uid)
                if seq is not None:
                    max_seq = seq
                pvs = service.publisher_version_store
                for hashed, (ops, version) in rec.get("vs", {}).items():
                    _pvs_fast_forward(pvs, hashed, ops, version)
                if message.cdc is None:
                    # CDC messages restore publisher rows from their obx
                    # records, which sit at *commit* position in the WAL.
                    # The out record is appended at poll time, so its row
                    # attributes can be stale by then (a later raw update
                    # committed between the write and the poll) — replaying
                    # them here would clobber the newer obx-replayed state.
                    self._replay_publisher_rows(service, message)
                if rec.get("cur") is not None:
                    self._advance_cdc_cursor(rec["app"], rec["cur"])
        elif kind == "obx":
            service = eco.local_service(rec["svc"])
            if service is not None:
                self._replay_outbox(service, rec["e"])
        elif kind == "cdc":
            self._advance_cdc_cursor(rec["svc"], rec["cur"])
        return max_seq

    def _advance_cdc_cursor(self, service_name: str, cursor: int) -> None:
        """Set-to-max: a replayed piggyback may trail a later checkpoint
        (or the snapshot's captured cursor)."""
        self.cdc_cursors[service_name] = max(
            self.cdc_cursors.get(service_name, 0), int(cursor)
        )

    def _replay_outbox(self, service: Any, entry: Dict[str, Any]) -> None:
        """Replay one ``obx`` record: restore the raw-written data row
        and the outbox row itself (dedup by ``id == seq`` — snapshots
        may already carry both)."""
        from repro.cdc.outbox import OUTBOX_MODEL_NAME, entry_row

        model_cls = service.registry.get(entry.get("model", ""))
        if model_cls is not None:
            mapper = model_cls.__mapper__
            if mapper is not None and mapper.db is not None:
                if entry["kind"] == "delete":
                    if mapper._do_find(entry["row_id"]) is not None:
                        mapper._do_delete(entry["row_id"])
                else:
                    row = entry_row(entry)
                    _raw_upsert(mapper, model_cls, entry["row_id"], row)
        outbox_cls = service.registry.get(OUTBOX_MODEL_NAME)
        if outbox_cls is not None:
            outbox_mapper = outbox_cls.__mapper__
            if (
                outbox_mapper is not None
                and outbox_mapper.db is not None
                and outbox_mapper._do_find(entry["id"]) is None
            ):
                outbox_mapper._do_insert(dict(entry))

    def _uid_applied(self, queue_name: str, uid: str) -> bool:
        """Was this uid already applied by the queue's subscriber? The
        at-least-once dedup for replayed ``pub`` records."""
        service = self.ecosystem.local_service(queue_name)
        if service is None:
            return False
        return service.subscriber._already_applied(uid)

    def _replay_apply(self, service: Any, message: Message) -> None:
        """Re-run one subscriber apply from its log record, mirroring
        ``SynapseSubscriber.process_batch`` minus gating — raw engine
        writes plus the exact counter arithmetic of each delivery class."""
        sub = service.subscriber
        store = service.subscriber_version_store
        object_deps = sub._object_deps(message)
        if message.repair:
            for hashed, operation in object_deps.items():
                version = message.dependencies.get(hashed, 0)
                if not store.is_stale(hashed, version):
                    self._raw_apply_operation(service, message.app, operation)
                store.fast_forward(hashed, version)
        else:
            # Bootstrap-forced-weak applies (mode != WEAK) bump exactly
            # like the ordered path, so only true weak mode differs.
            mode = sub.app_modes.get(message.app, WEAK)
            if mode == WEAK:
                increments = message.counter_increments()
                for hashed, operation in object_deps.items():
                    version = message.dependencies.get(hashed, 0)
                    if store.is_stale(hashed, version):
                        continue
                    self._raw_apply_operation(service, message.app, operation)
                    store.fast_forward(
                        hashed,
                        version + max(0, increments.get(hashed, 1) - 1),
                    )
            else:
                for operation in message.operations:
                    self._raw_apply_operation(service, message.app, operation)
                store.apply_counts(message.counter_increments())
        sub._mark_applied(message.uid)

    def _replay_publisher_rows(self, service: Any, message: Message) -> None:
        """Re-apply an ``out`` record's operations to the publisher's
        own rows (published attributes only — snapshots carry the full
        rows; the tail can only restore what rode the wire)."""
        for operation in message.operations:
            model_cls = None
            for type_name in operation["types"]:
                model_cls = service.registry.get(type_name)
                if model_cls is not None:
                    break
            if model_cls is None:
                continue
            mapper = model_cls.__mapper__
            if mapper is None or mapper.db is None:
                continue
            if operation["operation"] == "delete":
                if mapper._do_find(operation["id"]) is not None:
                    mapper._do_delete(operation["id"])
            else:
                row = dict(operation["attributes"])
                row["id"] = operation["id"]
                _raw_upsert(mapper, model_cls, operation["id"], row)

    def _raw_apply_operation(
        self, service: Any, app: str, operation: Dict[str, Any]
    ) -> None:
        """Subscriber-side raw apply: the engine effect of
        ``SynapseSubscriber._apply_operation`` without callbacks or
        interception (the cascades they'd fire are already separate log
        records)."""
        sub = service.subscriber
        spec = sub.spec_for(app, operation["types"])
        if spec is None or spec.observer:
            return
        mapper = spec.model_cls.__mapper__
        if mapper is None or mapper.db is None:
            return
        if operation["operation"] == "delete":
            if mapper._do_find(operation["id"]) is not None:
                mapper._do_delete(operation["id"])
            return
        attrs = {
            local: operation["attributes"][remote]
            for remote, local in spec.fields.items()
            if remote in operation["attributes"]
        }
        attrs["id"] = operation["id"]
        _raw_upsert(mapper, spec.model_cls, operation["id"], attrs)

    def close(self) -> None:
        self.wal.close()


def _pvs_fast_forward(pvs: Any, hashed: str, ops: int, version: int) -> None:
    """Set-to-max restore of one publisher counter pair (replays may
    revisit keys the snapshot already covered)."""
    key = pvs._key(hashed)

    def script(store, key=key, ops=ops, version=version):
        store.hset(key, "ops", max(store.hget(key, "ops") or 0, ops))
        store.hset(
            key, "version", max(store.hget(key, "version") or 0, version)
        )

    pvs.kv.eval_on(key, script)


def _raw_upsert(
    mapper: Any, model_cls: type, row_id: Any, row: Dict[str, Any]
) -> None:
    """Insert-or-overwrite one row at the storage layer. Inserts start
    from field defaults so a partially-published row still carries every
    column the live apply path would have initialised."""
    attrs = {k: v for k, v in row.items() if k != "id"}
    if mapper._do_find(row_id) is None:
        full = {
            name: field.default_value()
            for name, field in model_cls._fields.items()
        }
        full.update(attrs)
        full["id"] = row_id
        mapper._do_insert(full)
    else:
        mapper._do_update(row_id, attrs)


def _advance_message_seq(max_seq: int) -> None:
    """Move the process-wide message sequence past every restored uid:
    a fresh process restarts the counter at 1, and a new publish whose
    ``app:seq`` uid collides with a restored one would be silently
    dedup-skipped by the subscriber."""
    if max_seq <= 0:
        return
    import repro.broker.message as message_mod

    with message_mod._seq_lock:
        current = next(message_mod._seq)
        message_mod._seq = itertools.count(max(current, max_seq + 1))
