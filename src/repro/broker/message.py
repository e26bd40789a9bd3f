"""The write-message envelope (Fig 6b).

A message carries every write of one publisher operation (or one
transaction), its dependency map, a timestamp and the publisher's
generation number. The payload is JSON-serialisable end to end — we
round-trip through ``json`` to guarantee nothing non-serialisable leaks
across the service boundary.
"""

from __future__ import annotations

import itertools
import json
import threading
from typing import Any, Dict, List, Optional

from repro.errors import BrokerError
from repro.runtime.tracing import Trace

#: Data-plane wire-format schema version. Bump when a field changes
#: meaning; receivers refuse payloads from a *newer* schema instead of
#: silently misreading them. v2: the optional ``trace`` dict may carry
#: per-span ``shard`` tags and a trace ``origin`` (cross-shard tracing);
#: v3: the optional ``cdc`` int tags messages ingested from a
#: transactional outbox with their outbox sequence number. v1/v2
#: payloads — which simply omit the optional fields — are still
#: accepted.
WIRE_VERSION = 3

_seq = itertools.count(1)
_seq_lock = threading.Lock()


class Message:
    """One published write message."""

    def __init__(
        self,
        app: str,
        operations: List[Dict[str, Any]],
        dependencies: Dict[str, int],
        published_at: float,
        generation: int = 1,
        bootstrap: bool = False,
        repair: bool = False,
        external_dependencies: Optional[Dict[str, int]] = None,
        uid: Optional[str] = None,
        trace: Optional[Trace] = None,
        coalesced_uids: Optional[List[str]] = None,
        increments: Optional[Dict[str, int]] = None,
        cdc: Optional[int] = None,
    ) -> None:
        with _seq_lock:
            self.seq = next(_seq)  # broker-side FIFO tiebreaker
        #: Stable identity across redeliveries and wire copies, so
        #: subscribers can deduplicate at-least-once deliveries.
        self.uid = uid if uid is not None else f"{app}:{self.seq}"
        self.app = app
        self.operations = operations
        self.dependencies = dependencies
        #: Cross-application dependencies: waited on, never incremented (§4.2).
        self.external_dependencies = dict(external_dependencies or {})
        self.published_at = published_at
        self.generation = generation
        #: Marks messages produced by the bulk phase of a bootstrap (§4.4).
        self.bootstrap = bootstrap
        #: Marks anti-entropy repair messages: applied with weak
        #: fresh-or-discard semantics, and the per-object dependency
        #: counters are fast-forwarded to the carried versions so a
        #: counter deficit from lost messages heals without a bootstrap.
        self.repair = repair
        #: End-to-end trace context; None unless the ecosystem tracer is
        #: enabled. Serialised with the payload so it survives the wire
        #: round trip of :meth:`copy`.
        self.trace = trace
        #: Uids of messages this one absorbed via flow-control
        #: coalescing; their at-least-once obligation is discharged
        #: when this message finishes.
        self.coalesced_uids: List[str] = list(coalesced_uids or [])
        #: Per-dependency counter bumps on apply. ``None`` means the
        #: plain §4.2 rule (one per write dependency); coalesced
        #: messages carry the summed increments of their constituents.
        self.increments: Optional[Dict[str, int]] = (
            dict(increments) if increments else None
        )
        #: Outbox sequence number when this message was ingested by the
        #: CDC poller from a transactional outbox (``None`` for ORM
        #: writes). CDC messages are exempt from weak-mode shedding:
        #: once the poller's cursor passes an entry, a shed would lose
        #: it until the next anti-entropy repair.
        self.cdc: Optional[int] = cdc
        self.delivery_count = 0
        #: Queue-local dwell bookkeeping (set by ``SubscriberQueue``):
        #: runtime state of one queue's copy, never serialised.
        self.enqueued_at: Optional[float] = None
        self.dwell: Optional[float] = None
        #: Dispatch bookkeeping (set by the subscriber's dispatch step):
        #: first delivery on the step's give-up clock, and when the
        #: message first parked on an unmet dependency.
        self.first_delivered: Optional[float] = None
        self.parked_at: Optional[float] = None

    def to_json(self) -> str:
        payload = {
            "wire_version": WIRE_VERSION,
            "uid": self.uid,
            "app": self.app,
            "operations": self.operations,
            "dependencies": self.dependencies,
            "external_dependencies": self.external_dependencies,
            "published_at": self.published_at,
            "generation": self.generation,
            "bootstrap": self.bootstrap,
            "repair": self.repair,
        }
        if self.coalesced_uids:
            payload["coalesced_uids"] = self.coalesced_uids
        if self.increments:
            payload["increments"] = self.increments
        if self.cdc is not None:
            payload["cdc"] = self.cdc
        if self.trace is not None:
            payload["trace"] = self.trace.to_dict()
        return json.dumps(payload)

    @classmethod
    def from_json(cls, payload: str) -> "Message":
        data = json.loads(payload)
        version = data.get("wire_version", 1)
        if version > WIRE_VERSION:
            raise BrokerError(
                f"message wire_version {version} is newer than supported "
                f"{WIRE_VERSION}; upgrade this subscriber before the publisher"
            )
        return cls(
            app=data["app"],
            operations=data["operations"],
            dependencies=data["dependencies"],
            published_at=data["published_at"],
            generation=data.get("generation", 1),
            bootstrap=data.get("bootstrap", False),
            repair=data.get("repair", False),
            external_dependencies=data.get("external_dependencies"),
            uid=data.get("uid"),
            trace=Trace.from_dict(data["trace"]) if data.get("trace") else None,
            coalesced_uids=data.get("coalesced_uids"),
            increments=data.get("increments"),
            cdc=data.get("cdc"),
        )

    def counter_increments(self) -> Dict[str, int]:
        """Per-dependency counter bumps on apply: the plain §4.2 rule
        (one per write dependency) unless coalescing summed them."""
        if self.increments is not None:
            return self.increments
        return {dep: 1 for dep in self.dependencies}

    def copy(self) -> "Message":
        """Wire-format round trip: what each subscriber queue stores."""
        return Message.from_json(self.to_json())

    def __repr__(self) -> str:
        ops = [(op["operation"], op.get("id")) for op in self.operations]
        return f"<Message app={self.app} ops={ops} deps={self.dependencies}>"
