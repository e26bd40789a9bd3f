"""Span recording around the calls into each ``repro`` layer.

The benchmark traces the program from the outside: :func:`install`
replaces the public methods that form each layer's boundary with a
wrapper that records one span per call — layer name, start, end, the
enclosing span on the same thread (its parent), and a tag taken from
the call (a message uid, or how many messages a pop returned). The
program's code is not changed; an untraced round never calls
:func:`install`, so it runs the plain methods.

Spans are kept in memory and written out once, as JSON lines, when the
round ends (:meth:`SpanRecorder.dump`).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional


def _uid_of_message(args: tuple, result: Any) -> Optional[str]:
    message = args[1] if len(args) > 1 else None
    return getattr(message, "uid", None)


def _popped(args: tuple, result: Any) -> Optional[list]:
    """Dwell times of the messages a pop handed out (None when empty)."""
    if not result:
        return None
    messages = result if isinstance(result, list) else [result]
    return [m.dwell for m in messages]


def _processed(args: tuple, result: Any) -> list:
    """[messages attempted, messages applied]; process_message returns
    a bool, process_batch (done, retry, errors)."""
    if isinstance(result, tuple):
        return [len(args[1]), len(result[0])]
    return [1, int(bool(result))]


def _class_layers() -> List[tuple]:
    """(class, method names, layer name, tag extractor) for every layer
    boundary that is a class method. Imported lazily so that importing
    this module does not import the program."""
    from repro.broker.broker import Broker
    from repro.broker.queue import SubscriberQueue
    from repro.cdc.outbox import RawSession
    from repro.cdc.poller import CdcPoller
    from repro.core.publisher import SynapsePublisher
    from repro.core.subscriber import SynapseSubscriber
    from repro.durability.manager import DurabilityManager
    from repro.durability.wal import SegmentedWAL
    from repro.orm.model import Model
    from repro.runtime.transport.process import PeerLink
    from repro.versionstore.store import (
        PublisherVersionStore,
        SubscriberVersionStore,
    )

    log_methods = [name for name in vars(DurabilityManager)
                   if name.startswith("log_")]
    return [
        # The application's calls into the ORM; the publisher intercepts
        # the writes inside them.
        (Model, ["create", "find", "save"], "orm", None),
        (SynapsePublisher, ["write", "ingest_cdc"], "core.publisher", None),
        (PublisherVersionStore, ["register_operation"],
         "versionstore.register", lambda args, result: len(result or ())),
        (Broker, ["publish"], "broker.route", _uid_of_message),
        (Broker, ["deliver_remote"], "transport.deliver", None),
        (PeerLink, ["send_data"], "transport.forward", None),
        (SubscriberQueue, ["publish"], "broker.queue.enqueue",
         _uid_of_message),
        (SubscriberQueue, ["pop", "pop_many"], "broker.queue.pop", _popped),
        (SubscriberQueue, ["ack"], "broker.queue.ack", _uid_of_message),
        (SubscriberQueue, ["nack"], "broker.queue.nack", _uid_of_message),
        (SubscriberQueue, ["defer"], "broker.queue.defer", _uid_of_message),
        (RawSession, ["insert"], "cdc.outbox_write", None),
        (CdcPoller, ["poll"], "cdc.poll", lambda args, result: result),
        (DurabilityManager, log_methods, "durability.log", None),
        (SegmentedWAL, ["append"], "durability.wal.append", None),
        # The interval policy's group commit flushes (and fsyncs) from
        # inside append; ``sync`` is the explicit barrier. Both are the
        # WAL's sync layer.
        (SegmentedWAL, ["sync", "_flush_buffer_locked"],
         "durability.wal.sync", None),
        (SynapseSubscriber, ["process_message"], "core.subscriber.process",
         _processed),
        (SynapseSubscriber, ["process_batch"], "core.subscriber.process",
         _processed),
        (SubscriberVersionStore, ["satisfied", "wait_satisfied"],
         "versionstore.dep_check", None),
        (SubscriberVersionStore, ["apply_counts"],
         "versionstore.apply_counts", None),
    ]


class SpanRecorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self) -> None:
        #: Finished spans: [name, start, end, parent span, tag, thread].
        self.spans: List[list] = []
        self._local = threading.local()
        #: Extra per-process facts (phase windows, counters) that the
        #: round stores next to the spans.
        self.marks: Dict[str, Any] = {}

    def wrap(self, fn: Callable, name: str,
             tag_of: Optional[Callable[[tuple, Any], Any]] = None) -> Callable:
        spans = self.spans
        local = self._local
        clock = time.monotonic
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None,
                    get_ident()]
            stack.append(span)
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if tag_of is not None:
                    span[4] = tag_of(args, result)
                spans.append(span)

        return traced

    def install(self) -> "SpanRecorder":
        """Wrap every class-level layer boundary (process-wide)."""
        for owner, methods, name, tag_of in _class_layers():
            for method in methods:
                original = owner.__dict__[method]
                if isinstance(original, classmethod):
                    wrapped = classmethod(
                        self.wrap(original.__func__, name, tag_of))
                else:
                    wrapped = self.wrap(original, name, tag_of)
                setattr(owner, method, wrapped)
        return self

    def wrap_engine(self, database: Any, name: str) -> None:
        """Wrap one engine instance's public methods (instance-level, so
        the publisher's and the subscribers' engines get their own
        layer names even when they share a class)."""
        for attr in dir(type(database)):
            if attr.startswith("_"):
                continue
            member = getattr(type(database), attr, None)
            if callable(member) and not isinstance(member, type):
                setattr(database, attr,
                        self.wrap(getattr(database, attr), name))

    def dump(self, path: str) -> None:
        """Write spans as JSON lines: name, start, end, parent index,
        tag, thread. The first line holds the marks."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"marks": self.marks}) + "\n")
            for span in self.spans:
                parent = span[3]
                fh.write(json.dumps([
                    span[0], span[1], span[2],
                    index.get(id(parent)) if parent is not None else None,
                    span[4], span[5],
                ]) + "\n")


def load(path: str) -> tuple:
    """Read a dump back: (marks, spans) with parent as an index."""
    with open(path, encoding="utf-8") as fh:
        marks = json.loads(fh.readline())["marks"]
        spans = [json.loads(line) for line in fh]
    return marks, spans
