"""Per-layer metrics from the spans of one traced round.

Publisher-side numbers are per write of the burst phase (the phase
``publish_us_p50`` and ``throughput_writes_s`` come from); subscriber-side
numbers are per message applied while the burst backlog drained (the
phase ``drain_msgs_s`` comes from); queue dwell is taken in the paced
phase (where ``propagation_ms_p50`` comes from). "Self" time is a span's
duration minus the time its child spans cover. A layer's time counts
only its outermost spans, so an engine method that calls another public
method of the same engine is not counted twice.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, List

from tracer import load

NAME, START, END, PARENT, TAG, THREAD = range(6)

#: Worker-thread spans that count as busy time (pops count only when
#: they handed out a message).
WORKER_BUSY = {"broker.queue.pop", "core.subscriber.process",
               "broker.queue.ack", "broker.queue.nack", "broker.queue.defer"}


class Process:
    """Spans of one process (the round process or one shard)."""

    def __init__(self, path: str) -> None:
        self.marks, self.spans = load(path)
        self.child_time: Dict[int, float] = defaultdict(float)
        self.by_name: Dict[str, List[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            self.by_name[span[NAME]].append(i)
            if span[PARENT] is not None:
                self.child_time[span[PARENT]] += span[END] - span[START]

    def select(self, name: str, windows: List[List[float]]) -> List[int]:
        """Outermost spans of layer ``name`` starting inside any window."""
        spans = self.spans
        out = []
        for i in self.by_name.get(name, ()):
            span = spans[i]
            parent = span[PARENT]
            if _inside(span[START], windows) and (
                    parent is None or spans[parent][NAME] != name):
                out.append(i)
        return out

    def total(self, name: str, windows: List[List[float]]) -> float:
        return sum(self.spans[i][END] - self.spans[i][START]
                   for i in self.select(name, windows))

    def self_total(self, name: str, windows: List[List[float]]) -> float:
        return sum(self.spans[i][END] - self.spans[i][START]
                   - self.child_time.get(i, 0.0)
                   for i in self.select(name, windows))

    def tags(self, name: str, windows: List[List[float]]) -> List[Any]:
        return [self.spans[i][TAG] for i in self.select(name, windows)]


def _inside(t: float, windows: List[List[float]]) -> bool:
    return any(lo <= t <= hi for lo, hi in windows)


def _length(windows: List[List[float]]) -> float:
    return sum(hi - lo for lo, hi in windows)


def _per(value: float, count: float) -> float:
    return value / count if count else 0.0


def _us(seconds: float) -> float:
    return seconds * 1e6


def layer_metrics(span_files: List[str], round_result: Dict[str, Any],
                  untraced: Dict[str, Any]) -> Dict[str, float]:
    procs = [Process(path) for path in span_files]
    # The generator's process is the one whose marks carry the burst.
    gen = next(p for p in procs if "burst" in p.marks)
    burst = gen.marks["burst"]
    cycles = round_result["cycles"]
    whole = [[c["first"], c["quiet"]] for c in cycles]
    writes = sum(c["writes"] for c in cycles)

    m: Dict[str, float] = {}
    m["orm.self_us"] = _us(_per(gen.self_total("orm", burst), writes))
    m["core.publisher.self_us"] = _us(_per(
        gen.self_total("core.publisher", burst), writes))
    m["versionstore.register_us"] = _us(_per(
        gen.total("versionstore.register", burst), writes))
    m["versionstore.deps_per_write"] = _per(
        sum(gen.tags("versionstore.register", burst)), writes)
    m["databases.pub_engine_us"] = _us(_per(
        gen.total("databases.pub_engine", burst), writes))
    m["databases.pub_scans_per_write"] = _per(gen.marks.get("pub_scans", 0),
                                              writes)
    m["broker.route_us"] = _us(_per(gen.self_total("broker.route", burst),
                                    writes))
    m["broker.queue.enqueue_us"] = _us(_per(
        sum(p.total("broker.queue.enqueue", burst) for p in procs), writes))
    m["cdc.outbox_write_us"] = _us(_per(gen.total("cdc.outbox_write", burst),
                                        writes))
    polled = sum(t or 0 for t in gen.tags("cdc.poll", burst))
    m["cdc.poll_us_per_entry"] = _us(_per(gen.total("cdc.poll", burst), polled))
    m["durability.log_us_per_write"] = _us(_per(
        gen.total("durability.log", whole), writes))
    appends = len(gen.select("durability.wal.append", whole))
    m["durability.wal.append_us"] = _us(_per(
        gen.total("durability.wal.append", whole), appends))
    m["durability.wal.appends_per_write"] = _per(appends, writes)
    m["durability.wal.bytes_per_write"] = _per(gen.marks.get("wal_bytes", 0),
                                               writes)
    syncs = len(gen.select("durability.wal.sync", whole))
    m["durability.wal.sync_us"] = _us(_per(
        gen.total("durability.wal.sync", whole), syncs))
    m["durability.wal.syncs"] = float(syncs)
    forwards = sum(len(p.select("transport.forward", whole)) for p in procs)
    m["transport.forward_us"] = _us(_per(
        sum(p.total("transport.forward", whole) for p in procs), forwards))
    delivers = sum(len(p.select("transport.deliver", whole)) for p in procs)
    m["transport.deliver_us"] = _us(_per(
        sum(p.total("transport.deliver", whole) for p in procs), delivers))

    # Subscriber side: every process's own drain window.
    applied = attempted = pops = busy = worker_wall = 0.0
    totals: Dict[str, float] = defaultdict(float)
    for p in procs:
        drain = p.marks["drain"]
        for tag in p.tags("core.subscriber.process", drain):
            attempted += tag[0]
            applied += tag[1]
        pop_tags = [t for t in p.tags("broker.queue.pop", drain) if t]
        pops += sum(len(t) for t in pop_tags)
        for name in ("broker.queue.ack", "versionstore.dep_check",
                     "versionstore.apply_counts", "databases.sub_engine",
                     "core.subscriber.process"):
            totals[name] += p.total(name, drain)
        totals["pop"] += sum(p.spans[i][END] - p.spans[i][START]
                             for i in p.select("broker.queue.pop", drain)
                             if p.spans[i][TAG])
        totals["process.self"] += p.self_total("core.subscriber.process",
                                               drain)
        totals["defers"] += len(p.select("broker.queue.defer", drain))
        totals["nacks"] += len(p.select("broker.queue.nack", drain))
        totals["batches"] += len(p.select("core.subscriber.process", drain))
        busy += _worker_busy(p, drain)
        worker_wall += p.marks["workers"] * _length(drain)
    m["broker.queue.pop_us"] = _us(_per(totals["pop"], applied))
    m["broker.queue.ack_us"] = _us(_per(totals["broker.queue.ack"], applied))
    m["broker.queue.deliveries_per_apply"] = _per(pops, applied)
    m["broker.queue.defers"] = totals["defers"]
    m["broker.queue.nacks"] = totals["nacks"]
    dwell = [d for p in procs if "paced" in p.marks
             for tag in p.tags("broker.queue.pop", p.marks["paced"]) if tag
             for d in tag if d is not None]
    m["broker.queue.dwell_ms_p50"] = (statistics.median(dwell) * 1e3
                                      if dwell else 0.0)
    m["core.subscriber.process_us"] = _us(_per(
        totals["core.subscriber.process"], applied))
    m["core.subscriber.self_us"] = _us(_per(totals["process.self"], applied))
    m["core.subscriber.applied_ratio"] = _per(applied, attempted)
    m["versionstore.dep_check_us"] = _us(_per(
        totals["versionstore.dep_check"], applied))
    m["versionstore.apply_counts_us"] = _us(_per(
        totals["versionstore.apply_counts"], applied))
    m["databases.sub_engine_us"] = _us(_per(totals["databases.sub_engine"],
                                            applied))
    m["runtime.workers.busy_frac"] = _per(busy, worker_wall)
    m["runtime.workers.give_ups"] = float(round_result["give_ups"])
    m["runtime.workers.apply_errors"] = float(round_result["apply_errors"])
    enqueued = sum(len(p.select("broker.queue.enqueue", burst)) for p in procs)
    m["runtime.flow.coalesced_frac"] = _per(gen.marks.get("coalesced", 0),
                                            enqueued)
    batched = totals["batches"] if gen.marks.get("batched") else 0
    m["runtime.flow.batch_size_mean"] = _per(attempted, batched)

    # Coverage: the share of the burst's wall time that the generator
    # thread spent inside program-layer spans: the outermost ones under
    # the benchmark's own application-write wrapper (``app.write``, not
    # counted), and the CDC tail that follows a raw insert. The rest is
    # the generator loop and the controller scope around each write.
    app = set(gen.by_name.get("app.write", ()))
    generator = {gen.spans[i][THREAD] for i in app}
    covered = sum(s[END] - s[START] for s in gen.spans
                  if s[NAME] != "app.write" and s[THREAD] in generator
                  and (s[PARENT] is None or s[PARENT] in app)
                  and _inside(s[START], burst))
    m["trace.coverage"] = _per(covered, _length(burst))
    m["trace.overhead_frac"] = _per(_burst_time(round_result),
                                    _burst_time(untraced)) - 1.0
    return m


def _burst_time(round_result: Dict[str, Any]) -> float:
    """Burst-to-quiescence time on the base ``throughput_writes_s`` uses:
    CPU time of the critical path (see NOTES.md)."""
    return sum(c["burst_cpu"] + c["drain_cpu"]
               for c in round_result["cycles"])


def _worker_busy(p: Process, windows: List[List[float]]) -> float:
    """Top-level busy span time on the threads that applied messages."""
    workers = {p.spans[i][THREAD]
               for i in p.select("core.subscriber.process", windows)}
    busy = 0.0
    for span in p.spans:
        if (span[PARENT] is None and span[THREAD] in workers
                and span[NAME] in WORKER_BUSY and _inside(span[START], windows)
                and (span[NAME] != "broker.queue.pop" or span[TAG])):
            busy += span[END] - span[START]
    return busy
