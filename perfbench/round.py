"""One measured round of one workload, in a fresh interpreter.

``run.py`` starts this script once per round so that every round starts
from a clean heap (rounds run back to back inside one process get slower,
see NOTES.md). After set-up a round has two phases:

1. **paced** — an open loop at the workload's fixed rate with one worker
   per subscriber running. Each write is stamped with its *scheduled*
   send time; the subscribers' ``after_save`` hooks turn that into a
   propagation sample. The generator's lateness is recorded too.
2. **burst** — ``CYCLES`` times: the workers are stopped, the generator
   issues a slice of the burst closed-loop (each application write call
   timed), then a fresh ``WorkerFleet`` with one worker per subscriber
   drains the backlog to quiescence — the §4.4 subscriber catching up
   after downtime. Each slice and drain records its wall time and its
   process's CPU time.

Afterwards every subscriber is audited (Merkle digests + row counts
against the publisher). The round prints one JSON object on stdout.

Usage (from the repository root)::

    python3 perfbench/round.py --workload social_causal --seed 1 [--quick]
        [--traced DIR] [--probe-defect]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import random
import resource
import shutil
import sys
import time
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402
from tracer import SpanRecorder  # noqa: E402

#: Where durable_fanout's WAL lives (one directory per round process).
DATA_DIR = os.path.join(".perfbench", "data")
#: Upper bound on any wait for quiescence or for the other shard.
IDLE_TIMEOUT = 60.0
#: Cap for the known-defect probe's default-size pool drain.
PROBE_CAP_S = 8.0
#: The burst is issued in this many slices, each drained by a freshly
#: started fleet. Three workers draining one shared WAL either run
#: interleaved or fall into lock-step for a whole drain (about half the
#: speed, see NOTES.md); short drains redraw that state several times
#: per round instead of once.
CYCLES = 4


def _sizes(workload: str, quick: bool) -> Dict[str, int]:
    return (workloads.QUICK_SIZES if quick else workloads.SIZES)[workload]


def _plans(workload: str, seed: int, sizes: Dict[str, int]) -> tuple:
    rng = random.Random(f"{workload}:{seed}")
    plan = workloads.PLANS[workload]
    return plan(rng, sizes["paced"]), plan(rng, sizes["burst"])


def _slice_bounds(count: int) -> List[tuple]:
    size = -(-count // CYCLES)
    return [(i, min(i + size, count)) for i in range(0, count, size)]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _acked(eco: Any, services: List[Any]) -> int:
    return sum(eco.broker.queue_for(s.name).total_acked for s in services)


def _wait_idle(fleet: Any, what: str) -> None:
    if not fleet.wait_until_idle(timeout=IDLE_TIMEOUT):
        raise RuntimeError(f"{what}: subscribers not idle within "
                           f"{IDLE_TIMEOUT:.0f}s")


class Fleets:
    """Every fleet a round starts, for the give-up / apply-error counts."""

    def __init__(self, eco: Any) -> None:
        self.eco = eco
        self.started: List[Any] = []

    def start(self) -> Any:
        from repro.runtime.workers import WorkerFleet

        fleet = WorkerFleet(self.eco, workers=1).start()
        self.started.append(fleet)
        return fleet

    def counts(self) -> Dict[str, int]:
        pools = [p for f in self.started for p in f.pools]
        return {"give_ups": sum(p.deadlocked_messages for p in pools),
                "apply_errors": sum(p.apply_errors for p in pools)}


def paced_phase(writer: Any, plan: List[tuple], rate: float) -> Dict[str, Any]:
    """Open loop: write ``i`` is due at ``start + i / rate`` whatever
    happened to write ``i - 1``."""
    interval = 1.0 / rate
    lateness = []
    start = time.monotonic() + 0.005
    for i, op in enumerate(plan):
        due = start + i * interval
        now = time.monotonic()
        if now < due:
            time.sleep(due - now)
        lateness.append(time.monotonic() - due)
        after = writer(op, due)
        if after is not None:
            after()
    return {"start": start, "lateness": lateness}


def burst_phase(writer: Any, plan: List[tuple]) -> Dict[str, Any]:
    """Closed loop with no subscriber running; each application write
    call is timed on its own."""
    publish = []
    clock = time.perf_counter
    first, cpu_first = time.monotonic(), time.process_time()
    for op in plan:
        sent = time.monotonic()
        t0 = clock()
        after = writer(op, sent)
        publish.append(clock() - t0)
        if after is not None:
            after()
    return {"first": first, "written": time.monotonic(), "publish": publish,
            "burst_cpu": time.process_time() - cpu_first}


def burst_cycles(writer: Any, plan: List[tuple],
                 drain: Callable[[int], Dict[str, float]]) -> Dict[str, Any]:
    """Issue the burst in slices; ``drain(writes_so_far)`` drains each
    slice to quiescence and returns its ``quiet`` time, its ``acked``
    count and the CPU time it took (``drain_cpu``)."""
    cycles, publish, issued = [], [], 0
    for lo, hi in _slice_bounds(len(plan)):
        part = plan[lo:hi]
        burst = burst_phase(writer, part)
        issued += len(part)
        drained = drain(issued)
        publish.extend(burst["publish"])
        cycles.append({"writes": len(part), "first": burst["first"],
                       "written": burst["written"],
                       "burst_cpu": burst["burst_cpu"], **drained})
    return {"cycles": cycles, "publish": publish}


def audit(services: List[Any]) -> Dict[str, Any]:
    """Merkle audit + row counts of every subscriber against the
    publisher, and a digest of the replicas' contents that leaves out
    the timing field (so a traced and an untraced round of one seed
    must agree on it)."""
    from repro.repair import ReplicationAuditor

    divergent = missing = unaudited = 0
    digest = hashlib.sha256()
    for service in sorted(services, key=lambda s: s.name):
        report = ReplicationAuditor(service).audit()
        divergent += report.divergent_total
        # The auditor skips a model whose digest either side cannot give
        # (an unreachable publisher, say); that is a failed check here.
        unaudited += len(service.subscriber.specs) - len(report.models)
        for model in report.models:
            missing += abs(model.publisher_objects - model.subscriber_objects)
        for name in sorted(service.registry):
            model_cls = service.registry[name]
            fields = sorted(f for f in model_cls._fields if f != "sent")
            rows = sorted(
                json.dumps([obj.id] + [getattr(obj, f) for f in fields])
                for obj in model_cls.all()
            )
            digest.update(f"{service.name}/{name}:{len(rows)}\n".encode())
            digest.update("\n".join(rows).encode())
    return {"divergent": divergent, "missing": missing,
            "unaudited": unaudited, "digest": digest.hexdigest()}


# -- in-process workloads -----------------------------------------------------

def run_local(workload: str, seed: int, quick: bool,
              spans: Optional[SpanRecorder], data_dir: str) -> Dict[str, Any]:
    sizes = _sizes(workload, quick)
    paced_plan, burst_plan = _plans(workload, seed, sizes)
    # Set-up: build the ecosystem, seed its data, start the workers.
    setup_start = time.monotonic()
    if workload == "durable_fanout":
        topo = workloads.build_durable(data_dir)
    else:
        topo = workloads.build_social()
    eco = topo.ecosystem
    if spans is not None:
        _wrap_engines(spans, topo.publisher, topo.subscribers)
    if workload == "durable_fanout":
        writer = workloads.seed_durable(topo, sizes["hot"])
        seeded = sizes["hot"]
    else:
        writer = workloads.seed_social(topo, sizes["users"])
        seeded = sizes["users"]
    if spans is not None:
        # The application write call encloses every publisher-side layer.
        writer = spans.wrap(writer, "app.write")
    fleets = Fleets(eco)
    fleet = fleets.start()
    _wait_idle(fleet, "seed")
    setup_s = time.monotonic() - setup_start

    topo.probe.recording = True
    paced = paced_phase(writer, paced_plan, workloads.PACED_RATE[workload])
    _wait_idle(fleet, "paced")
    paced_end = time.monotonic()
    topo.probe.recording = False
    fleet.stop()

    def drain(_issued: int) -> Dict[str, float]:
        acked_before = _acked(eco, topo.subscribers)
        cpu_start = time.process_time()
        drain_fleet = fleets.start()
        _wait_idle(drain_fleet, "burst drain")
        quiet = time.monotonic()
        drain_cpu = time.process_time() - cpu_start
        drain_fleet.stop()
        return {"quiet": quiet, "drain_cpu": drain_cpu,
                "acked": _acked(eco, topo.subscribers) - acked_before}

    counters = _counters(topo) if spans is not None else {}
    burst = burst_cycles(writer, burst_plan, drain)
    cycles = burst["cycles"]

    result = {
        "setup_s": setup_s,
        "writes": seeded + len(paced_plan) + len(burst_plan),
        "subscribers": len(topo.subscribers),
        "propagation": topo.probe.samples,
        "lateness": paced["lateness"],
        "publish": burst["publish"],
        "cycles": cycles,
        **audit(topo.subscribers),
        **fleets.counts(),
    }
    if spans is not None:
        after = _counters(topo)
        spans.marks.update({
            "workers": len(fleet.pools),
            "paced": [[paced["start"], paced_end]],
            "burst": [[c["first"], c["written"]] for c in cycles],
            "drain": [[c["written"], c["quiet"]] for c in cycles],
            "batched": eco.flow is not None,
            **{name: after[name] - counters[name] for name in counters},
        })
    if topo.durability is not None:
        topo.durability.close()
    return result


def _wrap_engines(spans: SpanRecorder, publisher: Optional[Any],
                  subscribers: List[Any]) -> None:
    if publisher is not None:
        spans.wrap_engine(publisher.database, "databases.pub_engine")
    for service in subscribers:
        spans.wrap_engine(service.database, "databases.sub_engine")


def _counters(topo: workloads.Topology) -> Dict[str, int]:
    """Publisher engine scans, WAL bytes on disk and writes absorbed by
    flow-control coalescing (over all queues), read around the burst of
    a traced round."""
    wal_bytes = 0
    if topo.durability is not None:
        topo.durability.wal.sync()
        for root, _dirs, files in os.walk(topo.durability.wal.dir):
            wal_bytes += sum(os.path.getsize(os.path.join(root, f))
                             for f in files)
    flow = topo.ecosystem.metrics.snapshot("flow.")
    return {
        "pub_scans": topo.publisher.database.stats.scans,
        "wal_bytes": wal_bytes,
        "coalesced": sum(v for k, v in flow.items()
                         if k.endswith(".coalesced")),
    }


# -- cross_shard --------------------------------------------------------------

#: State shared with the two shard processes: created in the round
#: process right before the runner forks the shards, which inherit it.
#: ``barrier`` hands the phases over between the shards; ``expected``
#: is how many messages the remote subscriber must have applied.
_SYNC: Dict[str, Any] = {}
_ROUND: Dict[str, Any] = {}


def _cross_scenario(eco: Any, shard: str) -> Dict[str, Any]:
    topo = eco.perfbench_topology
    local = [s for s in topo.subscribers if eco.local_service(s.name)]
    spans = _ROUND.get("spans")
    if spans is not None:
        _wrap_engines(spans, topo.publisher if shard == "s0" else None, local)
    if shard == "s0":
        return _cross_generator(topo, local)
    return _cross_remote(topo, local)


def _wait_processed(service: Any, expected: int, what: str) -> None:
    deadline = time.monotonic() + IDLE_TIMEOUT
    while service.subscriber.processed_messages < expected:
        if time.monotonic() > deadline:
            raise RuntimeError(f"{what}: {service.name} applied "
                               f"{service.subscriber.processed_messages} of "
                               f"{expected}")
        time.sleep(0.0005)


def _cross_generator(topo: workloads.Topology,
                     local: List[Any]) -> Dict[str, Any]:
    sizes, seed, spans = _ROUND["sizes"], _ROUND["seed"], _ROUND.get("spans")
    barrier, expected = _SYNC["barrier"], _SYNC["expected"]
    paced_plan, burst_plan = _plans("cross_shard", seed, sizes)
    t0 = time.monotonic()
    writer = workloads.seed_social(topo, sizes["users"])
    if spans is not None:
        writer = spans.wrap(writer, "app.write")
    eco = topo.ecosystem
    fleets = Fleets(eco)
    fleet = fleets.start()
    _wait_idle(fleet, "seed")
    seed_s = time.monotonic() - t0

    topo.probe.recording = True
    paced = paced_phase(writer, paced_plan,
                        workloads.PACED_RATE["cross_shard"])
    before_burst = sizes["users"] + len(paced_plan)
    expected.value = before_burst
    barrier.wait()  # paced writes issued
    _wait_idle(fleet, "paced")
    paced_end = time.monotonic()
    topo.probe.recording = False
    fleet.stop()
    barrier.wait()  # both shards' workers stopped

    def drain(issued: int) -> Dict[str, float]:
        expected.value = before_burst + issued
        barrier.wait()  # slice issued: both shards drain
        acked_before = _acked(eco, local)
        cpu_start = time.process_time()
        drain_fleet = fleets.start()
        _wait_idle(drain_fleet, "burst drain")
        quiet = time.monotonic()
        drain_cpu = time.process_time() - cpu_start
        drain_fleet.stop()
        barrier.wait()  # both shards quiescent
        return {"quiet": quiet, "drain_cpu": drain_cpu,
                "acked": _acked(eco, local) - acked_before}

    burst = burst_cycles(writer, burst_plan, drain)
    cycles = burst["cycles"]
    if spans is not None:
        spans.marks.update({
            "workers": len(fleet.pools),
            "paced": [[paced["start"], paced_end]],
            "burst": [[c["first"], c["written"]] for c in cycles],
            "drain": [[c["written"], c["quiet"]] for c in cycles],
        })
    return {
        "seed_s": seed_s,
        "writes": before_burst + len(burst_plan),
        "propagation": topo.probe.samples,
        "lateness": paced["lateness"],
        "publish": burst["publish"],
        "cycles": cycles,
        **fleets.counts(),
    }


def _cross_remote(topo: workloads.Topology,
                  local: List[Any]) -> Dict[str, Any]:
    barrier, expected = _SYNC["barrier"], _SYNC["expected"]
    eco = topo.ecosystem
    (service,) = local
    fleets = Fleets(eco)
    fleet = fleets.start()
    topo.probe.recording = True
    paced_start = time.monotonic()
    barrier.wait()  # paced writes issued
    _wait_processed(service, expected.value, "paced")
    _wait_idle(fleet, "paced")
    paced = [[paced_start, time.monotonic()]]
    topo.probe.recording = False
    fleet.stop()
    barrier.wait()  # both shards' workers stopped

    cycles, windows = [], []
    for _ in _slice_bounds(_ROUND["sizes"]["burst"]):
        barrier.wait()  # slice issued
        acked_before = _acked(eco, local)
        start, cpu_start = time.monotonic(), time.process_time()
        drain_fleet = fleets.start()
        _wait_processed(service, expected.value, "burst drain")
        _wait_idle(drain_fleet, "burst drain")
        quiet = time.monotonic()
        drain_cpu = time.process_time() - cpu_start
        drain_fleet.stop()
        barrier.wait()  # both shards quiescent
        cycles.append({"quiet": quiet, "drain_cpu": drain_cpu,
                       "acked": _acked(eco, local) - acked_before})
        windows.append([start, quiet])
    spans = _ROUND.get("spans")
    if spans is not None:
        spans.marks.update({"workers": len(fleet.pools), "paced": paced,
                            "drain": windows})
    return {"propagation": topo.probe.samples, "cycles": cycles,
            **fleets.counts()}


def _cross_verify(eco: Any, shard: str) -> Dict[str, Any]:
    topo = eco.perfbench_topology
    result = audit([s for s in topo.subscribers if eco.local_service(s.name)])
    spans = _ROUND.get("spans")
    if spans is not None:
        path = os.path.join(_ROUND["trace_dir"], f"spans-{shard}.jsonl")
        spans.dump(path)
        result["span_file"] = path
    return result


def run_cross(seed: int, quick: bool, spans: Optional[SpanRecorder],
              trace_dir: Optional[str]) -> Dict[str, Any]:
    from repro.runtime.transport.shard import ShardRunner

    ctx = multiprocessing.get_context("fork")
    _SYNC.update(barrier=ctx.Barrier(2, timeout=IDLE_TIMEOUT),
                 expected=ctx.Value("l", 0))
    _ROUND.update(seed=seed, sizes=_sizes("cross_shard", quick),
                  spans=spans, trace_dir=trace_dir)
    runner = ShardRunner(workloads.build_cross, workloads.CROSS_PLACEMENT,
                         scenario=_cross_scenario, verify=_cross_verify,
                         timeout=120.0)
    try:
        # Set-up: spawn the shards (each builds its ecosystem), then the
        # generator's seeding and first workers, timed inside shard s0.
        spawn_start = time.monotonic()
        runner.start()
        spawn_s = time.monotonic() - spawn_start
        scenarios = runner.run_scenarios()
        verifies = runner.run_verify()
        runner.finish()
    finally:
        runner.close()
    gen, remote = scenarios["s0"], scenarios["s1"]
    cycles = [
        {**mine, "quiet": max(mine["quiet"], theirs["quiet"]),
         "drain_cpu": max(mine["drain_cpu"], theirs["drain_cpu"]),
         "acked": mine["acked"] + theirs["acked"]}
        for mine, theirs in zip(gen["cycles"], remote["cycles"])
    ]
    result = {
        "setup_s": spawn_s + gen["seed_s"],
        "writes": gen["writes"],
        "subscribers": 2,
        "propagation": gen["propagation"] + remote["propagation"],
        "lateness": gen["lateness"],
        "publish": gen["publish"],
        "cycles": cycles,
        "divergent": sum(v["divergent"] for v in verifies.values()),
        "missing": sum(v["missing"] for v in verifies.values()),
        "unaudited": sum(v["unaudited"] for v in verifies.values()),
        "digest": hashlib.sha256("".join(
            verifies[s]["digest"] for s in sorted(verifies)).encode()
        ).hexdigest(),
        "give_ups": gen["give_ups"] + remote["give_ups"],
        "apply_errors": gen["apply_errors"] + remote["apply_errors"],
    }
    if spans is not None:
        result["span_files"] = [verifies[s]["span_file"]
                                for s in sorted(verifies)]
    return result


# -- known-defect probe -------------------------------------------------------

def run_probe(seed: int, quick: bool) -> Dict[str, Any]:
    """Drain the social_causal burst backlog once with the worker pool's
    default size on the PostgresLike subscriber, under a time cap."""
    from repro.runtime.workers import SubscriberWorkerPool

    sizes = _sizes("social_causal", quick)
    _paced, burst_plan = _plans("social_causal", seed, sizes)
    topo = workloads.build_social()
    writer = workloads.seed_social(topo, sizes["users"])
    burst_phase(writer, burst_plan)
    pool = SubscriberWorkerPool(topo.subscribers[0])
    start = time.monotonic()
    pool.start()
    drained = pool.wait_until_idle(timeout=PROBE_CAP_S)
    elapsed = time.monotonic() - start
    pool.stop()
    return {"workers": pool.workers, "drained": drained, "drain_s": elapsed,
            "give_ups": pool.deadlocked_messages,
            "backlog": len(burst_plan) + sizes["users"]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--traced", metavar="DIR")
    parser.add_argument("--probe-defect", action="store_true")
    args = parser.parse_args(argv)

    if args.probe_defect:
        print(json.dumps(run_probe(args.seed, args.quick)))
        return 0
    spans = SpanRecorder().install() if args.traced else None
    data_dir = os.path.join(DATA_DIR, f"{args.workload}-{os.getpid()}")
    try:
        if args.workload == "cross_shard":
            result = run_cross(args.seed, args.quick, spans, args.traced)
        else:
            result = run_local(args.workload, args.seed, args.quick, spans,
                               data_dir)
            if spans is not None:
                path = os.path.join(args.traced, "spans-local.jsonl")
                spans.dump(path)
                result["span_files"] = [path]
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
