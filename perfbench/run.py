"""Pipeline benchmark: publish -> route -> apply, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload social_causal --seed 1 \\
        --seconds 36 --trace 0

``--trace 0`` runs measured rounds, each in a fresh interpreter, until
``--seconds`` have passed and prints the end-to-end metrics (each the
median of its per-round values).
``--trace 1`` runs one untraced and one traced round of the same seed
and prints the per-layer metrics taken from the traced round's spans.
Every round audits every replica against its publisher; the last line
of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it holds the run's metadata (commit, Python version,
core count, seed, quick flag). The exit code is 1 when a check failed
(a divergent, missing or unaudited replica, a give-up or an apply
error), after the result is printed. See NOTES.md for the workloads, the
metrics and why they were chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROUND = os.path.join(HERE, "round.py")
WORKLOADS = ("social_causal", "durable_fanout", "cross_shard")
#: A round that takes longer than this has hung.
ROUND_TIMEOUT = 120.0
#: Untraced runs always measure at least this many rounds.
MIN_ROUNDS = 3


def _declared() -> tuple:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


END_TO_END, PER_LAYER = _declared()


class RoundFailed(RuntimeError):
    pass


def run_round(workload: str, seed: int, quick: bool,
              extra: tuple = ()) -> Dict[str, Any]:
    """One round in a fresh interpreter; returns its JSON result."""
    cmd = [sys.executable, ROUND, "--workload", workload, "--seed", str(seed)]
    if quick:
        cmd.append("--quick")
    cmd.extend(extra)
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=ROUND_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"round timed out after {ROUND_TIMEOUT:.0f}s") \
            from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise RoundFailed(f"round exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]


def failures(result: Dict[str, Any]) -> int:
    return (result["divergent"] + result["missing"] + result["unaudited"]
            + result["give_ups"] + result["apply_errors"])


def round_values(r: Dict[str, Any]) -> Dict[str, float]:
    """One round's end-to-end values. Throughput and drain rate divide by
    the CPU time of the critical path (generator during the burst, the
    slowest draining process during the drain), which on a quiet host is
    within a few percent of the wall time and, unlike it, leaves out the
    time a shared host's hypervisor runs other guests (NOTES.md). The
    wall-time rates are kept beside them in the run's metadata."""
    cycles = r["cycles"]
    writes = sum(c["writes"] for c in cycles)
    acked = sum(c["acked"] for c in cycles)
    return {
        "throughput_writes_s": writes
        / sum(c["burst_cpu"] + c["drain_cpu"] for c in cycles),
        "drain_msgs_s": acked / sum(c["drain_cpu"] for c in cycles),
        "throughput_wall_writes_s": writes
        / sum(c["quiet"] - c["first"] for c in cycles),
        "drain_wall_msgs_s": acked
        / sum(c["quiet"] - c["written"] for c in cycles),
        "publish_us_p50": statistics.median(r["publish"]) * 1e6,
        "propagation_ms_p50": statistics.median(r["propagation"]) * 1e3,
        "setup_s": r["setup_s"],
        "peak_rss_mb": r["peak_rss_mb"],
    }


def end_to_end(rounds: List[Dict[str, Any]]) -> Dict[str, float]:
    """Each metric's median over the rounds."""
    per_round = [round_values(r) for r in rounds]
    return {name: statistics.median(v[name] for v in per_round)
            for name in END_TO_END}


def measure(workload: str, seed: int, seconds: float,
            quick: bool) -> Dict[str, Any]:
    rounds = []
    start = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < seconds:
        rounds.append(run_round(workload, seed * 1000 + len(rounds), quick))
    attempted = sum(r["writes"] * r["subscribers"] for r in rounds)
    failed = sum(failures(r) for r in rounds)
    values = end_to_end(rounds)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in END_TO_END.items()},
        "rounds": [{k: round(v, 4) for k, v in round_values(r).items()}
                   for r in rounds],
    }


def trace(workload: str, seed: int, quick: bool) -> Dict[str, Any]:
    from layers import layer_metrics

    round_seed = seed * 1000
    trace_dir = os.path.join(".perfbench", "trace", f"{workload}-{seed}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    plain = run_round(workload, round_seed, quick)
    traced = run_round(workload, round_seed, quick, ("--traced", trace_dir))
    values = layer_metrics(traced["span_files"], traced, plain)

    propagation = plain["propagation"]
    publish = plain["publish"]
    lateness = plain["lateness"]
    values.update({
        "propagation_ms_p99": percentile(propagation, 99) * 1e3,
        "propagation_samples": float(len(propagation)),
        "publish_us_p99": percentile(publish, 99) * 1e6,
        "publish_samples": float(len(publish)),
        "generator.lateness_ms_p50": statistics.median(lateness) * 1e3,
        "generator.lateness_ms_p99": percentile(lateness, 99) * 1e3,
        "runtime.workers.default_pool_drain_s": 0.0,
        "runtime.workers.default_pool_give_ups": 0.0,
    })
    if workload == "social_causal":
        # Known-defect probe (reported, not gated): the default-size
        # worker pool draining the same backlog on a causal subscriber.
        probe = run_round(workload, round_seed, quick, ("--probe-defect",))
        values["runtime.workers.default_pool_drain_s"] = probe["drain_s"]
        values["runtime.workers.default_pool_give_ups"] = float(
            probe["give_ups"])
    attempted = sum(r["writes"] * r["subscribers"] for r in (plain, traced))
    failed = failures(plain) + failures(traced)
    values["error_rate"] = failed / attempted
    same_replicas = plain["digest"] == traced["digest"]
    return {
        "correct": failed == 0 and same_replicas,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in PER_LAYER.items()},
        "same_replicas": same_replicas,
        "trace_dir": trace_dir,
    }


def commit() -> Optional[str]:
    """The checked-out commit when the tree is a git work tree (read
    from ``.git`` directly: no search outside the tree)."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository "
              "root", file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = trace(args.workload, args.seed, args.quick)
        else:
            result = measure(args.workload, args.seed, args.seconds,
                             args.quick)
    except RoundFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "quick": args.quick,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **{k: result.pop(k) for k in list(result)
           if k not in ("correct", "attempted", "failed", "metrics")},
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
