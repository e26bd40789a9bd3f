"""Durability cost: what does the WAL charge, and what does a snapshot buy?

Two questions, one benchmark:

- **Publish throughput by fsync policy.** The same create+drain workload
  runs with durability disabled, then WAL-enabled under each policy —
  ``off`` (write+flush, no fsync), ``interval`` (group commit) and
  ``always`` (fsync per record). The gap between ``none`` and ``off`` is
  the logging tax; the gap between ``off`` and ``always`` is the price
  of surviving a host crash rather than just a process crash. One
  sub-second run per side cannot resolve the tax, so ``none`` and
  ``off`` run as alternating pairs (order flipped every pair) and the
  tax is the median ratio, reported with its quartiles and every run.
- **Restore: snapshot+tail vs pure log replay.** For growing datasets,
  restore the same data dir twice — once replaying the full WAL from
  record one, once from a snapshot taken at the end of the run (so only
  the pinned-overlap tail replays). Snapshot restore must replay far
  fewer records; that, not wall time on an in-memory engine, is the
  honest metric, though both times are reported.

Results land in ``BENCH_durability.json`` at the repo root; set
``REPRO_BENCH_QUICK=1`` for the small workload.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import tempfile
import time
from typing import Any, Dict, Optional

from benchmarks.common import emit, environment, format_table

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
#: Creates per throughput variant.
OPERATIONS = 300 if QUICK else 2000
#: Alternating ``none``/``off`` pairs behind the logging-tax figure.
TAX_PAIRS = 3 if QUICK else 7
#: Dataset sizes for the restore comparison.
RESTORE_SIZES = [100, 400] if QUICK else [500, 2000, 8000]

_JSON_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "BENCH_durability.json")

#: ``None`` means durability disabled entirely (the baseline pipeline).
FSYNC_VARIANTS = [None, "off", "interval", "always"]


def build_pipeline(data_dir: Optional[str], fsync: Optional[str]):
    from repro.core import Ecosystem
    from repro.databases.document import MongoLike
    from repro.databases.relational import PostgresLike
    from repro.orm import Field, Model

    eco = Ecosystem()
    pub = eco.service("pub", database=MongoLike("pub-db"),
                      delivery_mode="causal")

    @pub.model(publish=["name", "score"], name="Doc")
    class Doc(Model):
        name = Field(str)
        score = Field(int, default=0)

    sub = eco.service("sub", database=PostgresLike("sub-db"))

    @sub.model(
        subscribe={"from": "pub", "fields": ["name", "score"],
                   "mode": "causal"},
        name="Doc",
    )
    class SubDoc(Model):
        name = Field(str)
        score = Field(int, default=0)

    manager = None
    if fsync is not None:
        manager = eco.enable_durability(data_dir=data_dir, fsync=fsync)
    return eco, pub, sub, manager, Doc


def run_workload(pub, sub, doc_cls, operations: int) -> None:
    with pub.controller():
        for i in range(operations):
            doc_cls.create(name=f"doc-{i}", score=i)
    sub.subscriber.drain()


def bench_throughput(fsync: Optional[str]) -> Dict[str, Any]:
    data_dir = tempfile.mkdtemp(prefix="repro-bench-dur-")
    try:
        eco, pub, sub, manager, Doc = build_pipeline(data_dir, fsync)
        started = time.perf_counter()
        run_workload(pub, sub, Doc, OPERATIONS)
        elapsed = time.perf_counter() - started
        appends = eco.metrics.value("durability.wal.appends")
        fsyncs = eco.metrics.value("durability.wal.fsyncs")
        if manager is not None:
            manager.close()
        return {
            "fsync": fsync or "none",
            "operations": OPERATIONS,
            "elapsed_s": elapsed,
            "ops_per_s": OPERATIONS / elapsed,
            "wal_appends": appends,
            "wal_fsyncs": fsyncs,
        }
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def bench_logging_tax() -> Dict[str, Any]:
    """``TAX_PAIRS`` alternating ``none``/``off`` runs; the tax of a
    pair is ``none`` ops/s over ``off`` ops/s."""
    runs = []
    ratios = []
    for pair in range(TAX_PAIRS):
        order = (None, "off") if pair % 2 == 0 else ("off", None)
        by_policy = {}
        for fsync in order:
            run = bench_throughput(fsync)
            by_policy[run["fsync"]] = run
            runs.append({"pair": pair, **run})
        ratios.append(by_policy["none"]["ops_per_s"]
                      / by_policy["off"]["ops_per_s"])
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"pairs": TAX_PAIRS, "median": median, "q1": q1, "q3": q3,
            "ratios": ratios, "runs": runs}


def _median_run(runs, fsync: str) -> Dict[str, Any]:
    """The run of ``fsync`` with the median ops/s (lower median)."""
    ranked = sorted((r for r in runs if r["fsync"] == fsync),
                    key=lambda r: r["ops_per_s"])
    run = dict(ranked[(len(ranked) - 1) // 2])
    run.pop("pair")
    return run


def _timed_restore(data_dir: str) -> Dict[str, Any]:
    eco, pub, sub, manager, _ = build_pipeline(data_dir, "off")
    started = time.perf_counter()
    report = manager.restore()
    elapsed = time.perf_counter() - started
    assert not report.unrecoverable
    manager.close()
    return {
        "elapsed_s": elapsed,
        "replayed": report.replayed,
        "snapshot_id": report.snapshot_id,
    }


def bench_restore(size: int) -> Dict[str, Any]:
    data_dir = tempfile.mkdtemp(prefix="repro-bench-dur-restore-")
    try:
        eco, pub, sub, manager, Doc = build_pipeline(data_dir, "off")
        run_workload(pub, sub, Doc, size)
        manager.wal.sync()

        # Pure log replay: copy the dir *before* any snapshot exists.
        replay_dir = tempfile.mkdtemp(prefix="repro-bench-dur-replay-")
        shutil.rmtree(replay_dir)
        shutil.copytree(data_dir, replay_dir)

        # Checkpointed restore: snapshot the live run, then restore it.
        manager.snapshot()
        manager.close()

        full = _timed_restore(replay_dir)
        snap = _timed_restore(data_dir)
        shutil.rmtree(replay_dir, ignore_errors=True)
        assert full.get("snapshot_id") is None
        assert snap["snapshot_id"] is not None
        assert snap["replayed"] < full["replayed"], (
            "snapshot restore should replay fewer records than full replay"
        )
        return {
            "dataset": size,
            "full_replayed": full["replayed"],
            "full_restore_s": full["elapsed_s"],
            "snapshot_replayed": snap["replayed"],
            "snapshot_restore_s": snap["elapsed_s"],
        }
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def test_durability_cost_profile():
    """WAL throughput tax bounded; snapshot restore replays O(1) records
    instead of the whole log."""
    tax_runs = bench_logging_tax()
    throughput = [
        _median_run(tax_runs["runs"], f or "none") if f in (None, "off")
        else bench_throughput(f)
        for f in FSYNC_VARIANTS
    ]
    restores = [bench_restore(size) for size in RESTORE_SIZES]

    by_policy = {t["fsync"]: t for t in throughput}
    assert by_policy["off"]["wal_appends"] > 0
    assert by_policy["always"]["wal_fsyncs"] >= OPERATIONS
    # interval group-commits: strictly fewer fsyncs than records.
    assert 0 < by_policy["interval"]["wal_fsyncs"] < (
        by_policy["interval"]["wal_appends"]
    )
    tax = tax_runs["median"]

    emit(format_table(
        f"Publish throughput by fsync policy ({OPERATIONS} creates"
        f"{', quick' if QUICK else ''}; none/off: median of "
        f"{TAX_PAIRS} runs)",
        ["fsync", "ops/s", "elapsed s", "wal appends", "fsyncs"],
        [[t["fsync"], f"{t['ops_per_s']:,.0f}", f"{t['elapsed_s']:.3f}",
          t["wal_appends"], t["wal_fsyncs"]] for t in throughput],
    ) + [f"logging tax (none vs off): median {tax:.2f}x, quartiles "
         f"{tax_runs['q1']:.2f}x-{tax_runs['q3']:.2f}x over "
         f"{TAX_PAIRS} alternating pairs"])

    emit(format_table(
        "Restore: snapshot+tail vs pure log replay",
        ["dataset", "full replayed", "full s", "snap replayed", "snap s"],
        [[r["dataset"], r["full_replayed"], f"{r['full_restore_s']:.3f}",
          r["snapshot_replayed"], f"{r['snapshot_restore_s']:.3f}"]
         for r in restores],
    ))

    with open(_JSON_PATH, "w", encoding="utf-8") as fh:
        json.dump({
            "benchmark": "durability",
            "quick": QUICK,
            **environment(),
            "operations": OPERATIONS,
            "throughput": throughput,
            "logging_tax_none_vs_off": tax,
            "logging_tax": tax_runs,
            "restore": restores,
        }, fh, indent=2)
        fh.write("\n")

    # Snapshot replay stays flat while full replay grows with the log.
    snap_counts = [r["snapshot_replayed"] for r in restores]
    full_counts = [r["full_replayed"] for r in restores]
    assert full_counts == sorted(full_counts) and full_counts[-1] > (
        full_counts[0]
    )
    assert max(snap_counts) <= 2, (
        f"snapshot restore replayed a real tail: {snap_counts}"
    )


if __name__ == "__main__":  # pragma: no cover - CI smoke entry point
    test_durability_cost_profile()
    print(f"wrote {_JSON_PATH}")
