"""Deterministic delivery-semantics conformance harness.

Three pieces (see ``docs/observability.md`` for the operator view):

- :mod:`~repro.runtime.conformance.scheduler` — a seeded, replayable
  interleaving scheduler driving virtual workers over the *real*
  queue/subscriber/version-store code, switching threads only at
  explicit yield points (no wall-clock sleeps anywhere).
- :mod:`~repro.runtime.conformance.checker` — an event-driven checker
  asserting the §3.2 delivery invariants (causal dependency order,
  global total order, weak fresh-or-discard, counter monotonicity,
  generation-flush safety, at-least-once + dedup).
- :mod:`~repro.runtime.conformance.harness` — seeded schedules over a
  fresh two-service ecosystem, plus the sweep matrix the CI smoke step
  runs (``python -m repro conformance --seeds N``).
"""

from repro.runtime.conformance.checker import (
    INV_ALO,
    INV_CAUSAL,
    INV_DEDUP,
    INV_FLOW,
    INV_GATE,
    INV_GLOBAL,
    INV_IDLE,
    INV_LEAK,
    INV_MONOTONE,
    INV_PARK,
    INV_POP,
    INV_VIEW,
    INV_WEAK,
    INV_WORKER,
    DeliveryChecker,
    Violation,
)
from repro.runtime.conformance.harness import (
    INV_QUIESCENCE,
    ConformanceHarness,
    ScheduleConfig,
    ScheduleResult,
    default_matrix,
    replay_twice,
    run_schedule,
    sweep,
)
from repro.runtime.conformance.scheduler import (
    InterleavingScheduler,
    SchedulerStuck,
)

__all__ = [
    "ConformanceHarness",
    "DeliveryChecker",
    "InterleavingScheduler",
    "ScheduleConfig",
    "ScheduleResult",
    "SchedulerStuck",
    "Violation",
    "default_matrix",
    "replay_twice",
    "run_schedule",
    "sweep",
    "INV_ALO",
    "INV_CAUSAL",
    "INV_DEDUP",
    "INV_FLOW",
    "INV_GATE",
    "INV_GLOBAL",
    "INV_IDLE",
    "INV_LEAK",
    "INV_MONOTONE",
    "INV_PARK",
    "INV_POP",
    "INV_QUIESCENCE",
    "INV_VIEW",
    "INV_WEAK",
    "INV_WORKER",
]
