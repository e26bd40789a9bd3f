"""Flow-control tunables.

One frozen config object shared by admission control (watermarks,
credits), coalescing and the batched-apply path (``batch_max``, the
size every dispatch step pops up to). Defaults are chosen so
``FlowConfig()`` is safe everywhere: no throttle sleeps (deterministic
tests), credit capacity inherited from each queue's ``max_size``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class FlowConfig:
    """Tunables for the flow-control subsystem.

    Admission: credits refill to ``high_watermark x capacity`` whenever
    the queue drains below ``low_watermark x capacity``; once they are
    exhausted the queue is in the graduated zone between the high
    watermark and the §4.4 kill cliff, where weak-mode publishes are
    shed and stronger modes are admitted-but-throttled. ``capacity``
    overrides the per-queue ``max_size`` as the credit base; with both
    unset, admission is disabled (coalescing and batching still run).
    """

    high_watermark: float = 0.75
    low_watermark: float = 0.5
    capacity: Optional[int] = None
    shed_weak: bool = True
    #: Seconds the broker stalls a publish while a target queue is out
    #: of credits (scaled by how deep into the red zone it is). 0 keeps
    #: publishes non-blocking — the default for tests and conformance.
    throttle_delay: float = 0.0

    coalesce: bool = True
    #: How far back from the tail of the queue the causal/global safety
    #: scan will look for the coalesce candidate before giving up.
    coalesce_window: int = 32

    #: Messages one dispatch step pops and group-commits at most.
    batch_max: int = 16

    def __post_init__(self) -> None:
        if not 0.0 < self.low_watermark < self.high_watermark <= 1.0:
            raise ValueError(
                "need 0 < low_watermark < high_watermark <= 1, got "
                f"low={self.low_watermark} high={self.high_watermark}"
            )
        if self.capacity is not None and self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {self.batch_max}")
        if self.throttle_delay < 0:
            raise ValueError(f"throttle_delay must be >= 0, got {self.throttle_delay}")
