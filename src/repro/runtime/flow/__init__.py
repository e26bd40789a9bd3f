"""Flow control for the publish→route→apply pipeline.

Three cooperating pieces, enabled together via
``Ecosystem.enable_flow``:

- :mod:`repro.runtime.flow.admission` — credit-based graduated
  backpressure in front of the §4.4 kill cliff (shed weak publishes,
  throttle stronger modes, kill only as the last resort);
- :mod:`repro.runtime.flow.coalesce` — semantics-aware collapsing of
  consecutive queued writes to the same object;
- batched apply — every dispatch step pops up to
  ``FlowConfig.batch_max`` messages (``Dispatcher.batch_max``) and
  group-commits them through ``SynapseSubscriber.process_batch``.

See ``docs/flow_control.md`` for the full design.
"""

from repro.runtime.flow.admission import (
    ADMIT,
    SHED,
    STATE_OPEN,
    STATE_SHEDDING,
    STATE_THROTTLED,
    FlowController,
    QueueFlow,
)
from repro.runtime.flow.coalesce import (
    coalesce_key,
    counter_increments,
    merge_into,
    raised_waits,
    union_conflicts,
)
from repro.runtime.flow.config import FlowConfig

__all__ = [
    "ADMIT",
    "SHED",
    "STATE_OPEN",
    "STATE_SHEDDING",
    "STATE_THROTTLED",
    "FlowConfig",
    "FlowController",
    "QueueFlow",
    "coalesce_key",
    "counter_increments",
    "merge_into",
    "raised_waits",
    "union_conflicts",
]
