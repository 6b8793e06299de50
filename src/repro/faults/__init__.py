"""Fault injection and self-healing (see ``docs/robustness.md``).

``repro.faults.models`` provides composable transport fault models
(message loss, per-link loss, partitions with scheduled heal, slow
links); ``repro.faults.healing`` provides the bounded retry/repair
policy the protocols apply against them.  Attach both to a protocol with
:meth:`repro.core.protocol.OverlayProtocolBase.attach_faults`; with no
model attached every fault hook is skipped entirely (zero-cost-off, like
``obs.NULL``).

``repro.faults.detector`` provides SWIM-style failure detection
(probe / indirect probe / suspicion / incarnation-refutation) as an
alternative liveness source; attach with ``attach_detector`` — same
zero-cost-off contract.
"""

from repro.faults.detector import DetectorConfig, SwimDetector
from repro.faults.healing import HealingPolicy
from repro.faults.kill import crash_nodes
from repro.faults.models import (
    CompositeFault,
    FaultModel,
    LinkLoss,
    MessageLoss,
    Partition,
    SlowLinks,
)

__all__ = [
    "FaultModel",
    "MessageLoss",
    "LinkLoss",
    "Partition",
    "SlowLinks",
    "CompositeFault",
    "DetectorConfig",
    "SwimDetector",
    "HealingPolicy",
    "crash_nodes",
]
