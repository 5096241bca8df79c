"""Fault injection and self-healing recovery.

The subsystem closes the loop the paper leaves implicit: devices fail
*silently*, a heartbeat-based detector earns the verdict, and a recovery
manager re-runs the two-tier configuration (with graceful QoS degradation
and a bounded retry budget) to keep sessions alive — or tears them down
with a structured failure report when it cannot.

Everything runs on a :class:`~repro.runtime.clock.Scheduler`
abstraction, so the same code is deterministic under the simulation kernel
and live under wall-clock threads.
"""

from repro.faults.detector import FailureDetector
from repro.faults.injector import FaultInjector
from repro.faults.metrics import RecoveryMetrics
from repro.faults.model import (
    FaultKind,
    FaultSchedule,
    FaultSpec,
    random_fault_schedule,
)
from repro.faults.recovery import RecoveryManager, RecoveryPolicy, RecoveryReport

__all__ = [
    "FailureDetector",
    "FaultInjector",
    "FaultKind",
    "FaultSchedule",
    "FaultSpec",
    "RecoveryManager",
    "RecoveryMetrics",
    "RecoveryPolicy",
    "RecoveryReport",
    "random_fault_schedule",
]
