"""The recovery stack one run wires over one testbed.

A heartbeat :class:`~repro.faults.detector.FailureDetector`, optionally a
:class:`~repro.faults.injector.FaultInjector` with the
:class:`~repro.faults.recovery.RecoveryManager` that heals what it breaks,
and optionally a :class:`~repro.control.controller.QoSController` acting on
the detector's trends — built in that order, started in one order and torn
down in one order, so a scenario replays the same events for the same
seed.
"""

from __future__ import annotations

from typing import Optional

from repro.control.controller import ControlPolicy, QoSController
from repro.faults.detector import FailureDetector
from repro.faults.injector import FaultInjector
from repro.faults.metrics import RecoveryMetrics
from repro.faults.model import FaultSchedule
from repro.faults.recovery import RecoveryManager, RecoveryPolicy
from repro.runtime.clock import Scheduler
from repro.runtime.degradation import DegradationLadder

#: Every storm's retry budget: four attempts backing off 1, 2, 4, 8 s.
STORM_POLICY = RecoveryPolicy(backoff_base_s=1.0)


class RecoveryStack:
    """Detector, optional injector + recovery manager, optional controller.

    ``testbed`` is anything with a ``server`` and a ``configurator``. With
    ``faults=None`` only the detector (and controller) run: a controlled
    run without a fault storm. ``control_policy`` builds the controller;
    ``None`` leaves it out. Every component counts into :attr:`metrics`.
    """

    def __init__(
        self,
        testbed,
        scheduler: Scheduler,
        heartbeat_interval_s: float = 2.0,
        suspicion_threshold: float = 3.0,
        ladder: Optional[DegradationLadder] = None,
        faults: Optional[FaultSchedule] = None,
        control_policy: Optional[ControlPolicy] = None,
    ) -> None:
        self.faults = faults
        self.metrics = RecoveryMetrics()
        self.policy = STORM_POLICY
        self.detector = FailureDetector(
            testbed.server,
            scheduler,
            heartbeat_interval_s=heartbeat_interval_s,
            suspicion_threshold=suspicion_threshold,
            metrics=self.metrics,
        )
        self.injector: Optional[FaultInjector] = None
        self.manager: Optional[RecoveryManager] = None
        if faults is not None:
            self.injector = FaultInjector(
                testbed.server, scheduler, metrics=self.metrics
            )
            self.manager = RecoveryManager(
                testbed.configurator,
                scheduler,
                ladder=ladder,
                policy=self.policy,
                metrics=self.metrics,
            )
        self.controller: Optional[QoSController] = None
        if control_policy is not None:
            self.controller = QoSController(
                scheduler,
                policy=control_policy,
                detector=self.detector,
                configurator=testbed.configurator,
                registry=self.metrics.registry,
            )
        # Room after the horizon for late detections and backed-off
        # recovery attempts to finish before the run is evaluated.
        self.drain_s = (
            (suspicion_threshold + 3.0) * heartbeat_interval_s
            + self.policy.max_backoff_s * self.policy.max_attempts
        )

    def start(self, horizon_s: float) -> None:
        """Monitor (and control) until ``horizon_s`` plus the drain; arm
        the fault schedule relative to now."""
        self.detector.start(horizon_s=horizon_s + self.drain_s)
        if self.controller is not None:
            self.controller.start(horizon_s=horizon_s + self.drain_s)
        if self.injector is not None:
            self.injector.arm(self.faults)

    def stop(self) -> None:
        """Stop monitoring and control, close recovery, cancel pending faults."""
        self.detector.stop()
        if self.controller is not None:
            self.controller.stop()
        if self.manager is not None:
            self.manager.close()
        if self.injector is not None:
            self.injector.disarm()
