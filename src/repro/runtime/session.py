"""Application sessions: lifecycle, device switches, redistribution.

A session owns one running application: its current service graph, device
assignment, deployment, and the runtime state of its stateful components.
Lifecycle transitions mirror the prototype experiments:

- :meth:`start` — the initial configuration (Figure 3/4 events 1 and 4);
- :meth:`switch_device` — user handoff between heterogeneous devices with
  state handoff (events 2 and 3);
- :meth:`redistribute` — new k-cut after resource fluctuation or device
  crash ("the service distributor needs to calculate new service
  distributions for the changed resource availability");
- :meth:`stop` — release all held resources.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.composition.composer import CompositionRequest, CompositionResult
from repro.distribution.distributor import DistributionResult
from repro.events.types import Topics
from repro.graph.service_graph import ServiceGraph
from repro.mobility.checkpoint import ComponentState
from repro.mobility.migration import HandoffReport
from repro.qos.parameters import RangeValue, SingleValue
from repro.runtime.deployment import ConfigurationTiming, DeploymentReport


class SessionState(enum.Enum):
    NEW = "new"
    RUNNING = "running"
    STOPPED = "stopped"
    FAILED = "failed"


@dataclass
class ConfigurationRecord:
    """One timeline entry: what happened and what it cost (Figure 4 row).

    ``conflict`` marks a failure caused by losing a reservation race (the
    ledger's capacity check failed against state that changed after the
    plan was made): a retry against a fresh snapshot may well succeed,
    unlike a genuine capacity failure.
    """

    label: str
    timing: ConfigurationTiming
    success: bool
    composition: Optional[CompositionResult] = None
    distribution: Optional[DistributionResult] = None
    handoff: Optional[HandoffReport] = None
    conflict: bool = False


class ApplicationSession:
    """One live application managed by the service configurator."""

    def __init__(
        self,
        session_id: str,
        configurator,  # ServiceConfigurator (kept untyped to avoid a cycle)
        request: CompositionRequest,
        user_id: Optional[str] = None,
    ) -> None:
        if not session_id:
            raise ValueError("session_id must be non-empty")
        self.session_id = session_id
        self.configurator = configurator
        self.request = request
        self.user_id = user_id
        self.state = SessionState.NEW
        self.graph: Optional[ServiceGraph] = None
        self.deployment: Optional[DeploymentReport] = None
        self.component_states: Dict[str, ComponentState] = {}
        self.timeline: List[ConfigurationRecord] = []

    # -- queries -----------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self.state is SessionState.RUNNING

    @property
    def client_device(self) -> Optional[str]:
        return self.request.client_device_id

    def devices_in_use(self) -> List[str]:
        """Devices hosting at least one of the session's components."""
        if self.deployment is None:
            return []
        return self.deployment.assignment.devices_used()

    def total_overhead_ms(self) -> float:
        """Summed configuration overhead across the session's lifetime.

        The quantity the paper compares against "the entire execution time
        of the application" to argue the overhead is relatively small.
        """
        return sum(record.timing.total_ms for record in self.timeline)

    def delivered_rate(self) -> Optional[float]:
        """The stream rate arriving at the client-side sinks, if declared.

        Reads the maximum numeric rate parameter on sink components' input
        or output QoS — the session's notion of "first frame period" for
        handoff buffering.
        """
        if self.graph is None:
            return None
        rates: List[float] = []
        for sink_id in self.graph.sinks():
            component = self.graph.component(sink_id)
            # The output declaration is what the sink renders; the input
            # vector is only a capability range, used as a fallback.
            rate = self._rate_from(component.qos_output)
            if rate is None:
                rate = self._rate_from(component.qos_input)
            if rate is not None:
                rates.append(rate)
        return max(rates) if rates else None

    @staticmethod
    def _rate_from(vector) -> Optional[float]:
        for name, value in vector.items():
            if not name.endswith("rate"):
                continue
            if isinstance(value, SingleValue) and isinstance(
                value.value, (int, float)
            ):
                return float(value.value)
            if isinstance(value, RangeValue):
                return value.high
        return None

    # -- lifecycle ---------------------------------------------------------------

    def start(
        self,
        label: str = "start",
        skip_downloads: bool = False,
        graph_transform=None,
    ) -> ConfigurationRecord:
        """Run the initial two-tier configuration and deploy."""
        if self.state is SessionState.RUNNING:
            raise RuntimeError(f"session {self.session_id!r} is already running")
        record = self.configurator.configure(
            self,
            self.request,
            label=label,
            skip_downloads=skip_downloads,
            graph_transform=graph_transform,
        )
        return self.absorb_record(record)

    def absorb_record(self, record: ConfigurationRecord) -> ConfigurationRecord:
        """Adopt an externally produced configuration attempt.

        The batched serving core drives the configurator's plan/commit
        phases itself (grouped across many sessions) instead of calling
        :meth:`start`; this applies the same timeline/state bookkeeping a
        ``start`` attempt would, so downstream consumers cannot tell the
        two admission paths apart.
        """
        self.timeline.append(record)
        self.state = SessionState.RUNNING if record.success else SessionState.FAILED
        if record.success:
            self._seed_component_states()
        return record

    def switch_device(
        self,
        new_device_id: str,
        new_device_class: Optional[str] = None,
        label: Optional[str] = None,
        skip_downloads: bool = False,
    ) -> ConfigurationRecord:
        """Handle a portal switch: recompose, redistribute, hand off state."""
        if self.state is not SessionState.RUNNING:
            raise RuntimeError(f"session {self.session_id!r} is not running")
        old_device = self.request.client_device_id
        label = label or f"switch:{old_device}->{new_device_id}"
        self.request = dataclasses.replace(
            self.request,
            client_device_id=new_device_id,
            client_device_class=(
                new_device_class
                if new_device_class is not None
                else self.request.client_device_class
            ),
        )
        record = self.configurator.reconfigure(
            self,
            self.request,
            label=label,
            old_client=old_device,
            new_client=new_device_id,
            skip_downloads=skip_downloads,
        )
        self.timeline.append(record)
        if not record.success:
            self.state = SessionState.FAILED
        else:
            self._seed_component_states()
        return record

    def redistribute(
        self, label: str = "redistribute", skip_downloads: bool = True
    ) -> ConfigurationRecord:
        """Re-run the distribution tier on the current graph."""
        if self.state is not SessionState.RUNNING:
            raise RuntimeError(f"session {self.session_id!r} is not running")
        record = self.configurator.redistribute(
            self, label=label, skip_downloads=skip_downloads
        )
        self.timeline.append(record)
        if not record.success:
            self.state = SessionState.FAILED
        return record

    def stop(self) -> None:
        """Release everything the session holds (idempotent).

        Also drops the session's auto-reconfiguration subscriptions so a
        stopped session leaves no handlers behind on the domain bus, and
        the session itself from the configurator's table of live ones.
        """
        self.configurator.release(self)
        self.configurator.disable_auto_reconfiguration(self)
        self.configurator.sessions.pop(self.session_id, None)
        if self.state is not SessionState.FAILED:
            self.state = SessionState.STOPPED
        self.configurator.bus.emit(
            Topics.APPLICATION_STOPPED,
            timestamp=self.configurator.now,
            source=self.session_id,
            session_id=self.session_id,
        )

    # -- component state ---------------------------------------------------------

    def _seed_component_states(self) -> None:
        """Create runtime state for stateful components of the new graph."""
        assert self.graph is not None
        for component in self.graph:
            if component.state_size_kb <= 0:
                continue
            if component.component_id not in self.component_states:
                self.component_states[component.component_id] = ComponentState(
                    component_id=component.component_id,
                    payload={"position_s": 0.0},
                    size_kb=component.state_size_kb,
                )

    def record_progress(self, position_s: float) -> None:
        """Advance all stateful components' stream position.

        The examples use this to model "music continues from the
        interruption point": the position survives the handoff because it
        travels inside the checkpointed state.
        """
        for state in self.component_states.values():
            state.payload["position_s"] = position_s

    def playback_position(self) -> float:
        """Largest recorded stream position across stateful components."""
        positions = [
            float(state.payload.get("position_s", 0.0))
            for state in self.component_states.values()
        ]
        return max(positions) if positions else 0.0
