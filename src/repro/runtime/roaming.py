"""Cross-domain session roaming.

"When the user moves to a new location, the previous service components
may no longer be available" (Section 3.2): the hierarchical smart space
groups devices into domains, and a user walking from the office to a
conference room must have their session *re-composed from scratch* against
the new domain's discovery service and *re-distributed* over the new
domain's devices — with application state carried across the inter-domain
link.

The :class:`SessionRoamer` orchestrates that migration between two
:class:`~repro.runtime.configurator.ServiceConfigurator` instances (one
per domain). Inter-domain transfers go over a WAN model (bandwidth +
latency parameters) since the two domains' topologies are disjoint.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.events.types import Topics
from repro.network.links import transfer_time_s
from repro.runtime.configurator import ServiceConfigurator
from repro.runtime.session import (
    ApplicationSession,
    ConfigurationRecord,
    SessionState,
)


@dataclass(frozen=True)
class RoamingReport:
    """Outcome of one cross-domain migration."""

    success: bool
    old_domain: str
    new_domain: str
    record: Optional[ConfigurationRecord]
    state_transfer_s: float
    new_session: Optional[ApplicationSession]

    @property
    def total_handoff_ms(self) -> float:
        base = self.record.timing.total_ms if self.record else 0.0
        return base + self.state_transfer_s * 1000.0


class SessionRoamer:
    """Moves running sessions between domains.

    ``wan_bandwidth_mbps`` / ``wan_latency_ms`` model the link between the
    two domains' gateways, used to cost the state transfer (the rest of
    the reconfiguration is priced by the destination domain's own
    deployment model).
    """

    def __init__(
        self,
        wan_bandwidth_mbps: float = 10.0,
        wan_latency_ms: float = 20.0,
    ) -> None:
        if wan_bandwidth_mbps <= 0:
            raise ValueError("WAN bandwidth must be positive")
        if wan_latency_ms < 0:
            raise ValueError("WAN latency cannot be negative")
        self.wan_bandwidth_mbps = wan_bandwidth_mbps
        self.wan_latency_ms = wan_latency_ms

    def roam(
        self,
        session: ApplicationSession,
        destination: ServiceConfigurator,
        new_client_device: str,
        new_client_class: Optional[str] = None,
        skip_downloads: bool = False,
    ) -> RoamingReport:
        """Migrate a running session into the destination domain.

        Make-before-break: the destination domain is configured first and
        only on success is the old deployment retired and the stateful
        components' checkpoints carried over the WAN, so the application
        resumes at its interruption point. If the destination rejects the
        session (composition or distribution fails there), the old session
        is left untouched — still running in the old domain with its
        resources held — and the report carries ``success=False``.
        """
        source = session.configurator
        old_domain = source.server.domain.name
        new_domain = destination.server.domain.name

        # Checkpoint the stateful components; the old deployment stays
        # live until the destination has accepted the session.
        carried_states = {
            cid: state.snapshot() for cid, state in session.component_states.items()
        }
        position = session.playback_position()

        # Re-compose and re-distribute against the new domain.
        if new_client_class is None:
            device = destination.server.domain.device(new_client_device)
            new_client_class = device.device_class
        request = dataclasses.replace(
            session.request,
            client_device_id=new_client_device,
            client_device_class=new_client_class,
            preferred_devices=tuple(
                d.device_id for d in destination.server.available_devices()
            ),
        )
        new_session = destination.create_session(
            request, user_id=session.user_id
        )
        record = new_session.start(
            label=f"roam-in:{old_domain}->{new_domain}",
            skip_downloads=skip_downloads,
        )
        if not record.success:
            return RoamingReport(
                success=False,
                old_domain=old_domain,
                new_domain=new_domain,
                record=record,
                state_transfer_s=0.0,
                new_session=new_session,
            )

        # The destination accepted: only now retire the old deployment.
        source.release(session)
        session.state = SessionState.STOPPED
        source.bus.emit(
            Topics.SESSION_RECONFIGURED,
            timestamp=source.now,
            source=session.session_id,
            session_id=session.session_id,
            label=f"roam-out:{new_domain}",
        )

        # Carry the application state across the WAN.
        transfer_s = 0.0
        for component_id, state in carried_states.items():
            if component_id in new_session.component_states:
                new_session.component_states[component_id] = state
                transfer_s += transfer_time_s(
                    state.size_kb, self.wan_bandwidth_mbps, self.wan_latency_ms
                )
        new_session.record_progress(position)
        return RoamingReport(
            success=True,
            old_domain=old_domain,
            new_domain=new_domain,
            record=record,
            state_transfer_s=transfer_s,
            new_session=new_session,
        )
