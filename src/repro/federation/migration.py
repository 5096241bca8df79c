"""Cross-cluster session migration (make-before-break across ledgers).

The intra-domain :class:`~repro.runtime.roaming.SessionRoamer` moves a
session between two configurators that trust each other's clocks and
share nothing else. Crossing *cluster* boundaries adds two hazards: the
WAN between the clusters can partition mid-handoff, and each side's
:class:`~repro.server.ledger.ReservationLedger` must end balanced no
matter where the handoff dies. :class:`SessionMigrator` therefore runs a
two-phase protocol that mirrors the ledger's own prepare/commit split,
one level up:

1. ``reach`` — verify the WAN between origin and destination is up;
2. ``checkpoint`` — snapshot the stateful components into the checkpoint
   substrate (the origin deployment stays live);
3. ``admit`` — the destination cluster admits a fresh session against its
   *own* environment snapshot, walking its own degradation ladder and
   committing holds in its own ledger (the "prepare" of the cross-cluster
   two-phase: destination commits first);
4. ``transfer`` — restore the checkpoints into the new session and cost
   the state movement over the fabric link;
5. ``commit_release`` — only now release the origin's ledger holds and
   retire the origin deployment.

A failure in phases 1–3 leaves the origin session running untouched. A
partition after the destination committed (phases 4–5) rolls the
*destination* back — the new session is stopped, its holds released — so
the origin keeps serving and neither ledger double-books or orphans a
hold. The asymmetry is deliberate: the origin's release is the point of
no return, so it happens last and only after the WAN was re-verified.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.events.types import Topics
from repro.federation.fabric import FederationFabric
from repro.federation.tier import FederationMember, FederationTier
from repro.mobility.checkpoint import CheckpointStore
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import get_tracer
from repro.runtime.session import ApplicationSession, SessionState
from repro.server.admission import AdmissionResult
from repro.sim.kernel import Simulator

MIGRATION_PHASES: Tuple[str, ...] = (
    "reach",
    "checkpoint",
    "admit",
    "transfer",
    "commit_release",
)


@dataclass
class MigrationOutcome:
    """What one cross-cluster migration attempt produced.

    ``phase`` is the last phase that ran; on failure it names where the
    protocol stopped. ``rolled_back`` marks the late-failure path where
    the destination had already committed holds and had to release them
    again — the origin session is still running in every failure case.
    """

    success: bool
    session_id: str
    origin: str
    destination: str
    phase: str
    reason: Optional[str] = None
    admission: Optional[AdmissionResult] = None
    state_transfer_s: float = 0.0
    new_session: Optional[ApplicationSession] = None
    rolled_back: bool = False

    @property
    def total_handoff_ms(self) -> float:
        """Destination configuration time plus WAN state transfer."""
        base = (
            self.admission.service_time_s() * 1000.0 if self.admission else 0.0
        )
        return base + self.state_transfer_s * 1000.0


@dataclass
class _Failure(Exception):
    phase: str
    reason: str
    admission: Optional[AdmissionResult] = None
    rolled_back: bool = False
    extra: dict = field(default_factory=dict)


class SessionMigrator:
    """Moves running sessions between federation member clusters."""

    def __init__(
        self,
        fabric: Optional[FederationFabric] = None,
        checkpoints: Optional[CheckpointStore] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.fabric = fabric if fabric is not None else FederationFabric()
        self.checkpoints = (
            checkpoints if checkpoints is not None else CheckpointStore()
        )
        registry = registry if registry is not None else MetricsRegistry()
        self.registry = registry
        self._attempts = registry.counter("federation.migrations")
        self._committed = registry.counter("federation.migration_committed")
        self._failed = registry.counter("federation.migration_failed")
        self._rolled_back = registry.counter(
            "federation.migration_rolled_back"
        )
        self._handoff_ms = registry.histogram("federation.migration_ms")

    def migrate(
        self,
        session: ApplicationSession,
        origin: FederationMember,
        destination: FederationMember,
        new_client_device: str,
        new_client_class: Optional[str] = None,
        on_phase: Optional[Callable[[str], None]] = None,
    ) -> MigrationOutcome:
        """Run the five-phase protocol; see the module docstring.

        ``on_phase`` is called with each phase name just before that
        phase's reachability check — the chaos seam: a hook that flips
        ``fabric.set_partition`` at ``"commit_release"`` exercises the
        exact window between destination commit and origin release.
        """
        if origin.name == destination.name:
            raise ValueError("migration needs two distinct clusters")
        if not session.running:
            raise ValueError("only running sessions can migrate")
        self._attempts.incr()
        with get_tracer().span(
            "federation.migrate",
            session_id=session.session_id,
            origin=origin.name,
            destination=destination.name,
        ) as span:
            try:
                outcome = self._run_phases(
                    session,
                    origin,
                    destination,
                    new_client_device,
                    new_client_class,
                    on_phase,
                )
            except _Failure as failure:
                outcome = MigrationOutcome(
                    success=False,
                    session_id=session.session_id,
                    origin=origin.name,
                    destination=destination.name,
                    phase=failure.phase,
                    reason=failure.reason,
                    admission=failure.admission,
                    rolled_back=failure.rolled_back,
                )
                if failure.rolled_back:
                    self._rolled_back.incr()
                self._failed.incr()
            else:
                self._committed.incr()
                self._handoff_ms.record(outcome.total_handoff_ms)
            span.set("success", outcome.success)
            span.set("phase", outcome.phase)
            if outcome.reason:
                span.set("reason", outcome.reason)
            return outcome

    # -- phases --------------------------------------------------------------------

    def _check_reach(
        self,
        phase: str,
        origin: FederationMember,
        destination: FederationMember,
        on_phase: Optional[Callable[[str], None]],
        admission: Optional[AdmissionResult] = None,
        rollback: Optional[ApplicationSession] = None,
    ) -> None:
        """Verify the WAN before a phase; roll the destination back when
        it had already committed holds (late-phase partition)."""
        if on_phase is not None:
            on_phase(phase)
        if self.fabric.reachable(origin.name, destination.name):
            return
        rolled_back = False
        if rollback is not None and rollback.running:
            rollback.stop()
            rolled_back = True
        raise _Failure(
            phase=phase,
            reason="partitioned",
            admission=admission,
            rolled_back=rolled_back,
        )

    def _run_phases(
        self,
        session: ApplicationSession,
        origin: FederationMember,
        destination: FederationMember,
        new_client_device: str,
        new_client_class: Optional[str],
        on_phase: Optional[Callable[[str], None]],
    ) -> MigrationOutcome:
        source = session.configurator

        # Phase 1: reach.
        self._check_reach("reach", origin, destination, on_phase)

        # Phase 2: checkpoint. The origin deployment stays live; the
        # snapshots are independent copies so later origin progress
        # cannot bleed into the transferred state.
        if on_phase is not None:
            on_phase("checkpoint")
        for state in session.component_states.values():
            self.checkpoints.save(state, timestamp=source.now)
        position = session.playback_position()

        # Phase 3: admit at the destination (destination commits first).
        self._check_reach("admit", origin, destination, on_phase)
        shard = destination.cluster.shards[destination.cluster.least_loaded()]
        if new_client_class is None:
            device = shard.configurator.server.domain.device(new_client_device)
            new_client_class = device.device_class
        request = dataclasses.replace(
            session.request,
            client_device_id=new_client_device,
            client_device_class=new_client_class,
            preferred_devices=tuple(
                d.device_id
                for d in shard.configurator.server.available_devices()
            ),
        )
        admission = shard.admission.admit(
            request,
            user_id=session.user_id,
            session_id=f"{session.session_id}@{destination.name}",
        )
        if not admission.success:
            # The destination's ladder walk left its ledger clean.
            raise _Failure(
                phase="admit", reason="rejected", admission=admission
            )
        new_session = admission.session

        # Phase 4: transfer checkpoints over the fabric link.
        self._check_reach(
            "transfer",
            origin,
            destination,
            on_phase,
            admission=admission,
            rollback=new_session,
        )
        transfer_s = 0.0
        for component_id in list(session.component_states):
            restored = self.checkpoints.restore(component_id)
            if restored is None or component_id not in new_session.component_states:
                continue
            new_session.component_states[component_id] = restored
            transfer_s += self.fabric.transfer_time_s(
                origin.name, destination.name, restored.size_kb
            )

        # Phase 5: commit-release — the origin's point of no return.
        self._check_reach(
            "commit_release",
            origin,
            destination,
            on_phase,
            admission=admission,
            rollback=new_session,
        )
        source.release(session)
        session.state = SessionState.STOPPED
        source.bus.emit(
            Topics.SESSION_RECONFIGURED,
            timestamp=source.now,
            source=session.session_id,
            session_id=session.session_id,
            label=f"migrate-out:{destination.name}",
        )
        new_session.record_progress(position)
        return MigrationOutcome(
            success=True,
            session_id=session.session_id,
            origin=origin.name,
            destination=destination.name,
            phase="commit_release",
            admission=admission,
            state_transfer_s=transfer_s,
            new_session=new_session,
        )


class MigrationSchedule:
    """Roam hints that fire as logical-time migrations across a tier.

    Each hint names a request, a destination cluster and the client's new
    device; at fire time the request's session migrates through
    ``migrator`` (by default one sharing the tier's fabric and registry).
    Outcomes collect in :attr:`migrations`.
    """

    def __init__(
        self,
        tier: FederationTier,
        simulator: Simulator,
        migrator: Optional[SessionMigrator] = None,
    ) -> None:
        self.tier = tier
        self.sim = simulator
        self.migrator = (
            migrator
            if migrator is not None
            else SessionMigrator(fabric=tier.fabric, registry=tier.registry)
        )
        self.migrations: List[MigrationOutcome] = []

    def schedule(
        self,
        at_s: float,
        request_id: str,
        destination: str,
        new_client_device: str,
    ) -> None:
        """Migrate a served request's session at ``at_s``.

        A no-op at fire time when the request was shed, never admitted,
        already stopped, or already lives in the destination cluster — a
        roam hint against a dead session is simply dropped, matching how
        a real tier would treat a stale mobility prediction.
        """
        self.sim.schedule_at(
            at_s,
            lambda: self._fire(request_id, destination, new_client_device),
        )

    def _fire(
        self, request_id: str, destination: str, new_client_device: str
    ) -> None:
        origin_name = self.tier.member_of(request_id)
        if origin_name is None or origin_name == destination:
            return
        outcome = self.tier.outcome(request_id)
        if outcome is None or not outcome.admitted:
            return
        session = outcome.session
        if session is None or not session.running:
            return
        self.migrations.append(
            self.migrator.migrate(
                session,
                origin=self.tier.member(origin_name),
                destination=self.tier.member(destination),
                new_client_device=new_client_device,
            )
        )
