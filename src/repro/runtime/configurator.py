"""The integrated service configurator (the paper's two-tier model, live).

Wires the service composer (tier 1), the service distributor (tier 2), the
deployer, the repository and the state-handoff protocol over one domain.
Sessions delegate their lifecycle transitions here; every transition
returns a :class:`ConfigurationRecord` carrying Figure 4's overhead
breakdown.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.composition.composer import (
    CompositionRequest,
    CompositionResult,
    ServiceComposer,
)
from repro.distribution.distributor import DistributionResult, ServiceDistributor
from repro.distribution.fit import DistributionEnvironment
from repro.domain.domain import DomainServer
from repro.events.bus import EventBus, Subscription
from repro.events.types import Event, Topics
from repro.graph.cuts import Assignment
from repro.graph.service_graph import ServiceGraph
from repro.mobility.migration import HandoffReport, MigrationService, StateHandoffProtocol
from repro.network.links import transfer_time_s
from repro.observability.tracing import get_tracer
from repro.runtime.deployment import (
    ConfigurationTiming,
    Deployer,
    DeploymentCostModel,
    DeploymentError,
)
from repro.runtime.repository import ComponentRepository
from repro.runtime.session import ApplicationSession, ConfigurationRecord


@dataclass
class PlannedConfiguration:
    """Tiers 1+2 done, resources not yet acquired.

    The output of :meth:`ServiceConfigurator.plan`: a composed and
    distributed configuration that still needs its capacity committed and
    its components deployed. The batched serving core plans many of these
    against one shared environment snapshot and then commits them in
    grouped ledger rounds; :meth:`ServiceConfigurator.configure` plans,
    books and deploys through the same methods, so the two paths cannot
    drift.
    """

    label: str
    composition: CompositionResult
    graph: ServiceGraph
    distribution: DistributionResult
    assignment: Assignment
    devices: Dict[str, object]
    composition_s: float
    distribution_s: float


class ServiceConfigurator:
    """Domain-level entry point of the service configuration model.

    ``playout_buffer_kb`` sizes the client-side priming buffer filled over
    the stream path during a handoff — the term that makes handoff onto a
    wireless PDA slower than back onto a wired PC.

    Every session books its capacity through the configurator's own
    :class:`~repro.server.ledger.ReservationLedger`: planning snapshots
    come from the ledger (net of pending holds), and acquisition is one
    two-phase transaction, so ``configure()`` is safe under concurrency.
    """

    def __init__(
        self,
        server: DomainServer,
        composer: ServiceComposer,
        distributor: ServiceDistributor,
        repository: Optional[ComponentRepository] = None,
        cost_model: Optional[DeploymentCostModel] = None,
        playout_buffer_kb: float = 64.0,
    ) -> None:
        # Imported here: repro.server imports this module (package cycle).
        from repro.server.ledger import ReservationLedger

        self.server = server
        self.composer = composer
        self.distributor = distributor
        self.cost_model = cost_model or DeploymentCostModel()
        self.deployer = Deployer(repository=repository, cost_model=self.cost_model)
        self.handoff_protocol = StateHandoffProtocol(
            MigrationService(server.network)
        )
        self.playout_buffer_kb = playout_buffer_kb
        self._session_ids = itertools.count(1)
        self.sessions: Dict[str, ApplicationSession] = {}
        self.ledger = ReservationLedger(server)
        # Single-attribute (token, environment, devices) tuple so the
        # cache swap is atomic under concurrent configure() calls.
        self._env_cache: Optional[
            Tuple[object, DistributionEnvironment, Dict[str, object]]
        ] = None
        # Devices excluded from planning while a failure detector holds
        # them under suspicion (they may still be online — quarantine is
        # a planning-side exclusion, not a membership change).
        self._quarantined: Set[str] = set()
        # Live auto-reconfiguration subscriptions per session, so they can
        # be dropped when the session stops (no subscriber leak).
        self._auto_subscriptions: Dict[str, Tuple[Subscription, ...]] = {}

    # -- conveniences ---------------------------------------------------------------

    @property
    def bus(self) -> EventBus:
        return self.server.bus

    @property
    def now(self) -> float:
        return self.server.now

    def create_session(
        self,
        request: CompositionRequest,
        user_id: Optional[str] = None,
        session_id: Optional[str] = None,
    ) -> ApplicationSession:
        """Register a new (not yet started) application session."""
        if session_id is None:
            session_id = f"session-{next(self._session_ids)}"
        session = ApplicationSession(session_id, self, request, user_id=user_id)
        self.sessions[session_id] = session
        return session

    def _environment(self) -> Tuple[DistributionEnvironment, Dict[str, object]]:
        """Snapshot the candidate devices, memoized on the domain state.

        The snapshot is the ledger's (net of in-flight pending holds),
        rebuilt only when the server's
        :meth:`~repro.domain.domain.DomainServer.snapshot_version` moves —
        i.e. a device joined, left, crashed, or changed its allocations —
        or the ledger's version moves (a transaction prepared, committed,
        aborted or released). Bandwidth needs no key: the ledger's
        environment reads it live from the topology.
        """
        quarantined = frozenset(self._quarantined)
        token = (self.server.snapshot_version(), self.ledger.version, quarantined)
        cached = self._env_cache
        if cached is not None and cached[0] == token:
            return cached[1], dict(cached[2])
        environment, devices = self.ledger.environment()
        if quarantined:
            devices = {
                device_id: device
                for device_id, device in devices.items()
                if device_id not in quarantined
            }
            candidates = [
                c for c in environment.devices
                if c.device_id not in quarantined
            ]
            environment = DistributionEnvironment(
                candidates, bandwidth=environment.bandwidth
            )
        self._env_cache = (token, environment, devices)
        return environment, dict(devices)

    # -- quarantine ------------------------------------------------------------------

    def quarantine(self, device_id: str) -> None:
        """Exclude a suspect device from planning (idempotent).

        Quarantine only affects new distribution environments; existing
        deployments on the device are untouched until a recovery pass
        moves them.
        """
        self._quarantined.add(device_id)

    def unquarantine(self, device_id: str) -> None:
        """Readmit a device to planning (idempotent)."""
        self._quarantined.discard(device_id)

    def quarantined_devices(self) -> frozenset:
        """Devices currently excluded from planning."""
        return frozenset(self._quarantined)

    # -- the two-tier pipeline ---------------------------------------------------------

    def configure(
        self,
        session: ApplicationSession,
        request: CompositionRequest,
        label: str,
        skip_downloads: bool = False,
        graph_transform=None,
    ) -> ConfigurationRecord:
        """Initial configuration: compose, distribute, book, deploy.

        ``graph_transform``, when given, maps the composed graph to the one
        actually distributed and deployed — the hook QoS-degradation uses
        to scale demand to the admitted quality level.
        """
        with get_tracer().span(
            "configure", session_id=session.session_id, label=label
        ) as span:
            record = self._configure(
                session, request, label, skip_downloads, graph_transform
            )
            span.set("success", record.success)
            span.set("conflict", record.conflict)
            return record

    def _configure(
        self,
        session: ApplicationSession,
        request: CompositionRequest,
        label: str,
        skip_downloads: bool,
        graph_transform,
    ) -> ConfigurationRecord:
        planned, failure = self.plan(
            session, request, label, graph_transform=graph_transform
        )
        if planned is None:
            assert failure is not None
            return failure
        with get_tracer().span("deployment.deploy") as span:
            txn = self._book(session, planned.graph, planned.assignment)
            if txn is None:
                record = self.fail_planned(session, planned, conflict=True)
            else:
                record = self.deploy_planned(
                    session, planned, txn, skip_downloads=skip_downloads
                )
            span.set("success", record.success)
            span.set("conflict", record.conflict)
        return record

    def plan(
        self,
        session: ApplicationSession,
        request: CompositionRequest,
        label: str,
        graph_transform=None,
    ) -> Tuple[Optional[PlannedConfiguration], Optional[ConfigurationRecord]]:
        """Run tiers 1+2 (compose + distribute) without acquiring resources.

        Returns ``(planned, None)`` on success, or ``(None, failure_record)``
        when composition or distribution fails — the failure record is
        already emitted on the bus exactly as a failed :meth:`configure`
        would. The environment snapshot comes from :meth:`_environment`,
        which memoizes on the domain/ledger version counters: a batch of
        plans taken between ledger commits shares one snapshot.
        ``graph_transform`` maps the composed graph to the one distributed;
        only the plan's :attr:`~PlannedConfiguration.graph` carries it,
        while ``composition.graph`` stays the composer's shared graph.
        """
        composition = self.composer.compose(request)
        composition_s = self.cost_model.composition_time_s(composition)
        graph = composition.graph
        if not composition.success or graph is None:
            return None, self._failure(
                session, label, composition_s, composition, None
            )
        if graph_transform is not None:
            graph = graph_transform(graph)

        try:
            environment, devices = self._environment()
            distribution = self.distributor.distribute(graph, environment)
        except ValueError:
            # No candidate devices at all (everything crashed or is
            # quarantined), or a pinned device left the environment: report
            # a clean failure instead of leaking the substrate error.
            return None, self._failure(
                session, label, composition_s, composition, None
            )
        distribution_s = self.cost_model.distribution_time_s(distribution)
        if not distribution.feasible or distribution.assignment is None:
            return None, self._failure(
                session, label, composition_s, composition, distribution
            )
        return (
            PlannedConfiguration(
                label=label,
                composition=composition,
                graph=graph,
                distribution=distribution,
                assignment=distribution.assignment,
                devices=devices,
                composition_s=composition_s,
                distribution_s=distribution_s,
            ),
            None,
        )

    def deploy_planned(
        self,
        session: ApplicationSession,
        planned: PlannedConfiguration,
        txn,
        skip_downloads: bool = False,
    ) -> ConfigurationRecord:
        """Download and start a plan whose capacity ``txn`` committed.

        The one deploy step of both admission paths: :meth:`configure`
        books its plan in one begin/prepare/commit, the batched admission
        walk books a whole round with ``prepare_many``/``commit_many``.
        A deployment error releases the transaction and reports a
        non-conflict failure.
        """
        deployment = self._start(
            planned.graph, planned.assignment, planned.devices, txn, skip_downloads
        )
        if deployment is None:
            return self.fail_planned(session, planned)
        return self._complete_planned(session, planned, deployment)

    def fail_planned(
        self,
        session: ApplicationSession,
        planned: PlannedConfiguration,
        conflict: bool = False,
    ) -> ConfigurationRecord:
        """The failure record for a plan that could not be committed."""
        return self._failure(
            session,
            planned.label,
            planned.composition_s,
            planned.composition,
            planned.distribution,
            conflict=conflict,
        )

    def _complete_planned(
        self,
        session: ApplicationSession,
        planned: PlannedConfiguration,
        deployment,
    ) -> ConfigurationRecord:
        session.graph = planned.graph
        session.deployment = deployment
        timing = ConfigurationTiming(
            composition_ms=planned.composition_s * 1000.0,
            distribution_ms=planned.distribution_s * 1000.0,
            download_ms=deployment.download_s * 1000.0,
            initialization_ms=deployment.initialization_s * 1000.0,
        )
        self.bus.emit(
            Topics.SESSION_CONFIGURED,
            timestamp=self.now,
            source=session.session_id,
            session_id=session.session_id,
            label=planned.label,
            total_ms=timing.total_ms,
        )
        return ConfigurationRecord(
            label=planned.label,
            timing=timing,
            success=True,
            composition=planned.composition,
            distribution=planned.distribution,
        )

    def reconfigure(
        self,
        session: ApplicationSession,
        request: CompositionRequest,
        label: str,
        old_client: Optional[str],
        new_client: str,
        skip_downloads: bool = False,
    ) -> ConfigurationRecord:
        """Device-switch reconfiguration with state handoff.

        The old graph is retired first (freeing its resources at the
        interruption point), the new graph is configured from scratch in
        the changed environment, and the stateful components' checkpoints
        are handed off from their old devices to their new ones.
        """
        with get_tracer().span(
            "reconfigure", session_id=session.session_id, label=label
        ) as span:
            record = self._reconfigure(
                session, request, label, old_client, new_client, skip_downloads
            )
            span.set("success", record.success)
            return record

    def _reconfigure(
        self,
        session: ApplicationSession,
        request: CompositionRequest,
        label: str,
        old_client: Optional[str],
        new_client: str,
        skip_downloads: bool,
    ) -> ConfigurationRecord:
        old_graph = session.graph
        old_assignment = (
            session.deployment.assignment if session.deployment is not None else None
        )
        self.release(session)

        record = self.configure(
            session, request, label=label, skip_downloads=skip_downloads
        )
        if not record.success or session.graph is None:
            return record

        handoff = self._handoff(
            session, old_graph, old_assignment, old_client, new_client
        )
        timing = ConfigurationTiming(
            composition_ms=record.timing.composition_ms,
            distribution_ms=record.timing.distribution_ms,
            download_ms=record.timing.download_ms,
            initialization_ms=record.timing.initialization_ms,
            handoff_ms=handoff.total_s * 1000.0 if handoff else 0.0,
        )
        return ConfigurationRecord(
            label=label,
            timing=timing,
            success=True,
            composition=record.composition,
            distribution=record.distribution,
            handoff=handoff,
        )

    def redistribute(
        self,
        session: ApplicationSession,
        label: str,
        skip_downloads: bool = True,
    ) -> ConfigurationRecord:
        """Re-run tier 2 only, on the session's existing consistent graph."""
        if session.graph is None:
            raise RuntimeError("session has no configured graph to redistribute")
        with get_tracer().span(
            "redistribute", session_id=session.session_id, label=label
        ) as span:
            record = self._redistribute(session, label, skip_downloads)
            span.set("success", record.success)
            span.set("conflict", record.conflict)
            return record

    def _redistribute(
        self,
        session: ApplicationSession,
        label: str,
        skip_downloads: bool,
    ) -> ConfigurationRecord:
        old_assignment = (
            session.deployment.assignment if session.deployment is not None else None
        )
        self.release(session)

        try:
            environment, devices = self._environment()
            distribution = self.distributor.distribute(session.graph, environment)
        except ValueError:
            # A pinned device left the environment (e.g. the client device
            # crashed): the current graph cannot be redistributed at all —
            # the user must switch portals, which recomposes instead.
            return self._failure(session, label, 0.0, None, None)
        distribution_s = self.cost_model.distribution_time_s(distribution)
        if not distribution.feasible or distribution.assignment is None:
            return self._failure(session, label, 0.0, None, distribution)
        with get_tracer().span("deployment.deploy") as span:
            txn = self._book(session, session.graph, distribution.assignment)
            deployment = None
            if txn is not None:
                deployment = self._start(
                    session.graph,
                    distribution.assignment,
                    devices,
                    txn,
                    skip_downloads,
                )
            span.set("success", deployment is not None)
            span.set("conflict", txn is None)
        if deployment is None:
            return self._failure(
                session, label, 0.0, None, distribution, conflict=txn is None
            )
        session.deployment = deployment

        handoff = None
        if old_assignment is not None:
            moves = self._moves(
                session, session.graph, old_assignment, distribution.assignment
            )
            if moves:
                anchor = session.request.client_device_id or next(
                    iter(distribution.assignment.devices_used())
                )
                handoff = self.handoff_protocol.handoff(
                    session.component_states,
                    moves,
                    old_device=anchor,
                    new_device=anchor,
                    first_frame_period_s=self._first_frame_period(session),
                    timestamp=self.now,
                )
        timing = ConfigurationTiming(
            distribution_ms=distribution_s * 1000.0,
            download_ms=deployment.download_s * 1000.0,
            initialization_ms=deployment.initialization_s * 1000.0,
            handoff_ms=handoff.total_s * 1000.0 if handoff else 0.0,
        )
        self.bus.emit(
            Topics.SESSION_RECONFIGURED,
            timestamp=self.now,
            source=session.session_id,
            session_id=session.session_id,
            label=label,
        )
        return ConfigurationRecord(
            label=label,
            timing=timing,
            success=True,
            distribution=distribution,
            handoff=handoff,
        )

    def release(self, session: ApplicationSession) -> None:
        """Tear down a session's deployment (idempotent)."""
        deployment, session.deployment = session.deployment, None
        if deployment is not None:
            self.ledger.release(deployment.ledger_txn)

    # -- internals -------------------------------------------------------------------

    def _book(
        self,
        session: ApplicationSession,
        graph: ServiceGraph,
        assignment: Assignment,
    ):
        """Book an assignment in one begin/prepare/commit transaction.

        Prepare validates against live state under the ledger lock, and
        commit turns the holds into allocations. Returns the committed
        transaction, or None when the plan lost a race for its capacity
        (the caller reports a conflict, which may be retried on a fresh
        snapshot instead of counting as a hard failure).
        """
        from repro.server.ledger import LedgerConflictError

        txn = self.ledger.begin(owner=session.session_id)
        try:
            self.ledger.prepare(txn, graph, assignment)
            self.ledger.commit(txn)
        except LedgerConflictError:
            self.ledger.abort(txn)
            return None
        return txn

    def _start(
        self,
        graph: ServiceGraph,
        assignment: Assignment,
        devices: Dict[str, object],
        txn,
        skip_downloads: bool,
    ):
        """Download and start a booked assignment.

        A deployment error releases ``txn`` and returns None.
        """
        try:
            deployment = self.deployer.deploy(
                graph,
                assignment,
                devices,
                self.server.network,
                skip_downloads=skip_downloads,
            )
        except DeploymentError:
            self.ledger.release(txn)
            return None
        deployment.ledger_txn = txn
        return deployment

    def _failure(
        self,
        session: ApplicationSession,
        label: str,
        composition_s: float,
        composition: Optional[CompositionResult],
        distribution: Optional[DistributionResult],
        conflict: bool = False,
    ) -> ConfigurationRecord:
        distribution_ms = 0.0
        if distribution is not None:
            distribution_ms = (
                self.cost_model.distribution_time_s(distribution) * 1000.0
            )
        self.bus.emit(
            Topics.SESSION_FAILED,
            timestamp=self.now,
            source=session.session_id,
            session_id=session.session_id,
            label=label,
        )
        return ConfigurationRecord(
            label=label,
            timing=ConfigurationTiming(
                composition_ms=composition_s * 1000.0,
                distribution_ms=distribution_ms,
            ),
            success=False,
            composition=composition,
            distribution=distribution,
            conflict=conflict,
        )

    def _handoff(
        self,
        session: ApplicationSession,
        old_graph: Optional[ServiceGraph],
        old_assignment: Optional[Assignment],
        old_client: Optional[str],
        new_client: str,
    ) -> Optional[HandoffReport]:
        if (
            old_graph is None
            or old_assignment is None
            or old_client is None
            or session.deployment is None
        ):
            return None
        moves = self._moves(
            session, old_graph, old_assignment, session.deployment.assignment
        )
        base = self.handoff_protocol.handoff(
            session.component_states,
            moves,
            old_device=old_client,
            new_device=new_client,
            first_frame_period_s=self._first_frame_period(session),
            timestamp=self.now,
        )
        priming_s = self._priming_time(session, new_client)
        return HandoffReport(
            old_device=base.old_device,
            new_device=base.new_device,
            protocol_s=base.protocol_s,
            buffering_s=base.buffering_s + priming_s,
            migrations=base.migrations,
        )

    def _moves(
        self,
        session: ApplicationSession,
        old_graph: ServiceGraph,
        old_assignment: Assignment,
        new_assignment: Assignment,
    ) -> Dict[str, Tuple[str, str]]:
        """Components with live state whose device changed."""
        moves: Dict[str, Tuple[str, str]] = {}
        for component_id, state in session.component_states.items():
            old_device = old_assignment.get(component_id)
            new_device = new_assignment.get(component_id)
            if old_device is None or new_device is None:
                continue
            if old_device != new_device:
                moves[component_id] = (old_device, new_device)
        return moves

    def _first_frame_period(self, session: ApplicationSession) -> float:
        rate = session.delivered_rate()
        if rate is None or rate <= 0:
            return 0.0
        return 1.0 / rate

    def _priming_time(self, session: ApplicationSession, new_client: str) -> float:
        """Fill the client playout buffer over the stream path.

        The buffer flows from the stream's source device to the new client;
        a wireless client link makes this (and hence the whole handoff)
        slower, reproducing the paper's PC→PDA > PDA→PC asymmetry.
        """
        if session.graph is None or session.deployment is None:
            return 0.0
        sources = session.graph.sources()
        if not sources:
            return 0.0
        source_device = session.deployment.assignment.get(sources[0])
        if source_device is None or source_device == new_client:
            return 0.0
        network = self.server.network
        bandwidth = network.available_bandwidth(source_device, new_client)
        if bandwidth <= 0.0:
            bandwidth = network.pair_capacity(source_device, new_client)
        if bandwidth <= 0.0:
            return 0.0
        return transfer_time_s(
            self.playout_buffer_kb,
            bandwidth,
            network.path_latency_ms(source_device, new_client),
        )

    # -- event-driven reconfiguration ------------------------------------------------

    def enable_auto_reconfiguration(self, session: ApplicationSession) -> None:
        """Wire a session to the domain's event stream.

        - ``user.device_switched`` for the session's user triggers a device
          switch handoff;
        - ``device.crashed`` / ``device.left`` for a device the session
          uses triggers redistribution.

        The three subscriptions are retained per session and dropped by
        :meth:`disable_auto_reconfiguration` (called automatically when the
        session stops), so long-running domains do not accumulate dead
        handlers on the bus. Re-enabling replaces the previous wiring.
        """
        self.disable_auto_reconfiguration(session)

        def on_switch(event: Event) -> None:
            if not session.running:
                return
            if session.user_id is not None and event.payload.get("user_id") != session.user_id:
                return
            new_device = event.payload.get("new_device")
            if new_device and new_device != session.client_device:
                device = self.server.domain.device(new_device)
                session.switch_device(new_device, device.device_class)

        def on_device_gone(event: Event) -> None:
            if not session.running:
                return
            device_id = event.payload.get("device_id")
            if device_id in session.devices_in_use():
                session.redistribute(label=f"device-lost:{device_id}")

        self._auto_subscriptions[session.session_id] = (
            self.bus.subscribe(Topics.USER_DEVICE_SWITCHED, on_switch),
            self.bus.subscribe(Topics.DEVICE_CRASHED, on_device_gone),
            self.bus.subscribe(Topics.DEVICE_LEFT, on_device_gone),
        )

    def disable_auto_reconfiguration(self, session: ApplicationSession) -> None:
        """Drop a session's auto-reconfiguration subscriptions (idempotent)."""
        for subscription in self._auto_subscriptions.pop(session.session_id, ()):
            self.bus.unsubscribe(subscription)
