"""The closed-loop QoS controller: forecasts become actions, then revert.

:class:`QoSController` is a periodic tick loop (on the same
:class:`~repro.runtime.clock.Scheduler` protocol the failure detector
uses) that reads the signal layer, asks the estimator for
:class:`~repro.control.estimator.OverloadForecast`\\ s, and actuates
*before* overload arrives:

- **proactive degradation** — a forecast-hot shard's admission walk is
  entered one position down for low-priority classes
  (:meth:`~repro.server.admission.AdmissionController.set_entry_offset`),
  trading fidelity for headroom ahead of the crunch. The offset shifts
  the request's *preference order* — the utility-profile Pareto ordering
  when the request names one, the fidelity ladder otherwise — and it is
  utilization-aware: while the reservation ledger (not queue depth) is
  the binding signal the offset is withdrawn, because skipping rungs
  over a pinned ledger only converts would-be admits into denials;
- **honest backpressure** — the shard's
  :class:`~repro.server.admission.OverloadPolicy` retry-after hints are
  floored at the forecast horizon, so shed clients are not invited back
  into a congestion window the controller already predicted;
- **shard rebalancing** — the router is weighted away from the hot shard
  (queue-bound regimes only: with every ledger pinned, steering just
  piles depth onto a sibling that cannot admit either) and
  queued-but-unserved requests move from the *back* of its queue to a
  sibling with headroom (:meth:`~repro.server.cluster.DomainCluster.rebalance_queued`);
- **pre-emptive evacuation** — with a failure detector attached, devices
  whose φ-accrual suspicion is rising but still below the detector's own
  threshold are quarantined early and their movable sessions
  redistributed away, cutting repair time roughly in half versus waiting
  for detection;
- **revert** — every action is undone after ``clear_ticks`` consecutive
  clear forecasts, so the controller never leaves the system degraded
  once the pressure passes.

Non-interference with the reactive layer is a hard rule: the controller
never actuates against a shard with quarantined devices and never touches
a device the detector has already *suspected* — once the
:class:`~repro.faults.recovery.RecoveryManager` owns an incident, the
control plane stands down (the chaos tests assert exactly this).

Every action and revert is a ``control.*`` span and counter; the loop is
driven entirely by the injected scheduler and seeded estimator, so a sim
replay at the same seed is byte-identical, controller included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.control.estimator import OverloadEstimator, OverloadForecast
from repro.control.signals import (
    ClusterSignals,
    ShardSignals,
    suspicion_view,
)
from repro.events.types import Event, Topics
from repro.observability.metrics import MetricsRegistry, stable_round
from repro.observability.tracing import get_tracer
from repro.runtime.clock import Scheduler
from repro.runtime.session import SessionState


@dataclass(frozen=True)
class ControlPolicy:
    """Every knob of the control loop in one frozen, replayable bundle."""

    tick_interval_s: float = 1.0  #: controller cadence
    window_s: float = 30.0  #: signal rolling-window span
    horizon_s: float = 8.0  #: how far ahead forecasts look
    occupancy_limit: float = 0.85  #: forecasted occupancy that counts as overload
    confidence_floor: float = 0.55  #: minimum Bayes posterior to actuate
    min_samples: int = 3  #: window points needed before trend forecasts fire
    clear_ticks: int = 3  #: consecutive clear forecasts before revert
    entry_offset: int = 1  #: ladder rungs skipped for low-priority admits
    entry_max_priority: int = 0  #: highest priority class that is degraded
    #: Margin by which windowed mean ledger utilization must exceed
    #: windowed mean queue occupancy
    #: (:meth:`~repro.control.signals.ClusterSignals.binding_balance`)
    #: for a hot shard to count as *ledger-bound*: the reservation
    #: ledger, not the queue, is the binding signal, so degraded ladder
    #: entry cannot free reservations that do not exist (it just converts
    #: would-be full-walk admits into denials) and router steering just
    #: piles queue depth onto siblings whose ledgers are equally pinned.
    #: Both levers stand down while the balance stays above the margin.
    #: Slightly negative by default: near the boundary the harm of
    #: degrading entries over a pinned ledger outweighs the benefit of
    #: early degradation, so ties lean ledger-bound.
    ledger_bound_margin: float = -0.1
    router_penalty: float = 1.6  #: load multiplier steering probes off hot shards
    rebalance_batch: int = 2  #: max queued requests re-homed per tick
    rebalance_headroom: float = 0.5  #: sibling occupancy ceiling to accept moves
    evacuation_phi: float = 1.5  #: rising suspicion level that triggers evacuation
    min_phi_samples: int = 2  #: suspicion points needed before evacuating
    seed: int = 0  #: estimator seed

    def __post_init__(self) -> None:
        if self.tick_interval_s <= 0:
            raise ValueError("tick interval must be positive")
        if self.clear_ticks < 1:
            raise ValueError("clear_ticks must be at least 1")
        if self.entry_offset < 0:
            raise ValueError("entry offset cannot be negative")
        if not -1.0 <= self.ledger_bound_margin <= 1.0:
            raise ValueError("ledger-bound margin must be in [-1, 1]")
        if self.router_penalty <= 0:
            raise ValueError("router penalty must be positive")
        if self.rebalance_batch < 0:
            raise ValueError("rebalance batch cannot be negative")
        if self.evacuation_phi <= 0:
            raise ValueError("evacuation phi must be positive")


class QoSController:
    """One cluster's (and/or one domain's) closed control loop."""

    def __init__(
        self,
        scheduler: Scheduler,
        policy: Optional[ControlPolicy] = None,
        cluster: Optional[object] = None,
        detector: Optional[object] = None,
        configurator: Optional[object] = None,
        estimator: Optional[OverloadEstimator] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if cluster is None and detector is None:
            raise ValueError(
                "controller needs a cluster or a failure detector to act on"
            )
        if detector is not None and configurator is None:
            raise ValueError(
                "pre-emptive evacuation needs the configurator that owns "
                "quarantine (pass configurator= alongside detector=)"
            )
        self.scheduler = scheduler
        self.policy = policy if policy is not None else ControlPolicy()
        self.cluster = cluster
        self.detector = detector
        self.configurator = configurator
        if registry is not None:
            self.registry = registry
        elif cluster is not None:
            self.registry = cluster.registry
        else:
            self.registry = MetricsRegistry()
        self.estimator = (
            estimator
            if estimator is not None
            else OverloadEstimator(
                seed=self.policy.seed,
                horizon_s=self.policy.horizon_s,
                occupancy_limit=self.policy.occupancy_limit,
                confidence_floor=self.policy.confidence_floor,
                min_samples=self.policy.min_samples,
            )
        )
        self.signals: Optional[ClusterSignals] = (
            ClusterSignals(cluster, window_s=self.policy.window_s)
            if cluster is not None
            else None
        )
        # -- actuation state --------------------------------------------------
        self._hot: Dict[int, OverloadForecast] = {}
        self._clear_streak: Dict[int, int] = {}
        self._prev_views: Dict[int, ShardSignals] = {}
        self._evacuated: Dict[str, float] = {}
        self._injected_at: Dict[str, float] = {}
        # -- lifecycle --------------------------------------------------------
        self._running = False
        self._deadline: Optional[float] = None
        self._tick_handle: Optional[object] = None
        self._subscriptions: Tuple[object, ...] = ()
        if detector is not None:
            # fault.injected is bookkeeping only (repair-time measurement),
            # mirroring RecoveryManager — never a detection shortcut.
            self._subscriptions = (
                self.configurator.bus.subscribe(
                    Topics.FAULT_INJECTED, self._on_fault
                ),
            )
        # -- instruments ------------------------------------------------------
        self._ticks = self.registry.counter("control.ticks")
        self._forecast_count = self.registry.counter("control.forecasts")
        self._actuations = self.registry.counter("control.actuations")
        self._reverts = self.registry.counter("control.reverts")
        self._rebalanced = self.registry.counter("control.rebalanced")
        self._skipped_quarantined = self.registry.counter(
            "control.skipped_quarantined"
        )
        self._evacuations = self.registry.counter("control.evacuations")
        self._evacuation_failed = self.registry.counter(
            "control.evacuation_failed"
        )
        self._evacuation_reverted = self.registry.counter(
            "control.evacuation_reverted"
        )
        self._sessions_moved = self.registry.counter("control.sessions_moved")
        self._evacuation_ms = self.registry.histogram("control.evacuation_ms")
        self._repair_ms = self.registry.histogram("control.time_to_repair_ms")

    # -- lifecycle -------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def start(self, horizon_s: Optional[float] = None) -> None:
        """Begin ticking; stop automatically after ``horizon_s`` seconds.

        The same finite-horizon shape as the failure detector: a sim run
        must be able to drain its event queue, so an open-ended loop is
        opt-in (``horizon_s=None``) and wall-clock only.
        """
        if self._running:
            raise RuntimeError("controller already running")
        self._running = True
        if horizon_s is not None:
            self._deadline = self.scheduler.now + horizon_s
        self._tick()

    def stop(self) -> None:
        """Halt the loop and drop bus subscriptions (idempotent).

        Standing actuations are deliberately left in place — a harness
        stopping the controller at the end of a run wants the final
        metrics to reflect what the controller last decided, and a
        mid-run stop hands the system over in its actuated (safe,
        degraded) posture rather than snapping pressure relief away.
        """
        self._running = False
        if self._tick_handle is not None:
            self.scheduler.cancel(self._tick_handle)
            self._tick_handle = None
        for subscription in self._subscriptions:
            self.configurator.bus.unsubscribe(subscription)
        self._subscriptions = ()

    # -- introspection ---------------------------------------------------------

    def hot_shards(self) -> List[int]:
        """Shards with a standing forecast-driven actuation, sorted."""
        return sorted(self._hot)

    def forecast_for(self, shard_index: int) -> Optional[OverloadForecast]:
        """The standing forecast actuating a shard, if any."""
        return self._hot.get(shard_index)

    def evacuated_devices(self) -> List[str]:
        """Devices the controller pre-emptively quarantined, sorted."""
        return sorted(self._evacuated)

    # -- the loop --------------------------------------------------------------

    def _tick(self) -> None:
        self._tick_handle = None
        if not self._running:
            return
        now = self.scheduler.now
        self._ticks.incr()
        if self.signals is not None:
            self._cluster_pass(now)
        if self.detector is not None:
            self._device_pass(now)
        if self._deadline is not None and now >= self._deadline:
            self._running = False
            return
        self._tick_handle = self.scheduler.schedule(
            self.policy.tick_interval_s, self._tick
        )

    # -- cluster pass: forecast → degrade / steer / rebalance ------------------

    def _cluster_pass(self, now: float) -> None:
        self.signals.sample(now)
        for index in range(self.cluster.shard_count):
            view = self.signals.shard_view(index)
            previous = self._prev_views.get(index)
            if previous is not None:
                # Train the Bayes layer on what the *previous* tick's
                # features led to: did the shard shed since then?
                self.estimator.observe(
                    previous, self.signals.shed_since_last_sample(index) > 0
                )
            self._prev_views[index] = view
            shard = self.cluster.shards[index]
            if shard.configurator.quarantined_devices():
                # The recovery layer owns this shard's incident; the
                # control plane stands down (and backs out anything it
                # had standing) until the quarantine lifts.
                self._skipped_quarantined.incr()
                if index in self._hot:
                    self._revert(index, now, reason="quarantined")
                continue
            forecast = self.estimator.forecast(
                view, now, scope="shard", target=f"shard{index}"
            )
            if forecast is not None:
                self._clear_streak[index] = 0
                self._actuate(index, forecast, now, view)
            elif index in self._hot:
                streak = self._clear_streak.get(index, 0) + 1
                self._clear_streak[index] = streak
                if streak >= self.policy.clear_ticks:
                    self._revert(index, now, reason="forecast_cleared")

    def _actuate(
        self,
        index: int,
        forecast: OverloadForecast,
        now: float,
        view: ShardSignals,
    ) -> None:
        shard = self.cluster.shards[index]
        fresh = index not in self._hot
        self._hot[index] = forecast
        self._forecast_count.incr()
        with get_tracer().span(
            "control.actuate", shard=index, target=forecast.target
        ) as span:
            span.set("fresh", fresh)
            span.set("horizon_s", stable_round(forecast.horizon_s))
            span.set(
                "predicted_occupancy",
                stable_round(forecast.predicted_occupancy),
            )
            span.set("confidence", stable_round(forecast.confidence))
            # Which signal binds? The windowed balance (mean ledger
            # utilization minus mean queue occupancy) classifies the
            # regime: both signals make transient excursions into each
            # other's territory every few ticks, so the instantaneous
            # view cannot be trusted, but the windowed means separate
            # cleanly.
            balance = self.signals.binding_balance(index)
            ledger_bound = balance > self.policy.ledger_bound_margin
            span.set("binding_balance", stable_round(balance))
            span.set("ledger_bound", ledger_bound)
            # (a) enter the ladder lower for low-priority classes — the
            # offset shifts where the admission controller starts in its
            # *preference order* (the utility-profile ordering when the
            # request carries one, the fidelity ladder otherwise), so the
            # lever composes with Pareto-front selection. Degraded entry
            # only helps while the queue is the binding signal: once the
            # ledger itself is pinned, skipping rungs cannot free
            # reservations that do not exist and just converts would-be
            # full-walk admits into denials, so the offset is withdrawn
            # for the duration of the crunch.
            if ledger_bound:
                shard.admission.clear_entry_offset()
            else:
                shard.admission.set_entry_offset(
                    self.policy.entry_offset,
                    max_priority=self.policy.entry_max_priority,
                )
            # (b) retry-after hints never undercut the forecast horizon;
            shard.overload.forecast_horizon_s = forecast.horizon_s
            # (c) steer router probes away from the hot shard — but only
            # while the queue binds. In the ledger-bound regime every
            # sibling's reservations are just as pinned, so steering only
            # piles queue depth onto a shard that cannot admit either.
            router = self.cluster.router
            if hasattr(router, "set_weight"):
                router.set_weight(
                    index,
                    1.0 if ledger_bound else self.policy.router_penalty,
                )
            # (d) re-home the worst-positioned queued work to a sibling
            # that has real headroom right now.
            moved = 0
            if (
                self.cluster.shard_count > 1
                and self.policy.rebalance_batch > 0
                and shard.queue.depth > 0
            ):
                target = self.cluster.least_loaded(exclude={index})
                sibling = self.cluster.shards[target]
                occupancy = sibling.queue.depth / sibling.queue.capacity
                # A sibling is a rebalance target only while BOTH its
                # pressure signals have real headroom: at global
                # saturation every ledger is pinned, and moving queue
                # depth around would only push more shards over the
                # front door's occupancy high-water.
                if (
                    not sibling.configurator.quarantined_devices()
                    and occupancy < self.policy.rebalance_headroom
                    and sibling.ledger.utilization()
                    < self.policy.occupancy_limit
                ):
                    moved = self.cluster.rebalance_queued(
                        index, target, self.policy.rebalance_batch
                    )
                    if moved:
                        self._rebalanced.incr(moved)
                        span.set("rebalanced_to", target)
            span.set("rebalanced", moved)
        if fresh:
            self._actuations.incr()

    def _revert(self, index: int, now: float, reason: str) -> None:
        self._hot.pop(index, None)
        self._clear_streak[index] = 0
        shard = self.cluster.shards[index]
        with get_tracer().span("control.revert", shard=index) as span:
            span.set("reason", reason)
            shard.admission.clear_entry_offset()
            shard.overload.forecast_horizon_s = None
            router = self.cluster.router
            if hasattr(router, "set_weight"):
                router.set_weight(index, 1.0)
        self._reverts.incr()

    # -- device pass: rising suspicion → pre-emptive evacuation ----------------

    def _on_fault(self, event: Event) -> None:
        """Bookkeeping for repair-time measurement, never detection."""
        if event.payload.get("kind") != "device_crash":
            return
        target = event.payload.get("target")
        if target is not None:
            self._injected_at[target] = event.timestamp

    def _device_pass(self, now: float) -> None:
        devices = sorted(
            device.device_id
            for device in self.detector.server.domain.devices(online_only=False)
        )
        for device_id in devices:
            if device_id in self._evacuated:
                self._maybe_release(device_id, now)
                continue
            if self.detector.is_suspected(device_id):
                continue  # the recovery layer owns suspects
            view = suspicion_view(
                self.detector, device_id, self.policy.window_s, now
            )
            if view.samples < self.policy.min_phi_samples:
                continue  # suspicion is earned, never presumed
            if (
                view.phi < self.policy.evacuation_phi
                or not view.rising
                or view.phi >= self.detector.suspicion_threshold
            ):
                continue
            self._evacuate(device_id, view.phi, now)

    def _evacuate(self, device_id: str, phi: float, now: float) -> None:
        """Quarantine a silence-trending device and move its sessions away.

        Runs in the window between "suspicious" and "suspected": the
        device has missed heartbeats but the detector has not yet called
        it. Sessions whose *portal* is the at-risk device stay put — a
        pre-emptive portal move would be a user-visible handoff on what
        may be a false alarm; the reactive layer handles those if the
        crash is real.
        """
        self.configurator.quarantine(device_id)
        self._evacuated[device_id] = now
        self._evacuations.incr()
        with get_tracer().span(
            "control.evacuate", device_id=device_id
        ) as span:
            span.set("phi", stable_round(phi))
            moved = 0
            failed = 0
            interruption_ms = 0.0
            # Stopped sessions leave the table: snapshot id and session
            # together, so none can vanish between the two.
            for _, session in sorted(self.configurator.sessions.items()):
                if not session.running:
                    continue
                if device_id not in session.devices_in_use():
                    continue
                if session.client_device == device_id:
                    continue
                try:
                    record = session.redistribute(
                        label=f"evacuate:{device_id}", skip_downloads=True
                    )
                except RuntimeError:
                    failed += 1
                    continue
                if record.success:
                    moved += 1
                    interruption_ms += record.timing.total_ms
                else:
                    # The old deployment is still live and serving; a
                    # FAILED state here would strand the session outside
                    # the recovery layer's session.running filter.
                    session.state = SessionState.RUNNING
                    failed += 1
            span.set("sessions_moved", moved)
            span.set("sessions_failed", failed)
            if moved:
                self._sessions_moved.incr(moved)
                self._evacuation_ms.record(interruption_ms)
            if failed:
                self._evacuation_failed.incr(failed)
            injected = self._injected_at.get(device_id)
            if injected is not None and moved:
                # Repair time measured from injection, like the reactive
                # layer's detection+MTTR — the honest comparison.
                self._repair_ms.record(
                    (now - injected) * 1000.0 + interruption_ms
                )

    def _maybe_release(self, device_id: str, now: float) -> None:
        """Lift an evacuation when the device proves it was a false alarm."""
        if self.detector.is_suspected(device_id):
            return  # the detector called it after all; recovery owns it now
        phi = self.detector.phi(device_id)
        if phi >= 1.0:
            return  # still silent (or confirmed gone) — keep the quarantine
        with get_tracer().span(
            "control.evacuation_revert", device_id=device_id
        ) as span:
            span.set("quarantined_for_s", stable_round(now - self._evacuated[device_id]))
            self.configurator.unquarantine(device_id)
        del self._evacuated[device_id]
        self._evacuation_reverted.incr()
