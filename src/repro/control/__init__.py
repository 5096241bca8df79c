"""The predictive QoS control plane: signals → estimator → actuators.

The observability layer (PR 4) records what happened; this package closes
the loop and acts *before* overload happens. Three layers:

- :mod:`repro.control.signals` — rolling-window views over live serving
  state and the clock-stamped :class:`~repro.observability.metrics.MetricsRegistry`:
  queue-occupancy and ledger-utilization trajectories per shard, trend
  slopes, arrival rates, and φ-accrual suspicion trends from the
  failure detector.
- :mod:`repro.control.estimator` — a deterministic linear-trend +
  naive-Bayes overload predictor emitting :class:`OverloadForecast`\\ s
  with a horizon and a confidence (seeded, byte-identical under sim).
- :mod:`repro.control.controller` — the :class:`QoSController` tick loop
  that, on a forecast, pre-emptively degrades low-priority admission,
  rebalances router weights and queued work across shards, evacuates
  sessions off at-risk devices, and reverts every action when the
  forecast clears — all emitted as ``control.*`` spans and counters.

The loop runs on one cluster (or one domain); a federation of clusters
is served uncontrolled.
"""

from repro.control.controller import (
    ControlPolicy,
    QoSController,
)
from repro.control.estimator import (
    LinearTrendEstimator,
    NaiveBayesEstimator,
    OverloadEstimator,
    OverloadForecast,
)
from repro.control.signals import (
    ClusterSignals,
    ShardSignals,
    SuspicionSignals,
    TrendWindow,
    suspicion_view,
    trend_slope,
)

__all__ = [
    "ClusterSignals",
    "ControlPolicy",
    "LinearTrendEstimator",
    "NaiveBayesEstimator",
    "OverloadEstimator",
    "OverloadForecast",
    "QoSController",
    "ShardSignals",
    "SuspicionSignals",
    "TrendWindow",
    "suspicion_view",
    "trend_slope",
]
