"""Runtime layer: the integrated two-tier service configuration.

Glues the composition tier, the distribution tier and the substrates into
the live system: the component repository with dynamic downloading, the
deployment machinery with its overhead cost model (Figure 4's breakdown),
application sessions with device-switch handoffs, and the
:class:`ServiceConfigurator` facade that the examples and experiments
drive.
"""

from repro.runtime.clock import Scheduler, SimScheduler, WallClockScheduler
from repro.runtime.repository import ComponentRepository
from repro.runtime.deployment import (
    ConfigurationTiming,
    Deployer,
    DeploymentCostModel,
    DeploymentError,
    DeploymentReport,
)
from repro.runtime.session import ApplicationSession, SessionState
from repro.runtime.configurator import ServiceConfigurator
from repro.runtime.roaming import RoamingReport, SessionRoamer
from repro.runtime.degradation import (
    DegradationLadder,
    QoSLevel,
    scale_graph_demand,
)

__all__ = [
    "Scheduler",
    "SimScheduler",
    "WallClockScheduler",
    "ComponentRepository",
    "ConfigurationTiming",
    "Deployer",
    "DeploymentCostModel",
    "DeploymentError",
    "DeploymentReport",
    "ApplicationSession",
    "SessionState",
    "ServiceConfigurator",
    "RoamingReport",
    "SessionRoamer",
    "DegradationLadder",
    "QoSLevel",
    "scale_graph_demand",
]
