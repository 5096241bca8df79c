"""The declarative scenario spec: parse, validate, serialize.

A scenario is data, not Python: one YAML (or JSON) document declares the
whole environment — component templates, registry endpoints, device and
link classes, abstract workload graphs with their relations, the arrival
mix, an optional fault schedule, the degradation ladder, and the
server/cluster/controller knobs — plus one top-level ``seed`` that
reproduces the entire run. :func:`load_scenario` parses and validates;
:func:`repro.scenarios.compile.compile_scenario` lowers the spec into the
live objects every harness in this repo builds by hand.

Validation is strict and cross-referential: unknown keys anywhere are
errors (a typo never silently becomes a default), endpoint templates must
name declared components, link endpoints must name declared devices or
hubs, workload clients and fault targets must resolve to devices, and
arrival mixes must name declared workloads. Errors carry the spec path
(``workloads.listen.clients``) so a catalog author can fix the line.

QoS vectors are written as plain mappings and coerced on compile:
a number or string is a single value, a two-element numeric list is a
range, any other list is a set — mirroring
:func:`repro.qos.parameters.as_qos_value`.

Specs round-trip: ``ScenarioSpec.from_dict(spec.to_dict()) == spec``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.domain.device import DeviceClass
from repro.faults.model import FaultKind
from repro.network.links import LinkClass
from repro.server.cluster import ROUTERS

DEVICE_CLASSES = (
    DeviceClass.PC,
    DeviceClass.WORKSTATION,
    DeviceClass.LAPTOP,
    DeviceClass.PDA,
    DeviceClass.SERVER,
)
LINK_CLASSES = {cls.label: cls for cls in LinkClass}
FAULT_KINDS = {kind.value: kind for kind in FaultKind}
ARRIVAL_PROCESSES = ("poisson", "pareto")
DURATION_PROCESSES = ("exponential", "pareto")


class ScenarioValidationError(ValueError):
    """A scenario document failed validation; ``path`` locates the field."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def _require_mapping(value: object, path: str) -> Dict[str, object]:
    if not isinstance(value, dict):
        raise ScenarioValidationError(
            path, f"expected a mapping, got {type(value).__name__}"
        )
    for key in value:
        if not isinstance(key, str):
            raise ScenarioValidationError(path, f"non-string key {key!r}")
    return value


def _take(
    data: Dict[str, object],
    path: str,
    known: Dict[str, object],
) -> Dict[str, object]:
    """Fill ``known`` defaults from ``data``, rejecting unknown keys."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ScenarioValidationError(
            path,
            f"unknown key(s) {', '.join(repr(k) for k in unknown)} "
            f"(expected: {', '.join(sorted(known))})",
        )
    merged = dict(known)
    merged.update(data)
    return merged


_REQUIRED = object()


def _required(value: object, path: str) -> object:
    if value is _REQUIRED:
        raise ScenarioValidationError(path, "required key is missing")
    return value


def _qos_dict(value: object, path: str) -> Dict[str, object]:
    """Validate a QoS mapping's shape (coercion happens at compile)."""
    mapping = _require_mapping(value, path)
    out: Dict[str, object] = {}
    for name, raw in mapping.items():
        if isinstance(raw, (int, float, str, bool)):
            out[name] = raw
        elif isinstance(raw, list):
            if not raw:
                raise ScenarioValidationError(
                    f"{path}.{name}", "empty list is not a QoS value"
                )
            out[name] = list(raw)
        else:
            raise ScenarioValidationError(
                f"{path}.{name}",
                f"QoS values are scalars or lists, got {type(raw).__name__}",
            )
    return out


def _resource_dict(value: object, path: str) -> Dict[str, float]:
    mapping = _require_mapping(value, path)
    out: Dict[str, float] = {}
    for name, raw in mapping.items():
        if not isinstance(raw, (int, float)) or isinstance(raw, bool):
            raise ScenarioValidationError(
                f"{path}.{name}", f"resource amounts are numbers, got {raw!r}"
            )
        if not 0.0 <= raw < math.inf:
            raise ScenarioValidationError(
                f"{path}.{name}",
                f"resource amounts are finite and non-negative, got {raw!r}",
            )
        out[name] = float(raw)
    return out


def _attr_dict(value: object, path: str) -> Dict[str, str]:
    mapping = _require_mapping(value, path)
    return {name: str(raw) for name, raw in mapping.items()}


# ---------------------------------------------------------------------------
# sub-specs
# ---------------------------------------------------------------------------


@dataclass
class ComponentSpec:
    """One reusable component template (a registry entry's payload)."""

    service_type: str
    qos_input: Dict[str, object] = field(default_factory=dict)
    qos_output: Dict[str, object] = field(default_factory=dict)
    resources: Dict[str, float] = field(default_factory=dict)
    code_size_kb: float = 0.0
    state_size_kb: float = 0.0
    attributes: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: object, path: str) -> "ComponentSpec":
        raw = _take(
            _require_mapping(data, path),
            path,
            {
                "service_type": _REQUIRED,
                "qos_input": {},
                "qos_output": {},
                "resources": {},
                "code_size_kb": 0.0,
                "state_size_kb": 0.0,
                "attributes": {},
            },
        )
        return cls(
            service_type=str(_required(raw["service_type"], f"{path}.service_type")),
            qos_input=_qos_dict(raw["qos_input"], f"{path}.qos_input"),
            qos_output=_qos_dict(raw["qos_output"], f"{path}.qos_output"),
            resources=_resource_dict(raw["resources"], f"{path}.resources"),
            code_size_kb=float(raw["code_size_kb"]),
            state_size_kb=float(raw["state_size_kb"]),
            attributes=_attr_dict(raw["attributes"], f"{path}.attributes"),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "service_type": self.service_type,
            "qos_input": dict(self.qos_input),
            "qos_output": dict(self.qos_output),
            "resources": dict(self.resources),
            "code_size_kb": self.code_size_kb,
            "state_size_kb": self.state_size_kb,
            "attributes": dict(self.attributes),
        }


@dataclass
class EndpointSpec:
    """One registered service endpoint: a component offered for discovery."""

    component: str
    attributes: Dict[str, str] = field(default_factory=dict)
    hosted_on: Optional[str] = None
    platforms: List[str] = field(default_factory=list)

    @classmethod
    def from_dict(cls, data: object, path: str) -> "EndpointSpec":
        raw = _take(
            _require_mapping(data, path),
            path,
            {
                "component": _REQUIRED,
                "attributes": {},
                "hosted_on": None,
                "platforms": [],
            },
        )
        platforms = raw["platforms"]
        if not isinstance(platforms, list):
            raise ScenarioValidationError(
                f"{path}.platforms", "expected a list of device classes"
            )
        for cls_name in platforms:
            if cls_name not in DEVICE_CLASSES:
                raise ScenarioValidationError(
                    f"{path}.platforms",
                    f"unknown device class {cls_name!r} "
                    f"(choose from {', '.join(DEVICE_CLASSES)})",
                )
        return cls(
            component=str(_required(raw["component"], f"{path}.component")),
            attributes=_attr_dict(raw["attributes"], f"{path}.attributes"),
            hosted_on=(
                str(raw["hosted_on"]) if raw["hosted_on"] is not None else None
            ),
            platforms=[str(p) for p in platforms],
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "component": self.component,
            "attributes": dict(self.attributes),
            "hosted_on": self.hosted_on,
            "platforms": list(self.platforms),
        }


@dataclass
class DeviceSpec:
    """One device (or a replicated pool of identical devices)."""

    device_class: str
    capacity: Dict[str, float]
    count: int = 1

    @classmethod
    def from_dict(cls, data: object, path: str) -> "DeviceSpec":
        raw = _take(
            _require_mapping(data, path),
            path,
            {"class": _REQUIRED, "capacity": _REQUIRED, "count": 1},
        )
        device_class = str(_required(raw["class"], f"{path}.class"))
        if device_class not in DEVICE_CLASSES:
            raise ScenarioValidationError(
                f"{path}.class",
                f"unknown device class {device_class!r} "
                f"(choose from {', '.join(DEVICE_CLASSES)})",
            )
        count = raw["count"]
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ScenarioValidationError(
                f"{path}.count", f"count must be a positive integer, got {count!r}"
            )
        return cls(
            device_class=device_class,
            capacity=_resource_dict(
                _required(raw["capacity"], f"{path}.capacity"),
                f"{path}.capacity",
            ),
            count=count,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "class": self.device_class,
            "capacity": dict(self.capacity),
            "count": self.count,
        }


@dataclass
class LinkSpec:
    """One (bidirectional) link between devices and/or hubs."""

    first: str
    second: str
    link_class: str = LinkClass.FAST_ETHERNET.label
    bandwidth_mbps: Optional[float] = None
    latency_ms: Optional[float] = None

    @classmethod
    def from_dict(cls, data: object, path: str) -> "LinkSpec":
        if isinstance(data, list):
            if len(data) not in (2, 3):
                raise ScenarioValidationError(
                    path, "list links are [first, second] or [first, second, class]"
                )
            data = {
                "first": data[0],
                "second": data[1],
                **({"class": data[2]} if len(data) == 3 else {}),
            }
        raw = _take(
            _require_mapping(data, path),
            path,
            {
                "first": _REQUIRED,
                "second": _REQUIRED,
                "class": LinkClass.FAST_ETHERNET.label,
                "bandwidth_mbps": None,
                "latency_ms": None,
            },
        )
        link_class = str(raw["class"])
        if link_class not in LINK_CLASSES:
            raise ScenarioValidationError(
                f"{path}.class",
                f"unknown link class {link_class!r} "
                f"(choose from {', '.join(sorted(LINK_CLASSES))})",
            )
        return cls(
            first=str(_required(raw["first"], f"{path}.first")),
            second=str(_required(raw["second"], f"{path}.second")),
            link_class=link_class,
            bandwidth_mbps=(
                float(raw["bandwidth_mbps"])
                if raw["bandwidth_mbps"] is not None
                else None
            ),
            latency_ms=(
                float(raw["latency_ms"]) if raw["latency_ms"] is not None else None
            ),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "first": self.first,
            "second": self.second,
            "class": self.link_class,
            "bandwidth_mbps": self.bandwidth_mbps,
            "latency_ms": self.latency_ms,
        }


@dataclass
class WorkloadNodeSpec:
    """One abstract component in a workload's service graph."""

    service_type: str
    attributes: Dict[str, str] = field(default_factory=dict)
    required_output: Dict[str, object] = field(default_factory=dict)
    optional: bool = False
    #: ``"client"`` pins to the requesting device; any other string pins
    #: to that named device; None leaves placement to the distributor.
    pin: Optional[str] = None

    @classmethod
    def from_dict(cls, data: object, path: str) -> "WorkloadNodeSpec":
        raw = _take(
            _require_mapping(data, path),
            path,
            {
                "service_type": _REQUIRED,
                "attributes": {},
                "required_output": {},
                "optional": False,
                "pin": None,
            },
        )
        return cls(
            service_type=str(_required(raw["service_type"], f"{path}.service_type")),
            attributes=_attr_dict(raw["attributes"], f"{path}.attributes"),
            required_output=_qos_dict(
                raw["required_output"], f"{path}.required_output"
            ),
            optional=bool(raw["optional"]),
            pin=str(raw["pin"]) if raw["pin"] is not None else None,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "service_type": self.service_type,
            "attributes": dict(self.attributes),
            "required_output": dict(self.required_output),
            "optional": self.optional,
            "pin": self.pin,
        }


@dataclass
class WorkloadSpec:
    """One request shape: abstract graph + relations + client pool."""

    nodes: Dict[str, WorkloadNodeSpec]
    relations: List[List[object]]  # [source, target, throughput_mbps]
    user_qos: Dict[str, object] = field(default_factory=dict)
    clients: List[str] = field(default_factory=list)
    priority: int = 0
    #: Named utility profile ordering this class's degradation walk
    #: (see ``repro.distribution.pareto.UTILITY_PROFILES``); None keeps
    #: the ladder's best-fidelity-first order.
    utility_profile: Optional[str] = None

    @classmethod
    def from_dict(cls, data: object, path: str) -> "WorkloadSpec":
        raw = _take(
            _require_mapping(data, path),
            path,
            {
                "nodes": _REQUIRED,
                "relations": [],
                "user_qos": {},
                "clients": _REQUIRED,
                "priority": 0,
                "utility_profile": None,
            },
        )
        nodes_raw = _require_mapping(
            _required(raw["nodes"], f"{path}.nodes"), f"{path}.nodes"
        )
        if not nodes_raw:
            raise ScenarioValidationError(
                f"{path}.nodes", "a workload needs at least one node"
            )
        nodes = {
            node_id: WorkloadNodeSpec.from_dict(node, f"{path}.nodes.{node_id}")
            for node_id, node in nodes_raw.items()
        }
        relations_raw = raw["relations"]
        if not isinstance(relations_raw, list):
            raise ScenarioValidationError(
                f"{path}.relations", "expected a list of [source, target, mbps]"
            )
        relations: List[List[object]] = []
        for index, item in enumerate(relations_raw):
            rel_path = f"{path}.relations[{index}]"
            if not isinstance(item, list) or len(item) != 3:
                raise ScenarioValidationError(
                    rel_path, "relations are [source, target, throughput_mbps]"
                )
            source, target, mbps = item
            for end in (source, target):
                if end not in nodes:
                    raise ScenarioValidationError(
                        rel_path,
                        f"unknown node {end!r} "
                        f"(declared: {', '.join(sorted(nodes))})",
                    )
            if not isinstance(mbps, (int, float)) or isinstance(mbps, bool):
                raise ScenarioValidationError(
                    rel_path, f"throughput must be a number, got {mbps!r}"
                )
            relations.append([str(source), str(target), float(mbps)])
        clients = _required(raw["clients"], f"{path}.clients")
        if not isinstance(clients, list) or not clients:
            raise ScenarioValidationError(
                f"{path}.clients", "expected a non-empty list of device names"
            )
        profile_raw = raw["utility_profile"]
        if profile_raw is not None:
            from repro.distribution.pareto import UTILITY_PROFILES

            if not isinstance(profile_raw, str):
                raise ScenarioValidationError(
                    f"{path}.utility_profile",
                    f"expected a profile name, got {profile_raw!r}",
                )
            if profile_raw not in UTILITY_PROFILES:
                raise ScenarioValidationError(
                    f"{path}.utility_profile",
                    f"unknown utility profile {profile_raw!r} "
                    f"(known: {', '.join(sorted(UTILITY_PROFILES))})",
                )
        return cls(
            nodes=nodes,
            relations=relations,
            user_qos=_qos_dict(raw["user_qos"], f"{path}.user_qos"),
            clients=[str(c) for c in clients],
            priority=int(raw["priority"]),
            utility_profile=profile_raw,
        )

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "nodes": {
                node_id: node.to_dict() for node_id, node in self.nodes.items()
            },
            "relations": [list(rel) for rel in self.relations],
            "user_qos": dict(self.user_qos),
            "clients": list(self.clients),
            "priority": self.priority,
        }
        if self.utility_profile is not None:
            data["utility_profile"] = self.utility_profile
        return data


@dataclass
class ArrivalSpec:
    """The offered load: rate, horizon, processes, and workload mix."""

    rate_per_s: float
    horizon_s: float
    arrival_process: str = "poisson"
    duration_process: str = "exponential"
    mean_duration_s: float = 60.0
    duration_bounds_s: List[float] = field(default_factory=lambda: [1.0, 600.0])
    pareto_alpha: float = 1.8
    deadline_s: Optional[float] = 20.0
    #: workload name → integer weight; empty = every workload, weight 1.
    mix: Dict[str, int] = field(default_factory=dict)
    #: Users the requests recycle (``user-{request_id % users}``); None
    #: gives every request its own user.
    users: Optional[int] = None
    #: False seeds the trace with the scenario seed itself instead of the
    #: derived ``arrivals`` stream (faults keep their derived stream).
    derive_seed: bool = True

    @classmethod
    def from_dict(cls, data: object, path: str) -> "ArrivalSpec":
        raw = _take(
            _require_mapping(data, path),
            path,
            {
                "rate_per_s": _REQUIRED,
                "horizon_s": _REQUIRED,
                "arrival_process": "poisson",
                "duration_process": "exponential",
                "mean_duration_s": 60.0,
                "duration_bounds_s": [1.0, 600.0],
                "pareto_alpha": 1.8,
                "deadline_s": 20.0,
                "mix": {},
                "users": None,
                "derive_seed": True,
            },
        )
        if raw["arrival_process"] not in ARRIVAL_PROCESSES:
            raise ScenarioValidationError(
                f"{path}.arrival_process",
                f"unknown process {raw['arrival_process']!r} "
                f"(choose from {', '.join(ARRIVAL_PROCESSES)})",
            )
        if raw["duration_process"] not in DURATION_PROCESSES:
            raise ScenarioValidationError(
                f"{path}.duration_process",
                f"unknown process {raw['duration_process']!r} "
                f"(choose from {', '.join(DURATION_PROCESSES)})",
            )
        bounds = raw["duration_bounds_s"]
        if (
            not isinstance(bounds, list)
            or len(bounds) != 2
            or not all(isinstance(b, (int, float)) for b in bounds)
        ):
            raise ScenarioValidationError(
                f"{path}.duration_bounds_s", "expected [min_s, max_s]"
            )
        mix = _require_mapping(raw["mix"], f"{path}.mix")
        for workload, weight in mix.items():
            if not isinstance(weight, int) or isinstance(weight, bool) or weight < 1:
                raise ScenarioValidationError(
                    f"{path}.mix.{workload}",
                    f"weights are positive integers, got {weight!r}",
                )
        users = raw["users"]
        if users is not None and (
            not isinstance(users, int) or isinstance(users, bool) or users < 1
        ):
            raise ScenarioValidationError(
                f"{path}.users", f"must be a positive integer, got {users!r}"
            )
        if not isinstance(raw["derive_seed"], bool):
            raise ScenarioValidationError(
                f"{path}.derive_seed",
                f"must be true or false, got {raw['derive_seed']!r}",
            )
        return cls(
            rate_per_s=float(_required(raw["rate_per_s"], f"{path}.rate_per_s")),
            horizon_s=float(_required(raw["horizon_s"], f"{path}.horizon_s")),
            arrival_process=str(raw["arrival_process"]),
            duration_process=str(raw["duration_process"]),
            mean_duration_s=float(raw["mean_duration_s"]),
            duration_bounds_s=[float(bounds[0]), float(bounds[1])],
            pareto_alpha=float(raw["pareto_alpha"]),
            deadline_s=(
                float(raw["deadline_s"]) if raw["deadline_s"] is not None else None
            ),
            mix={str(k): int(v) for k, v in mix.items()},
            users=users,
            derive_seed=raw["derive_seed"],
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "rate_per_s": self.rate_per_s,
            "horizon_s": self.horizon_s,
            "arrival_process": self.arrival_process,
            "duration_process": self.duration_process,
            "mean_duration_s": self.mean_duration_s,
            "duration_bounds_s": list(self.duration_bounds_s),
            "pareto_alpha": self.pareto_alpha,
            "deadline_s": self.deadline_s,
            "mix": dict(self.mix),
            "users": self.users,
            "derive_seed": self.derive_seed,
        }


@dataclass
class ScriptedFaultSpec:
    """One explicit fault event (compiled to a ``FaultSpec``)."""

    kind: str
    at_s: float
    target: str
    peer: Optional[str] = None
    magnitude: float = 0.5
    duration_s: float = 0.0

    @classmethod
    def from_dict(cls, data: object, path: str) -> "ScriptedFaultSpec":
        raw = _take(
            _require_mapping(data, path),
            path,
            {
                "kind": _REQUIRED,
                "at_s": _REQUIRED,
                "target": _REQUIRED,
                "peer": None,
                "magnitude": 0.5,
                "duration_s": 0.0,
            },
        )
        kind = str(_required(raw["kind"], f"{path}.kind"))
        if kind not in FAULT_KINDS:
            raise ScenarioValidationError(
                f"{path}.kind",
                f"unknown fault kind {kind!r} "
                f"(choose from {', '.join(sorted(FAULT_KINDS))})",
            )
        return cls(
            kind=kind,
            at_s=float(_required(raw["at_s"], f"{path}.at_s")),
            target=str(_required(raw["target"], f"{path}.target")),
            peer=str(raw["peer"]) if raw["peer"] is not None else None,
            magnitude=float(raw["magnitude"]),
            duration_s=float(raw["duration_s"]),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "at_s": self.at_s,
            "target": self.target,
            "peer": self.peer,
            "magnitude": self.magnitude,
            "duration_s": self.duration_s,
        }


@dataclass
class RandomFaultsSpec:
    """A seeded Poisson fault storm (compiled via ``random_fault_schedule``)."""

    crash_targets: List[str] = field(default_factory=list)
    depart_targets: List[str] = field(default_factory=list)
    link_pairs: List[List[str]] = field(default_factory=list)
    pressure_targets: List[str] = field(default_factory=list)
    crash_rate_per_min: float = 0.0
    depart_rate_per_min: float = 0.0
    link_rate_per_min: float = 0.0
    pressure_rate_per_min: float = 0.0
    #: Faults land only in the first fraction of the horizon so late
    #: crashes still have room to be detected and healed.
    injection_window: float = 0.7

    @classmethod
    def from_dict(cls, data: object, path: str) -> "RandomFaultsSpec":
        raw = _take(
            _require_mapping(data, path),
            path,
            {
                "crash_targets": [],
                "depart_targets": [],
                "link_pairs": [],
                "pressure_targets": [],
                "crash_rate_per_min": 0.0,
                "depart_rate_per_min": 0.0,
                "link_rate_per_min": 0.0,
                "pressure_rate_per_min": 0.0,
                "injection_window": 0.7,
            },
        )
        link_pairs_raw = raw["link_pairs"]
        if not isinstance(link_pairs_raw, list):
            raise ScenarioValidationError(
                f"{path}.link_pairs", "expected a list of [first, second]"
            )
        link_pairs: List[List[str]] = []
        for index, pair in enumerate(link_pairs_raw):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ScenarioValidationError(
                    f"{path}.link_pairs[{index}]", "pairs are [first, second]"
                )
            link_pairs.append([str(pair[0]), str(pair[1])])
        window = float(raw["injection_window"])
        if not 0.0 < window <= 1.0:
            raise ScenarioValidationError(
                f"{path}.injection_window", "must be in (0, 1]"
            )
        return cls(
            crash_targets=[str(t) for t in raw["crash_targets"]],
            depart_targets=[str(t) for t in raw["depart_targets"]],
            link_pairs=link_pairs,
            pressure_targets=[str(t) for t in raw["pressure_targets"]],
            crash_rate_per_min=float(raw["crash_rate_per_min"]),
            depart_rate_per_min=float(raw["depart_rate_per_min"]),
            link_rate_per_min=float(raw["link_rate_per_min"]),
            pressure_rate_per_min=float(raw["pressure_rate_per_min"]),
            injection_window=window,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "crash_targets": list(self.crash_targets),
            "depart_targets": list(self.depart_targets),
            "link_pairs": [list(p) for p in self.link_pairs],
            "pressure_targets": list(self.pressure_targets),
            "crash_rate_per_min": self.crash_rate_per_min,
            "depart_rate_per_min": self.depart_rate_per_min,
            "link_rate_per_min": self.link_rate_per_min,
            "pressure_rate_per_min": self.pressure_rate_per_min,
            "injection_window": self.injection_window,
        }


@dataclass
class FaultsSpec:
    """The scenario's fault plan: a seeded storm, scripted events, or both."""

    random: Optional[RandomFaultsSpec] = None
    scripted: List[ScriptedFaultSpec] = field(default_factory=list)
    heartbeat_interval_s: float = 2.0
    suspicion_threshold: float = 3.0

    @classmethod
    def from_dict(cls, data: object, path: str) -> "FaultsSpec":
        raw = _take(
            _require_mapping(data, path),
            path,
            {
                "random": None,
                "scripted": [],
                "heartbeat_interval_s": 2.0,
                "suspicion_threshold": 3.0,
            },
        )
        scripted_raw = raw["scripted"]
        if not isinstance(scripted_raw, list):
            raise ScenarioValidationError(
                f"{path}.scripted", "expected a list of fault events"
            )
        return cls(
            random=(
                RandomFaultsSpec.from_dict(raw["random"], f"{path}.random")
                if raw["random"] is not None
                else None
            ),
            scripted=[
                ScriptedFaultSpec.from_dict(item, f"{path}.scripted[{index}]")
                for index, item in enumerate(scripted_raw)
            ],
            heartbeat_interval_s=float(raw["heartbeat_interval_s"]),
            suspicion_threshold=float(raw["suspicion_threshold"]),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "random": self.random.to_dict() if self.random is not None else None,
            "scripted": [item.to_dict() for item in self.scripted],
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "suspicion_threshold": self.suspicion_threshold,
        }

    def targets(self) -> List[str]:
        """Every device name the plan touches (for cross-validation)."""
        names: List[str] = []
        if self.random is not None:
            names.extend(self.random.crash_targets)
            names.extend(self.random.depart_targets)
            names.extend(self.random.pressure_targets)
            for pair in self.random.link_pairs:
                names.extend(pair)
        for item in self.scripted:
            names.append(item.target)
            if item.peer is not None:
                names.append(item.peer)
        return names


@dataclass
class LadderLevelSpec:
    """One rung of the degradation ladder."""

    label: str
    user_qos: Dict[str, object] = field(default_factory=dict)
    demand_scale: float = 1.0

    @classmethod
    def from_dict(cls, data: object, path: str) -> "LadderLevelSpec":
        raw = _take(
            _require_mapping(data, path),
            path,
            {"label": _REQUIRED, "user_qos": {}, "demand_scale": 1.0},
        )
        scale = float(raw["demand_scale"])
        if not 0.0 < scale <= 1.0:
            raise ScenarioValidationError(
                f"{path}.demand_scale", "must be in (0, 1]"
            )
        return cls(
            label=str(_required(raw["label"], f"{path}.label")),
            user_qos=_qos_dict(raw["user_qos"], f"{path}.user_qos"),
            demand_scale=scale,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "user_qos": dict(self.user_qos),
            "demand_scale": self.demand_scale,
        }


@dataclass
class ServerSpec:
    """Per-shard serving knobs (queue, workers, service-time floor)."""

    queue_capacity: int = 16
    workers: int = 1
    min_service_s: float = 1.5
    skip_downloads: bool = True
    preinstall: bool = True
    max_conflict_retries: int = 2

    @classmethod
    def from_dict(cls, data: object, path: str) -> "ServerSpec":
        raw = _take(
            _require_mapping(data, path),
            path,
            {
                "queue_capacity": 16,
                "workers": 1,
                "min_service_s": 1.5,
                "skip_downloads": True,
                "preinstall": True,
                "max_conflict_retries": 2,
            },
        )
        return cls(
            queue_capacity=int(raw["queue_capacity"]),
            workers=int(raw["workers"]),
            min_service_s=float(raw["min_service_s"]),
            skip_downloads=bool(raw["skip_downloads"]),
            preinstall=bool(raw["preinstall"]),
            max_conflict_retries=int(raw["max_conflict_retries"]),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "queue_capacity": self.queue_capacity,
            "workers": self.workers,
            "min_service_s": self.min_service_s,
            "skip_downloads": self.skip_downloads,
            "preinstall": self.preinstall,
            "max_conflict_retries": self.max_conflict_retries,
        }


@dataclass
class ClusterSpec:
    """Sharding topology: one spec-built testbed per shard."""

    shards: int = 1
    router: str = "hash"

    @classmethod
    def from_dict(cls, data: object, path: str) -> "ClusterSpec":
        raw = _take(
            _require_mapping(data, path),
            path,
            {"shards": 1, "router": "hash"},
        )
        shards = int(raw["shards"])
        if shards < 1:
            raise ScenarioValidationError(f"{path}.shards", "need at least 1 shard")
        router = str(raw["router"])
        if router not in ROUTERS:
            raise ScenarioValidationError(
                f"{path}.router",
                f"unknown router {router!r} (choose from {', '.join(ROUTERS)})",
            )
        return cls(shards=shards, router=router)

    def to_dict(self) -> Dict[str, object]:
        return {"shards": self.shards, "router": self.router}


@dataclass
class ControlSpec:
    """Predictive control-plane knobs."""

    enabled: bool = False
    tick_interval_s: float = 1.0
    window_s: float = 30.0

    @classmethod
    def from_dict(cls, data: object, path: str) -> "ControlSpec":
        raw = _take(
            _require_mapping(data, path),
            path,
            {"enabled": False, "tick_interval_s": 1.0, "window_s": 30.0},
        )
        return cls(
            enabled=bool(raw["enabled"]),
            tick_interval_s=float(raw["tick_interval_s"]),
            window_s=float(raw["window_s"]),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "enabled": self.enabled,
            "tick_interval_s": self.tick_interval_s,
            "window_s": self.window_s,
        }


# ---------------------------------------------------------------------------
# the top-level spec
# ---------------------------------------------------------------------------


@dataclass
class ScenarioSpec:
    """One validated scenario document.

    A single ``seed`` reproduces the whole run: the compile pass derives
    per-subsystem seeds from it (arrivals, faults), so two loads of the
    same document replay byte-identically.
    """

    name: str
    components: Dict[str, ComponentSpec]
    endpoints: Dict[str, EndpointSpec]
    devices: Dict[str, DeviceSpec]
    links: List[LinkSpec]
    workloads: Dict[str, WorkloadSpec]
    arrivals: ArrivalSpec
    description: str = ""
    seed: int = 42
    domain: str = "domain"
    hubs: List[str] = field(default_factory=list)
    faults: Optional[FaultsSpec] = None
    ladder: List[LadderLevelSpec] = field(default_factory=list)
    server: ServerSpec = field(default_factory=ServerSpec)
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    control: ControlSpec = field(default_factory=ControlSpec)

    @classmethod
    def from_dict(cls, data: object) -> "ScenarioSpec":
        raw = _take(
            _require_mapping(data, ""),
            "",
            {
                "name": _REQUIRED,
                "description": "",
                "seed": 42,
                "domain": "domain",
                "components": _REQUIRED,
                "endpoints": _REQUIRED,
                "devices": _REQUIRED,
                "hubs": [],
                "links": _REQUIRED,
                "workloads": _REQUIRED,
                "arrivals": _REQUIRED,
                "faults": None,
                "ladder": [],
                "server": {},
                "cluster": {},
                "control": {},
            },
        )
        name = str(_required(raw["name"], "name"))
        seed = raw["seed"]
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ScenarioValidationError("seed", f"must be an integer, got {seed!r}")
        components = {
            comp_id: ComponentSpec.from_dict(comp, f"components.{comp_id}")
            for comp_id, comp in _require_mapping(
                _required(raw["components"], "components"), "components"
            ).items()
        }
        endpoints = {
            ep_id: EndpointSpec.from_dict(ep, f"endpoints.{ep_id}")
            for ep_id, ep in _require_mapping(
                _required(raw["endpoints"], "endpoints"), "endpoints"
            ).items()
        }
        devices = {
            dev_id: DeviceSpec.from_dict(dev, f"devices.{dev_id}")
            for dev_id, dev in _require_mapping(
                _required(raw["devices"], "devices"), "devices"
            ).items()
        }
        hubs = raw["hubs"]
        if not isinstance(hubs, list):
            raise ScenarioValidationError("hubs", "expected a list of names")
        links_raw = _required(raw["links"], "links")
        if not isinstance(links_raw, list):
            raise ScenarioValidationError("links", "expected a list of links")
        links = [
            LinkSpec.from_dict(item, f"links[{index}]")
            for index, item in enumerate(links_raw)
        ]
        workloads = {
            wl_id: WorkloadSpec.from_dict(wl, f"workloads.{wl_id}")
            for wl_id, wl in _require_mapping(
                _required(raw["workloads"], "workloads"), "workloads"
            ).items()
        }
        ladder_raw = raw["ladder"]
        if not isinstance(ladder_raw, list):
            raise ScenarioValidationError("ladder", "expected a list of levels")
        spec = cls(
            name=name,
            description=str(raw["description"]),
            seed=seed,
            domain=str(raw["domain"]),
            components=components,
            endpoints=endpoints,
            devices=devices,
            hubs=[str(h) for h in hubs],
            links=links,
            workloads=workloads,
            arrivals=ArrivalSpec.from_dict(
                _required(raw["arrivals"], "arrivals"), "arrivals"
            ),
            faults=(
                FaultsSpec.from_dict(raw["faults"], "faults")
                if raw["faults"] is not None
                else None
            ),
            ladder=[
                LadderLevelSpec.from_dict(item, f"ladder[{index}]")
                for index, item in enumerate(ladder_raw)
            ],
            server=ServerSpec.from_dict(raw["server"], "server"),
            cluster=ClusterSpec.from_dict(raw["cluster"], "cluster"),
            control=ControlSpec.from_dict(raw["control"], "control"),
        )
        spec.validate()
        return spec

    # -- cross-reference validation ----------------------------------

    def device_ids(self) -> List[str]:
        """Concrete device ids after ``count`` replication, sorted."""
        out: List[str] = []
        for name, device in self.devices.items():
            out.extend(self.expand_device(name))
        return sorted(out)

    def expand_device(self, name: str) -> List[str]:
        """Concrete ids for one declared device (replicas get ``-<i>``)."""
        device = self.devices[name]
        if device.count == 1:
            return [name]
        return [f"{name}-{i}" for i in range(1, device.count + 1)]

    def resolve_device_ref(self, name: str, path: str) -> List[str]:
        """A device reference: a declared name (expanding replicas)."""
        if name in self.devices:
            return self.expand_device(name)
        raise ScenarioValidationError(
            path,
            f"unknown device {name!r} "
            f"(declared: {', '.join(sorted(self.devices))})",
        )

    def validate(self) -> None:
        """Cross-reference checks over the whole document."""
        if not self.devices:
            raise ScenarioValidationError("devices", "need at least one device")
        if not self.workloads:
            raise ScenarioValidationError("workloads", "need at least one workload")
        attach_points = set(self.hubs)
        for name in self.devices:
            attach_points.update(self.expand_device(name))
            attach_points.add(name)  # base name = every replica, for links
        for index, link in enumerate(self.links):
            for end in (link.first, link.second):
                if end not in attach_points:
                    raise ScenarioValidationError(
                        f"links[{index}]",
                        f"unknown endpoint {end!r}: not a declared device "
                        f"or hub",
                    )
            first_multi = (
                link.first in self.devices
                and self.devices[link.first].count > 1
            )
            second_multi = (
                link.second in self.devices
                and self.devices[link.second].count > 1
            )
            if first_multi and second_multi:
                raise ScenarioValidationError(
                    f"links[{index}]",
                    "cannot connect two replicated device pools directly; "
                    "route them through a hub",
                )
        provided_types = set()
        for ep_id, endpoint in self.endpoints.items():
            if endpoint.component not in self.components:
                raise ScenarioValidationError(
                    f"endpoints.{ep_id}.component",
                    f"unknown component {endpoint.component!r} "
                    f"(declared: {', '.join(sorted(self.components))})",
                )
            if endpoint.hosted_on is not None:
                hosts = self.resolve_device_ref(
                    endpoint.hosted_on, f"endpoints.{ep_id}.hosted_on"
                )
                if len(hosts) != 1:
                    raise ScenarioValidationError(
                        f"endpoints.{ep_id}.hosted_on",
                        f"{endpoint.hosted_on!r} is a replicated pool; "
                        "endpoints pin to exactly one device",
                    )
            provided_types.add(self.components[endpoint.component].service_type)
        for wl_id, workload in self.workloads.items():
            for node_id, node in workload.nodes.items():
                if node.service_type not in provided_types:
                    raise ScenarioValidationError(
                        f"workloads.{wl_id}.nodes.{node_id}.service_type",
                        f"no endpoint provides {node.service_type!r} "
                        f"(provided: {', '.join(sorted(provided_types))})",
                    )
                if node.pin is not None and node.pin != "client":
                    self.resolve_device_ref(
                        node.pin, f"workloads.{wl_id}.nodes.{node_id}.pin"
                    )
            for client in workload.clients:
                self.resolve_device_ref(client, f"workloads.{wl_id}.clients")
        for workload in self.arrivals.mix:
            if workload not in self.workloads:
                raise ScenarioValidationError(
                    f"arrivals.mix.{workload}",
                    f"unknown workload {workload!r} "
                    f"(declared: {', '.join(sorted(self.workloads))})",
                )
        if self.faults is not None:
            for target in self.faults.targets():
                if target not in set(self.hubs) and target not in self.devices:
                    concrete = set()
                    for name in self.devices:
                        concrete.update(self.expand_device(name))
                    if target not in concrete:
                        raise ScenarioValidationError(
                            "faults",
                            f"unknown fault target {target!r}: not a "
                            f"declared device or hub",
                        )
            if self.cluster.shards > 1:
                raise ScenarioValidationError(
                    "faults",
                    "fault schedules require a single-shard scenario "
                    "(cluster.shards == 1)",
                )
        labels = [level.label for level in self.ladder]
        if len(labels) != len(set(labels)):
            raise ScenarioValidationError("ladder", "duplicate level labels")

    # -- serialization -----------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "domain": self.domain,
            "components": {
                comp_id: comp.to_dict()
                for comp_id, comp in self.components.items()
            },
            "endpoints": {
                ep_id: ep.to_dict() for ep_id, ep in self.endpoints.items()
            },
            "devices": {
                dev_id: dev.to_dict() for dev_id, dev in self.devices.items()
            },
            "hubs": list(self.hubs),
            "links": [link.to_dict() for link in self.links],
            "workloads": {
                wl_id: wl.to_dict() for wl_id, wl in self.workloads.items()
            },
            "arrivals": self.arrivals.to_dict(),
            "faults": self.faults.to_dict() if self.faults is not None else None,
            "ladder": [level.to_dict() for level in self.ladder],
            "server": self.server.to_dict(),
            "cluster": self.cluster.to_dict(),
            "control": self.control.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def load_scenario(source: Union[str, Path]) -> ScenarioSpec:
    """Load and validate a scenario from a YAML or JSON file.

    ``source`` is a path; ``.json`` parses as JSON, anything else as YAML
    (YAML is a JSON superset, so either works for ``.yaml``/``.yml``).
    """
    path = Path(source)
    text = path.read_text()
    if path.suffix == ".json":
        data = json.loads(text)
    else:
        data = loads_scenario_text(text, validate=False)
        return ScenarioSpec.from_dict(data)
    return ScenarioSpec.from_dict(data)


def loads_scenario_text(text: str, validate: bool = True):
    """Parse scenario YAML text; with ``validate=True`` return a spec."""
    import yaml

    data = yaml.safe_load(text)
    if validate:
        return ScenarioSpec.from_dict(data)
    return data
