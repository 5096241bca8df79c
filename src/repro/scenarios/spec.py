"""The declarative scenario spec: parse, validate, serialize.

A scenario is data, not Python: one YAML (or JSON) document declares the
whole environment — component templates, registry endpoints, device and
link classes, abstract workload graphs with their relations, the arrival
mix, long-lived sessions, an optional fault schedule, the degradation
ladder, and the server/cluster/controller knobs — plus one top-level
``seed`` that reproduces the entire run. :func:`load_scenario` parses
and validates; :func:`repro.scenarios.compile.compile_scenario` lowers
the spec into the live objects every harness in this repo builds by hand.

Every section is a :class:`Section` dataclass, and its fields are its
grammar: the annotation gives the type, and :func:`doc` metadata gives
the document key, the allowed choices and the numeric bound. One generic
parser and one generic :meth:`Section.to_dict` walk that field table, so
no section hand-writes either direction. Types are checked, not coerced:
a string is never read as a boolean, a float never truncates to an
integer, and numbers are finite. Unknown keys anywhere are errors (a typo
never silently becomes a default).

Shape checks live in the table (plus a section's ``_check`` hook for
what one field cannot say); cross-references live in
:meth:`ScenarioSpec.validate`: endpoint templates must name declared
components, link endpoints must name declared devices or hubs, workload
clients, session clients and fault targets must resolve to devices, and
arrival mixes and sessions must name declared workloads. Errors carry
the spec path (``workloads.listen.clients``) so a catalog author can fix
the line.

QoS vectors are written as plain mappings and coerced on compile:
a number or string is a single value, a two-element numeric list is a
range, any other list is a set — mirroring
:func:`repro.qos.parameters.as_qos_value`.

Specs round-trip: ``ScenarioSpec.from_dict(spec.to_dict()) == spec``.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

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
#: The one fault that hits a domain's service rather than a device: the
#: service dies mid-run and a successor boots on the same record store.
EPOCH_KILL = "epoch_kill"
FAULT_KINDS = tuple(sorted([kind.value for kind in FaultKind] + [EPOCH_KILL]))
ARRIVAL_PROCESSES = ("poisson", "pareto")
DURATION_PROCESSES = ("exponential", "pareto")

Parse = Callable[[object, str], object]


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


# ---------------------------------------------------------------------------
# the field table
# ---------------------------------------------------------------------------


def doc(
    default: object = MISSING,
    *,
    factory: object = MISSING,
    key: Optional[str] = None,
    choices: Optional[Tuple[str, Tuple[str, ...]]] = None,
    gt: Optional[float] = None,
    ge: Optional[float] = None,
    le: Optional[float] = None,
    omit_none: bool = False,
):
    """A section field with grammar metadata.

    ``key`` is the document key when it differs from the attribute name;
    ``choices`` is ``(noun, allowed)`` and applies to the value or to each
    element of a list value; ``gt``/``ge``/``le`` bound every number the
    field holds; ``omit_none`` leaves a ``None`` value out of ``to_dict``.
    """
    return field(
        default=default,
        default_factory=factory,
        metadata=dict(
            key=key, choices=choices, gt=gt, ge=ge, le=le, omit_none=omit_none
        ),
    )


def _number(whole: bool, gt=None, ge=None, le=None) -> Parse:
    """A number leaf: integers for ``whole``, finite floats otherwise."""
    noun = "integer" if whole else "finite number"
    if le is not None and ge is not None:
        what = f"a {noun} in [{ge:g}, {le:g}]"
    elif le is not None:
        what = f"a {noun} in ({gt:g}, {le:g}]"
    elif gt == 0:
        what = f"a positive {noun}"
    elif ge == 0:
        what = f"a non-negative {noun}"
    elif gt is not None:
        what = f"a {noun} > {gt:g}"
    else:
        what = f"an {noun}" if whole else f"a {noun}"
    message = f"must be {what}, got {{!r}}"

    def parse(value: object, path: str) -> object:
        if isinstance(value, bool) or not isinstance(
            value, int if whole else (int, float)
        ):
            raise ScenarioValidationError(path, message.format(value))
        if not whole:
            try:
                value = float(value)
            except OverflowError:
                value = math.inf
        if (
            not (whole or math.isfinite(value))
            or (gt is not None and not value > gt)
            or (ge is not None and not value >= ge)
            or (le is not None and not value <= le)
        ):
            raise ScenarioValidationError(path, message.format(value))
        return value

    return parse


def _string(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioValidationError(path, f"expected a string, got {value!r}")
    return value


def _boolean(value: object, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioValidationError(path, f"must be true or false, got {value!r}")
    return value


def _qos_value(value: object, path: str) -> object:
    """A QoS value's shape: a scalar or a non-empty list (coerced on compile)."""
    if isinstance(value, (int, float, str, bool)):
        return value
    if isinstance(value, list):
        if not value:
            raise ScenarioValidationError(path, "empty list is not a QoS value")
        return list(value)
    raise ScenarioValidationError(
        path, f"QoS values are scalars or lists, got {type(value).__name__}"
    )


def _compile(hint: object, meta: Dict[str, object]) -> Parse:
    """One annotation (plus its field's bound) → a ``(value, path)`` parser."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:
        (inner,) = [arg for arg in args if arg is not type(None)]
        item = _compile(inner, meta)
        return lambda value, path: None if value is None else item(value, path)
    if origin is dict:
        item = _compile(args[1], meta)
        return lambda value, path: {
            name: item(raw, f"{path}.{name}")
            for name, raw in _require_mapping(value, path).items()
        }
    if origin is list:
        item = _compile(args[0], meta)

        def parse_list(value: object, path: str) -> list:
            if not isinstance(value, list):
                raise ScenarioValidationError(path, f"expected a list, got {value!r}")
            return [item(raw, f"{path}[{index}]") for index, raw in enumerate(value)]

        return parse_list
    if origin is tuple:
        items = [_compile(arg, meta) for arg in args]

        def parse_tuple(value: object, path: str) -> tuple:
            if not isinstance(value, list) or len(value) != len(items):
                raise ScenarioValidationError(
                    path, f"expected a list of {len(items)}, got {value!r}"
                )
            return tuple(
                parse(raw, f"{path}[{index}]")
                for index, (parse, raw) in enumerate(zip(items, value))
            )

        return parse_tuple
    if isinstance(hint, type) and issubclass(hint, Section):
        return hint.from_dict
    if hint in (int, float):
        bound = {name: meta[name] for name in ("gt", "ge", "le")}
        return _number(hint is int, **bound)
    leaves = {str: _string, bool: _boolean, object: _qos_value}
    return leaves[hint]


def _with_choices(parse: Parse, noun: str, allowed: Tuple[str, ...]) -> Parse:
    def check(value: object, path: str) -> object:
        value = parse(value, path)
        for item in value if isinstance(value, list) else (value,):
            if item not in allowed:
                raise ScenarioValidationError(
                    path,
                    f"unknown {noun} {item!r} (choose from {', '.join(allowed)})",
                )
        return value

    return check


_NO_METADATA = doc().metadata


@dataclass(frozen=True)
class _Row:
    """One field of a section's table (keyed by its document key)."""

    name: str
    parse: Parse
    required: bool
    omit_none: bool


class Section:
    """A document section: parsed and serialized from its dataclass fields."""

    @classmethod
    def _table(cls) -> Dict[str, _Row]:
        """Document key → row, built once per class."""
        table = cls.__dict__.get("_rows")
        if table is None:
            hints = typing.get_type_hints(cls)
            table = {}
            for spec_field in fields(cls):
                meta = spec_field.metadata or _NO_METADATA
                parse = _compile(hints[spec_field.name], meta)
                if meta["choices"] is not None:
                    parse = _with_choices(parse, *meta["choices"])
                table[meta["key"] or spec_field.name] = _Row(
                    name=spec_field.name,
                    parse=parse,
                    required=(
                        spec_field.default is MISSING
                        and spec_field.default_factory is MISSING
                    ),
                    omit_none=meta["omit_none"],
                )
            cls._rows = table
        return table

    @classmethod
    def _normalize(cls, data: object, path: str) -> object:
        """Rewrite a shorthand form of the section into its mapping."""
        return data

    def _check(self, path: str) -> None:
        """Checks across fields that no single row can express."""

    @classmethod
    def from_dict(cls, data: object, path: str = ""):
        """Parse one section document; errors name the field's ``path``."""
        table = cls._table()
        raw = _require_mapping(cls._normalize(data, path), path)
        if not raw.keys() <= table.keys():
            unknown = sorted(raw.keys() - table.keys())
            raise ScenarioValidationError(
                path,
                f"unknown key(s) {', '.join(repr(k) for k in unknown)} "
                f"(expected: {', '.join(sorted(table))})",
            )
        prefix = f"{path}." if path else ""
        values = {}
        for key, value in raw.items():
            row = table[key]
            values[row.name] = row.parse(value, prefix + key)
        if len(values) < len(table):
            for key, row in table.items():
                if row.required and key not in raw:
                    raise ScenarioValidationError(
                        prefix + key, "required key is missing"
                    )
        section = cls(**values)
        section._check(path)
        return section

    def to_dict(self) -> Dict[str, object]:
        """The section as plain document data (lists, dicts, scalars)."""
        out: Dict[str, object] = {}
        for key, row in self._table().items():
            value = getattr(self, row.name)
            if not (value is None and row.omit_none):
                out[key] = _plain(value)
        return out


def _plain(value: object) -> object:
    if isinstance(value, Section):
        return value.to_dict()
    if isinstance(value, dict):
        return {name: _plain(item) for name, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


# ---------------------------------------------------------------------------
# sub-specs
# ---------------------------------------------------------------------------


@dataclass
class ComponentSpec(Section):
    """One reusable component template (a registry entry's payload)."""

    service_type: str
    qos_input: Dict[str, object] = field(default_factory=dict)
    qos_output: Dict[str, object] = field(default_factory=dict)
    resources: Dict[str, float] = doc(factory=dict, ge=0)
    code_size_kb: float = 0.0
    state_size_kb: float = 0.0
    attributes: Dict[str, str] = field(default_factory=dict)


@dataclass
class EndpointSpec(Section):
    """One registered service endpoint: a component offered for discovery."""

    component: str
    attributes: Dict[str, str] = field(default_factory=dict)
    hosted_on: Optional[str] = None
    platforms: List[str] = doc(
        factory=list, choices=("device class", DEVICE_CLASSES)
    )


@dataclass
class DeviceSpec(Section):
    """One device (or a replicated pool of identical devices)."""

    device_class: str = doc(key="class", choices=("device class", DEVICE_CLASSES))
    capacity: Dict[str, float] = doc(ge=0)
    count: int = doc(1, gt=0)


@dataclass
class LinkSpec(Section):
    """One (bidirectional) link between devices and/or hubs."""

    first: str
    second: str
    link_class: str = doc(
        LinkClass.FAST_ETHERNET.label,
        key="class",
        choices=("link class", tuple(sorted(LINK_CLASSES))),
    )
    bandwidth_mbps: Optional[float] = None
    latency_ms: Optional[float] = None

    @classmethod
    def _normalize(cls, data: object, path: str) -> object:
        if not isinstance(data, list):
            return data
        if len(data) not in (2, 3):
            raise ScenarioValidationError(
                path, "list links are [first, second] or [first, second, class]"
            )
        return dict(zip(("first", "second", "class"), data))


@dataclass
class WorkloadNodeSpec(Section):
    """One abstract component in a workload's service graph."""

    service_type: str
    attributes: Dict[str, str] = field(default_factory=dict)
    required_output: Dict[str, object] = field(default_factory=dict)
    optional: bool = False
    #: ``"client"`` pins to the requesting device; any other string pins
    #: to that named device; None leaves placement to the distributor.
    pin: Optional[str] = None


@dataclass
class WorkloadSpec(Section):
    """One request shape: abstract graph + relations + client pool."""

    nodes: Dict[str, WorkloadNodeSpec]
    #: ``(source, target, throughput_mbps)`` edges between node ids.
    relations: List[Tuple[str, str, float]] = field(default_factory=list)
    user_qos: Dict[str, object] = field(default_factory=dict)
    clients: List[str] = field(default_factory=list)
    priority: int = 0
    #: Named utility profile ordering this class's degradation walk
    #: (see ``repro.distribution.pareto.UTILITY_PROFILES``); None keeps
    #: the ladder's best-fidelity-first order.
    utility_profile: Optional[str] = doc(None, omit_none=True)

    def _check(self, path: str) -> None:
        if not self.nodes:
            raise ScenarioValidationError(
                f"{path}.nodes", "a workload needs at least one node"
            )
        for index, relation in enumerate(self.relations):
            for end in relation[:2]:
                if end not in self.nodes:
                    raise ScenarioValidationError(
                        f"{path}.relations[{index}]",
                        f"unknown node {end!r} "
                        f"(declared: {', '.join(sorted(self.nodes))})",
                    )
        if not self.clients:
            raise ScenarioValidationError(
                f"{path}.clients", "expected a non-empty list of device names"
            )
        if self.utility_profile is not None:
            from repro.distribution.pareto import UTILITY_PROFILES

            if self.utility_profile not in UTILITY_PROFILES:
                raise ScenarioValidationError(
                    f"{path}.utility_profile",
                    f"unknown utility profile {self.utility_profile!r} "
                    f"(known: {', '.join(sorted(UTILITY_PROFILES))})",
                )


@dataclass
class ArrivalSpec(Section):
    """The offered load: rate, horizon, processes, and workload mix."""

    #: 0 declares no arrivals at all (a run of held ``sessions`` only).
    rate_per_s: float = doc(ge=0)
    horizon_s: float = doc(gt=0)
    arrival_process: str = doc(
        "poisson", choices=("process", ARRIVAL_PROCESSES)
    )
    duration_process: str = doc(
        "exponential", choices=("process", DURATION_PROCESSES)
    )
    mean_duration_s: float = doc(60.0, gt=0)
    duration_bounds_s: List[float] = field(default_factory=lambda: [1.0, 600.0])
    pareto_alpha: float = doc(1.8, gt=1)
    deadline_s: Optional[float] = 20.0
    #: workload name → integer weight; empty = every workload, weight 1.
    mix: Dict[str, int] = doc(factory=dict, gt=0)
    #: Users the requests recycle (``user-{request_id % users}``); None
    #: gives every request its own user.
    users: Optional[int] = doc(None, gt=0)
    #: False seeds the trace and the fault storm with the scenario seed
    #: itself instead of their derived ``arrivals``/``faults`` streams.
    derive_seed: bool = True

    def _check(self, path: str) -> None:
        bounds = self.duration_bounds_s
        if len(bounds) != 2 or bounds[0] > bounds[1]:
            raise ScenarioValidationError(
                f"{path}.duration_bounds_s",
                f"expected [min_s, max_s] with min_s <= max_s, got {bounds!r}",
            )


@dataclass
class ScriptedFaultSpec(Section):
    """One explicit fault event: a device fault (compiled to a
    ``FaultSpec``) or an ``epoch_kill``, which names no device."""

    kind: str = doc(choices=("fault kind", FAULT_KINDS))
    at_s: float = doc(ge=0)
    target: Optional[str] = None
    peer: Optional[str] = None
    magnitude: float = 0.5
    duration_s: float = 0.0

    def _check(self, path: str) -> None:
        if self.kind != EPOCH_KILL:
            if self.target is None:
                raise ScenarioValidationError(
                    f"{path}.target", "required key is missing"
                )
            return
        for name in ("target", "peer"):
            if getattr(self, name) is not None:
                raise ScenarioValidationError(
                    f"{path}.{name}", "an epoch_kill names no device"
                )


@dataclass
class RandomFaultsSpec(Section):
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
    injection_window: float = doc(0.7, gt=0, le=1)

    def _check(self, path: str) -> None:
        for index, pair in enumerate(self.link_pairs):
            if len(pair) != 2:
                raise ScenarioValidationError(
                    f"{path}.link_pairs[{index}]", "pairs are [first, second]"
                )


@dataclass
class FaultsSpec(Section):
    """The scenario's fault plan: a seeded storm, scripted events, or both.

    A fault on a device hits every domain's copy of that device.
    """

    random: Optional[RandomFaultsSpec] = None
    scripted: List[ScriptedFaultSpec] = field(default_factory=list)
    heartbeat_interval_s: float = doc(2.0, gt=0)
    suspicion_threshold: float = doc(3.0, gt=1)

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
            if item.target is not None:
                names.append(item.target)
            if item.peer is not None:
                names.append(item.peer)
        return names


@dataclass
class SessionSpec(Section):
    """One long-lived session, opened at t=0 and held for the whole run
    in every domain of the serving tree."""

    workload: str
    client: str


@dataclass
class LadderLevelSpec(Section):
    """One rung of the degradation ladder."""

    label: str
    user_qos: Dict[str, object] = field(default_factory=dict)
    demand_scale: float = doc(1.0, gt=0, le=1)


@dataclass
class ServerSpec(Section):
    """Per-shard serving knobs (queue, workers, service-time floor)."""

    queue_capacity: int = doc(16, gt=0)
    workers: int = doc(1, gt=0)
    min_service_s: float = 1.5
    skip_downloads: bool = True
    preinstall: bool = True
    max_conflict_retries: int = doc(2, ge=0)


@dataclass
class ClusterSpec(Section):
    """Sharding topology: one spec-built testbed per shard."""

    shards: int = doc(1, gt=0)
    router: str = doc("hash", choices=("router", ROUTERS))


@dataclass
class ControlSpec(Section):
    """Predictive control-plane knobs."""

    enabled: bool = False
    tick_interval_s: float = doc(1.0, gt=0)
    window_s: float = doc(30.0, gt=0)


@dataclass
class FederationSpec(Section):
    """Federation topology: member clusters of ``cluster.shards`` shards each.

    ``clusters: 1`` is the plain single-cluster run. With more members,
    requests home on a seeded hot spot, a member sheds into its siblings'
    headroom when ``escalation`` is on, and ``roam_rate`` of the requests
    roam mid-session to a sibling cluster.
    """

    clusters: int = doc(1, gt=0)
    roam_rate: float = doc(0.0, ge=0, le=1)
    escalation: bool = True


# ---------------------------------------------------------------------------
# the top-level spec
# ---------------------------------------------------------------------------


@dataclass
class ScenarioSpec(Section):
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
    sessions: List[SessionSpec] = field(default_factory=list)
    ladder: List[LadderLevelSpec] = field(default_factory=list)
    server: ServerSpec = field(default_factory=ServerSpec)
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    control: ControlSpec = field(default_factory=ControlSpec)
    federation: Optional[FederationSpec] = doc(None, omit_none=True)

    def _check(self, path: str) -> None:
        self.validate()

    @property
    def clusters(self) -> int:
        """Member clusters (1 without a ``federation`` section)."""
        return self.federation.clusters if self.federation else 1

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
        for index, session in enumerate(self.sessions):
            path = f"sessions[{index}]"
            if session.workload not in self.workloads:
                raise ScenarioValidationError(
                    f"{path}.workload",
                    f"unknown workload {session.workload!r} "
                    f"(declared: {', '.join(sorted(self.workloads))})",
                )
            hosts = self.resolve_device_ref(session.client, f"{path}.client")
            if len(hosts) != 1:
                raise ScenarioValidationError(
                    f"{path}.client",
                    f"{session.client!r} is a replicated pool; a session "
                    "runs on exactly one device",
                )
        for target in self.faults.targets() if self.faults else ():
            if target not in attach_points:
                raise ScenarioValidationError(
                    "faults",
                    f"unknown fault target {target!r}: not a declared device "
                    "or hub",
                )
        labels = [level.label for level in self.ladder]
        if len(labels) != len(set(labels)):
            raise ScenarioValidationError("ladder", "duplicate level labels")

    # -- serialization -----------------------------------------------

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
        return ScenarioSpec.from_dict(json.loads(text))
    return loads_scenario_text(text)


def loads_scenario_text(text: str) -> ScenarioSpec:
    """Parse and validate scenario YAML text."""
    import yaml

    return ScenarioSpec.from_dict(yaml.safe_load(text))
