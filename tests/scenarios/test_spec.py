"""Spec grammar: parse, strict validation, exact round-trips."""

import copy
import json

import pytest

from repro.scenarios import (
    ScenarioSpec,
    ScenarioValidationError,
    catalog_scenarios,
    load_catalog_scenario,
    load_scenario,
    loads_scenario_text,
    run_scenario,
    scenario_path,
)

from .conftest import minimal_spec_dict


class TestParse:
    def test_minimal_document(self, spec):
        assert spec.name == "mini"
        assert spec.seed == 5
        assert spec.device_ids() == ["hub", "kiosk"]
        assert spec.cluster.shards == 1
        assert not spec.control.enabled
        assert spec.faults is None

    def test_list_form_links(self, spec):
        (link,) = spec.links
        assert (link.first, link.second) == ("hub", "kiosk")
        assert link.link_class == "fast-ethernet"

    def test_replica_expansion(self, spec_dict):
        spec_dict["devices"]["kiosk"]["count"] = 3
        spec = ScenarioSpec.from_dict(spec_dict)
        assert spec.expand_device("kiosk") == ["kiosk-1", "kiosk-2", "kiosk-3"]
        assert "kiosk-2" in spec.device_ids()

    def test_seed_must_be_integer(self, spec_dict):
        spec_dict["seed"] = "42"
        with pytest.raises(ScenarioValidationError, match="seed"):
            ScenarioSpec.from_dict(spec_dict)


class TestValidation:
    def test_unknown_top_level_key(self, spec_dict):
        spec_dict["wrokloads"] = {}
        with pytest.raises(ScenarioValidationError, match="unknown key"):
            ScenarioSpec.from_dict(spec_dict)

    def test_unknown_component(self, spec_dict):
        spec_dict["endpoints"]["src@hub"]["component"] = "nope"
        with pytest.raises(
            ScenarioValidationError, match="unknown component 'nope'"
        ) as excinfo:
            ScenarioSpec.from_dict(spec_dict)
        assert "endpoints.src@hub.component" in str(excinfo.value)

    def test_unknown_endpoint_service_type(self, spec_dict):
        spec_dict["workloads"]["watch"]["nodes"]["b"][
            "service_type"
        ] = "hologram_player"
        with pytest.raises(
            ScenarioValidationError,
            match="no endpoint provides 'hologram_player'",
        ):
            ScenarioSpec.from_dict(spec_dict)

    def test_unknown_device_class(self, spec_dict):
        spec_dict["devices"]["hub"]["class"] = "mainframe"
        with pytest.raises(
            ScenarioValidationError, match="unknown device class"
        ):
            ScenarioSpec.from_dict(spec_dict)

    def test_unknown_link_class(self, spec_dict):
        spec_dict["links"] = [["hub", "kiosk", "carrier-pigeon"]]
        with pytest.raises(
            ScenarioValidationError, match="unknown link class"
        ):
            ScenarioSpec.from_dict(spec_dict)

    def test_link_to_undeclared_device(self, spec_dict):
        spec_dict["links"] = [["hub", "ghost"]]
        with pytest.raises(
            ScenarioValidationError, match="unknown endpoint 'ghost'"
        ):
            ScenarioSpec.from_dict(spec_dict)

    def test_unknown_client_device(self, spec_dict):
        spec_dict["workloads"]["watch"]["clients"] = ["ghost"]
        with pytest.raises(
            ScenarioValidationError, match="unknown device 'ghost'"
        ):
            ScenarioSpec.from_dict(spec_dict)

    def test_unknown_mix_workload(self, spec_dict):
        spec_dict["arrivals"]["mix"] = {"listen": 1}
        with pytest.raises(
            ScenarioValidationError, match="unknown workload 'listen'"
        ):
            ScenarioSpec.from_dict(spec_dict)

    def test_unknown_fault_target(self, spec_dict):
        spec_dict["faults"] = {
            "random": {"crash_targets": ["ghost"], "crash_rate_per_min": 1.0}
        }
        with pytest.raises(
            ScenarioValidationError, match="unknown fault target 'ghost'"
        ):
            ScenarioSpec.from_dict(spec_dict)

    @pytest.mark.parametrize(
        "shape, domains",
        [
            ({"cluster": {"shards": 2}}, ["shard0", "shard1"]),
            ({"federation": {"clusters": 2}}, ["cluster0.shard0", "cluster1.shard0"]),
        ],
        ids=["shards", "clusters"],
    )
    def test_faults_run_in_every_domain(self, spec_dict, shape, domains):
        spec_dict["faults"] = {
            "random": {"crash_targets": ["kiosk"], "crash_rate_per_min": 1.0}
        }
        lone = run_scenario(ScenarioSpec.from_dict(copy.deepcopy(spec_dict)))
        spec_dict.update(shape)
        result = run_scenario(ScenarioSpec.from_dict(spec_dict))
        assert sorted(result.domains) == domains
        injected = lone.recovery["counters"]["recovery.faults_injected"]
        assert injected > 0
        for reading in result.domains.values():
            counters = reading["recovery"]["counters"]
            assert counters["recovery.faults_injected"] == injected
        assert result.faults_injected == len(domains) * injected

    @pytest.mark.parametrize(
        "shape, domains",
        [
            ({"cluster": {"shards": 2}}, ["shard0", "shard1"]),
            ({"federation": {"clusters": 2}}, ["cluster0.shard0", "cluster1.shard0"]),
        ],
        ids=["shards", "clusters"],
    )
    def test_sessions_held_in_every_domain(self, spec_dict, shape, domains):
        spec_dict["sessions"] = [{"workload": "watch", "client": "kiosk"}]
        spec_dict.update(shape)
        result = run_scenario(ScenarioSpec.from_dict(spec_dict))
        assert result.domains == {
            name: {"sessions": {"user-kiosk": 1}} for name in domains
        }
        assert json.loads(result.to_json())["domains"] == result.domains

    def test_session_on_a_replicated_pool(self, spec_dict):
        spec_dict["devices"]["kiosk"]["count"] = 2
        spec_dict["sessions"] = [{"workload": "watch", "client": "kiosk"}]
        with pytest.raises(
            ScenarioValidationError, match="replicated pool"
        ) as excinfo:
            ScenarioSpec.from_dict(spec_dict)
        assert excinfo.value.path == "sessions[0].client"

    def test_control_runs_in_every_cluster(self, spec_dict):
        spec_dict["control"] = {"enabled": True}
        spec_dict["federation"] = {"clusters": 3}
        result = run_scenario(ScenarioSpec.from_dict(spec_dict))
        assert result.controlled and result.clusters == 3
        assert result.control_forecasts > 0

    def test_duplicate_ladder_labels(self, spec_dict):
        level = {"user_qos": {"frame_rate": [10.0, 40.0]}, "demand_scale": 1.0}
        spec_dict["ladder"] = [
            dict(level, label="full"),
            dict(level, label="full", demand_scale=0.5),
        ]
        with pytest.raises(
            ScenarioValidationError, match="duplicate level labels"
        ):
            ScenarioSpec.from_dict(spec_dict)

    def test_replicated_pools_cannot_link_directly(self, spec_dict):
        spec_dict["devices"]["hub"]["count"] = 2
        spec_dict["devices"]["kiosk"]["count"] = 2
        with pytest.raises(
            ScenarioValidationError, match="replicated device pools"
        ):
            ScenarioSpec.from_dict(spec_dict)


class TestArrivalUsersAndSeeding:
    def test_defaults(self, spec):
        assert spec.arrivals.users is None
        assert spec.arrivals.derive_seed is True

    def test_round_trip(self, spec_dict):
        spec_dict["arrivals"].update(users=7, derive_seed=False)
        spec = ScenarioSpec.from_dict(spec_dict)
        assert spec.arrivals.users == 7
        assert spec.arrivals.derive_seed is False
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("users", [0, -3, 2.5, "many", True])
    def test_users_must_be_a_positive_integer(self, spec_dict, users):
        spec_dict["arrivals"]["users"] = users
        with pytest.raises(
            ScenarioValidationError, match="positive integer"
        ) as excinfo:
            ScenarioSpec.from_dict(spec_dict)
        assert excinfo.value.path == "arrivals.users"

    @pytest.mark.parametrize("flag", ["no", 0, None])
    def test_derive_seed_must_be_a_boolean(self, spec_dict, flag):
        spec_dict["arrivals"]["derive_seed"] = flag
        with pytest.raises(
            ScenarioValidationError, match="true or false"
        ) as excinfo:
            ScenarioSpec.from_dict(spec_dict)
        assert excinfo.value.path == "arrivals.derive_seed"


class TestSessionsSection:
    def test_absent_section_is_empty(self, spec):
        assert spec.sessions == []

    def test_round_trip(self, spec_dict):
        spec_dict["sessions"] = [
            {"workload": "watch", "client": "kiosk"},
            {"workload": "watch", "client": "hub"},
        ]
        spec = ScenarioSpec.from_dict(spec_dict)
        assert [(s.workload, s.client) for s in spec.sessions] == [
            ("watch", "kiosk"),
            ("watch", "hub"),
        ]
        assert spec.to_dict()["sessions"] == spec_dict["sessions"]
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_zero_rate_is_allowed(self, spec_dict):
        spec_dict["arrivals"]["rate_per_s"] = 0
        assert ScenarioSpec.from_dict(spec_dict).arrivals.rate_per_s == 0.0

    def test_audio_storm_holds_three_sessions(self):
        spec = load_catalog_scenario("audio_storm")
        assert [(s.workload, s.client) for s in spec.sessions] == [
            ("listen", "jornada"),
            ("listen", "desktop2"),
            ("listen", "desktop3"),
        ]
        assert spec.arrivals.rate_per_s == 0
        assert not spec.arrivals.derive_seed


class TestFederationSection:
    def test_absent_section_is_one_cluster_and_omitted(self, spec):
        assert spec.federation is None
        assert spec.clusters == 1
        assert "federation" not in spec.to_dict()

    def test_defaults_and_round_trip(self, spec_dict):
        spec_dict["federation"] = {"clusters": 3}
        spec = ScenarioSpec.from_dict(spec_dict)
        assert spec.clusters == 3
        assert spec.federation.roam_rate == 0.0
        assert spec.federation.escalation is True
        assert spec.to_dict()["federation"] == {
            "clusters": 3,
            "roam_rate": 0.0,
            "escalation": True,
        }
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_roam_rate_bound_is_closed(self, spec_dict):
        spec_dict["federation"] = {"roam_rate": -0.1}
        with pytest.raises(
            ScenarioValidationError, match=r"in \[0, 1\]"
        ):
            ScenarioSpec.from_dict(spec_dict)
        for rate in (0, 1):
            spec_dict["federation"] = {"roam_rate": rate}
            assert ScenarioSpec.from_dict(spec_dict).federation.roam_rate == rate

    def test_audio_lab_declares_one_roaming_cluster(self):
        federation = load_catalog_scenario("audio_lab").federation
        assert (federation.clusters, federation.roam_rate) == (1, 0.2)


class TestRoundTrip:
    def test_minimal_round_trip(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self, spec):
        assert ScenarioSpec.from_dict(json.loads(spec.to_json())) == spec

    @pytest.mark.parametrize("name", catalog_scenarios())
    def test_catalog_round_trip(self, name):
        spec = load_catalog_scenario(name)
        assert spec.name == name
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_is_stable(self, spec):
        once = spec.to_dict()
        twice = ScenarioSpec.from_dict(copy.deepcopy(once)).to_dict()
        assert once == twice


class TestLoading:
    def test_catalog_has_the_eight_scenarios(self):
        assert catalog_scenarios() == [
            "audio_lab",
            "audio_storm",
            "conference_crash",
            "conference_mesh",
            "gallery_profiles",
            "smart_home_evening",
            "stadium_surge",
            "vehicular_corridor",
        ]

    def test_unknown_catalog_name(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            scenario_path("atlantis")

    def test_load_json_file(self, tmp_path, spec):
        path = tmp_path / "mini.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        assert load_scenario(path) == spec

    @pytest.mark.parametrize(
        "where",
        [
            ("devices", "hub", "capacity", "cpu"),
            ("components", "src", "resources", "memory"),
        ],
    )
    def test_yaml_nan_resource_amount_names_its_path(self, where):
        yaml = pytest.importorskip("yaml")
        data = minimal_spec_dict()
        *parents, leaf = where
        node = data
        for key in parents:
            node = node[key]
        node[leaf] = "NAN_HERE"
        text = yaml.safe_dump(data).replace("NAN_HERE", ".nan")
        with pytest.raises(ScenarioValidationError, match="finite") as excinfo:
            loads_scenario_text(text)
        assert excinfo.value.path == ".".join(where)

    def test_loads_yaml_text(self, spec):
        yaml = pytest.importorskip("yaml")
        text = yaml.safe_dump(minimal_spec_dict())
        assert loads_scenario_text(text) == spec


_MISSING = object()

#: (where, value, expected error path): set ``where`` in the minimal
#: document to ``value`` (``_MISSING`` deletes the key) and expect a
#: ``ScenarioValidationError`` at that path.
MALFORMED = [
    (("name",), None, "name"),
    (("arrivals",), _MISSING, "arrivals"),
    (("hubs",), "hub", "hubs"),
    (("components", "src", "code_size_kb"), [1], "components.src.code_size_kb"),
    (
        ("components", "src", "qos_output", "frame_rate"),
        [],
        "components.src.qos_output.frame_rate",
    ),
    (
        ("endpoints", "sink/any", "platforms"),
        ["mainframe"],
        "endpoints.sink/any.platforms",
    ),
    (("endpoints", "src@hub", "hosted_on"), 7, "endpoints.src@hub.hosted_on"),
    (("devices", "hub", "count"), 0, "devices.hub.count"),
    (("devices", "hub", "colour"), "red", "devices.hub"),
    (("links", 0), ["hub"], "links[0]"),
    (
        ("links", 0),
        {"first": "hub", "second": "kiosk", "class": "carrier-pigeon"},
        "links[0].class",
    ),
    (
        ("workloads", "watch", "nodes", "b", "optional"),
        "no",
        "workloads.watch.nodes.b.optional",
    ),
    (
        ("workloads", "watch", "nodes", "a", "service_type"),
        _MISSING,
        "workloads.watch.nodes.a.service_type",
    ),
    (
        ("workloads", "watch", "relations"),
        [["a", "z", 1.0]],
        "workloads.watch.relations[0]",
    ),
    (("workloads", "watch", "clients"), [], "workloads.watch.clients"),
    (
        ("workloads", "watch", "utility_profile"),
        "nope",
        "workloads.watch.utility_profile",
    ),
    (("arrivals", "rate_per_s"), float("nan"), "arrivals.rate_per_s"),
    (("arrivals", "rate_per_s"), -0.1, "arrivals.rate_per_s"),
    (("sessions",), [{"workload": "ghost", "client": "kiosk"}], "sessions[0].workload"),
    (("sessions",), [{"workload": "watch", "client": "ghost"}], "sessions[0].client"),
    (("sessions",), [{"workload": "watch"}], "sessions[0].client"),
    (("sessions",), {"workload": "watch", "client": "kiosk"}, "sessions"),
    (("arrivals", "duration_bounds_s"), [600, 1], "arrivals.duration_bounds_s"),
    (("arrivals", "arrival_process"), "uniform", "arrivals.arrival_process"),
    (("arrivals", "mix"), {"watch": 0}, "arrivals.mix.watch"),
    (
        ("faults",),
        {"scripted": [{"kind": "meteor", "at_s": 1.0, "target": "kiosk"}]},
        "faults.scripted[0].kind",
    ),
    (("faults",), {"scripted": {}}, "faults.scripted"),
    (
        ("faults",),
        {"random": {"crash_targets": "kiosk"}},
        "faults.random.crash_targets",
    ),
    (
        ("faults",),
        {"random": {"link_pairs": [["hub"]]}},
        "faults.random.link_pairs[0]",
    ),
    (("faults",), {"heartbeat_interval_s": 0}, "faults.heartbeat_interval_s"),
    (("ladder",), [{"label": "full", "demand_scale": 0}], "ladder[0].demand_scale"),
    (("ladder",), [{"user_qos": {}}], "ladder[0].label"),
    (("server", "skip_downloads"), "false", "server.skip_downloads"),
    (("server", "queue_capacity"), "many", "server.queue_capacity"),
    (("cluster", "shards"), 2.9, "cluster.shards"),
    (("cluster", "router"), "random", "cluster.router"),
    (("control", "enabled"), "false", "control.enabled"),
    (("control", "tick_interval_s"), 0, "control.tick_interval_s"),
    (("federation", "clusters"), 0, "federation.clusters"),
    (("federation", "roam_rate"), 1.5, "federation.roam_rate"),
    (("federation", "roam_rate"), "0.2", "federation.roam_rate"),
    (("federation", "escalation"), "yes", "federation.escalation"),
]


@pytest.mark.parametrize(
    "where, value, path", MALFORMED, ids=[row[2] for row in MALFORMED]
)
def test_malformed_document_names_its_path(spec_dict, where, value, path):
    *parents, leaf = where
    node = spec_dict
    for key in parents:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    if value is _MISSING:
        del node[leaf]
    else:
        node[leaf] = value
    with pytest.raises(ScenarioValidationError) as excinfo:
        ScenarioSpec.from_dict(spec_dict)
    assert excinfo.value.path == path


#: (where, value, expected error path, id): shape errors the grammar
#: raises before or during cross-validation, set like ``MALFORMED``.
SHAPES = [
    (("components",), ["src", "sink"], "components", "section-not-a-mapping"),
    (
        ("workloads", "watch", "user_qos"),
        {1: [10.0, 40.0]},
        "workloads.watch.user_qos",
        "non-string-key",
    ),
    (
        ("workloads", "watch", "user_qos", "frame_rate"),
        {"low": 10.0},
        "workloads.watch.user_qos.frame_rate",
        "qos-value-mapping",
    ),
    (
        ("workloads", "watch", "relations"),
        [["a", "b"]],
        "workloads.watch.relations[0]",
        "relation-too-short",
    ),
    (
        ("workloads", "watch", "relations"),
        ["a"],
        "workloads.watch.relations[0]",
        "relation-not-a-list",
    ),
    (("workloads", "watch", "nodes"), {}, "workloads.watch.nodes", "no-nodes"),
    (("devices",), {}, "devices", "no-devices"),
    (("workloads",), {}, "workloads", "no-workloads"),
    (("arrivals", "horizon_s"), 10**400, "arrivals.horizon_s", "float-overflow"),
    (
        ("faults",),
        {"scripted": [{"kind": "device_crash", "at_s": 1.0, "target": "ghost"}]},
        "faults",
        "scripted-unknown-target",
    ),
    (
        ("faults",),
        {
            "scripted": [
                {
                    "kind": "link_degrade",
                    "at_s": 1.0,
                    "target": "hub",
                    "peer": "ghost",
                }
            ]
        },
        "faults",
        "scripted-unknown-peer",
    ),
]


@pytest.mark.parametrize(
    "where, value, path", [row[:3] for row in SHAPES], ids=[row[3] for row in SHAPES]
)
def test_malformed_shape_names_its_path(spec_dict, where, value, path):
    *parents, leaf = where
    node = spec_dict
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value
    with pytest.raises(ScenarioValidationError) as excinfo:
        ScenarioSpec.from_dict(spec_dict)
    assert excinfo.value.path == path


class TestCrossReferences:
    def test_endpoint_hosted_on_a_replicated_pool(self, spec_dict):
        spec_dict["devices"]["hub"]["count"] = 2
        with pytest.raises(ScenarioValidationError, match="replicated pool") as excinfo:
            ScenarioSpec.from_dict(spec_dict)
        assert excinfo.value.path == "endpoints.src@hub.hosted_on"

    def test_scripted_link_fault_names_both_ends(self, spec_dict):
        spec_dict["faults"] = {
            "scripted": [
                {"kind": "link_degrade", "at_s": 2.0, "target": "hub", "peer": "kiosk"}
            ]
        }
        spec = ScenarioSpec.from_dict(spec_dict)
        assert spec.faults.targets() == ["hub", "kiosk"]

    def test_fault_target_may_name_a_replica(self, spec_dict):
        spec_dict["devices"]["kiosk"]["count"] = 2
        spec_dict["faults"] = {
            "scripted": [{"kind": "device_crash", "at_s": 1.0, "target": "kiosk-2"}]
        }
        spec = ScenarioSpec.from_dict(spec_dict)
        assert spec.faults.targets() == ["kiosk-2"]
