"""Scenario documents owned by the benchmark.

Both documents go through the program's scenario front door
(``ScenarioSpec.from_dict`` → ``compile_scenario``), so the benchmark
depends only on the documented grammar, never on a catalog entry that a
later change may rewrite. Each function returns a fresh ``dict`` for one
seed; nothing here imports the program.
"""

from __future__ import annotations

from typing import Dict, List

PROFILES = (
    "balanced",
    "latency_first",
    "fidelity_first",
    "resource_lean",
    "battery_saver",
)


def _conference_components() -> Dict[str, object]:
    """Podium recorders, gateway, lip-sync and per-client players."""

    def comp(service_type, memory, cpu, code_kb, state_kb=0.0, **extra):
        spec = {
            "service_type": service_type,
            "resources": {"memory": memory, "cpu": cpu},
            "code_size_kb": code_kb,
        }
        if state_kb:
            spec["state_size_kb"] = state_kb
        spec.update(extra)
        return spec

    return {
        "video_recorder": comp(
            "video_recorder", 24.0, 0.2, 1500.0,
            qos_output={"format": "MPEG", "frame_rate": 25.0},
            attributes={"media": "video"},
        ),
        "audio_recorder": comp(
            "audio_recorder", 12.0, 0.1, 700.0,
            qos_output={"format": "WAV", "frame_rate": 8.0},
            attributes={"media": "audio"},
        ),
        "gateway": comp("conference_gateway", 32.0, 0.3, 2000.0),
        "lipsync": comp("lipsync", 24.0, 0.25, 1600.0),
        "video_player": comp(
            "video_player", 20.0, 0.2, 1000.0, 32.0,
            qos_output={"frame_rate": 25.0},
            attributes={"media": "video"},
        ),
        "audio_player": comp(
            "conference_audio_player", 8.0, 0.1, 400.0, 16.0,
            qos_output={"frame_rate": 8.0},
            attributes={"media": "audio"},
        ),
    }


def _attend_nodes() -> Dict[str, object]:
    """The non-linear conference DAG: pinned sources, client-pinned sinks."""
    return {
        "video-rec": {
            "service_type": "video_recorder",
            "attributes": {"media": "video"},
            "pin": "podium",
        },
        "audio-rec": {
            "service_type": "audio_recorder",
            "attributes": {"media": "audio"},
            "pin": "podium",
        },
        "gateway": {"service_type": "conference_gateway"},
        "lipsync": {"service_type": "lipsync"},
        "video-out": {
            "service_type": "video_player",
            "attributes": {"media": "video"},
            "required_output": {"frame_rate": 25.0},
            "pin": "client",
        },
        "audio-out": {
            "service_type": "conference_audio_player",
            "attributes": {"media": "audio"},
            "required_output": {"frame_rate": 8.0},
            "pin": "client",
        },
    }


def _ladder(user_qos: Dict[str, object], scales: List[float]) -> List[object]:
    labels = ("full", "reduced", "economy")
    return [
        {"label": label, "user_qos": dict(user_qos), "demand_scale": scale}
        for label, scale in zip(labels, scales)
    ]


def profile_mesh_document(seed: int, horizon_s: float) -> Dict[str, object]:
    """Conference mesh over a replicated room pool, one workload per profile.

    Five workload classes share the conference DAG; each walks the
    3-rung ladder in its own utility-profile order, and priorities
    alternate between 0 and 1. Deadlines are off: the closed-loop harness
    decides every request, so dispositions depend on the seed alone.
    """
    user_qos = {"frame_rate": [1.0, 30.0]}
    workloads = {}
    for index, profile in enumerate(PROFILES):
        workloads[f"attend_{profile}"] = {
            "nodes": _attend_nodes(),
            "relations": [
                ["video-rec", "gateway", 3.0],
                ["audio-rec", "gateway", 0.3],
                ["gateway", "lipsync", 3.3],
                ["lipsync", "video-out", 3.0],
                ["lipsync", "audio-out", 0.3],
            ],
            "user_qos": dict(user_qos),
            "clients": ["room-pc"],
            "priority": index % 2,
            "utility_profile": profile,
        }
    return {
        "name": "perfbench_profile_mesh",
        "description": "Conference DAG over a room pool, five utility profiles.",
        "seed": seed,
        "domain": "mesh",
        "components": _conference_components(),
        "endpoints": {
            "video-recorder@podium": {
                "component": "video_recorder",
                "hosted_on": "podium",
            },
            "audio-recorder@podium": {
                "component": "audio_recorder",
                "hosted_on": "podium",
            },
            "gateway/any": {
                "component": "gateway",
                "platforms": ["server", "workstation", "pc"],
            },
            "lipsync/any": {
                "component": "lipsync",
                "platforms": ["server", "workstation", "pc"],
            },
            "video-player/room": {"component": "video_player", "platforms": ["pc"]},
            "audio-player/room": {"component": "audio_player", "platforms": ["pc"]},
        },
        "devices": {
            "podium": {
                "class": "workstation",
                "capacity": {"memory": 768.0, "cpu": 8.0},
            },
            "av-server": {
                "class": "server",
                "capacity": {"memory": 384.0, "cpu": 4.0},
            },
            "room-pc": {
                "class": "pc",
                "count": 4,
                "capacity": {"memory": 128.0, "cpu": 2.0},
            },
        },
        "hubs": ["conf-switch"],
        "links": [
            ["av-server", "conf-switch", "gigabit-ethernet"],
            ["podium", "conf-switch", "fast-ethernet"],
            ["room-pc", "conf-switch", "fast-ethernet"],
        ],
        "workloads": workloads,
        "arrivals": {
            "rate_per_s": 1.0,
            "horizon_s": horizon_s,
            "mean_duration_s": 20.0,
            "duration_bounds_s": [5.0, 120.0],
            "deadline_s": None,
        },
        "ladder": _ladder(user_qos, [1.0, 0.65, 0.4]),
        "server": {"queue_capacity": 256, "skip_downloads": True},
    }


def surge_replay_document(seed: int, horizon_s: float) -> Dict[str, object]:
    """A four-shard replay-clip surge with least-loaded routing.

    Kiosk pools stream clips from a central media rack. Run at an
    overload multiplier, the 3-rung ladder degrades, the front door sheds
    and the control plane forecasts and actuates.
    """
    user_qos = {"frame_rate": [20.0, 40.0]}
    return {
        "name": "perfbench_surge_replay",
        "description": "Replay-clip surge behind a four-shard controlled cluster.",
        "seed": seed,
        "domain": "stadium",
        "components": {
            "clip_server": {
                "service_type": "clip_server",
                "qos_output": {"format": "MPEG", "frame_rate": 30.0},
                "resources": {"memory": 40.0, "cpu": 0.25},
                "code_size_kb": 1200.0,
                "attributes": {"media": "video"},
            },
            "clip_player": {
                "service_type": "clip_player",
                "qos_input": {"format": ["MPEG", "MJPEG"], "frame_rate": [10.0, 40.0]},
                "qos_output": {"frame_rate": 30.0},
                "resources": {"memory": 16.0, "cpu": 0.15},
                "code_size_kb": 600.0,
                "state_size_kb": 16.0,
                "attributes": {"media": "video"},
            },
        },
        "endpoints": {
            "clip-server@media-rack": {
                "component": "clip_server",
                "hosted_on": "media-rack",
                "attributes": {"format": "MPEG"},
            },
            "clip-player/kiosk": {"component": "clip_player", "platforms": ["pc"]},
        },
        "devices": {
            "media-rack": {
                "class": "server",
                "capacity": {"memory": 512.0, "cpu": 8.0},
            },
            "kiosk": {
                "class": "pc",
                "count": 3,
                "capacity": {"memory": 128.0, "cpu": 2.0},
            },
        },
        "hubs": ["stadium-switch"],
        "links": [
            ["media-rack", "stadium-switch", "gigabit-ethernet"],
            ["kiosk", "stadium-switch", "fast-ethernet"],
        ],
        "workloads": {
            "watch_replay": {
                "nodes": {
                    "clip-source": {
                        "service_type": "clip_server",
                        "attributes": {"media": "video"},
                    },
                    "viewer": {
                        "service_type": "clip_player",
                        "attributes": {"media": "video"},
                        "required_output": {"frame_rate": [20.0, 40.0]},
                        "pin": "client",
                    },
                },
                "relations": [["clip-source", "viewer", 2.5]],
                "user_qos": dict(user_qos),
                "clients": ["kiosk"],
            }
        },
        "arrivals": {
            "rate_per_s": 4.0,
            "horizon_s": horizon_s,
            "mean_duration_s": 2.0,
            "duration_bounds_s": [0.5, 10.0],
            "deadline_s": 8.0,
        },
        "ladder": _ladder(user_qos, [1.0, 0.7, 0.45]),
        "server": {"queue_capacity": 16, "workers": 1, "min_service_s": 0.2},
        "cluster": {"shards": 4, "router": "least-loaded"},
        "control": {"enabled": True, "tick_interval_s": 1.0, "window_s": 30.0},
    }
