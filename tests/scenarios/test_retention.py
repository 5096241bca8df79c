"""A decided request leaves nothing behind in the serving tree.

A teardown probe inside the sim replay collects garbage and counts the
``ApplicationSession`` and ``RequestOutcome`` objects still alive. Only
running sessions may hold either (held sessions run until teardown), so
after the last departure the counts are bounded by the live sessions,
not by the requests ever served, and a 4x longer horizon leaves no more
behind.
"""

import gc
from dataclasses import replace

import pytest

from repro.runtime.session import ApplicationSession
from repro.scenarios import load_catalog_scenario, run_scenario, runner
from repro.server.service import RequestOutcome

HORIZON_S = 300.0


def live_objects():
    """``(sessions, outcomes)`` alive after a full collection."""
    gc.collect()
    sessions = outcomes = 0
    for obj in gc.get_objects():
        if isinstance(obj, ApplicationSession):
            sessions += 1
        elif isinstance(obj, RequestOutcome):
            outcomes += 1
    return sessions, outcomes


def probed_run(spec, monkeypatch):
    """Run ``spec`` at x2 and read the live objects the replay added by
    its teardown, plus the sessions still running then."""
    probe = {}
    real = runner.sim_replay

    def replay(driver, arrivals, factory, context, setup=None, teardown=None, **kw):
        def first():
            probe["before"] = live_objects()
            setup()

        def last():
            after = live_objects()
            probe["sessions"], probe["outcomes"] = (
                now - then for now, then in zip(after, probe["before"])
            )
            probe["running"] = sum(
                session.running
                for service in driver.target.drain_order()
                for session in service.configurator.sessions.values()
            )
            teardown()

        return real(driver, arrivals, factory, context, setup=first, teardown=last, **kw)

    monkeypatch.setattr(runner, "sim_replay", replay)
    result = run_scenario(spec, multiplier=2.0)
    assert result.submitted > 0
    return probe


def audio_lab(horizon_s, shards=1, clusters=1):
    spec = load_catalog_scenario("audio_lab")
    return replace(
        spec,
        arrivals=replace(spec.arrivals, horizon_s=horizon_s),
        cluster=replace(spec.cluster, shards=shards),
        federation=replace(spec.federation, clusters=clusters),
    )


SHAPES = {"2shards": dict(shards=2), "2clusters": dict(clusters=2)}


@pytest.mark.parametrize("shape", SHAPES)
def test_teardown_holds_only_live_sessions(shape, monkeypatch):
    probes = [
        probed_run(audio_lab(horizon_s, **SHAPES[shape]), monkeypatch)
        for horizon_s in (HORIZON_S, 4 * HORIZON_S)
    ]
    for probe in probes:
        assert probe["sessions"] <= probe["running"], probe
        assert probe["outcomes"] <= probe["running"], probe
    short, long = probes
    assert long["outcomes"] <= short["outcomes"]
    # Only running sessions may grow with the horizon: a roamed session's
    # destination copy has no departure timer, so it runs to the end.
    assert long["sessions"] - long["running"] <= short["sessions"] - short["running"]
