"""Bench + regeneration of the server throughput sweep (serving layer).

Runs the ``audio_lab`` catalog scenario at five load multipliers on one
shard and writes both the human-readable table (``results/server_sweep.txt``) and
the deterministic JSON metrics artifact (``results/server_sweep.json``)
that CI uploads, and asserts the graceful-overload shape: admitted
throughput saturates while surplus load is degraded or shed — never an
exception out of the serving stack.
"""

from __future__ import annotations

import json

from benchmarks.conftest import RESULTS_DIR, write_result
from repro.scenarios import load_catalog_scenario, run_sweep


def test_server_sweep_saturates_gracefully(benchmark):
    sweep = benchmark.pedantic(
        lambda: run_sweep(
            load_catalog_scenario("audio_lab"),
            (0.5, 1.0, 2.0, 3.0, 5.0),
            shards=(1,),
            horizon_s=300.0,
        ),
        rounds=1,
        iterations=1,
    )
    write_result("server_sweep", sweep.format_table())
    RESULTS_DIR.mkdir(exist_ok=True)
    json_path = RESULTS_DIR / "server_sweep.json"
    json_path.write_text(sweep.to_json() + "\n")

    # The artifact is valid, deterministic JSON with one point per level.
    payload = json.loads(json_path.read_text())
    assert [p["multiplier"] for p in payload["points"]] == [
        0.5,
        1.0,
        2.0,
        3.0,
        5.0,
    ]

    by_mult = {p.multiplier: p for p in sweep.points}
    # Light load admits everything, full quality.
    assert by_mult[0.5].admitted == by_mult[0.5].submitted
    assert by_mult[0.5].degraded == 0
    # Every request at every level got a disposition (nothing raised).
    for point in sweep.points:
        assert (
            point.admitted + point.failed + point.shed == point.submitted
        )
    # Throughput saturates: 10x the offered load buys < 4x the admissions.
    assert (
        by_mult[5.0].throughput_per_min
        < 4.0 * by_mult[0.5].throughput_per_min
    )
    # Overload is absorbed by degradation, then shedding at the extreme.
    assert by_mult[2.0].degraded > 0
    assert by_mult[5.0].shed > 0
