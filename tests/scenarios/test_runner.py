"""End-to-end scenario runs: determinism, drivers, error handling."""

import json
from dataclasses import replace

import pytest

from repro.scenarios import (
    ScenarioValidationError,
    build_federation,
    catalog_scenarios,
    compile_scenario,
    load_catalog_scenario,
    run_scenario,
    run_sweep,
)
from repro.scenarios.spec import FaultsSpec, FederationSpec, ScriptedFaultSpec
from repro.store import InMemoryRecordStore, SqliteRecordStore
from repro.workloads.arrivals import arrival_trace


class TestGoldenDeterminism:
    @pytest.mark.parametrize("name", catalog_scenarios())
    def test_sim_replay_is_byte_identical(self, name):
        spec = load_catalog_scenario(name)
        first = run_scenario(spec, driver="sim")
        second = run_scenario(spec, driver="sim")
        assert first.to_json() == second.to_json()

    def test_result_shape(self, spec):
        result = run_scenario(spec, driver="sim")
        payload = json.loads(result.to_json())
        assert payload["scenario"] == "mini"
        assert payload["seed"] == 5
        assert payload["driver"] == "sim"
        assert payload["submitted"] == result.submitted > 0
        assert result.admitted + result.failed + result.shed <= result.submitted
        assert "metrics" in payload

    def test_store_choice_keeps_bytes(self, spec, tmp_path):
        bare = run_scenario(spec, driver="sim")
        in_memory = run_scenario(spec, driver="sim", store=InMemoryRecordStore())
        sqlite = run_scenario(
            spec,
            driver="sim",
            store=SqliteRecordStore(str(tmp_path / "run.sqlite")),
        )
        assert bare.to_json() == in_memory.to_json() == sqlite.to_json()


class TestDrivers:
    def test_thread_driver_audits_clean(self, spec):
        result = run_scenario(spec, driver="thread")
        assert result.driver == "thread"
        assert result.submitted > 0
        assert result.admitted + result.failed + result.shed == result.submitted

    def test_cluster_thread_driver_audits_clean(self):
        spec = load_catalog_scenario("stadium_surge")
        assert spec.cluster.shards > 1
        result = run_scenario(spec, driver="thread")
        assert result.driver == "thread"
        assert result.shards == spec.cluster.shards
        # run_scenario raises on any ledger audit problem.
        assert (
            result.admitted + result.failed + result.shed
            == result.submitted
            == len(compile_scenario(spec).arrival_trace())
        )

    @pytest.mark.parametrize("name", [None, "stadium_surge"])
    def test_undrained_thread_run_raises(self, spec, name, monkeypatch):
        """A pool that misses ``thread_timeout_s`` must not report counts
        in which requests are still in flight."""
        from repro.server.drivers import ThreadPoolDriver

        monkeypatch.setattr(
            ThreadPoolDriver, "wait_idle", lambda self, timeout, **_: False
        )
        if name is not None:
            spec = load_catalog_scenario(name)
        with pytest.raises(TimeoutError, match="did not drain"):
            run_scenario(spec, driver="thread", thread_timeout_s=0.1)

    def test_batched_sim(self, spec):
        result = run_scenario(spec, driver="sim", batched=True)
        assert result.driver == "sim-batched"
        assert result.batched
        assert result.submitted > 0

    @pytest.mark.parametrize("driver", ["sim", "thread"])
    def test_batched_single_domain_serves_through_chunks(
        self, driver, monkeypatch
    ):
        """``batched=True`` on a one-shard document must reach the batch
        core: every chunk the service serves lands in its batch-size
        histogram."""
        from repro.server.batching import BatchingDomainService

        built = []
        original_init = BatchingDomainService.__init__

        def recording_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(BatchingDomainService, "__init__", recording_init)
        spec = load_catalog_scenario("conference_mesh")
        assert spec.cluster.shards == 1
        result = run_scenario(spec, driver=driver, batched=True)
        assert result.batched and result.submitted > 0
        [service] = built
        assert service.batch.max_batch_size > 1
        sizes = service.metrics.registry.histogram(
            service.metrics.namespace + ".batch_size"
        )
        assert sizes.count > 0
        assert sum(sizes.samples()) == result.submitted - (
            service.metrics.count("shed_queue_full")
            + service.metrics.count("shed_overload")
        )

    def test_controlled_follows_spec_knob(self):
        spec = load_catalog_scenario("smart_home_evening")
        assert run_scenario(spec).controlled
        assert not run_scenario(spec, controlled=False).controlled

    def test_cluster_scenario_reports_shards(self):
        spec = load_catalog_scenario("stadium_surge")
        result = run_scenario(spec)
        assert result.shards == 2
        assert result.router == "least-loaded"
        assert result.submitted > 0

    def test_cluster_reports_its_conflict_retries(self):
        spec = load_catalog_scenario("stadium_surge")
        result = run_scenario(spec, batched=True, multiplier=4.0)
        whole = json.loads(result.metrics_json)["cluster"]
        assert result.conflict_retries == whole["conflict_retries"] > 0

    def test_faulted_scenario_injects(self):
        result = run_scenario(load_catalog_scenario("vehicular_corridor"))
        assert result.faulted
        assert result.faults_injected > 0


class TestSweep:
    def test_points_cover_shards_by_multipliers(self, spec):
        sweep = run_sweep(spec, (1.0, 2.0), shards=(1, 2))
        assert [(p.shards, p.multiplier) for p in sweep.points] == [
            (1, 1.0),
            (1, 2.0),
            (2, 1.0),
            (2, 2.0),
        ]
        assert sweep.point(2.0, 2) is sweep.points[3]
        with pytest.raises(KeyError):
            sweep.point(3.0)
        payload = json.loads(sweep.to_json())
        assert [p["shards"] for p in payload["points"]] == [1, 1, 2, 2]
        assert "shards" in sweep.format_table()

    def test_one_point_is_one_scenario_run(self, spec):
        (point,) = run_sweep(spec, (1.0,)).points
        assert point.to_json() == run_scenario(spec).to_json()

    def test_horizon_override(self, spec):
        (point,) = run_sweep(spec, (1.0,), horizon_s=30.0).points
        assert point.horizon_s == 30.0
        assert point.submitted < run_scenario(spec).submitted

    def test_same_trace_meets_every_shard_count(self):
        spec = load_catalog_scenario("audio_lab")
        one, two = run_sweep(spec, (6.0,), shards=(1, 2), horizon_s=60.0).points
        assert one.submitted == two.submitted

    def test_trace_concatenates_points(self, spec):
        sweep = run_sweep(spec, (1.0, 2.0), trace=True)
        assert sweep.trace_ndjson() == "".join(
            p.trace_ndjson for p in sweep.points
        )
        assert sweep.trace_ndjson().count('"name":"run.scenario"') == 2

    def test_faulted_scenario_runs_on_shards(self):
        # The storm hits each shard's copy of the corridor: every domain
        # injects what the one-shard run injects, and the run audits clean.
        spec = load_catalog_scenario("vehicular_corridor")
        lone, sharded = run_sweep(spec, (1.0,), shards=(1, 2)).points
        assert sharded.faulted and sorted(sharded.domains) == ["shard0", "shard1"]
        injected = lone.recovery["counters"]["recovery.faults_injected"]
        assert injected > 0
        for reading in sharded.domains.values():
            assert reading["recovery"]["counters"]["recovery.faults_injected"] == (
                injected
            )
        assert sharded.faults_injected == 2 * injected
        (replay,) = run_sweep(spec, (1.0,), shards=(2,)).points
        assert sharded.to_json() == replay.to_json()

    def test_zero_shards_rejected(self, spec):
        with pytest.raises(ValueError, match="at least one shard"):
            run_sweep(spec, (1.0,), shards=(0,))


class TestErrors:
    def test_unknown_driver(self, spec):
        with pytest.raises(ValueError, match="unknown driver"):
            run_scenario(spec, driver="quantum")

    def test_nonpositive_multiplier(self, spec):
        with pytest.raises(ValueError, match="multiplier"):
            run_scenario(spec, multiplier=0.0)

    def test_faults_require_sim(self):
        spec = load_catalog_scenario("vehicular_corridor")
        with pytest.raises(ValueError, match="sim driver"):
            run_scenario(spec, driver="thread")

    def test_cluster_store_only_observes(self):
        spec = load_catalog_scenario("stadium_surge")
        store = InMemoryRecordStore()
        stored = run_scenario(spec, store=store)
        assert stored.to_json() == run_scenario(spec).to_json()
        # Each shard's service opened its own epoch in the shared store.
        assert store.current_epoch() == spec.cluster.shards
        assert {record.epoch for record in store.sessions()} == {1, 2}


class TestTracing:
    def test_trace_exports_spans(self, spec):
        result = run_scenario(spec, driver="sim", trace=True)
        assert result.trace_ndjson
        lines = result.trace_ndjson.strip().splitlines()
        names = {json.loads(line)["name"] for line in lines}
        assert "run.scenario" in names

    def test_trace_does_not_change_artifact(self, spec):
        traced = run_scenario(spec, driver="sim", trace=True)
        untraced = run_scenario(spec, driver="sim")
        assert traced.to_json() == untraced.to_json()


def audio_federation(clusters, horizon_s=None, **federation):
    """The ``audio_lab`` document federated over ``clusters`` members."""
    spec = load_catalog_scenario("audio_lab")
    if horizon_s is not None:
        spec = replace(
            spec, arrivals=replace(spec.arrivals, horizon_s=horizon_s)
        )
    return replace(
        spec,
        federation=replace(spec.federation, clusters=clusters, **federation),
    )


def dispositions(result):
    """submitted/admitted/degraded/failed/shed/escalations/migrations."""
    return (
        result.submitted,
        result.admitted,
        result.degraded,
        result.failed,
        result.shed,
        result.escalations,
        result.migrations_committed,
    )


class TestFederation:
    def test_replay_is_byte_identical(self):
        spec = replace(audio_federation(3, horizon_s=90.0), seed=11)
        first = run_scenario(spec, trace=True)
        second = run_scenario(spec, trace=True)
        assert first.to_json() == second.to_json()
        assert first.trace_ndjson == second.trace_ndjson
        assert '"name":"federation.route"' in first.trace_ndjson

    def test_sweep_covers_grid_and_serializes(self):
        spec = load_catalog_scenario("audio_lab")
        sweep = run_sweep(spec, (1.0, 2.0), clusters=(1, 2), horizon_s=60.0)
        assert [(p.clusters, p.multiplier) for p in sweep.points] == [
            (1, 1.0),
            (1, 2.0),
            (2, 1.0),
            (2, 2.0),
        ]
        assert sweep.point(2.0, clusters=2) is sweep.points[3]
        with pytest.raises(KeyError):
            sweep.point(1.0, clusters=9)
        payload = json.loads(sweep.to_json())
        # Only federated points carry the federation keys.
        assert [p.get("clusters") for p in payload["points"]] == [
            None,
            None,
            2,
            2,
        ]
        assert "clusters" in sweep.format_table()
        plain = run_sweep(spec, (1.0, 2.0), horizon_s=60.0)
        assert "clusters" not in plain.format_table()

    def test_members_named_and_isolated(self):
        spec = audio_federation(3)
        spec = replace(spec, cluster=replace(spec.cluster, shards=2))
        tier, testbeds = build_federation(spec)
        assert [m.name for m in tier.members] == [
            "cluster0",
            "cluster1",
            "cluster2",
        ]
        assert len(testbeds["cluster0"]) == 2
        # Each member keeps its own metrics registry (shard namespaces
        # collide across members otherwise) — distinct from the tier's.
        registries = {id(m.cluster.registry) for m in tier.members}
        assert len(registries) == 3
        assert id(tier.registry) not in registries

    def test_member_ladder_headroom_comes_from_the_ladder(self):
        tier, _ = build_federation(audio_federation(2))
        # audio_lab's deepest rung is ``economy`` at demand scale 0.45.
        assert [m.min_demand_scale for m in tier.members] == [0.45, 0.45]

    def test_ladderless_members_serve_full_rate_only(self, spec):
        assert not spec.ladder
        spec = replace(spec, federation=FederationSpec(clusters=2))
        tier, _ = build_federation(spec)
        assert [m.min_demand_scale for m in tier.members] == [1.0, 1.0]

    def test_offered_rate_scales_with_members(self):
        spec = audio_federation(3)
        arrivals = spec.arrivals
        expected = arrival_trace(
            seed=spec.seed,
            rate_per_s=arrivals.rate_per_s * 1.5 * 3,
            horizon_s=arrivals.horizon_s,
            mean_duration_s=arrivals.mean_duration_s,
            duration_bounds_s=tuple(arrivals.duration_bounds_s),
        )
        assert compile_scenario(spec).arrival_trace(1.5) == expected

    def test_roaming_commits_migrations(self):
        spec = audio_federation(3, horizon_s=120.0, roam_rate=0.3)
        result = run_scenario(spec)
        migration = json.loads(result.metrics_json)["migration"]
        assert migration["attempts"] >= migration["committed"]
        assert result.migrations_committed == migration["committed"] > 0
        handoff = migration["handoff_ms"]
        assert handoff["p99"] >= handoff["p50"] > 0.0

    def test_one_member_never_escalates_or_roams(self):
        spec = audio_federation(1, horizon_s=60.0, roam_rate=0.5)
        assert compile_scenario(spec).roams(
            compile_scenario(spec).arrival_trace()
        ) == []
        result = run_scenario(spec)
        assert result.clusters == 1
        assert "escalations" not in result.as_dict()
        # One member is exactly the run without a federation section.
        bare = replace(spec, federation=None)
        assert result.to_json() == run_scenario(bare).to_json()
        tier, testbeds = build_federation(spec)
        assert tier.member_count == 1

    def test_thread_run_drains_with_clean_audit(self):
        spec = audio_federation(2, horizon_s=60.0)
        result = run_scenario(spec, driver="thread")
        # run_scenario raises on any ledger audit problem or undrained pool.
        assert result.clusters == 2
        assert (
            result.admitted + result.failed + result.shed
            == result.submitted
            == len(compile_scenario(spec).arrival_trace())
        )

    #: The isolated-vs-federated comparison at queue 8, x4, 3 clusters,
    #: seed 42: submitted/admitted/degraded/failed/shed/escalations/
    #: migrations committed.
    PINNED = [
        (120.0, False, (264, 68, 12, 123, 73, 0, 0)),
        (120.0, True, (264, 73, 21, 174, 17, 135, 3)),
        (300.0, False, (702, 161, 42, 353, 188, 0, 0)),
        (300.0, True, (702, 155, 56, 458, 89, 403, 1)),
    ]

    @staticmethod
    def bench_cell(horizon_s, federated):
        spec = audio_federation(
            3,
            horizon_s=horizon_s,
            escalation=federated,
            roam_rate=0.2 if federated else 0.0,
        )
        spec = replace(spec, server=replace(spec.server, queue_capacity=8))
        return run_scenario(spec, multiplier=4.0)

    @pytest.mark.parametrize(
        "horizon_s, federated, expected",
        PINNED,
        ids=[f"{h:g}s-{'federated' if f else 'isolated'}" for h, f, _ in PINNED],
    )
    def test_pinned_dispositions(self, horizon_s, federated, expected):
        assert dispositions(self.bench_cell(horizon_s, federated)) == expected

    def test_escalation_outcomes_add_up(self):
        result = self.bench_cell(120.0, True)
        routing = json.loads(result.metrics_json)["routing"]
        outcomes = routing["escalation_outcomes"]
        assert set(outcomes) == {"admitted", "degraded", "failed", "shed"}
        assert sum(outcomes.values()) == routing["escalations"]
        # Queued by a sibling is not admitted: most escalations fail.
        assert routing["escalation_queued"] > (
            outcomes["admitted"] + outcomes["degraded"]
        )

    def test_federation_store_observes_and_epoch_kill_is_refused(self):
        spec = audio_federation(2, horizon_s=30.0)
        stored = run_scenario(spec, store=InMemoryRecordStore())
        assert stored.to_json() == run_scenario(spec).to_json()
        killed = replace(
            spec,
            faults=FaultsSpec(
                scripted=[ScriptedFaultSpec(kind="epoch_kill", at_s=15.0)]
            ),
        )
        with pytest.raises(ScenarioValidationError) as excinfo:
            run_scenario(killed)
        assert excinfo.value.path == "federation.clusters"

    def test_controlled_federation_runs(self):
        # Each member cluster runs its own controller.
        spec = audio_federation(2, horizon_s=60.0)
        controlled = run_scenario(spec, multiplier=4.0, controlled=True)
        assert controlled.controlled and controlled.clusters == 2
        assert controlled.control_forecasts > 0
        replay = run_scenario(spec, multiplier=4.0, controlled=True)
        assert replay.to_json() == controlled.to_json()
        plain = run_scenario(spec, multiplier=4.0)
        assert not plain.controlled and plain.control_forecasts == 0

    def test_controlled_document_runs_clusters(self):
        spec = load_catalog_scenario("audio_lab")
        spec = replace(
            spec,
            arrivals=replace(spec.arrivals, horizon_s=60.0),
            control=replace(spec.control, enabled=True),
        )
        (point,) = run_sweep(spec, (4.0,), clusters=(2,)).points
        assert point.controlled and point.clusters == 2
        assert point.control_forecasts > 0

    def test_faulted_document_runs_clusters(self):
        # Every member cluster's domain takes the whole storm.
        spec = load_catalog_scenario("vehicular_corridor")
        lone, federated = run_sweep(spec, (1.0,), clusters=(1, 2)).points
        assert federated.faulted and federated.clusters == 2
        assert sorted(federated.domains) == ["cluster0.shard0", "cluster1.shard0"]
        for reading in federated.domains.values():
            assert reading["recovery"]["counters"] == lone.recovery["counters"]

    def test_zero_clusters_rejected(self, spec):
        with pytest.raises(ValueError, match="at least one cluster"):
            run_sweep(spec, (1.0,), clusters=(0,))
