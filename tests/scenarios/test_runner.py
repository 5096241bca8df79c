"""End-to-end scenario runs: determinism, drivers, error handling."""

import json

import pytest

from repro.scenarios import (
    ScenarioValidationError,
    catalog_scenarios,
    compile_scenario,
    load_catalog_scenario,
    run_scenario,
    run_sweep,
)
from repro.store import InMemoryRecordStore, SqliteRecordStore


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

    def test_faulted_scenario_rejects_shards(self):
        spec = load_catalog_scenario("vehicular_corridor")
        with pytest.raises(ScenarioValidationError, match="single-shard"):
            run_sweep(spec, (1.0,), shards=(2,))

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

    def test_cluster_rejects_store(self):
        spec = load_catalog_scenario("stadium_surge")
        with pytest.raises(ValueError, match="single-shard"):
            run_scenario(spec, store=InMemoryRecordStore())


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
