"""Unit tests for the CLI (reduced workloads)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.cases == 150
        args = build_parser().parse_args(["figure5"])
        assert args.requests == 5000
        assert args.horizon == 1000.0


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1", "--cases", "10"]) == 0
        out = capsys.readouterr().out
        assert "Our Heuristic" in out

    def test_figure3(self, capsys):
        assert main(["figure3"]) == 0
        out = capsys.readouterr().out
        assert "Event 1" in out and "fps" in out

    def test_figure4(self, capsys):
        assert main(["figure4"]) == 0
        out = capsys.readouterr().out
        assert "composition" in out
        assert "legend" in out

    def test_figure5(self, capsys):
        assert main(["figure5", "--requests", "120", "--horizon", "40"]) == 0
        out = capsys.readouterr().out
        assert "success rate" in out.lower()
        assert "heuristic=H" in out

    def test_ablations(self, capsys):
        assert main(["ablations", "--cases", "8"]) == 0
        out = capsys.readouterr().out
        assert "Ablation:" in out

    def test_storm_trace_then_report(self, capsys, tmp_path):
        trace_path = tmp_path / "storm.ndjson"
        assert (
            main(
                [
                    "scenario",
                    "audio_storm",
                    "--multiplier",
                    "1.0",
                    "--horizon",
                    "90",
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"span trace NDJSON written to {trace_path}" in out
        assert trace_path.read_text().strip()

        assert main(["trace-report", str(trace_path)]) == 0
        report = capsys.readouterr().out
        assert "trace report:" in report
        assert "per-phase latency (ms)" in report
        assert "run.scenario" in report
        assert "critical path" in report

    def test_cluster_sweep_json_and_trace(self, capsys, tmp_path):
        json_path = tmp_path / "cluster.json"
        trace_path = tmp_path / "cluster.ndjson"
        assert (
            main(
                [
                    "scenario",
                    "audio_lab",
                    "--shards",
                    "1",
                    "2",
                    "--multiplier",
                    "2.0",
                    "--horizon",
                    "60",
                    "--json",
                    str(json_path),
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Scenario 'audio_lab'" in out and "shards" in out
        assert f"scenario JSON written to {json_path}" in out
        payload = json.loads(json_path.read_text())
        assert [p["shards"] for p in payload["points"]] == [1, 2]
        assert "run.scenario" in trace_path.read_text()

    def test_cluster_sweep_thread_driver(self, capsys):
        # The thread run raises when a ledger audits dirty or the pools
        # do not drain.
        assert (
            main(
                [
                    "scenario",
                    "audio_lab",
                    "--driver",
                    "thread",
                    "--shards",
                    "1",
                    "--horizon",
                    "60",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "driver thread" in out

    def test_federated_scenario_json_and_trace(self, capsys, tmp_path):
        json_path = tmp_path / "federation.json"
        trace_path = tmp_path / "federation.ndjson"
        assert (
            main(
                [
                    "scenario",
                    "audio_lab",
                    "--clusters",
                    "2",
                    "--horizon",
                    "60",
                    "--json",
                    str(json_path),
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 clusters, escalations" in out
        assert f"scenario JSON written to {json_path}" in out
        payload = json.loads(json_path.read_text())
        assert payload["clusters"] == 2
        assert "escalation_outcomes" in payload["metrics"]["routing"]
        assert '"clusters":2' in trace_path.read_text()

    def test_federated_scenario_thread_driver(self, capsys):
        assert (
            main(
                [
                    "scenario",
                    "audio_lab",
                    "--driver",
                    "thread",
                    "--clusters",
                    "2",
                    "--horizon",
                    "60",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "driver thread" in out
        assert "2 clusters, escalations" in out

    def test_federated_scenario_runs_controlled(self, capsys, tmp_path):
        json_path = tmp_path / "controlled.json"
        argv = [
            "scenario",
            "audio_lab",
            "--clusters",
            "2",
            "--controlled",
            "--horizon",
            "30",
            "--json",
            str(json_path),
        ]
        assert main(argv) == 0
        assert "2 clusters, escalations" in capsys.readouterr().out
        payload = json.loads(json_path.read_text())
        assert payload["controlled"] is True and payload["clusters"] == 2

    def test_server_sweep_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "server.ndjson"
        assert (
            main(
                [
                    "scenario",
                    "audio_lab",
                    "--multiplier",
                    "1.0",
                    "--horizon",
                    "45",
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert "run.scenario" in trace_path.read_text()

    def test_sweep_commands_are_gone(self, capsys):
        for command in (
            "server-sweep",
            "cluster-sweep",
            "federation-sweep",
            "chaos-sweep",
            "load-sweep",
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command])
        capsys.readouterr()


class TestBenchSelfGating:
    """An output path that is also its baseline must stop the run up front."""

    class CellRan(Exception):
        pass

    @pytest.fixture(autouse=True)
    def no_cells(self, monkeypatch, tmp_path):
        def cell(**_kwargs):
            raise self.CellRan()

        monkeypatch.setattr("repro.cli.run_serving_bench", cell)
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--baseline", "BENCH_serving.json"],
            ["--control-baseline", "BENCH_control.json"],
            ["--pareto-baseline", "./BENCH_pareto.json"],
            ["--pareto-json", "out/p.json", "--pareto-baseline", "out/../out/p.json"],
        ],
        ids=["serving-default", "control-default", "pareto-default", "pareto-spelled"],
    )
    def test_same_path_exits_before_any_cell(self, argv):
        with pytest.raises(SystemExit, match="gated against itself"):
            main(["bench", "--quick", *argv])

    def test_existing_file_through_a_symlink_exits(self, tmp_path):
        (tmp_path / "BENCH_serving.json").write_text("{}")
        (tmp_path / "link.json").symlink_to(tmp_path / "BENCH_serving.json")
        with pytest.raises(SystemExit, match="gated against itself"):
            main(["bench", "--quick", "--baseline", "link.json"])

    def test_distinct_paths_reach_the_cells(self, tmp_path):
        (tmp_path / "BENCH_serving.json").write_text("{}")
        with pytest.raises(self.CellRan):
            main(
                [
                    "bench",
                    "--quick",
                    "--serving-json",
                    "new.json",
                    "--baseline",
                    "BENCH_serving.json",
                ]
            )


class TestScenarioCommand:
    def test_list(self, capsys):
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        assert "built-in scenarios:" in out
        for name in (
            "audio_lab",
            "audio_storm",
            "conference_mesh",
            "smart_home_evening",
            "stadium_surge",
            "vehicular_corridor",
        ):
            assert name in out

    def test_no_name_lists_catalog(self, capsys):
        assert main(["scenario"]) == 0
        out = capsys.readouterr().out
        assert "built-in scenarios:" in out
        assert "python -m repro scenario <name>" in out

    def test_run_catalog_scenario_with_json(self, capsys, tmp_path):
        json_path = tmp_path / "scenario.json"
        assert (
            main(["scenario", "conference_mesh", "--json", str(json_path)])
            == 0
        )
        out = capsys.readouterr().out
        assert "Scenario 'conference_mesh'" in out
        assert f"scenario JSON written to {json_path}" in out
        payload = json.loads(json_path.read_text())
        assert payload["scenario"] == "conference_mesh"
        assert payload["submitted"] > 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["conference_mesh"],
            ["stadium_surge"],
            ["conference_mesh", "--clusters", "2"],
        ],
        ids=["lone", "sharded", "federated"],
    )
    def test_store_only_observes(self, capsys, tmp_path, argv):
        """A record store records the run; it never changes its JSON."""
        bare, stored = tmp_path / "bare.json", tmp_path / "stored.json"
        store_path = tmp_path / "sessions.sqlite"
        assert main(["scenario", *argv, "--json", str(bare)]) == 0
        assert (
            main(
                [
                    "scenario",
                    *argv,
                    "--store",
                    str(store_path),
                    "--json",
                    str(stored),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert stored.read_bytes() == bare.read_bytes()
        from repro.store import SqliteRecordStore

        store = SqliteRecordStore(str(store_path))
        try:
            assert store.sessions()
        finally:
            store.close()

    def test_run_spec_file_with_seed_override(self, capsys, tmp_path):
        from repro.scenarios import load_catalog_scenario

        spec = load_catalog_scenario("conference_mesh")
        path = tmp_path / "copy.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        assert main(["scenario", str(path), "--seed", "99"]) == 0
        out = capsys.readouterr().out
        assert "seed 99" in out

    def test_epoch_kill(self, capsys, tmp_path):
        store_path = tmp_path / "sessions.sqlite"
        json_path = tmp_path / "crash.json"
        argv = ["scenario", "conference_crash", "--json", str(json_path)]
        assert main(argv + ["--store", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "shard0: epoch 1 killed at t=120s" in out
        assert "ledger balanced" in out
        (kill,) = json.loads(json_path.read_text())["domains"]["shard0"][
            "epoch_kills"
        ]
        assert kill["balanced"] is True
        from repro.store import SqliteRecordStore

        store = SqliteRecordStore(str(store_path))
        try:
            assert store.current_epoch() == 2
            assert store.open_transactions(1) == []
        finally:
            store.close()

    def test_sweep_axes_parse(self):
        args = build_parser().parse_args(
            [
                "scenario",
                "audio_lab",
                "--multiplier",
                "2",
                "6",
                "--shards",
                "1",
                "2",
                "--horizon",
                "180",
            ]
        )
        assert args.multiplier == [2.0, 6.0]
        assert args.shards == [1, 2]
        assert args.horizon == 180.0
        defaults = build_parser().parse_args(["scenario", "audio_lab"])
        assert defaults.multiplier == [1.0]
        assert defaults.shards is None and defaults.horizon is None

    def test_seed_override_changes_the_lab_trace(self, capsys, tmp_path):
        traces = []
        for seed in ("42", "7"):
            path = tmp_path / f"lab-{seed}.ndjson"
            assert (
                main(
                    [
                        "scenario",
                        "audio_lab",
                        "--horizon",
                        "60",
                        "--seed",
                        seed,
                        "--trace",
                        str(path),
                    ]
                )
                == 0
            )
            spans = [json.loads(line) for line in path.read_text().splitlines()]
            traces.append(
                [s["start_s"] for s in spans if s["name"] == "server.serve"]
            )
        capsys.readouterr()
        assert traces[0] and traces[1]
        assert traces[0] != traces[1]

    def test_invalid_spec_file_exits_with_its_path(self, tmp_path):
        from repro.scenarios import load_catalog_scenario

        document = load_catalog_scenario("conference_mesh").to_dict()
        document["cluster"]["shards"] = 2.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "scenario", str(path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert "cluster.shards: must be a positive integer" in done.stderr

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["audio_lab", "--multiplier", "0"], "multiplier must be positive"),
            (["audio_lab", "--shards", "0"], "at least one shard"),
            (["audio_lab", "--horizon", "-5"], "horizon must be positive"),
            (
                ["conference_crash", "--clusters", "2"],
                "federation.clusters: an epoch_kill needs a single-cluster",
            ),
            (["audio_storm", "--driver", "thread"], "require the sim driver"),
        ],
    )
    def test_bad_flags_exit_with_one_line(self, argv, message):
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "scenario", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120,
        )
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith(f"invalid scenario {argv[0]}: ")
        assert message in done.stderr
        assert done.stderr.count("\n") == 1

    def test_unknown_scenario_errors(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            main(["scenario", "atlantis"])
