"""End-to-end traces: one rooted tree per run, byte-identical per seed."""

import json

from repro.apps.audio_on_demand import audio_request, build_audio_testbed
from repro.observability.report import TraceReport
from repro.observability.tracing import Tracer, activated
from repro.server.ledger import ReservationLedger
from tests.conftest import audio_lab_point


def configure_trace() -> str:
    """One traced configure→deploy pass through the full stack."""
    testbed = build_audio_testbed()
    testbed.configurator.ledger = ReservationLedger(testbed.server)
    tracer = Tracer()
    with activated(tracer):
        session = testbed.configurator.create_session(
            audio_request(testbed, "jornada"), user_id="tracee"
        )
        record = session.start(label="traced", skip_downloads=True)
        assert record.success
    return tracer.export_ndjson()


class TestConfigureSpanTree:
    def test_single_rooted_trace(self):
        report = TraceReport.from_ndjson(configure_trace())
        assert report.trace_count == 1
        assert len(report.roots) == 1
        assert report.roots[0].name == "configure"

    def test_tree_covers_every_tier(self):
        report = TraceReport.from_ndjson(configure_trace())
        names = {span.name for span in report.spans}
        assert {
            "configure",
            "composition.compose",
            "composition.oc_pass",
            "discovery.lookup",
            "distribution.search",
            "deployment.deploy",
            "ledger.prepare",
            "ledger.commit",
        } <= names

    def test_parent_links_follow_the_call_structure(self):
        report = TraceReport.from_ndjson(configure_trace())
        root = report.roots[0]
        child_names = {span.name for span in report.children(root)}
        assert "composition.compose" in child_names
        assert "distribution.search" in child_names
        assert "deployment.deploy" in child_names
        deploy = next(
            span for span in report.spans if span.name == "deployment.deploy"
        )
        under_deploy = {span.name for span in report.children(deploy)}
        assert "ledger.prepare" in under_deploy
        assert "ledger.commit" in under_deploy

    def test_jornada_session_records_transcoder_correction(self):
        report = TraceReport.from_ndjson(configure_trace())
        corrections = [
            span for span in report.spans if span.name == "composition.correction"
        ]
        assert corrections, "PDA session should trigger a format correction"
        assert all(span.attributes.get("applied") for span in corrections)


class TestSimTraceDeterminism:
    def test_server_sweep_trace_roots_and_determinism(self):
        kwargs = dict(seed=42, horizon_s=60.0, trace=True)
        first = audio_lab_point(1, 1.0, **kwargs)
        second = audio_lab_point(1, 1.0, **kwargs)
        assert first.trace_ndjson == second.trace_ndjson
        report = TraceReport.from_ndjson(first.trace_ndjson)
        assert [root.name for root in report.roots] == ["run.scenario"]
        names = {span.name for span in report.spans}
        assert "server.batch" in names
        assert "admission.walk" in names
        assert "server.serve" in names
