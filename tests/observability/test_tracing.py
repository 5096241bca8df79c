"""Span lifecycle, parenting, export determinism, and the null tracer."""

import json

import pytest

from repro.observability.tracing import (
    NULL_SPAN,
    NULL_TRACER,
    Tracer,
    activated,
    get_tracer,
    set_tracer,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestSpanTree:
    def test_nested_spans_share_trace_and_link_parent(self):
        tracer = Tracer(FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_sibling_roots_get_distinct_traces(self):
        tracer = Tracer(FakeClock())
        with tracer.span("first") as first:
            pass
        with tracer.span("second") as second:
            pass
        assert first.trace_id != second.trace_id

    def test_span_ids_are_sequential_integers(self):
        tracer = Tracer(FakeClock())
        with tracer.span("a") as a:
            with tracer.span("b") as b:
                pass
        with tracer.span("c") as c:
            pass
        assert (a.span_id, b.span_id, c.span_id) == (1, 2, 3)

    def test_explicit_parent_overrides_stack(self):
        tracer = Tracer(FakeClock())
        detached = tracer.begin("episode")
        with tracer.span("other"):
            with tracer.span("child", parent=detached) as child:
                assert child.parent_id == detached.span_id
                assert child.trace_id == detached.trace_id

    def test_detached_begin_defaults_to_current_span(self):
        tracer = Tracer(FakeClock())
        with tracer.span("run") as run:
            episode = tracer.begin("episode")
        assert episode.parent_id == run.span_id

    def test_current_tracks_innermost_open_span(self):
        tracer = Tracer(FakeClock())
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None


class TestSpanLifecycle:
    def test_duration_from_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        with tracer.span("timed") as span:
            clock.advance(0.25)
        assert span.duration_ms == pytest.approx(250.0)

    def test_exception_marks_error_status_and_reraises(self):
        tracer = Tracer(FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("boom") as span:
                raise ValueError("nope")
        assert span.status == "error"
        assert span.attributes["error_type"] == "ValueError"
        assert span in tracer.finished_spans

    def test_finish_is_idempotent(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        span = tracer.begin("episode")
        clock.advance(1.0)
        tracer.finish(span, status="ok")
        end = span.end_s
        clock.advance(1.0)
        tracer.finish(span, status="error")
        assert span.end_s == end
        assert span.status == "ok"
        assert tracer.finished_spans.count(span) == 1

    def test_attributes_and_events(self):
        tracer = Tracer(FakeClock())
        with tracer.span("s", preset="x") as span:
            span.set("k", 1).set("k2", "v")
            span.event("tick", tracer.now, detail=3)
        payload = span.to_dict()
        assert payload["attributes"] == {"preset": "x", "k": 1, "k2": "v"}
        assert payload["events"] == [
            {"name": "tick", "timestamp_s": 0.0, "detail": 3}
        ]


class TestExport:
    def test_ndjson_is_deterministic_and_sorted(self):
        def run():
            clock = FakeClock()
            tracer = Tracer(clock)
            with tracer.span("root", seed=7):
                clock.advance(0.5)
                with tracer.span("child"):
                    clock.advance(0.25)
            return tracer.export_ndjson()

        first, second = run(), run()
        assert first == second
        lines = first.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert line == json.dumps(
                json.loads(line), sort_keys=True, separators=(",", ":")
            )
        # Spans export in finish order: child closes before root.
        assert json.loads(lines[0])["name"] == "child"

    def test_write_ndjson(self, tmp_path):
        tracer = Tracer(FakeClock())
        with tracer.span("only"):
            pass
        path = tmp_path / "trace.ndjson"
        tracer.write_ndjson(str(path))
        assert path.read_text() == tracer.export_ndjson()


class TestActiveTracer:
    def test_default_is_null_tracer(self):
        assert get_tracer() is NULL_TRACER

    def test_activated_installs_and_restores(self):
        tracer = Tracer(FakeClock())
        with activated(tracer) as active:
            assert active is tracer
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_none_restores_null(self):
        set_tracer(Tracer(FakeClock()))
        try:
            set_tracer(None)
            assert get_tracer() is NULL_TRACER
        finally:
            set_tracer(None)

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("ignored", attr=1) as span:
            assert span is NULL_SPAN
            assert span.set("k", "v") is NULL_SPAN
            span.event("e", 0.0)
        assert NULL_TRACER.begin("x") is NULL_SPAN
        assert NULL_TRACER.current() is None
        assert NULL_TRACER.export_ndjson() == ""

    def test_real_tracer_finish_of_null_span_is_harmless(self):
        # Detached instrumentation may begin() under the null tracer and
        # finish() after a real one is activated; NULL_SPAN must bounce off.
        tracer = Tracer(FakeClock())
        tracer.finish(NULL_SPAN)
        assert NULL_SPAN not in tracer.finished_spans


class TestTracerEvent:
    def test_event_lands_on_current_span(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        with tracer.span("listening") as span:
            clock.advance(0.5)
            tracer.event("qos.violation", device="d1", n=2)
        assert span.events == [
            {"name": "qos.violation", "timestamp_s": 0.5, "device": "d1", "n": 2}
        ]

    def test_event_lands_on_innermost_span(self):
        tracer = Tracer(FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                tracer.event("tick")
        assert [event["name"] for event in inner.events] == ["tick"]
        assert outer.events == []

    def test_no_span_open_is_a_noop(self):
        tracer = Tracer(FakeClock())
        tracer.event("qos.violation", x=1)  # no raise
        assert tracer.current() is None
        assert tracer.finished_spans == []


class TestClockResolution:
    def test_object_with_now_property_is_read_live(self):
        class SimLike:
            now = 2.0

        sim = SimLike()
        tracer = Tracer(sim)
        span = tracer.begin("s")
        sim.now = 3.5
        tracer.finish(span)
        assert span.start_s == 2.0
        assert span.duration_ms == pytest.approx(1500.0)

    def test_clock_without_now_is_rejected(self):
        with pytest.raises(TypeError, match="now"):
            Tracer(object())

    def test_default_clock_is_monotonic(self):
        tracer = Tracer()
        first = tracer.now
        assert tracer.now >= first


class TestOpenAndNullSpans:
    def test_open_span_is_unfinished_with_zero_duration(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        span = tracer.begin("open")
        clock.advance(1.0)
        assert not span.finished
        assert span.duration_ms == 0.0
        assert span.to_dict()["end_s"] is None

    def test_null_span_exposes_an_empty_surface(self):
        assert NULL_SPAN.finished
        assert NULL_SPAN.duration_ms == 0.0
        assert NULL_SPAN.attributes == {}
        assert NULL_SPAN.events == []
        assert NULL_SPAN.to_dict() == {}
        assert NULL_SPAN.event("e", 1.0, k=1) is None

    def test_null_tracer_event_and_clock_are_inert(self):
        assert NULL_TRACER.event("e", k=1) is None
        assert NULL_TRACER.now == 0.0

    def test_null_tracer_writes_an_empty_trace_file(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        path.write_text("stale\n")
        NULL_TRACER.write_ndjson(str(path))
        assert path.read_text() == ""
