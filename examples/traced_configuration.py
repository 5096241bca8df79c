"""Trace a full configure→deploy pass and render the phase breakdown.

Activates a :class:`repro.Tracer` around one audio-on-demand session
start, then feeds the exported NDJSON span stream straight into
:class:`repro.TraceReport` — the same pipeline behind
``python -m repro scenario audio_storm --trace`` and ``python -m
repro trace-report``.

Run:  python examples/traced_configuration.py
"""

from repro import TraceReport, Tracer, activated
from repro.apps.audio_on_demand import audio_request, build_audio_testbed


def main() -> None:
    testbed = build_audio_testbed()
    tracer = Tracer()  # wall clock; pass a Scheduler for logical time

    with activated(tracer):
        with tracer.span("example.traced_configuration"):
            session = testbed.configurator.create_session(
                audio_request(testbed, "jornada"), user_id="alice"
            )
            record = session.start(label="traced", skip_downloads=True)
            session.stop()

    print(f"session admitted: {record.success}")
    print()
    print(TraceReport.from_ndjson(tracer.export_ndjson()).format_report())


if __name__ == "__main__":
    main()
