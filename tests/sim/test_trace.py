"""Tests for the ASCII Gantt renderer over a telemetry hub's stage spans."""

import math

import pytest

from repro.sim import render_gantt
from repro.telemetry import Telemetry


def test_add_and_query_spans():
    # Rows come in first-activity order, one per track; waits and other
    # categories draw nothing; t1 defaults to the last activity end.
    tel = Telemetry()
    tel.span("stage", "a", "busy", 0.0, 1.0)
    tel.span("stage", "b", "busy", 0.5, 2.0)
    tel.span("stage", "a", "io", 1.0, 1.5)
    tel.span("stage", "c", "idle", 0.0, 3.0)
    tel.span("stage", "b", "wait", 2.0, 3.0)
    tel.span("mesh", "link", "xfer", 0.0, 4.0)
    lines = render_gantt(tel, width=8).splitlines()
    assert [line.split()[0] for line in lines[1:]] == ["a", "b"]
    assert lines[1].endswith("bbbbii..")
    assert lines[2].endswith("..bbbbbb")
    assert lines[0].endswith("t1=2s")


def test_render_gantt_basic():
    tel = Telemetry()
    tel.span("stage", "blur", "busy", 0.0, 5.0)
    tel.span("stage", "swap", "busy", 5.0, 10.0)
    art = render_gantt(tel, width=10, t1=10.0)
    lines = art.splitlines()
    assert len(lines) == 3
    assert lines[1].endswith("bbbbb.....")
    assert lines[2].endswith(".....bbbbb")


def test_render_gantt_overlapping_spans_keep_open_span_visible():
    # Regression: a short span starting later than a long still-open one
    # used to hide the long span for the rest of the row (the bisect
    # picked the latest-started span even after it had ended).
    tel = Telemetry()
    tel.span("stage", "t", "long", 0.0, 10.0)
    tel.span("stage", "t", "short", 2.0, 3.0)
    art = render_gantt(tel, width=10, t1=10.0)
    row = art.splitlines()[1].split()[-1]
    # Columns cover 1 s each, midpoints at 0.5, 1.5, 2.5, ...  The short
    # span wins only at its own midpoint (tie-break: latest-started
    # covering span); the long span stays visible everywhere else.
    assert row == "llslllllll"


def test_render_gantt_gap_after_short_span_still_idle():
    tel = Telemetry()
    tel.span("stage", "t", "a", 0.0, 2.0)
    tel.span("stage", "t", "b", 4.0, 6.0)
    art = render_gantt(tel, width=10, t1=10.0)
    row = art.splitlines()[1].split()[-1]
    assert row == "aa..bb...."


def test_render_gantt_validation():
    tel = Telemetry()
    with pytest.raises(ValueError):
        render_gantt(tel, width=4)
    with pytest.raises(ValueError):
        render_gantt(tel)  # nothing to render
    tel.span("stage", "t", "x", 0.0, 1.0)
    with pytest.raises(ValueError):
        render_gantt(tel, t0=1.0, t1=1.0)


def test_render_gantt_track_selection():
    tel = Telemetry()
    tel.span("stage", "a", "x", 0.0, 1.0)
    tel.span("stage", "b", "y", 0.0, 1.0)
    art = render_gantt(tel, width=8, tracks=["b"])
    assert "a" not in art.splitlines()[1]
    assert art.splitlines()[1].startswith("b")


def test_pipeline_runner_records_trace():
    from repro.pipeline import PipelineRunner

    tel = Telemetry()
    runner = PipelineRunner(config="one_renderer", pipelines=2, frames=8,
                            telemetry=tel)
    runner.run()
    tracks = tel.tracks("stage")
    assert "render" in tracks
    assert "blur[0]" in tracks and "blur[1]" in tracks

    def busy(track):
        return math.fsum(e.dur for e in tel.events_in("stage")
                         if e.track == track and e.name == "busy")

    # Blur dominates its pipeline's time; scratch mostly idles.
    assert busy("blur[0]") > 3 * busy("scratch[0]")
    assert "blur[0]" in render_gantt(tel)


def test_runner_without_trace_has_none():
    from repro.pipeline import PipelineRunner

    runner = PipelineRunner(config="one_renderer", pipelines=1, frames=4)
    runner.run()
    with pytest.raises(ValueError):  # no hub, no spans to draw
        render_gantt(runner.last_telemetry)
