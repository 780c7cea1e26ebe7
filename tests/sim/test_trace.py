"""Tests for activity tracing and the ASCII Gantt renderer."""

import pytest

from repro.sim import Span, TraceRecorder, render_gantt


def test_span_validation_and_duration():
    s = Span("blur", "busy", 1.0, 3.5)
    assert s.duration == pytest.approx(2.5)
    with pytest.raises(ValueError):
        Span("blur", "busy", 3.0, 1.0)


def test_add_and_query_spans():
    rec = TraceRecorder()
    rec.add("a", "busy", 0.0, 1.0)
    rec.add("b", "busy", 0.5, 2.0)
    rec.add("a", "io", 1.0, 1.5)
    assert rec.tracks() == ["a", "b"]
    assert len(rec.spans_on("a")) == 2
    assert rec.horizon == 2.0


def test_busy_fraction_merges_overlaps():
    rec = TraceRecorder()
    rec.add("t", "a", 0.0, 4.0)
    rec.add("t", "b", 2.0, 6.0)   # overlaps the first
    rec.add("t", "c", 8.0, 9.0)
    assert rec.busy_fraction("t", 0.0, 10.0) == pytest.approx(0.7)
    assert rec.busy_fraction("t", 0.0, 6.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rec.busy_fraction("t", 5.0, 5.0)


def test_busy_fraction_clips_to_window():
    rec = TraceRecorder()
    rec.add("t", "a", -5.0, 5.0)
    assert rec.busy_fraction("t", 0.0, 10.0) == pytest.approx(0.5)


def test_busy_fraction_overlap_and_clip_combined():
    rec = TraceRecorder()
    # A span overhanging the window on each side, plus an interior one
    # fully contained in the union of the other two.
    rec.add("t", "a", -2.0, 3.0)
    rec.add("t", "b", 2.0, 12.0)
    rec.add("t", "c", 1.0, 4.0)
    assert rec.busy_fraction("t", 0.0, 10.0) == pytest.approx(1.0)
    # A window the spans never touch.
    rec.add("u", "x", 0.0, 1.0)
    assert rec.busy_fraction("u", 2.0, 3.0) == 0.0


def test_busy_fraction_zero_length_spans():
    rec = TraceRecorder()
    rec.add("t", "a", 5.0, 5.0)
    assert rec.busy_fraction("t", 0.0, 10.0) == 0.0


def test_render_gantt_basic():
    rec = TraceRecorder()
    rec.add("blur", "busy", 0.0, 5.0)
    rec.add("swap", "busy", 5.0, 10.0)
    art = render_gantt(rec, width=10, t1=10.0)
    lines = art.splitlines()
    assert len(lines) == 3
    assert lines[1].endswith("bbbbb.....")
    assert lines[2].endswith(".....bbbbb")


def test_render_gantt_overlapping_spans_keep_open_span_visible():
    # Regression: a short span starting later than a long still-open one
    # used to hide the long span for the rest of the row (the bisect
    # picked the latest-started span even after it had ended).
    rec = TraceRecorder()
    rec.add("t", "long", 0.0, 10.0)
    rec.add("t", "short", 2.0, 3.0)
    art = render_gantt(rec, width=10, t1=10.0)
    row = art.splitlines()[1].split()[-1]
    # Columns cover 1 s each, midpoints at 0.5, 1.5, 2.5, ...  The short
    # span wins only at its own midpoint (tie-break: latest-started
    # covering span); the long span stays visible everywhere else.
    assert row == "llslllllll"


def test_render_gantt_gap_after_short_span_still_idle():
    rec = TraceRecorder()
    rec.add("t", "a", 0.0, 2.0)
    rec.add("t", "b", 4.0, 6.0)
    art = render_gantt(rec, width=10, t1=10.0)
    row = art.splitlines()[1].split()[-1]
    assert row == "aa..bb...."


def test_render_gantt_validation():
    rec = TraceRecorder()
    with pytest.raises(ValueError):
        render_gantt(rec, width=4)
    with pytest.raises(ValueError):
        render_gantt(rec)  # nothing to render
    rec.add("t", "x", 0.0, 1.0)
    with pytest.raises(ValueError):
        render_gantt(rec, t0=1.0, t1=1.0)


def test_render_gantt_track_selection():
    rec = TraceRecorder()
    rec.add("a", "x", 0.0, 1.0)
    rec.add("b", "y", 0.0, 1.0)
    art = render_gantt(rec, width=8, tracks=["b"])
    assert "a" not in art.splitlines()[1]
    assert art.splitlines()[1].startswith("b")


def test_pipeline_runner_records_trace():
    from repro.pipeline import PipelineRunner

    runner = PipelineRunner(config="one_renderer", pipelines=2, frames=8,
                            trace=True)
    runner.run()
    trace = runner.last_trace
    assert trace is not None
    tracks = trace.tracks()
    assert "render" in tracks
    assert "blur[0]" in tracks and "blur[1]" in tracks
    # Blur dominates its pipeline's time; scratch mostly idles.
    horizon = trace.horizon
    blur_busy = trace.busy_fraction("blur[0]", 0.0, horizon)
    scratch_busy = trace.busy_fraction("scratch[0]", 0.0, horizon)
    assert blur_busy > 3 * scratch_busy


def test_runner_without_trace_has_none():
    from repro.pipeline import PipelineRunner

    runner = PipelineRunner(config="one_renderer", pipelines=1, frames=4)
    runner.run()
    assert runner.last_trace is None


def test_recorder_to_chrome_trace():
    from repro.telemetry import validate_chrome_trace

    rec = TraceRecorder()
    rec.add("blur[0]", "busy", 0.5, 1.5)
    doc = rec.to_chrome_trace()
    assert validate_chrome_trace(doc) == []
    (span,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert span["name"] == "busy"
    assert span["ts"] == pytest.approx(0.5e6)
    assert span["dur"] == pytest.approx(1.0e6)
