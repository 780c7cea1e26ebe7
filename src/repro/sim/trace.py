"""Activity tracing: record labelled spans, render ASCII Gantt charts.

The paper reasons about pipelines in terms of per-stage busy/idle
windows (its Fig. 15 is exactly that data, summarized).  A
:class:`TraceRecorder` collects ``(track, label, t0, t1)`` spans from a
running simulation; :func:`render_gantt` turns them into a fixed-width
chart, which the examples use to *show* the pipeline filling, the
bottleneck stage saturating, and everything downstream idling.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence

__all__ = ["Span", "TraceRecorder", "render_gantt"]


@dataclass(frozen=True)
class Span:
    """One labelled activity window on one track."""

    track: str
    label: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("span ends before it starts")

    @property
    def duration(self) -> float:
        return self.end - self.start


class TraceRecorder:
    """Collects spans, grouped by track (one track per stage/core)."""

    def __init__(self) -> None:
        self._spans: List[Span] = []

    # -- recording ------------------------------------------------------------
    def add(self, track: str, label: str, start: float, end: float) -> Span:
        """Record a complete span."""
        span = Span(track, label, start, end)
        self._spans.append(span)
        return span

    # -- queries ------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        return list(self._spans)

    def tracks(self) -> List[str]:
        """Track names in first-appearance order."""
        seen: List[str] = []
        for span in self._spans:
            if span.track not in seen:
                seen.append(span.track)
        return seen

    def spans_on(self, track: str) -> List[Span]:
        return [s for s in self._spans if s.track == track]

    def busy_fraction(self, track: str, t0: float, t1: float) -> float:
        """Fraction of ``[t0, t1]`` covered by spans on ``track``.

        Overlapping spans are merged first so the result is a true
        coverage fraction in [0, 1].
        """
        if t1 <= t0:
            raise ValueError("empty window")
        windows = sorted(
            (max(s.start, t0), min(s.end, t1))
            for s in self.spans_on(track)
            if s.end > t0 and s.start < t1
        )
        merged: List[float] = []
        cur_start: Optional[float] = None
        cur_end = 0.0
        for a, b in windows:
            if cur_start is None:
                cur_start, cur_end = a, b
            elif a <= cur_end:
                cur_end = max(cur_end, b)
            else:
                merged.append(cur_end - cur_start)
                cur_start, cur_end = a, b
        if cur_start is not None:
            merged.append(cur_end - cur_start)
        return math.fsum(merged) / (t1 - t0)

    @property
    def horizon(self) -> float:
        """Latest span end (0 when empty)."""
        return max((s.end for s in self._spans), default=0.0)

    def to_chrome_trace(self) -> dict:
        """This recorder as a Chrome trace-event JSON document.

        Delegates to :func:`repro.telemetry.spans_to_chrome`; the result
        loads in Perfetto / ``chrome://tracing`` with one thread row per
        track.
        """
        from ..telemetry import spans_to_chrome

        return spans_to_chrome(self._spans)


def render_gantt(recorder: TraceRecorder, width: int = 72,
                 t0: float = 0.0, t1: Optional[float] = None,
                 tracks: Optional[Sequence[str]] = None) -> str:
    """Render tracks as fixed-width ASCII bars.

    Each column covers ``(t1 - t0) / width`` seconds; a cell prints the
    first letter of the label active at the column's midpoint (``.`` =
    idle).  When several spans of one track cover the midpoint (spans
    may overlap), the **latest-started covering span** wins — a short
    recent span does not hide an earlier one that is still open.
    """
    if width < 8:
        raise ValueError("width must be >= 8")
    end = t1 if t1 is not None else recorder.horizon
    if end <= t0:
        raise ValueError("empty time window")
    names = list(tracks) if tracks is not None else recorder.tracks()
    if not names:
        raise ValueError("nothing to render")
    label_w = max(len(n) for n in names)
    dt = (end - t0) / width

    lines = [f"{'':{label_w}}  t0={t0:g}s  dt/col={dt:g}s  t1={end:g}s"]
    for name in names:
        spans = sorted(recorder.spans_on(name), key=lambda s: s.start)
        starts = [s.start for s in spans]
        row = []
        for col in range(width):
            mid = t0 + (col + 0.5) * dt
            char = "."
            # bisect finds the latest-started span with start <= mid, but
            # that span may already have ended while an earlier, longer
            # one still covers the midpoint — walk back to the first
            # (i.e. latest-started) span that actually covers it.
            idx = bisect_right(starts, mid) - 1
            while idx >= 0:
                if spans[idx].end > mid:
                    char = (spans[idx].label[:1] or "#")
                    break
                idx -= 1
            row.append(char)
        lines.append(f"{name:{label_w}}  {''.join(row)}")
    return "\n".join(lines)
