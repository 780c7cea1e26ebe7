"""ASCII Gantt charts of a run's stage activity.

The paper reasons about pipelines in terms of per-stage busy/idle
windows (its Fig. 15 is exactly that data, summarized).
:func:`render_gantt` draws the ``stage`` spans of a telemetry hub as a
fixed-width chart, which ``repro run --gantt`` and the examples use to
*show* the pipeline filling, the bottleneck stage saturating, and
everything downstream idling.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # the hub lives a layer above the kernel
    from ..telemetry import Telemetry

__all__ = ["render_gantt"]

#: stage span names that are waits: drawn as gaps, not as activity
_WAITS = ("idle", "wait")


def render_gantt(telemetry: "Telemetry", width: int = 72,
                 t0: float = 0.0, t1: Optional[float] = None,
                 tracks: Optional[Sequence[str]] = None) -> str:
    """Render a hub's ``stage`` activity spans as fixed-width ASCII bars.

    One row per track, in the order the tracks' first activity span was
    emitted; waits (``idle`` and ``wait`` spans) stay gaps.  ``t1``
    defaults to the last activity end.  Each column covers
    ``(t1 - t0) / width`` seconds; a cell prints the first letter of the
    span name active at the column's midpoint (``.`` = idle).  When
    several spans of one track cover the midpoint (spans may overlap),
    the **latest-started covering span** wins — a short recent span does
    not hide an earlier one that is still open.
    """
    if width < 8:
        raise ValueError("width must be >= 8")
    rows: Dict[str, List[Tuple[float, float, str]]] = {}
    for event in telemetry.events_in("stage"):
        if event.kind == "span" and event.name not in _WAITS:
            assert event.track is not None
            rows.setdefault(event.track, []).append(
                (event.t, event.end, event.name))
    end = t1 if t1 is not None else max(
        (span[1] for spans in rows.values() for span in spans), default=0.0)
    if end <= t0:
        raise ValueError("empty time window")
    names = list(tracks) if tracks is not None else list(rows)
    if not names:
        raise ValueError("nothing to render")
    label_w = max(len(n) for n in names)
    dt = (end - t0) / width

    lines = [f"{'':{label_w}}  t0={t0:g}s  dt/col={dt:g}s  t1={end:g}s"]
    for name in names:
        spans = sorted(rows.get(name, ()), key=lambda s: s[0])
        starts = [s[0] for s in spans]
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
                if spans[idx][1] > mid:
                    char = (spans[idx][2][:1] or "#")
                    break
                idx -= 1
            row.append(char)
        lines.append(f"{name:{label_w}}  {''.join(row)}")
    return "\n".join(lines)
