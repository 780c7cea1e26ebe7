"""Per-layer metrics from a traced run's spans and counts.

Every ``*_ms`` metric is the layer's *self* time: the time inside its
spans minus the time inside the spans they caused.  Times are summed per
round (one CLI round, one sweep, one service session) and reported as
the median over rounds.  Counts are exact work counts per round; rounds
of one run repeat the same work, so any difference between them is
reported as a correctness problem.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

from common import median
from tracer import self_times

#: self-time metric -> the span names it sums
LAYER_TIMES: Dict[str, Tuple[str, ...]] = {
    "workload.scene_ms": ("workload.scene",),
    "workload.full_ms": ("workload.full",),
    "workload.strip_ms": ("workload.strip",),
    "hashing.fingerprint_ms": ("hashing.fingerprint",),
    "cache.get_ms": ("cache.get",),
    "cache.put_ms": ("cache.put",),
    "runner.build_ms": ("runner.init", "runner.run"),
    "engine.build_ms": ("engine.build",),
    "engine.run_ms": ("engine.run",),
    "sim.run_ms": ("sim.run",),
    "telemetry.jump_ms": ("telemetry.jump",),
    "executor.run_ms": ("executor.run", "executor.point"),
    "insights.analyze_ms": ("insights.analyze",),
    "report.html_ms": ("report.html",),
    "service.coalesce_ms": ("service.coalesce",),
    "service.serialize_ms": ("service.serialize",),
}

#: exact work counts (named in advance; a claim may rest only on these)
EXACT_COUNTS: Tuple[str, ...] = (
    "workload.full_profiles", "workload.strip_profiles",
    "cache.hits", "cache.misses",
    "engine.points", "engine.jump_points", "engine.frames_simulated",
    "engine.frames_skipped", "sim.events", "telemetry.events",
    "insights.critpath_segments",
)

#: span names timed directly by the caller, not by a wrapper
_RECORDED = ("cli.import_numpy", "cli.import_repro")


def summarize(spans: Sequence[list], counts: Dict[Tuple[str, str], float],
              round_of: Callable[[str], str],
              problems: List[str]) -> Dict[str, float]:
    """Per-layer metrics, median over rounds; ``problems`` collects
    exact counts that differ between rounds."""
    per_round_time: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for (run_id, name), seconds in self_times(spans).items():
        per_round_time[round_of(run_id)][name] += seconds
    per_round_count: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for (run_id, name), value in counts.items():
        per_round_count[round_of(run_id)][name] += value
    per_round_spans: Dict[str, int] = defaultdict(int)
    for span in spans:
        if span[0] not in _RECORDED:
            per_round_spans[round_of(span[5])] += 1
    rounds = sorted(set(per_round_time) | set(per_round_count))
    if not rounds:
        rounds = [""]

    out: Dict[str, float] = {}
    for metric, names in LAYER_TIMES.items():
        out[metric] = median([
            sum(per_round_time[r][n] for n in names) * 1e3 for r in rounds])

    derived: Dict[str, List[float]] = defaultdict(list)
    for r in rounds:
        c, t = per_round_count[r], per_round_time[r]
        requested = c["engine.frames_requested"]
        c["engine.frames_skipped"] = requested - c["engine.frames_simulated"]
        derived["engine.skip_ratio"].append(
            c["engine.frames_skipped"] / requested if requested else 0.0)
        calls = c["hashing.digest.calls"]
        derived["hashing.digest_us"].append(
            t["hashing.digest"] / calls * 1e6 if calls else 0.0)
        events = c["sim.events"]
        derived["sim.ns_per_event"].append(
            t["sim.run"] / events * 1e9 if events else 0.0)
        derived["trace.spans"].append(float(per_round_spans[r]))
    for metric, values in derived.items():
        out[metric] = median(values)

    for name in EXACT_COUNTS:
        values = {per_round_count[r][name] for r in rounds}
        if len(values) > 1:
            problems.append(f"exact count {name} differs between rounds: "
                            f"{sorted(values)}")
        out[name] = per_round_count[rounds[0]][name]
    return out


def process_spans(spans: Sequence[list], name: str) -> List[float]:
    """Durations (ms) of every span called ``name``."""
    return [(s[2] - s[1]) * 1e3 for s in spans if s[0] == name]
