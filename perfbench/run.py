"""One benchmark for what users of the reproduction wait on.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 45 \
        --trace 0
    python3 perfbench/run.py --regen-reference

Workloads (see ``perfbench/README.md`` for why each exists and which
layer metric should move which end-to-end metric):

* ``cli_cold``     -- cold ``repro run`` (miss, then hit), ``repro analyze``;
* ``table1_sweep`` -- the 22-point Table-I grid through ``SweepExecutor``;
* ``service_mix``  -- ``repro serve`` under a seeded open-loop request mix
  (not gated in ``BENCHMARK.json``: too unsteady on the hosts measured).

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced work and reports the
per-layer metrics (self times, exact work counts, tracing overhead).
Every run checks its outputs against ``perfbench/reference.json``.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from typing import Dict, List, Tuple

from common import (OUT, TMP, SetupError, check_checkout, compile_sources,
                    fresh_dir, median, peak_rss_mb)

#: end-to-end metrics, every workload: (name, unit)
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("main_ms", "ms"),
    ("reuse_ms", "ms"),
    ("aux_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: per-layer metrics, every gated workload (0 where the workload
#: bypasses the layer): (name, unit)
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("cli.import_numpy_ms", "ms"), ("cli.import_repro_ms", "ms"),
    ("cli.help_ms", "ms"),
    ("workload.scene_ms", "ms"),
    ("workload.full_profiles", "count"), ("workload.full_ms", "ms"),
    ("workload.strip_profiles", "count"), ("workload.strip_ms", "ms"),
    ("hashing.fingerprint_ms", "ms"), ("hashing.digest_us", "us"),
    ("cache.get_ms", "ms"), ("cache.put_ms", "ms"),
    ("cache.hits", "count"), ("cache.misses", "count"),
    ("runner.build_ms", "ms"),
    ("engine.build_ms", "ms"), ("engine.run_ms", "ms"),
    ("engine.points", "count"), ("engine.jump_points", "count"),
    ("engine.frames_simulated", "count"), ("engine.frames_skipped", "count"),
    ("engine.skip_ratio", "ratio"),
    ("sim.run_ms", "ms"), ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("telemetry.events", "count"), ("telemetry.synth_ms", "ms"),
    ("telemetry.jump_ms", "ms"),
    ("insights.analyze_ms", "ms"), ("insights.critpath_segments", "count"),
    ("report.html_ms", "ms"),
    ("executor.run_ms", "ms"),
    ("executor.parallel_eff", "ratio"), ("executor.pool_start_ms", "ms"),
    ("trace.spans", "count"), ("trace.overhead_pct", "%"),
)

#: the service layer's metrics, reported by ``service_mix`` only (it is
#: not a gated workload, so they stay out of the JSON line)
SERVICE_LAYER: Tuple[Tuple[str, str], ...] = (
    ("service.submit_p50_ms", "ms"), ("service.coalesce_ms", "ms"),
    ("service.serialize_ms", "ms"),
    ("service.coalesce_ratio", "ratio"), ("service.cache_hit_ratio", "ratio"),
    ("service.refused", "count"), ("service.gen_lag_ms", "ms"),
    ("service.warmup_ms", "ms"), ("service.busy_frac", "ratio"),
)


def _workload(name: str, seed: int):
    if name == "cli_cold":
        from cli_cold import CliCold as cls
    elif name == "table1_sweep":
        from table1_sweep import Table1Sweep as cls
    else:
        from service_mix import ServiceMix as cls
    return cls(seed)


WORKLOAD_NAMES = ("cli_cold", "table1_sweep", "service_mix")


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-reference", action="store_true",
                        help="rewrite perfbench/reference.json from the "
                             "event engine, then exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.regen_reference:
        parser.error("--workload is required")
    return args


def _print_report(name: str, named: Dict[str, dict],
                  layer: Dict[str, float], notes: List[str]) -> None:
    print(f"== {name}")
    for metric, doc in named.items():
        extra = "".join(f"  {k}={v}" for k, v in doc.items()
                        if k not in ("value", "unit"))
        print(f"  {metric:<28} {doc['value']:>12.4f} {doc['unit']}{extra}")
    units = dict(PER_LAYER + SERVICE_LAYER)
    for metric in sorted(layer):
        print(f"  {metric:<28} {layer[metric]:>12.4f} {units[metric]}")
    for note in notes:
        print(f"  note: {note}")


def main(argv: List[str]) -> int:
    args = _parse(argv)
    try:
        check_checkout()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.regen_reference:
        from reference import regenerate

        print(f"wrote {regenerate()} reference rows")
        return 0

    fresh_dir(TMP)
    compile_sources()
    workload = _workload(args.workload, args.seed)
    try:
        setup = workload.setup()
        trace_dir = fresh_dir(TMP / "trace") if args.trace else None
        measured = workload.measure(args.seconds, trace_dir)
        e2e, named, notes = workload.end_to_end(measured)
        layer: Dict[str, float] = {}
        if trace_dir is not None:
            layer = {name: 0.0 for name, _unit in PER_LAYER}
            layer.update(workload.layer_metrics(trace_dir, setup, measured))
            layer["trace.overhead_pct"] = (
                measured["traced_main"] / measured["main"] - 1.0) * 100.0
            OUT.mkdir(exist_ok=True)
            from tracer import write_merged

            spans = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
            notes.append(f"{write_merged(str(trace_dir), str(spans))} spans "
                         f"written to {spans.relative_to(OUT.parent)}")
    finally:
        workload.close()
    e2e["setup_s"] = median(setup)
    e2e["peak_rss_mb"] = peak_rss_mb()
    named = {"setup_s": {"value": e2e["setup_s"], "unit": "s",
                         "samples": len(setup)}, **named,
             "peak_rss_mb": {"value": e2e["peak_rss_mb"], "unit": "MB"},
             "failed_frac": {"value": (workload.failed
                                       / max(workload.attempted, 1)),
                             "unit": "ratio"}}
    _print_report(args.workload, named, layer, notes)
    checker = workload.checker
    for problem in checker.problems:
        print(f"perfbench: FAILED CHECK: {problem}", file=sys.stderr)
    if args.trace:
        units = dict(PER_LAYER)
        metrics = {name: {"value": layer[name], "unit": units[name]}
                   for name, _unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    shutil.rmtree(TMP, ignore_errors=True)
    print(json.dumps({"correct": checker.correct,
                      "attempted": workload.attempted,
                      "failed": workload.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
