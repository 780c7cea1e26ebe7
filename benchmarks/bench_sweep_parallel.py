#!/usr/bin/env python
"""Parallel sweep executor benchmark: the Table-I campaign three ways.

Measures the wall clock of the full Table-I grid (9 SCC rows + 3 HPC
rows, 7 pipeline counts each = 84 independent simulations) through
:class:`repro.exec.SweepExecutor`:

* ``serial``        — ``jobs=1``, no cache (the pre-PR execution model);
* ``parallel cold`` — ``--jobs N`` workers, fresh content-addressed
  cache (every point simulates, sharded);
* ``parallel warm`` — the same sweep again against the now-populated
  cache (**zero** simulations may execute).

The workload (procedural city, camera path, culling profiles for every
strip split the sweep uses) is pre-warmed once outside all timed
regions, so the serial and parallel passes race on identical terms and
``fork``-started workers inherit the same warm memo the serial pass
enjoys.  The three passes must produce bit-identical result lists —
the bench asserts it.

Results land in ``BENCH_sweep.json`` at the repository root via
``--update``; plain runs just measure and print.  ``cpu_count`` *and*
``cpu_affinity_count`` (the scheduler mask — what a cgroup-limited CI
runner can actually use) are recorded alongside, because the cold-cache
speedup is bounded by the cores the process really has; the bench warns
when ``--jobs`` oversubscribes them.  Every measurement also appends a
trend record to ``BENCH_history.jsonl`` (``repro bench trend`` reads
it; ``--no-history`` to skip).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import _common

from repro.exec import ResultCache, RunSpec, SweepExecutor  # noqa: E402
from repro.exec.cache import result_to_cache_dict  # noqa: E402
from repro.obsv import append_history  # noqa: E402
from repro.pipeline import ARRANGEMENTS  # noqa: E402
from repro.pipeline.workload import default_workload  # noqa: E402
from repro.report import paper  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_sweep.json"
HISTORY_PATH = REPO_ROOT / "BENCH_history.jsonl"


def available_cpus() -> int:
    """CPUs this *process* may run on — the honest parallelism bound.

    ``os.cpu_count()`` reports the machine; under cgroup/affinity limits
    (CI runners, containers) the scheduler mask is smaller and is what
    actually caps the cold-cache speedup.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0))
        except OSError:
            pass
    return os.cpu_count() or 1

SCC_CONFIGS = ("one_renderer", "n_renderers", "mcpc_renderer")
HPC_CONFIGS = ("external_renderer", "single_renderer", "parallel_renderer")


def table1_specs(frames: int) -> list:
    """The full Table-I grid at the given walkthrough length."""
    specs = []
    for config in SCC_CONFIGS:
        for arr in ARRANGEMENTS:
            specs.extend(RunSpec(config=config, arrangement=arr, pipelines=n,
                                 frames=frames)
                         for n in paper.TABLE1_PIPELINES)
    for config in HPC_CONFIGS:
        specs.extend(RunSpec(platform="hpc", config=config, pipelines=n,
                             frames=frames)
                     for n in paper.TABLE1_PIPELINES)
    return specs


def prewarm_workload(frames: int) -> None:
    """Build every culling profile the sweep will request, untimed.

    Runs would otherwise build them lazily, so the first pass measured
    would pay the one-off geometry cost and the comparison would skew.
    """
    workload = default_workload(frames, 400)
    for n in sorted({1, *paper.TABLE1_PIPELINES}):
        workload.split(n)


def canonical(results) -> str:
    return json.dumps([result_to_cache_dict(r) for r in results],
                      sort_keys=True)


def measure(frames: int, jobs: int) -> dict:
    specs = table1_specs(frames)
    prewarm_workload(frames)

    t0 = time.perf_counter()
    serial = SweepExecutor(jobs=1).run(specs)
    serial_ms = (time.perf_counter() - t0) * 1000.0

    with tempfile.TemporaryDirectory(prefix="repro-sweep-bench-") as tmp:
        cache = ResultCache(tmp)
        cold_exec = SweepExecutor(jobs=jobs, cache=cache)
        t0 = time.perf_counter()
        cold = cold_exec.run(specs)
        cold_ms = (time.perf_counter() - t0) * 1000.0
        assert cold_exec.last_stats.executed == len(specs)

        warm_exec = SweepExecutor(jobs=jobs, cache=cache)
        t0 = time.perf_counter()
        warm = warm_exec.run(specs)
        warm_ms = (time.perf_counter() - t0) * 1000.0
        warm_executed = warm_exec.last_stats.executed

    assert canonical(serial) == canonical(cold) == canonical(warm), \
        "sweep results must be bit-identical across jobs values and cache"
    assert warm_executed == 0, \
        f"warm cache re-ran {warm_executed} simulations"

    return {
        "sweep": "table1",
        "points": len(specs),
        "frames": frames,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "cpu_affinity_count": available_cpus(),
        "serial_ms": round(serial_ms, 1),
        "parallel_cold_ms": round(cold_ms, 1),
        "parallel_warm_ms": round(warm_ms, 1),
        "speedup_cold": round(serial_ms / cold_ms, 3),
        "speedup_warm": round(serial_ms / warm_ms, 1),
        "warm_simulations_executed": warm_executed,
        "results_identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--frames", type=int, default=100,
                        help="walkthrough length per point (default 100; "
                             "the paper's full axis is 400)")
    parser.add_argument("--update", action="store_true",
                        help=f"record the measurement in {RESULT_PATH.name}")
    parser.add_argument("--history", type=Path, default=HISTORY_PATH,
                        help="append a trend record here "
                             f"(default {HISTORY_PATH.name})")
    parser.add_argument("--no-history", action="store_true",
                        help="skip the trend-record append")
    _common.add_exec_arguments(parser, jobs_default=4)
    args = parser.parse_args(argv)

    usable = available_cpus()
    if args.jobs > usable:
        print(f"warning: --jobs {args.jobs} exceeds the {usable} CPU(s) "
              f"this process may run on; workers will time-share and the "
              f"parallel numbers will under-report the speedup",
              file=sys.stderr)

    fresh = measure(args.frames, args.jobs)
    print(f"Table-I sweep, {fresh['points']} points x {args.frames} frames "
          f"on {fresh['cpu_count']} CPU(s) "
          f"({fresh['cpu_affinity_count']} usable):")
    print(f"  serial (jobs=1, no cache) : {fresh['serial_ms']:9.1f} ms")
    print(f"  jobs={args.jobs}, cold cache       : "
          f"{fresh['parallel_cold_ms']:9.1f} ms "
          f"({fresh['speedup_cold']:.2f}x)")
    print(f"  jobs={args.jobs}, warm cache       : "
          f"{fresh['parallel_warm_ms']:9.1f} ms "
          f"({fresh['speedup_warm']:.0f}x, 0 simulations)")

    if args.update:
        RESULT_PATH.write_text(json.dumps(fresh, indent=2, sort_keys=True)
                               + "\n")
        print(f"recorded in {RESULT_PATH.name}")

    if not args.no_history:
        append_history(args.history, "sweep", {
            "serial_ms": fresh["serial_ms"],
            "parallel_cold_ms": fresh["parallel_cold_ms"],
            "parallel_warm_ms": fresh["parallel_warm_ms"],
        }, meta={k: fresh[k] for k in ("points", "frames", "jobs",
                                       "cpu_count", "cpu_affinity_count",
                                       "speedup_cold", "speedup_warm")})
        print(f"trend record appended to {args.history.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
