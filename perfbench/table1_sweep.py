"""Workload ``table1_sweep``: the paper's main artefact, the Table-I grid.

The 22 points (``single_core`` plus ``one_renderer``/``n_renderers``/
``mcpc_renderer`` x 1..7 pipelines) at 400 frames run in this one process
through ``SweepExecutor(jobs=<schedulable CPUs>)`` with ``engine="batched"``
and no cache.  Every sweep starts fresh worker processes; imports are
paid once.  The seed picks each point's arrangement and the submission
order of each sweep (a different order per sweep, so the median over a
run's sweeps does not rest on one placement of the slowest point).
Strip culling, the coarse scheduler, frame-wave jumps and worker
parallelism do the work here.  The gated times are walls scaled to the
reference host speed (``common.Scaler``: after every sweep, one
calibration probe per worker, all at once).

``python3 perfbench/table1_sweep.py --setup-probe`` is the set-up probe:
a fresh interpreter that imports the executor, builds it and computes
the sweep's digests, i.e. everything a sweep pays before its first point.
"""

from __future__ import annotations

import os
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import layers
import tracer
from common import (ARRANGEMENTS, BENCH_DIR, FRAMES, TMP, Checker, Scaler,
                    add_src_path, child_env, fits, fresh_dir, median,
                    ref_key, table1_points)

SETUP_SAMPLES = 7


def jobs() -> int:
    return len(os.sched_getaffinity(0))


def plan(seed: int, sweep: int = 0) -> List[Tuple[str, int, str]]:
    """The seeded grid: (config, pipelines, arrangement) in submission
    order.  The arrangements depend on the seed only; the order also on
    the sweep's index within the run."""
    rng = random.Random(seed)
    points = [(c, p, rng.choice(ARRANGEMENTS)) for c, p in table1_points()]
    random.Random(f"{seed}/{sweep}").shuffle(points)
    return points


def make_specs(points: List[Tuple[str, int, str]]) -> list:
    from repro.exec import RunSpec

    return [RunSpec(config=c, pipelines=p, arrangement=a, frames=FRAMES,
                    engine="batched") for c, p, a in points]


class Table1Sweep:
    name = "table1_sweep"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.jobs = jobs()
        self.checker = Checker()
        self.attempted = 0
        self.failed = 0
        self.table1_err_pct = 0.0
        self.scaler = Scaler()  # set-up probes are one process
        self.sweep_scaler = Scaler(procs=self.jobs)

    def setup(self) -> List[float]:
        """Scaled seconds of fresh set-up probes."""
        scaled = []
        for _ in range(SETUP_SAMPLES):
            seconds, _wall, proc = self.scaler.scaled(
                [sys.executable, __file__, "--setup-probe"], child_env())
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr}")
            scaled.append(seconds)
        return scaled

    def _sweep(self, index: int, run_id: str, points_dir: Path
               ) -> Dict[str, object]:
        """One sweep: its ``wall``, each point's milliseconds (``point_ms``),
        its scale ``factor`` and its wall with calibration (``cycle``)."""
        from repro.exec import SweepExecutor

        tracer.TRACER.run_id = run_id
        points = plan(self.seed, index)
        specs = make_specs(points)
        executor = SweepExecutor(jobs=self.jobs)
        cycle_start = time.perf_counter()
        self.sweep_scaler.start()
        start = time.perf_counter()
        results = executor.run(specs)
        wall = time.perf_counter() - start
        factor = self.sweep_scaler.factor()
        tracer.TRACER.flush()
        self.attempted += len(specs)
        for (config, pipelines, arrangement), result in zip(points, results):
            if not self.checker.result(
                    ref_key(config, pipelines, arrangement, FRAMES),
                    result.walkthrough_seconds, result.scc_energy_j):
                self.failed += 1
        self.table1_err_pct = table1_error_pct(points, results)
        spans, _counts = tracer.load(str(points_dir))
        point_ms = [(s[2] - s[1]) * 1e3 for s in spans
                    if s[0] == "executor.point" and s[5] == run_id]
        if len(point_ms) != len(specs) or not point_ms:
            self.checker.fail(f"{run_id}: timed {len(point_ms)} of "
                              f"{len(specs)} points")
        return {"wall": wall, "point_ms": point_ms, "factor": factor,
                "cycle": time.perf_counter() - cycle_start}

    def measure(self, seconds: float, trace_dir: Path = None) -> dict:
        """Sweeps while one more fits in ``seconds``.  With a trace directory
        the first half of the time is untraced and the second traced."""
        points_dir = trace_dir or fresh_dir(TMP / "points")
        start = time.perf_counter()
        import numpy  # noqa: F401  (paid once per sweep process)
        numpy_done = time.perf_counter()
        add_src_path()
        import repro.exec  # noqa: F401
        self.import_ms = ((numpy_done - start) * 1e3,
                          (time.perf_counter() - numpy_done) * 1e3)
        delay = os.environ.get(tracer.ENV_DELAY, "")
        tracer.install("point", str(points_dir), delay=delay)
        plain: List[Dict[str, object]] = []
        traced: List[Dict[str, object]] = []
        untraced_for = seconds / 2 if trace_dir is not None else seconds
        while not plain or fits(start, plain[-1]["cycle"], untraced_for):
            plain.append(self._sweep(len(plain), f"p{len(plain)}",
                                     points_dir))
        if trace_dir is not None:
            tracer.install("full", str(points_dir), delay=delay)
            while not traced or fits(start, traced[-1]["cycle"], seconds):
                traced.append(self._sweep(len(traced), f"s{len(traced)}",
                                          points_dir))
        with_points = [s for s in plain if s["point_ms"]]
        out = {
            "sweeps": len(plain),
            "main": median([s["wall"] * s["factor"] for s in plain]),
            "main_raw": median([s["wall"] for s in plain]),
            "point_mean": median([
                sum(s["point_ms"]) / len(s["point_ms"]) * s["factor"]
                for s in with_points]),
            "point_max": median([max(s["point_ms"]) * s["factor"]
                                 for s in with_points]),
        }
        if traced:
            out["traced_main"] = median([s["wall"] * s["factor"]
                                         for s in traced])
            out["traced_walls"] = {f"s{i}": s["wall"]
                                   for i, s in enumerate(traced)}
        return out

    def end_to_end(self, measured: dict):
        e2e = {"main_ms": measured["main"] * 1e3,
               "reuse_ms": measured["point_mean"],
               "aux_ms": measured["point_max"]}
        named = {
            "sweep.wall_s": {"value": measured["main"], "unit": "s",
                             "raw": round(measured["main_raw"], 4),
                             "sweeps": measured["sweeps"],
                             "jobs": self.jobs},
            "sweep.point_mean_ms": {"value": measured["point_mean"],
                                    "unit": "ms"},
            "sweep.point_max_ms": {"value": measured["point_max"],
                                   "unit": "ms"},
            "sim.table1_err_pct": {"value": self.table1_err_pct,
                                   "unit": "%"},
        }
        notes = ["sim.table1_err_pct: mean |simulated - published| / "
                 "published walkthrough seconds over the 22 points "
                 "(repro.report.paper.TABLE1)",
                 "each run starts from a fresh chip model, so the "
                 "modelled caches start empty"]
        return e2e, named, notes

    def close(self) -> None:
        pass

    def layer_metrics(self, trace_dir: Path, setup: List[float],
                      measured: dict) -> Dict[str, float]:
        spans, counts = tracer.load(str(trace_dir))
        spans = [s for s in spans if s[5].startswith("s")]
        counts = {k: v for k, v in counts.items() if k[0].startswith("s")}
        out = layers.summarize(spans, counts, lambda run_id: run_id,
                               self.checker.problems)
        out["cli.import_numpy_ms"], out["cli.import_repro_ms"] = \
            self.import_ms
        eff, pool_start = [], []
        for run_id, wall in measured["traced_walls"].items():
            points = [s for s in spans
                      if s[0] == "executor.point" and s[5] == run_id]
            sweep = [s for s in spans
                     if s[0] == "executor.run" and s[5] == run_id]
            eff.append(sum(s[2] - s[1] for s in points) / (self.jobs * wall))
            if points and sweep:
                pool_start.append(
                    (min(s[1] for s in points) - sweep[0][1]) * 1e3)
        out["executor.parallel_eff"] = median(eff)
        out["executor.pool_start_ms"] = median(pool_start)
        return out


def table1_error_pct(points: List[Tuple[str, int, str]], results: list
                     ) -> float:
    from repro.report.paper import BASELINE_SINGLE_CORE_S, TABLE1

    errors = []
    for (config, pipelines, arrangement), result in zip(points, results):
        if config == "single_core":
            published = BASELINE_SINGLE_CORE_S
        else:
            published = TABLE1[(config, arrangement)][pipelines - 1]
        errors.append(abs(result.walkthrough_seconds - published)
                      / published * 100.0)
    return sum(errors) / len(errors)


def _setup_probe() -> int:
    add_src_path()
    from repro.exec import SweepExecutor

    SweepExecutor(jobs=jobs()).digests(make_specs(plan(0)))
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--setup-probe"]:
        sys.exit(_setup_probe())
    sys.exit(f"usage: python3 {Path(__file__).name} --setup-probe "
             f"(the benchmark is {BENCH_DIR.name}/run.py)")
