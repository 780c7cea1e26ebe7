"""Layer trip test: a fixed delay added to one public layer function
moves that layer's per-layer metric on the workload that exercises it
and leaves the workload that bypasses it unchanged.

The delay goes to ``ResultCache.get``: ``cli_cold`` reads the cache
twice per round (the miss and the hit), ``table1_sweep`` never opens
one.  Each case runs the real benchmark with ``--trace 1`` for a
one-second budget (one untraced and one traced round).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "run.py"
ROOT = RUN.parents[1]
DELAY_S = 0.05
DELAY = f"repro.exec.cache:ResultCache.get={DELAY_S}"
EXACT = ("cache.hits", "cache.misses", "workload.full_profiles",
         "workload.strip_profiles", "engine.points", "engine.jump_points",
         "engine.frames_simulated", "engine.frames_skipped", "sim.events",
         "telemetry.events", "insights.critpath_segments")


def layer_metrics(workload: str, delay: str = "") -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PERFBENCH_DELAY"}
    if delay:
        env["PERFBENCH_DELAY"] = delay
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"], proc.stderr
    assert doc["failed"] == 0
    return {name: m["value"] for name, m in doc["metrics"].items()}


@pytest.fixture(scope="module")
def cli_runs():
    return layer_metrics("cli_cold"), layer_metrics("cli_cold", DELAY)


@pytest.fixture(scope="module")
def sweep_runs():
    return layer_metrics("table1_sweep"), layer_metrics("table1_sweep", DELAY)


def test_delay_moves_cache_get_on_working_workload(cli_runs):
    base, slow = cli_runs
    reads = base["cache.hits"] + base["cache.misses"]
    assert reads == 2
    added_ms = slow["cache.get_ms"] - base["cache.get_ms"]
    assert added_ms >= 0.9 * reads * DELAY_S * 1e3
    # the delay lands in the cache layer's self time, not in its callers
    assert abs(slow["executor.run_ms"] - base["executor.run_ms"]) < \
        0.5 * reads * DELAY_S * 1e3


def test_delay_leaves_bypass_workload_unchanged(sweep_runs):
    base, slow = sweep_runs
    assert base["cache.get_ms"] == slow["cache.get_ms"] == 0.0
    assert base["cache.hits"] == slow["cache.hits"] == 0
    assert base["cache.misses"] == slow["cache.misses"] == 0


def test_exact_counts_repeat(cli_runs, sweep_runs):
    for base, slow in (cli_runs, sweep_runs):
        assert {k: base[k] for k in EXACT} == {k: slow[k] for k in EXACT}
