"""Unit tests for the benchmark's statistics, self-time, host-speed scaling
and schedule helpers, and its refusal to run outside a full checkout."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import common  # noqa: E402
import service_mix  # noqa: E402
import table1_sweep  # noqa: E402
from common import CALIBRATION_REF_S, Scaler, tail  # noqa: E402
from tracer import self_times  # noqa: E402


def test_tail_leaves_ten_samples_beyond():
    assert tail(list(range(1, 101))) == (90, 90.0, 100)
    assert tail(list(range(1, 1001))) == (990, 99.0, 1000)
    value, pct, n = tail([5.0] * 12)
    assert (pct, n) == (100.0, 12)


def test_self_time_subtracts_direct_children_only():
    # name, start, end, id, parent, run, pid, tid
    spans = [["outer", 0.0, 10.0, 1, 0, "r", 7, 1],
             ["mid", 1.0, 6.0, 2, 1, "r", 7, 1],
             ["leaf", 2.0, 4.0, 3, 2, "r", 7, 1],
             ["other", 0.0, 1.0, 1, 0, "r", 8, 1]]
    got = self_times(spans)
    assert got[("r", "outer")] == 5.0
    assert got[("r", "mid")] == 3.0
    assert got[("r", "leaf")] == 2.0
    assert got[("r", "other")] == 1.0


def test_scaler_divides_by_the_calibrations_around_each_step(monkeypatch):
    walls = iter([0.2, 0.4, 0.6])
    monkeypatch.setattr(common, "calibrate", lambda procs: next(walls))
    scaler = Scaler()
    scaler.start()
    scaler.start()  # calibrates once only
    assert scaler.factor() == pytest.approx(CALIBRATION_REF_S / 0.3)
    assert scaler.factor() == pytest.approx(CALIBRATION_REF_S / 0.5)


def test_plans_are_functions_of_the_seed():
    assert table1_sweep.plan(4, 1) == table1_sweep.plan(4, 1)
    assert table1_sweep.plan(4) != table1_sweep.plan(5)
    assert table1_sweep.plan(4, 0) != table1_sweep.plan(4, 1)
    assert sorted(table1_sweep.plan(4, 0)) == sorted(table1_sweep.plan(4, 1))
    assert len({(c, p) for c, p, _ in table1_sweep.plan(4)}) == 22
    warm, schedule = service_mix.plan(4, 30)
    assert (warm, schedule) == service_mix.plan(4, 30)
    runs = warm + [r["spec"] for r in schedule if r["kind"] == "run"]
    assert len({json_key(s) for s in runs}) == len(runs)
    assert len({(s["config"], s["pipelines"]) for s in warm}) == 22


def json_key(spec: dict) -> tuple:
    return tuple(sorted(spec.items()))


def test_refuses_without_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "cli_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
