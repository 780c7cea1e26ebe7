"""Shared plumbing: checkout paths, child environments, statistics and
the correctness checks against the committed reference table."""

from __future__ import annotations

import fnmatch
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TOLERANCES = ROOT / "metrics-tolerances.json"
REFERENCE = BENCH_DIR / "reference.json"
#: scratch space inside the checkout (caches, trace files, HTML reports)
TMP = ROOT / ".bench_tmp"
#: merged span files of traced runs
OUT = ROOT / ".bench_out"

#: the Table-I grid: single_core plus three configurations x 1..7 pipelines
TABLE1_CONFIGS = ("one_renderer", "n_renderers", "mcpc_renderer")
ARRANGEMENTS = ("unordered", "ordered", "flipped")
HEADLINE = ("mcpc_renderer", 5)
FRAMES = 400
SERVICE_FRAMES = 50
#: wall seconds of ``calibrate.py`` on an unloaded two-vCPU x86-64 host
#: with CPython 3.11 (20 runs spread 0.29-0.35 s); it only sets the scale
#: of the gated timings
CALIBRATION_REF_S = 0.3


class SetupError(RuntimeError):
    """The checkout lacks what the benchmark needs; no result is printed."""


def check_checkout() -> None:
    for need in (SRC / "repro" / "__init__.py", TOLERANCES, REFERENCE):
        if not need.is_file():
            raise SetupError(f"missing {need.relative_to(ROOT)}: run from "
                             f"the root of a full checkout")


def add_src_path() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def table1_points() -> List[Tuple[str, int]]:
    return [("single_core", 1)] + [(c, p) for c in TABLE1_CONFIGS
                                   for p in range(1, 8)]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_env(trace: str = "", trace_dir: Optional[Path] = None,
              run_id: str = "") -> Dict[str, str]:
    """Environment for a ``repro`` child: sources from the checkout, any
    default cache inside it, tracing only when asked."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PERFBENCH_") or k == "PERFBENCH_DELAY"}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(TMP / "default-cache")
    if trace:
        env["PERFBENCH_TRACE"] = trace
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        env["PERFBENCH_RUN_ID"] = run_id
    return env


def compile_sources() -> None:
    """Byte-compile ``src/`` once, as an installed package would be, so
    the first timed interpreter does not pay for writing ``.pyc`` files."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, stdout=subprocess.DEVNULL, timeout=120)


def timed_run(argv: Sequence[str], env: Dict[str, str], timeout: float = 120
              ) -> Tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(list(argv), env=env, cwd=str(ROOT),
                          capture_output=True, text=True, timeout=timeout)
    return time.perf_counter() - start, proc


def calibrate(procs: int = 1) -> float:
    """Wall seconds of ``procs`` fresh ``calibrate.py`` interpreters
    started at once."""
    argv = [sys.executable, "-I", str(BENCH_DIR / "calibrate.py")]
    start = time.perf_counter()
    children = [subprocess.Popen(argv, cwd=str(ROOT), env=child_env(),
                                 stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL)
                for _ in range(procs)]
    try:
        codes = [child.wait(timeout=120) for child in children]
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    if any(codes):
        raise RuntimeError(f"calibrate.py exited {codes}")
    return time.perf_counter() - start


class Scaler:
    """Scales walls to the reference host speed.

    On a shared host the speed of every process drifts by up to a third
    over minutes, so raw walls of one program differ from run to run by
    more than any regression worth catching.  Each timed step is
    therefore bracketed by runs of ``calibrate.py``, which drifts with
    the host but not with the program; the step's scaled time is its
    wall times ``CALIBRATION_REF_S`` over the mean of the two calibration
    walls around it.  Raw walls print beside the scaled ones.

    ``procs`` is the number of CPUs the timed steps keep busy: a parallel
    step is calibrated by as many probes at once, because the host can
    slow two busy vCPUs (sharing one core) while one busy vCPU runs at
    full speed.
    """

    def __init__(self, procs: int = 1) -> None:
        self.procs = procs
        self.walls: List[float] = []

    def start(self) -> None:
        """Calibrate before the first step (no-op after it)."""
        if not self.walls:
            self.walls.append(calibrate(self.procs))

    def factor(self) -> float:
        """Calibrate again; the factor for the step since the last call."""
        self.walls.append(calibrate(self.procs))
        return CALIBRATION_REF_S / ((self.walls[-2] + self.walls[-1]) / 2)

    def scaled(self, argv: Sequence[str], env: Dict[str, str]
               ) -> Tuple[float, float, subprocess.CompletedProcess]:
        """Run one child between calibrations: ``(scaled_s, wall_s, proc)``."""
        self.start()
        wall, proc = timed_run(argv, env)
        return wall * self.factor(), wall, proc


def fits(start: float, last_wall: float, budget: float) -> bool:
    """Would one more round as long as the last one end within ``budget``
    seconds of ``start``?"""
    return time.perf_counter() - start + last_wall <= budget


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _rank(pct: float, n: int) -> int:
    """Nearest rank (1-based) of percentile ``pct`` among ``n`` samples."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return float(ordered[_rank(pct, len(ordered)) - 1])


#: candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` at the highest ladder percentile that
    leaves at least ten samples beyond it."""
    n = len(values)
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= 10:
            return percentile(values, pct), pct, n
    return (percentile(values, 100.0) if values else 0.0), 100.0, n


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def _tolerance_rules() -> Tuple[List[dict], dict]:
    doc = json.loads(TOLERANCES.read_text(encoding="utf-8"))
    return doc["rules"], doc["default"]


def tolerance(metric: str) -> Tuple[float, float]:
    """``(rel, abs)`` of the first ``metrics-tolerances.json`` rule whose
    pattern matches ``metric``."""
    rules, default = _tolerance_rules()
    for rule in rules:
        if fnmatch.fnmatchcase(metric, rule["pattern"]):
            return rule.get("rel", 0.0), rule.get("abs", 0.0)
    return default.get("rel", 0.0), default.get("abs", 0.0)


def ref_key(config: str, pipelines: int, arrangement: str,
            frames: int) -> str:
    return f"{config}/{pipelines}/{arrangement}/{frames}"


def load_reference() -> Dict[str, dict]:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["rows"]


class Checker:
    """Compares outputs with the reference table; collects problems."""

    def __init__(self) -> None:
        self.rows = load_reference()
        self.time_tol = tolerance("time.walkthrough")
        self.energy_tol = tolerance("energy.scc")
        self.problems: List[str] = []

    @staticmethod
    def _close(got: float, want: float, tol: Tuple[float, float]) -> bool:
        rel, abs_ = tol
        return abs(got - want) <= max(abs_, rel * abs(want))

    def result(self, key: str, walkthrough_s: float, energy_j: float,
               sim_events: Optional[int] = None) -> bool:
        """Check one run's outputs against reference row ``key``."""
        row = self.rows.get(key)
        if row is None:
            return self.fail(f"{key}: no reference row")
        ok = True
        if not self._close(walkthrough_s, row["walkthrough_s"], self.time_tol):
            ok = self.fail(f"{key}: walkthrough {walkthrough_s!r} s vs "
                           f"reference {row['walkthrough_s']!r} s")
        if not self._close(energy_j, row["energy_j"], self.energy_tol):
            ok = self.fail(f"{key}: energy {energy_j!r} J vs reference "
                           f"{row['energy_j']!r} J")
        if sim_events is not None and sim_events != row["sim_events"]:
            ok = self.fail(f"{key}: {sim_events} simulation events vs "
                           f"reference {row['sim_events']}")
        return ok

    def fail(self, problem: str) -> bool:
        self.problems.append(problem)
        return False

    @property
    def correct(self) -> bool:
        return not self.problems
