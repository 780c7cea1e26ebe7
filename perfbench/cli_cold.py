"""Workload ``cli_cold``: what a user waits for at the prompt.

A closed loop with one client.  Each round runs three commands, each in a
fresh interpreter against a cache directory that starts empty, on the
paper's headline point (``mcpc_renderer``, 5 pipelines, 400 frames,
``--engine batched``; the arrangement comes from the seed):

1. ``repro run --json``      -- cache miss: cull, simulate, store;
2. the same command again    -- cache hit: fingerprint, read, decode;
3. ``repro analyze --html``  -- telemetry synthesis, insights, HTML report.

The gated times are walls scaled to the reference host speed
(``common.Scaler``: a calibration run after every round).
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path
from typing import Dict, List

import layers
import tracer
from common import (ARRANGEMENTS, BENCH_DIR, FRAMES, HEADLINE, TMP, Checker,
                    Scaler, child_env, fits, fresh_dir, median, ref_key,
                    timed_run)

SETUP_SAMPLES = 7
LABELS = ("run", "run_cached", "analyze")


def _argv(traced: bool) -> List[str]:
    if traced:
        return [sys.executable, str(BENCH_DIR / "boot.py")]
    return [sys.executable, "-m", "repro"]


class CliCold:
    name = "cli_cold"

    def __init__(self, seed: int) -> None:
        self.arrangement = random.Random(seed).choice(ARRANGEMENTS)
        config, pipelines = HEADLINE
        self.spec = ["--config", config, "--pipelines", str(pipelines),
                     "--arrangement", self.arrangement,
                     "--frames", str(FRAMES), "--engine", "batched"]
        self.key = ref_key(config, pipelines, self.arrangement, FRAMES)
        self.checker = Checker()
        self.attempted = 0
        self.failed = 0
        self.scaler = Scaler()
        self.help_walls: List[float] = []

    def setup(self) -> List[float]:
        """Scaled seconds of fresh ``repro --help`` interpreters."""
        scaled = []
        for _ in range(SETUP_SAMPLES):
            seconds, wall, proc = self.scaler.scaled(
                _argv(False) + ["--help"], child_env())
            if proc.returncode != 0:
                raise RuntimeError(f"repro --help failed: {proc.stderr}")
            scaled.append(seconds)
            self.help_walls.append(wall)
        return scaled

    def _command(self, label: str, argv: List[str], env: Dict[str, str]):
        self.attempted += 1
        wall, proc = timed_run(argv, env)
        if proc.returncode != 0:
            self.failed += 1
            self.checker.fail(f"{label} exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-300:]}")
            return wall, None
        return wall, proc

    def round(self, index: int, trace_dir: Path = None) -> Dict[str, float]:
        """One round; returns the three walls in seconds, the scale factor
        of the round (``factor``) and its wall with calibration (``wall``).
        """
        start = time.perf_counter()
        self.scaler.start()
        traced = trace_dir is not None
        work = fresh_dir(TMP / "cli")
        cache, html = work / "cache", work / "report.html"
        walls: Dict[str, float] = {}
        docs = []
        for label in ("run", "run_cached"):
            env = child_env("full" if traced else "", trace_dir,
                            f"r{index}.{label}")
            wall, proc = self._command(
                label, _argv(traced) + ["run"] + self.spec
                + ["--json", "--cache-dir", str(cache)], env)
            walls[label] = wall
            docs.append(self._parse_run(proc, label))
        env = child_env("full" if traced else "", trace_dir,
                        f"r{index}.analyze")
        wall, proc = self._command(
            "analyze",
            _argv(traced) + ["analyze"] + self.spec + ["--html", str(html)],
            env)
        walls["analyze"] = wall
        walls["factor"] = self.scaler.factor()
        walls["wall"] = time.perf_counter() - start
        if proc is not None and not (html.is_file()
                                     and "critical path" in proc.stdout
                                     and html.stat().st_size > 0):
            self.failed += 1
            self.checker.fail("analyze wrote no report")
        if all(docs):
            miss, hit = docs
            for field in ("walkthrough_s", "scc_energy_j"):
                if miss[field] != hit[field]:
                    self.checker.fail(f"cached {field} {hit[field]!r} != "
                                      f"simulated {miss[field]!r}")
        return walls

    def _parse_run(self, proc, label: str):
        if proc is None:
            return None
        doc = json.loads(proc.stdout)
        want = "stored" if label == "run" else "hit"
        ok = self.checker.result(self.key, doc["walkthrough_s"],
                                 doc["scc_energy_j"])
        if not doc.get("cache", "").startswith(want):
            ok = self.checker.fail(f"{label}: cache says {doc.get('cache')!r}"
                                   f", expected {want}")
        if doc["engine"]["used"] != "batched":
            ok = self.checker.fail(f"{label}: engine {doc['engine']}")
        if not ok:
            self.failed += 1
        return doc

    def measure(self, seconds: float, trace_dir: Path = None) -> dict:
        """Rounds while one more fits in ``seconds``.  With a trace directory,
        rounds alternate untraced and traced (at least one of each)."""
        plain: List[Dict[str, float]] = []
        traced: List[Dict[str, float]] = []
        rounds: List[Dict[str, float]] = []
        start = time.perf_counter()
        while (not rounds or fits(start, rounds[-1]["wall"], seconds)
               or (trace_dir is not None and not traced)):
            if trace_dir is not None and len(rounds) % 2 == 1:
                traced.append(self.round(len(rounds), trace_dir))
                rounds.append(traced[-1])
            else:
                plain.append(self.round(len(rounds)))
                rounds.append(plain[-1])
        out = {}
        for label in LABELS:
            out[label] = median([w[label] * w["factor"] for w in plain])
            out[f"{label}_raw"] = median([w[label] for w in plain])
        out["rounds"] = len(plain)
        out["main"] = out["run"]
        if traced:
            out["traced_main"] = median([w["run"] * w["factor"]
                                         for w in traced])
        return out

    def end_to_end(self, measured: dict):
        e2e = {"main_ms": measured["run"] * 1e3,
               "reuse_ms": measured["run_cached"] * 1e3,
               "aux_ms": measured["analyze"] * 1e3}
        named = {f"cli.{label}_s": {"value": measured[label], "unit": "s",
                                    "raw": round(measured[f"{label}_raw"], 4),
                                    "rounds": measured["rounds"]}
                 for label in LABELS}
        notes = [f"spec: {' '.join(self.spec)}",
                 "each command is a fresh interpreter; the cache directory "
                 "starts empty every round"]
        return e2e, named, notes

    def close(self) -> None:
        pass

    def layer_metrics(self, trace_dir: Path, setup: List[float],
                      measured: dict) -> Dict[str, float]:
        spans, counts = tracer.load(str(trace_dir))
        problems = self.checker.problems
        out = layers.summarize(spans, counts,
                               lambda run_id: run_id.split(".")[0], problems)
        out["cli.import_numpy_ms"] = median(
            layers.process_spans(spans, "cli.import_numpy"))
        out["cli.import_repro_ms"] = median(
            layers.process_spans(spans, "cli.import_repro"))
        out["cli.help_ms"] = median(self.help_walls) * 1e3
        # telemetry synthesis: the engine's self time in the
        # telemetry-on analyze minus the telemetry-off cache-miss run
        per_cmd = tracer.self_times(spans)
        rounds = sorted({run_id.split(".")[0] for run_id, _ in per_cmd})
        out["telemetry.synth_ms"] = median([
            (per_cmd.get((f"{r}.analyze", "engine.run"), 0.0)
             - per_cmd.get((f"{r}.run", "engine.run"), 0.0)) * 1e3
            for r in rounds])
        return out
