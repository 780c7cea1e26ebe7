"""Workload ``service_mix``: ``repro serve`` under a seeded open loop.

Not in ``BENCHMARK.json``: on the two shared CPUs it was built on, its
latency medians spread too far from seed to seed to be gated (see
``README.md``).  It runs with the same command and reports the same
metrics, plus the service layer's own.

The server runs in its own process with its default settings (event
engine, two executor threads).  This process is the one client: a single
asyncio thread sends every request at its due time whatever the state of
earlier ones (an open loop), and times each from its due time, so a
stall also charges the requests queued behind it.  The mix, per second:

* 1.5 distinct ``POST /runs`` (50 frames; config, pipelines and
  arrangement drawn without replacement, each Table-I point once before
  any repeats with another arrangement), long-polled to their result;
* duplicate POSTs: every distinct run with two or more pipelines (18 of
  each 22) gets a duplicate 5-20 ms later, while the run is in flight
  (coalesced; those runs take 60 ms or more), and every one-pipeline run
  gets one 4-6 s later, once it has finished (answered from the cache).
  Which path a duplicate takes is thereby fixed by the spec, not by a
  race with the simulation, so the coalesce and cache counts repeat.
  The two kinds are also reported apart (``dup_inflight``, ``dup_done``):
  one wait for a running simulation, the other a cache read, so a median
  over both flips between them from seed to seed;
* 40 warm ``GET /runs/<digest>`` of runs posted at least 4 s earlier.

Arrivals are seeded uniform instants (a Poisson process of fixed count).
Before the clock starts, the client serves one spec per Table-I point
(the arrangements the timed runs do not use), one at a time: a
long-lived server has culled its render profiles already, and a cold
start would otherwise charge that one-off cost to whichever timed runs
come first.  Its time is ``service.warmup_ms``; the server's CPU share
during the session is ``service.busy_frac`` (about a quarter of one CPU
at this rate).  Refused (429/503) and timed-out requests count as failed
and as missing any latency limit.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import layers
import tracer
from common import (ARRANGEMENTS, BENCH_DIR, SERVICE_FRAMES, TMP, Checker,
                    child_env, fresh_dir, median, ref_key, table1_points,
                    tail)

RUN_RATE = 1.5
GET_RATE = 40.0
GET_AGE_S = 4.0
REQUEST_TIMEOUT_S = 30.0
SETUP_SAMPLES = 5
HOST = "127.0.0.1"
#: (kind, late) -> the latency group a request is reported in
GROUPS = {("run", None): "run", ("get", None): "get",
          ("dup", False): "dup_inflight", ("dup", True): "dup_done"}


def plan(seed: int, duration: float) -> Tuple[List[dict], List[dict]]:
    """The seeded warm-up specs and request schedule (sorted by due time,
    in seconds)."""
    rng = random.Random(seed)
    points = table1_points()
    orders = {p: rng.sample(ARRANGEMENTS, len(ARRANGEMENTS)) for p in points}
    blocks = [[{"config": config, "pipelines": pipelines,
                "arrangement": orders[(config, pipelines)][block],
                "frames": SERVICE_FRAMES}
               for config, pipelines in rng.sample(points, len(points))]
              for block in range(len(ARRANGEMENTS))]
    warm, specs = blocks[-1], [s for block in blocks[:-1] for s in block]
    n_runs = min(round(RUN_RATE * duration), len(specs))
    run_due = sorted(rng.uniform(0.1, duration) for _ in range(n_runs))
    schedule = [{"kind": "run", "due": due, "run": i}
                for i, due in enumerate(run_due)]
    for i, due in enumerate(run_due):
        if specs[i]["pipelines"] > 1:
            schedule.append({"kind": "dup", "run": i, "late": False,
                             "due": due + rng.uniform(0.005, 0.02)})
        else:
            later = due + rng.uniform(4.0, 6.0)
            if later < duration:
                schedule.append({"kind": "dup", "run": i, "late": True,
                                 "due": later})
    n_gets = round(GET_RATE * max(duration - GET_AGE_S - 0.1, 0.0))
    for _ in range(n_gets):
        due = rng.uniform(GET_AGE_S + 0.1, duration)
        old = [i for i, d in enumerate(run_due) if d <= due - GET_AGE_S]
        if old:
            schedule.append({"kind": "get", "run": rng.choice(old),
                             "due": due})
    schedule.sort(key=lambda r: r["due"])
    return warm, [dict(r, spec=specs[r["run"]]) for r in schedule]


async def _http(port: int, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        head = [f"{method} {path} HTTP/1.1", f"Host: {HOST}:{port}",
                "Connection: close"]
        if body is not None:
            head += ["Content-Type: application/json",
                     f"Content-Length: {len(body)}"]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("ascii")
                     + (body or b""))
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    header, _, payload = data.partition(b"\r\n\r\n")
    return int(header.split(b" ", 2)[1]), payload


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, cache_dir: Path, trace_dir: Optional[Path] = None):
        argv = ([sys.executable, str(BENCH_DIR / "boot.py")]
                if trace_dir is not None else [sys.executable, "-m", "repro"])
        env = child_env("full" if trace_dir is not None else "", trace_dir,
                        "server")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv + ["serve", "--port", "0", "--cache-dir", str(cache_dir)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        self.port = self._read_port()
        self.ready_s = self._await_health()

    def _read_port(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                return int(match.group(1))
        self.stop()
        raise RuntimeError("repro serve did not report its port")

    def _await_health(self) -> float:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            try:
                status, _ = asyncio.run(_http(self.port, "GET", "/healthz"))
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - self.start
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("repro serve never became healthy")

    def cpu_s(self) -> float:
        """CPU seconds the server process has used so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(
            ")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()


class ServiceMix:
    name = "service_mix"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.checker = Checker()
        self.attempted = 0
        self.failed = 0
        self.server: Optional[Server] = None

    def setup(self) -> List[float]:
        """Server launch to the first ``/healthz`` 200."""
        walls = []
        for _ in range(SETUP_SAMPLES):
            server = Server(fresh_dir(TMP / "setup-cache"))
            server.stop()
            walls.append(server.ready_s)
        return walls

    # -- one session -------------------------------------------------------
    async def _one(self, req: dict, t0: float, port: int,
                   digests: Dict[int, asyncio.Future]) -> dict:
        loop = asyncio.get_running_loop()
        await asyncio.sleep(max(0.0, t0 + req["due"] - loop.time()))
        sent = loop.time()
        rec = {"kind": req["kind"], "run": req["run"],
               "group": GROUPS[(req["kind"], req.get("late"))],
               "lag": sent - (t0 + req["due"]), "status": "ok"}
        try:
            await asyncio.wait_for(self._request(req, port, digests, rec),
                                   REQUEST_TIMEOUT_S)
        except asyncio.TimeoutError:
            rec["status"] = "timeout"
        except OSError as exc:
            rec["status"] = f"error {exc!r}"
        rec["latency"] = loop.time() - (t0 + req["due"])
        return rec

    async def _request(self, req: dict, port: int,
                       digests: Dict[int, asyncio.Future], rec: dict) -> None:
        loop = asyncio.get_running_loop()
        if req["kind"] == "get":
            future = digests[req["run"]]
            if not future.done():
                rec["status"] = "not posted yet"
                return
            digest = future.result()
            status, body = await _http(port, "GET", f"/runs/{digest}")
            rec.update(digest=digest, body=body)
            if status != 200:
                rec["status"] = ("refused" if status in (429, 503)
                                 else f"GET {status}")
            return
        posted = loop.time()
        status, body = await _http(port, "POST", "/runs",
                                   json.dumps(req["spec"]).encode())
        rec["submit"] = loop.time() - posted
        if status in (429, 503):
            rec["status"] = "refused"
            return
        if status not in (200, 202):
            rec["status"] = f"POST {status}"
            return
        digest = json.loads(body)["digest"]
        if req["kind"] == "run" and not digests[req["run"]].done():
            digests[req["run"]].set_result(digest)
        rec["digest"] = digest
        while True:
            status, body = await _http(port, "GET", f"/runs/{digest}?wait=20")
            if status != 202:
                break
        rec["body"] = body
        if status != 200:
            rec["status"] = ("refused" if status in (429, 503)
                             else f"GET {status}")

    async def _warm(self, port: int, specs: List[dict]) -> None:
        """Serve one spec per Table-I point, one at a time, before timing
        anything, so the server's render-profile memo is warm as in a
        long-lived service (one at a time: two executor threads missing
        the memo together would both cull the same profile)."""
        for spec in specs:
            status, body = await _http(port, "POST", "/runs",
                                       json.dumps(spec).encode())
            if status not in (200, 202):
                raise RuntimeError(f"warm-up POST answered {status}")
            digest = json.loads(body)["digest"]
            status = 202
            while status == 202:
                status, body = await _http(port, "GET",
                                           f"/runs/{digest}?wait=20")
            if status != 200:
                raise RuntimeError(f"warm-up run answered {status}")

    async def _session(self, port: int, schedule: List[dict]) -> List[dict]:
        loop = asyncio.get_running_loop()
        runs = {r["run"] for r in schedule}
        digests = {i: loop.create_future() for i in runs}
        t0 = loop.time() + 0.05
        tasks = [asyncio.create_task(self._one(r, t0, port, digests))
                 for r in schedule]
        return list(await asyncio.gather(*tasks))

    def _run_session(self, duration: float, trace_dir: Optional[Path]
                     ) -> dict:
        warm, schedule = plan(self.seed, duration)
        server = self.server = Server(fresh_dir(TMP / "cache"), trace_dir)
        try:
            start = time.perf_counter()
            asyncio.run(asyncio.wait_for(self._warm(server.port, warm),
                                         REQUEST_TIMEOUT_S * 2))
            self.warmup_ms = (time.perf_counter() - start) * 1e3
            cpu_start, wall_start = server.cpu_s(), time.perf_counter()
            records = asyncio.run(self._session(server.port, schedule))
            self.busy_frac = ((server.cpu_s() - cpu_start)
                              / (time.perf_counter() - wall_start))
            _, metrics = asyncio.run(_http(server.port, "GET", "/metrics"))
        finally:
            server.stop()
            self.server = None
        self._check(warm, schedule, records)
        return summarize_session(records, metrics.decode())

    def _check(self, warm: List[dict], schedule: List[dict],
               records: List[dict]) -> None:
        bodies: Dict[str, bytes] = {}
        for req, rec in zip(schedule, records):
            self.attempted += 1
            if rec["status"] != "ok":
                self.failed += 1
                if rec["status"] not in ("refused", "timeout"):
                    self.checker.fail(f"{rec['kind']} of run {rec['run']}: "
                                      f"{rec['status']}")
                continue
            first = bodies.setdefault(rec["digest"], rec["body"])
            if rec["body"] != first:
                self.failed += 1
                self.checker.fail(f"{rec['kind']} body for {rec['digest']} "
                                  f"differs from the first one served")
        for req, rec in zip(schedule, records):
            if req["kind"] == "run" and rec["status"] == "ok":
                spec = req["spec"]
                result = json.loads(rec["body"])["result"]
                self.checker.result(
                    ref_key(spec["config"], spec["pipelines"],
                            spec["arrangement"], spec["frames"]),
                    result["walkthrough_seconds"], result["scc_energy_j"])
        self.simulated = warm + [r["spec"] for r in schedule
                                 if r["kind"] == "run"]

    def measure(self, seconds: float, trace_dir: Path = None) -> dict:
        """One session of ``seconds``; with a trace directory, an
        untraced and a traced session of half that each."""
        if trace_dir is None:
            out = self._run_session(seconds, None)
            out["main"] = out["run_p50"]
            return out
        plain = self._run_session(seconds / 2, None)
        traced = self._run_session(seconds / 2, trace_dir)
        traced["main"] = plain["run_p50"]
        traced["traced_main"] = traced["run_p50"]
        return traced

    def end_to_end(self, measured: dict):
        e2e = {"main_ms": measured["run_p50"] * 1e3,
               "reuse_ms": measured["get_p50"] * 1e3,
               "aux_ms": measured["dup_inflight_p50"] * 1e3}
        named = {}
        for kind in ("run", "dup", "dup_inflight", "dup_done", "get"):
            named[f"service.{kind}_p50_ms"] = {
                "value": measured[f"{kind}_p50"] * 1e3, "unit": "ms",
                "samples": measured[f"{kind}_n"]}
            if kind in ("run", "get"):
                value, pct, n = measured[f"{kind}_tail"]
                named[f"service.{kind}_tail_ms"] = {
                    "value": value * 1e3, "unit": "ms", "percentile": pct,
                    "samples": n}
        notes = [f"offered: {RUN_RATE} distinct runs/s, {GET_RATE} warm "
                 f"GET/s, duplicates per the module docstring; event "
                 f"engine, {SERVICE_FRAMES} frames",
                 "latency is timed from each request's due time"]
        return e2e, named, notes

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()

    def layer_metrics(self, trace_dir: Path, setup: List[float],
                      measured: dict) -> Dict[str, float]:
        spans, counts = tracer.load(str(trace_dir))
        out = layers.summarize(spans, counts, lambda run_id: run_id,
                               self.checker.problems)
        out["cli.import_numpy_ms"] = median(
            layers.process_spans(spans, "cli.import_numpy"))
        out["cli.import_repro_ms"] = median(
            layers.process_spans(spans, "cli.import_repro"))
        rows = self.checker.rows
        want = sum(rows[ref_key(s["config"], s["pipelines"], s["arrangement"],
                                s["frames"])]["sim_events"]
                   for s in self.simulated)
        if out["sim.events"] != want:
            self.checker.fail(f"server simulated {out['sim.events']:.0f} "
                              f"events; the reference runs took {want}")
        for name in ("submit_p50_ms", "coalesce_ratio", "cache_hit_ratio",
                     "refused", "gen_lag_ms"):
            out[f"service.{name}"] = measured[name]
        out["service.warmup_ms"] = self.warmup_ms
        out["service.busy_frac"] = self.busy_frac
        return out


def _prom(text: str, family: str) -> List[Tuple[Dict[str, str], float]]:
    """``(labels, value)`` of every sample of one Prometheus family."""
    pattern = re.compile(rf"^{family}\{{(.*)\}} (\S+)$")
    samples = []
    for line in text.splitlines():
        match = pattern.match(line)
        if match:
            labels = dict(re.findall(r'(\w+)="([^"]*)"', match.group(1)))
            samples.append((labels, float(match.group(2))))
    return samples


def summarize_session(records: List[dict], metrics: str) -> dict:
    out: dict = {}
    for kind in ("run", "dup", "dup_inflight", "dup_done", "get"):
        ok = [r["latency"] for r in records
              if kind in (r["kind"], r["group"]) and r["status"] == "ok"]
        out[f"{kind}_p50"] = median(ok)
        out[f"{kind}_n"] = len(ok)
        out[f"{kind}_tail"] = tail(ok)
    out["submit_p50_ms"] = median([r["submit"] * 1e3 for r in records
                                   if "submit" in r])
    lag_value, _pct, _n = tail([r["lag"] * 1e3 for r in records])
    out["gen_lag_ms"] = lag_value
    out["refused"] = float(sum(r["status"] == "refused" for r in records))
    coalescer = {labels["key"]: value for labels, value
                 in _prom(metrics, "repro_service_coalescer")}
    submitted = coalescer.get("submitted", 0.0)
    out["coalesce_ratio"] = (coalescer.get("coalesced", 0.0) / submitted
                             if submitted else 0.0)
    posts = {labels["status"]: value for labels, value
             in _prom(metrics, "repro_service_requests_total")
             if labels.get("route") == "runs_post"}
    total = sum(posts.values())
    out["cache_hit_ratio"] = posts.get("200", 0.0) / total if total else 0.0
    return out
