"""In-memory span tracing around the public functions of each ``repro`` layer.

Nothing here edits ``src/``: :func:`install` replaces public functions and
methods of ``repro`` modules with thin wrappers that record a span (name,
start, end, parent, workload-run id) and a few exact work counts at each
layer boundary.  Spans stay in memory and are written out when the process
ends (forked pool workers, which leave through ``os._exit``, write when
their top-level span closes).  :func:`load` and :func:`self_times` read
them back; ``layers.py`` turns them into per-layer metrics.

Modes (``PERFBENCH_TRACE``):

* ``full``  -- every wrapper in :data:`WRAPS`;
* ``point`` -- only the sweep's per-point timer (``execute_spec``), the
  one hook the untraced sweep needs for its point times.

``PERFBENCH_DELAY=module:Qual.name=seconds`` adds a fixed sleep to one
wrapped function; the layer trip test uses it.
"""

from __future__ import annotations

import atexit
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

ENV_MODE = "PERFBENCH_TRACE"
ENV_DIR = "PERFBENCH_TRACE_DIR"
ENV_RUN = "PERFBENCH_RUN_ID"
ENV_DELAY = "PERFBENCH_DELAY"

#: (module, qualified attribute, span name).  The span name's prefix is
#: the layer; ``workload.profile`` splits into ``workload.full`` and
#: ``workload.strip`` by the strip count of the call.
WRAPS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.render.scene", "build_city", "workload.scene"),
    ("repro.render.renderer", "Renderer.profile", "workload.profile"),
    ("repro.exec.hashing", "engine_fingerprint", "hashing.fingerprint"),
    ("repro.exec.hashing", "spec_digest", "hashing.digest"),
    ("repro.exec.cache", "ResultCache.get", "cache.get"),
    ("repro.exec.cache", "ResultCache.put", "cache.put"),
    ("repro.exec.executor", "SweepExecutor.run", "executor.run"),
    ("repro.exec.executor", "execute_spec", "executor.point"),
    ("repro.pipeline.runner", "PipelineRunner.__init__", "runner.init"),
    ("repro.pipeline.runner", "PipelineRunner.run", "runner.run"),
    ("repro.engine.batched", "BatchedEngine.__init__", "engine.build"),
    ("repro.engine.batched", "BatchedEngine.run", "engine.run"),
    ("repro.engine.telsynth", "TelemetrySynth.jump", "telemetry.jump"),
    ("repro.sim.core", "Simulator.run", "sim.run"),
    ("repro.analysis.insights", "analyze_telemetry", "insights.analyze"),
    ("repro.report.html", "insight_to_html", "report.html"),
    ("repro.service.coalescer", "DigestCoalescer.submit",
     "service.coalesce"),
    ("repro.service.wire", "result_document", "service.serialize"),
)

POINT_WRAPS = tuple(w for w in WRAPS if w[2] == "executor.point")


class Tracer:
    """Span and count recorder for one process."""

    def __init__(self, out_dir: Optional[str], run_id: str = "") -> None:
        self.out_dir = out_dir
        self.run_id = run_id
        self.spans: List[list] = []
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._forked = False
        #: span names whose wrappers are in place
        self.installed: set = set()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The child starts with empty buffers; the parent writes its own.
        self.spans = []
        self.counts = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._forked = True

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[(self.run_id, name)] += n

    def open(self) -> Tuple[int, int]:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return span_id, parent

    def close(self, name: str, span_id: int, parent: int, start: float,
              end: float) -> None:
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.spans.append([name, start, end, span_id, parent,
                               self.run_id, os.getpid(),
                               threading.get_ident()])
        if self._forked and not stack:
            self.flush()

    def record(self, name: str, start: float, end: float) -> None:
        """A span timed by the caller (no parent)."""
        span_id, parent = self.open()
        self.close(name, span_id, parent, start, end)

    def flush(self) -> None:
        """Append buffered spans and counts to this process's file."""
        with self._lock:
            spans, self.spans = self.spans, []
            counts, self.counts = self.counts, defaultdict(float)
        if self.out_dir is None or not (spans or counts):
            return
        path = os.path.join(self.out_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps({"span": span}) + "\n")
            for (run_id, name), value in counts.items():
                fh.write(json.dumps({"count": [run_id, name, value]}) + "\n")


TRACER: Optional[Tracer] = None


def _resolve(module: str, qualname: str) -> Tuple[Any, str, Any]:
    owner: Any = importlib.import_module(module)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _after_hooks(tracer: Tracer) -> Dict[str, Callable[..., None]]:
    """Exact work counts read at a layer boundary after the call."""

    def cache_get(args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count("cache.hits" if result is not None else "cache.misses")

    def engine_run(args: tuple, kwargs: dict, result: Any) -> None:
        engine = args[0]
        tracer.count("engine.points")
        tracer.count("engine.frames_requested", engine.frames)
        tracer.count("engine.frames_simulated", engine.frames_simulated)
        if engine.jumps:
            tracer.count("engine.jump_points")

    def insights(args: tuple, kwargs: dict, result: Any) -> None:
        tracer.count("telemetry.events", len(args[0].events))
        tracer.count("insights.critpath_segments",
                     len(result.critical_path.segments))

    return {"cache.get": cache_get, "engine.run": engine_run,
            "insights.analyze": insights}


def _wrap(tracer: Tracer, name: str, fn: Callable[..., Any],
          after: Optional[Callable[..., None]], delay: float
          ) -> Callable[..., Any]:
    clock = time.perf_counter

    if name == "sim.run":
        def sim_run(sim: Any, *args: Any, **kwargs: Any) -> Any:
            before = sim.event_count
            span_id, parent = tracer.open()
            start = clock()
            try:
                return fn(sim, *args, **kwargs)
            finally:
                tracer.close(name, span_id, parent, start, clock())
                tracer.count("sim.events", sim.event_count - before)
        return sim_run

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span_name = name
        if name == "workload.profile":
            strips = kwargs.get("num_strips", args[4] if len(args) > 4 else 1)
            span_name = "workload.full" if strips == 1 else "workload.strip"
            tracer.count(span_name + "_profiles")
        else:
            tracer.count(name + ".calls")
        span_id, parent = tracer.open()
        start = clock()
        try:
            if delay:
                time.sleep(delay)
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span_name, span_id, parent, start, clock())
        if after is not None:
            after(args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def _patch_everywhere(owner: Any, attr: str, original: Any,
                      wrapped: Any) -> None:
    """Rebind ``attr`` on its owner and on every loaded ``repro`` module
    that imported the function by name."""
    setattr(owner, attr, wrapped)
    if isinstance(owner, type):
        return
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def _parse_delay(spec: str) -> Tuple[str, float]:
    target, _, seconds = spec.rpartition("=")
    return target, float(seconds)


def install(mode: str, out_dir: Optional[str], run_id: str = "",
            delay: str = "") -> Tracer:
    """Wrap the layer functions for ``mode`` (``full`` or ``point``).

    Installing is additive: ``full`` after ``point`` wraps the rest.
    """
    global TRACER
    if TRACER is None:
        TRACER = Tracer(out_dir, run_id)
        atexit.register(TRACER.flush)
    tracer = TRACER
    tracer.run_id = run_id
    hooks = _after_hooks(tracer)
    delay_target, delay_s = _parse_delay(delay) if delay else ("", 0.0)
    if delay_target and delay_target not in {f"{m}:{q}" for m, q, _ in WRAPS}:
        raise ValueError(f"{ENV_DELAY} names no wrapped function: "
                         f"{delay_target}")
    for module, qualname, name in (WRAPS if mode == "full" else POINT_WRAPS):
        if name in tracer.installed:
            continue
        owner, attr, original = _resolve(module, qualname)
        wait = delay_s if f"{module}:{qualname}" == delay_target else 0.0
        wrapped = _wrap(tracer, name, original, hooks.get(name), wait)
        _patch_everywhere(owner, attr, original, wrapped)
        tracer.installed.add(name)
    return tracer


def install_from_env() -> Optional[Tracer]:
    """Install per the ``PERFBENCH_*`` environment (no-op when unset)."""
    mode = os.environ.get(ENV_MODE, "")
    if not mode:
        return None
    return install(mode, os.environ.get(ENV_DIR),
                   os.environ.get(ENV_RUN, ""),
                   os.environ.get(ENV_DELAY, ""))


# ---------------------------------------------------------------------------
# reading traces back
# ---------------------------------------------------------------------------

def load(out_dir: str) -> Tuple[List[list], Dict[Tuple[str, str], float]]:
    """Every span and count written under ``out_dir``."""
    spans: List[list] = []
    counts: Dict[Tuple[str, str], float] = defaultdict(float)
    if not os.path.isdir(out_dir):
        return spans, counts
    for entry in sorted(os.listdir(out_dir)):
        if not entry.endswith(".jsonl"):
            continue
        with open(os.path.join(out_dir, entry), encoding="utf-8") as fh:
            for line in fh:
                doc = json.loads(line)
                if "span" in doc:
                    spans.append(doc["span"])
                else:
                    run_id, name, value = doc["count"]
                    counts[(run_id, name)] += value
    return spans, counts


def self_times(spans: Iterable[list]) -> Dict[Tuple[str, str], float]:
    """Seconds of self time per ``(run id, span name)``.

    A span's self time is its duration minus the durations of the spans
    it directly caused (same process, parent link).
    """
    spans = list(spans)
    child_time: Dict[Tuple[int, int], float] = defaultdict(float)
    for name, start, end, span_id, parent, run_id, pid, _tid in spans:
        if parent:
            child_time[(pid, parent)] += end - start
    out: Dict[Tuple[str, str], float] = defaultdict(float)
    for name, start, end, span_id, parent, run_id, pid, _tid in spans:
        out[(run_id, name)] += (end - start) - child_time[(pid, span_id)]
    return out


def write_merged(out_dir: str, path: str) -> int:
    """Write every span under ``out_dir`` to one JSONL file."""
    spans, _counts = load(out_dir)
    keys = ("name", "start", "end", "id", "parent", "run", "pid", "tid")
    with open(path, "w", encoding="utf-8") as fh:
        for span in sorted(spans, key=lambda s: s[1]):
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")
    return len(spans)
