"""Batched steady-state engine: frame-wave execution of the pipeline.

The event engine simulates a pipeline run one heap event at a time —
every ``timeout``, resource grant and store hand-off is a push/pop pair.
For the paper's workloads that is mostly wasted motion: after the
warm-up frames fill the pipeline, every stage repeats the *same*
sequence of operations once per frame, at times that advance by one
constant period Δ.  This engine exploits that structure twice:

1. **Coarse operations.**  Each stage runs as a generator of *fused
   programs*: a whole DRAM access (command trip over the mesh, memory
   controller occupancy, payload trip, core-side copy) is one
   precomputed list of ``(resource, hold)`` steps executed in a tight
   loop, instead of ~10 separate heap events.  Resources are plain
   ``free_at`` floats; a grant is ``max(now, free_at)`` — the identical
   arithmetic the event kernel performs via request/release events, so
   uncontended and FIFO-contended timings are reproduced bit-for-bit.

2. **Frame-wave jumps.**  The transfer stage anchors a snapshot every
   frame: per-stage frame counts and anchor deltas, per-store occupancy,
   per-resource ``free_at`` offsets and the last period's metric samples
   (held in numpy arrays for the vectorised closeness checks).  Three
   consecutive matching snapshots mean the run is periodic; the engine
   then advances every clock, heap entry and resource by ``J·Δ`` in
   one step and synthesises the skipped frames' metrics from
   the observed period.  Because render costs vary per frame (the
   workload carries real per-frame culling statistics), a jump is taken
   only when the variation is provably absorbed by a blocking hand-off:
   the renderer/MCPC must have been *blocked* at its rendezvous and
   every skipped frame's cost must fit inside the observed blocking
   window (checked as one vectorised numpy pass over the skipped
   frames).  Runs whose phase never becomes periodic simply execute
   coarsely to the end — correct, just without the extra multiple.

Telemetry does **not** decline: :mod:`repro.engine.telsynth`
re-derives the event engine's span/counter stream from the coarse-op
grant arithmetic (bit-identical floats while executing live) and a wave
jump advances the stream analytically — the captured period becomes a
periodic block on the hub and counters move in closed form, so the jump
stays O(1) regardless of how many frames it skips.

The engine only supports timing-mode runs; payload mode, sanitizers and
sampled power traces decline (see :func:`batched_decline_reason`, keyed
by :data:`BATCHED_DECLINE_REASONS`) and the caller falls back to the
event engine, whose results are then bit-identical by construction.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heapify, heappush, heappop
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..host import MCPCConfig
from ..pipeline import metrics as run_metrics
from ..pipeline.metrics import RunMetrics, RunResult
from ..pipeline.stages import DOWNLINK_CONFIG, QUEUE_CAPACITY, Stage
from ..scc import SCCChip
from ..scc.topology import NUM_MEMORY_CONTROLLERS, SIF_LOCATION
from ..sim import Simulator, TimeSeries
from ..telemetry import Telemetry
from .telsynth import StepMeta, TelemetrySynth, make_synth

__all__ = ["BatchedEngine", "BATCHED_DECLINE_REASONS",
           "batched_decline_code", "batched_decline_reason",
           "try_batched_run"]

#: relative tolerance for "two periods look identical" float comparisons
_RTOL = 1e-9
_ATOL = 1e-12

Op = Tuple[Any, ...]
Prog = List[Tuple[Optional["_Res"], float, Optional[StepMeta]]]

#: The complete decline surface, keyed by a stable machine-readable code
#: (surfaced in ``repro run --json`` and docs/performance.md).
#: Telemetry is deliberately *absent*: telsynth serves it.
BATCHED_DECLINE_REASONS: Dict[str, str] = {
    "payload_mode": "payload mode pushes real pixels through the stages",
    "sanitizers": "runtime sanitizers hook the event kernel",
    "power_trace": "sampled power traces follow event-time DVFS edges",
}


def batched_decline_code(runner: Any) -> Optional[str]:
    """Decline code for this run (a :data:`BATCHED_DECLINE_REASONS` key),
    or None when the batched engine can serve it."""
    if runner.payload_mode:
        return "payload_mode"
    if runner.sanitizers is not None:
        return "sanitizers"
    if runner.power_trace_dt is not None:
        return "power_trace"
    return None


def batched_decline_reason(runner: Any) -> Optional[str]:
    """Why the batched engine cannot serve this run (None = it can).

    Every declined feature needs the full per-event machinery (payload
    arrays through the stages, kernel hooks, event-time DVFS edges); the
    caller falls back to the event engine, which then produces the one
    true — bit-identical — result.
    """
    code = batched_decline_code(runner)
    return None if code is None else BATCHED_DECLINE_REASONS[code]


def try_batched_run(runner: Any) -> Optional[RunResult]:
    """Run ``runner`` on the batched engine, or None to fall back."""
    if batched_decline_reason(runner) is not None:
        return None
    return BatchedEngine(runner).run()


# ---------------------------------------------------------------------------
# primitive state: resources and stores
# ---------------------------------------------------------------------------

class _Res:
    """A FIFO single-server resource as one ``free_at`` float.

    The event kernel's Resource grants a queued request at the exact
    release time of the previous holder; ``grant = max(now, free_at)``
    reproduces that float bit-for-bit.  ``acct`` resources (the memory
    controllers) additionally track busy intervals with the event
    kernel's merge rule: back-to-back queued grants keep one interval
    open, a request arriving at-or-after ``free_at`` closes it.
    """

    __slots__ = ("free_at", "busy_since", "busy_time", "acct")

    def __init__(self, acct: bool = False) -> None:
        self.free_at = 0.0
        self.busy_since: Optional[float] = None
        self.busy_time = 0.0
        self.acct = acct

    def busy_until(self, t: float) -> float:
        """Closed busy time plus the currently open interval up to t."""
        if self.busy_since is None:
            return self.busy_time
        return self.busy_time + (min(t, self.free_at) - self.busy_since)

    def close(self) -> float:
        """Final busy total (closes any open interval at ``free_at``)."""
        if self.busy_since is not None:
            # mirrors the event kernel's single closing add in
            # Resource.release, bit-for-bit
            self.busy_time += self.free_at - self.busy_since
            self.busy_since = None
        return self.busy_time


class _Store:
    """FIFO store with the event kernel's rendezvous wake order.

    In timing mode a hand-off is pure flow control — no stage reads
    what it receives — so the store counts its items instead of holding
    them; the waiting getters and blocked putters are actors.
    """

    __slots__ = ("capacity", "items", "getters", "putters")

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.capacity: float = math.inf if capacity is None else capacity
        self.items = 0
        self.getters: deque = deque()
        self.putters: deque = deque()

    def signature(self) -> Tuple[int, int, int]:
        return (self.items, len(self.getters), len(self.putters))


class _Chan:
    """Rendezvous state of one ordered (src, dst) core pair — mirrors
    ``repro.rcce.comm._Channel`` (a token store plus a message store)."""

    __slots__ = ("recv_posted", "data_ready", "src", "dst")

    def __init__(self, src: int, dst: int) -> None:
        self.recv_posted = _Store()
        self.data_ready = _Store()
        self.src = src
        self.dst = dst


# ---------------------------------------------------------------------------
# actors: one per stage of the graph
# ---------------------------------------------------------------------------

#: compiled step codes, one per op of a stage program (the step layouts
#: are listed in ``BatchedEngine._compile``)
_SEND, _RECV, _COMPUTE, _PROG, _GET, _PUT, _DOWNLINK = range(7)

Step = Tuple[int, Any, Any, Any, Any]


class _Actor:
    """One stage of the graph as a coarse-op generator plus its state.

    The body walks the stage's compiled program once per frame; where an
    op sits decides the accounting (births for sources, the idle sample
    at the first input, the busy span after the last input).
    """

    def __init__(self, eng: "BatchedEngine", stage: Stage,
                 steps: List[Step],
                 frame_compute: Optional[Callable[[int], float]],
                 post_compute: float) -> None:
        self.eng = eng
        #: metrics key ("render", "sepia", "transfer", ...)
        self.key = stage.key
        #: telemetry track (the per-instance key, e.g. "sepia[0]")
        self.span_key = stage.track
        self.core_id = -1 if stage.core is None else stage.core
        self.steps = steps
        #: no input ops: marks frame births at the loop top
        self.source = stage.inputs == 0
        #: the completion stage anchors the steady-state snapshots
        self.trigger = (not self.source and any(
            step[0] == _DOWNLINK for step in steps))
        #: seconds of the per-frame compute (None: the same every frame)
        self.frame_compute = frame_compute
        #: fixed seconds between that compute and the first output
        self.post_compute = post_compute
        self.t = 0.0
        self.frame = 0
        #: op counter since the last anchor (part of the phase signature)
        self.op_i = 0
        self.done = False
        self.pending: Any = None
        self.gen: Any = None
        self.anchor_t: Optional[float] = None
        self.prev_anchor_t: Optional[float] = None
        # absolute times a body must never keep in generator locals
        # across a yield — the jump shifts these attributes instead
        self.wait_start: Optional[float] = None
        self.span_start: Optional[float] = None
        self.seg_start: Optional[float] = None
        # last completed frame's loop top -> first output grant window
        # (a duration, jump-safe) and whether that grant had to wait
        self.obs_window = 0.0
        self.obs_blocked = False
        # host compute in flight (MCPC power segments)
        self.in_compute = False
        self.cur_dur = 0.0

    def anchor(self) -> None:
        """Mark the top of a frame loop (the periodicity reference)."""
        self.prev_anchor_t = self.anchor_t
        self.anchor_t = self.t
        self.op_i = 0

    def body(self) -> Generator[Op, Any, None]:
        eng = self.eng
        synth = eng.synth
        metrics = eng.metrics
        host = self.core_id < 0
        # appended to in place: the engine's RunMetrics is the one store
        idle = [] if self.source else metrics.idle[self.key].samples
        busy = [] if host else metrics.busy[self.key].samples
        steps = self.steps
        while self.frame < eng.frames:
            self.anchor()
            if self.trigger:
                eng.on_trigger_anchor(self)
            if self.source:
                self.span_start = self.t
                metrics.mark_frame_birth(self.frame, self.t)
            for code, a, b, c, d in steps:
                if code == _SEND:
                    # RCCE send: rendezvous token, deposit, data-ready
                    self.wait_start = self.t
                    yield ("g", a.recv_posted)
                    if d:
                        self._observe()
                    if synth is not None:
                        synth.rendezvous(a.src, a.dst, self.wait_start,
                                         self.t, c, self.frame)
                    yield ("s", b)
                    yield ("p", a.data_ready)
                    if synth is not None:
                        synth.delivered(c)
                elif code == _RECV:
                    # RCCE recv: post the token, wait, fetch the message
                    yield ("p", a.recv_posted)
                    self.wait_start = self.t
                    yield ("g", a.data_ready)
                    if c:
                        # Fig. 15 idle counts only the first input's wait;
                        # later inputs' waits are span-only (detail only)
                        idle.append(run_metrics.idle_sample(
                            self.t, self.t - self.wait_start))
                        if synth is not None:
                            synth.stage_idle(self.span_key, self.t,
                                             self.t - self.wait_start)
                    elif synth is not None:
                        synth.stage_wait(self.span_key, self.t,
                                         self.t - self.wait_start, a.src)
                    yield ("s", b)
                    if d:
                        self.span_start = self.t
                elif code == _COMPUTE:
                    dur = a if b is None else b(self.frame)
                    if host:
                        self.seg_start = self.t
                        self.cur_dur = dur
                        self.in_compute = True
                        yield ("d", dur)
                        self.in_compute = False
                        eng.mcpc_segments.append((self.seg_start, dur))
                    else:
                        yield ("d", dur)
                elif code == _PROG:
                    yield ("s", a)
                elif code == _GET:
                    self.wait_start = self.t
                    yield ("g", a)
                    if c:
                        idle.append(run_metrics.idle_sample(
                            self.t, self.t - self.wait_start))
                        if synth is not None:
                            synth.stage_idle(self.span_key, self.t,
                                             self.t - self.wait_start)
                    if d:
                        self.span_start = self.t
                elif code == _PUT:
                    self.wait_start = self.t
                    yield ("p", a)
                    if d:
                        self._observe()
                else:  # _DOWNLINK
                    yield ("s", a)
                    metrics.record_frame_done(self.frame, self.t)
            start = self.span_start
            assert start is not None
            if host:
                if synth is not None:
                    synth.host_busy(self.span_key, start, self.t, self.frame)
            else:
                busy.append(self.t - start)
                if synth is not None:
                    synth.stage_busy(self.span_key, start, self.t, self.frame)
            self.frame += 1

    def _observe(self) -> None:
        """Record the blocking window at the first output grant."""
        assert self.span_start is not None and self.wait_start is not None
        self.obs_window = self.t - self.span_start
        self.obs_blocked = self.t > self.wait_start

    # -- jump hooks -------------------------------------------------------
    def shift(self, s: float, j: int) -> None:
        """Advance every absolute time by ``s`` and renumber frames."""
        self.t += s
        for attr in ("wait_start", "span_start", "anchor_t",
                     "prev_anchor_t", "seg_start"):
            v = getattr(self, attr)
            if v is not None:
                setattr(self, attr, v + s)
        self.frame += j

    def budget_ok(self, j: int, delta: float) -> bool:
        """May the next ``j`` frames be skipped despite varying costs?

        Stages with frame-independent costs always agree.  A stage with
        a per-frame compute must have blocked at its first output grant
        (the downstream grant arrives at a pinned period), and each of
        the next ``j + 1`` frames' compute must fit inside the observed
        window minus the fixed time after the compute — then its output
        times stay on the observed schedule and the variation is
        invisible downstream.
        """
        frame_compute = self.frame_compute
        if frame_compute is None:
            return True
        if not self.obs_blocked:
            return False
        allowed = self.obs_window - self.post_compute - _RTOL * delta
        costs = np.array([frame_compute(f)
                          for f in range(self.frame, self.frame + j + 1)])
        return bool(np.max(costs) <= allowed)

    def synthesize(self, j: int, delta: float) -> None:
        """Births and host power segments of ``j`` skipped frames.

        The host's synthetic segments use the real per-frame render
        costs; only the renamed in-flight frame keeps its old duration
        (a cost-swap well inside the committed energy tolerance).
        """
        eng = self.eng
        a0 = self.frame
        if self.core_id < 0 and self.frame_compute is not None:
            assert self.seg_start is not None
            base = self.seg_start
            if self.in_compute:
                # the pending segment becomes frame a0+j's (shifted
                # later); record frame a0's as the event engine would
                eng.mcpc_segments.append((base, self.cur_dur))
                middle = range(1, j)
            else:
                middle = range(1, j + 1)
            for i in middle:
                eng.mcpc_segments.append((base + i * delta,
                                          self.frame_compute(a0 + i)))
        if self.source:
            births = eng.metrics.frame_birth
            assert self.anchor_t is not None
            for i in range(1, j):
                f = a0 + i
                v = self.anchor_t + i * delta
                if f not in births or v < births[f]:
                    births[f] = v

    def __repr__(self) -> str:
        return (f"<_Actor {self.span_key!r} core={self.core_id} "
                f"t={self.t:.6f} frame={self.frame}>")


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

class _Snapshot:
    """Phase signature of the run at one transfer-stage anchor."""

    __slots__ = ("T", "frames", "ops", "deltas", "stores", "res_off",
                 "mc_busy", "lens", "tel")

    def __init__(self, T: float, frames: Tuple[int, ...],
                 ops: Tuple[int, ...], deltas: np.ndarray,
                 stores: Tuple[Tuple[int, int, int], ...],
                 res_off: np.ndarray, mc_busy: np.ndarray,
                 lens: Tuple[int, ...],
                 tel: Optional[Any] = None) -> None:
        self.T = T
        self.frames = frames
        self.ops = ops
        self.deltas = deltas
        self.stores = stores
        self.res_off = res_off
        self.mc_busy = mc_busy
        self.lens = lens
        #: telsynth phase signature (event count + counter/gauge state)
        self.tel = tel


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class BatchedEngine:
    """Coarse-op scheduler with steady-state frame-wave jumps.

    Construction reads the runner's stage graph (same placement, same
    frequency-plan application, same stage order as the event runner)
    and ``run()`` returns the same :class:`RunResult` the event engine
    would, within the committed ``repro diff`` tolerances.
    """

    def __init__(self, runner: Any) -> None:
        self.runner = runner
        self.frames: int = runner.frames
        self.workload = runner.workload
        self.cost = runner.cost
        self.mcpc_config: MCPCConfig = runner.mcpc_config or MCPCConfig()
        self.sim = Simulator()
        #: telemetry synthesis (None on the plain fast path); full-detail
        #: synthesis also hands the hub to the chip so DVFS/power emit
        #: their usual events from the real frequency-plan/power calls
        self.synth: Optional[TelemetrySynth] = make_synth(runner)
        self._step_synth: Optional[TelemetrySynth] = (
            self.synth if self.synth is not None and self.synth.detail
            else None)
        self.chip = SCCChip(
            self.sim, runner.chip_config,
            telemetry=(self.synth.hub if self._step_synth is not None
                       else None))
        self._active_cores: List[int] = []
        self.heap: List[Tuple[float, int, _Actor]] = []
        self._seq = 0
        self.actors: List[_Actor] = []
        self.stores: List[_Store] = []
        self._link_res: Dict[int, _Res] = {}
        self._mc_res: List[_Res] = [_Res(acct=True)
                                    for _ in range(NUM_MEMORY_CONTROLLERS)]
        self._all_res: List[_Res] = list(self._mc_res)
        self._chans: Dict[Tuple[int, int], _Chan] = {}
        self.mcpc_segments: List[Tuple[float, float]] = []
        self.end_time = 0.0
        #: jump bookkeeping (exposed for tests/benchmarks)
        self.jumps: List[Tuple[int, int, float]] = []
        self.frames_simulated = 0
        self._snap1: Optional[_Snapshot] = None
        self._snap2: Optional[_Snapshot] = None
        self._build()

    # -- program construction ---------------------------------------------
    def _link(self, link: Any) -> _Res:
        res = self._link_res.get(id(link))
        if res is None:
            res = self._link_res[id(link)] = _Res()
            self._all_res.append(res)
        return res

    def _new_res(self) -> _Res:
        res = _Res()
        self._all_res.append(res)
        return res

    def _mesh_prog(self, src: Any, dst: Any, nbytes: int,
                   core: Optional[int] = None) -> Prog:
        mesh = self.chip.mesh
        cfg = mesh.config
        route = mesh._route(src, dst)
        hold = nbytes / cfg.link_bandwidth + cfg.hop_latency_s
        # Step metadata is only consumed by detail synthesis; skip the
        # per-step tuple allocations on the plain fast path.
        detail = self._step_synth is not None
        if not route:
            return [(None, cfg.hop_latency_s,
                     ("mesh", nbytes) if detail else None)]
        if not cfg.model_contention:
            return [(None, len(route) * hold,
                     ("mesh", nbytes) if detail else None)]
        if not detail:
            return [(self._link(link), hold, None) for link in route]
        # The head step carries the transfer-entry counters; every link
        # step emits its own per-link counters and queue/xfer spans.
        return [(self._link(link), hold,
                 ("link", link.tag, nbytes, core, i == 0))
                for i, link in enumerate(route)]

    def _coord(self, core_id: int) -> Any:
        return self.chip.topology.core(core_id).coord

    def _dram_prog(self, acting: int, owner: int, nbytes: int,
                   inbound: bool) -> Prog:
        cfg = self.chip.memory.config
        if nbytes == 0:
            return []
        cc = self._coord(acting)
        mc = self.chip.memory.controller_of(owner)
        prog = self._mesh_prog(cc, mc.coord, cfg.command_bytes,
                               core=acting)
        service = cfg.mc_latency_s + nbytes / cfg.mc_bandwidth
        prog.append((self._mc_res[mc.index], service,
                     ("mc", mc.index, acting, nbytes, inbound)
                     if self._step_synth is not None else None))
        if inbound:
            prog.extend(self._mesh_prog(mc.coord, cc, nbytes, core=acting))
        else:
            prog.extend(self._mesh_prog(cc, mc.coord, nbytes, core=acting))
        prog.append((None, nbytes / cfg.core_copy_bandwidth, None))
        return prog

    def _own_prog(self, core: int, nbytes: int, inbound: bool) -> Prog:
        """A read (``inbound``) or write of the core's own partition."""
        cfg = self.chip.memory.config
        if cfg.local_memory:
            return [(None, nbytes / cfg.local_bandwidth, None)]
        return self._dram_prog(core, core, nbytes, inbound)

    def _write_to_prog(self, src: int, dst: int, nbytes: int) -> Prog:
        cfg = self.chip.memory.config
        if cfg.local_memory:
            prog = self._mesh_prog(self._coord(src), self._coord(dst),
                                   nbytes, core=src)
            prog.append((None, nbytes / cfg.local_bandwidth, None))
            return prog
        return self._dram_prog(src, dst, nbytes, False)

    def _udp_prog(self, res: _Res, cfg: Any, nbytes: int) -> Prog:
        frags = 0 if nbytes == 0 else math.ceil(nbytes / cfg.mtu_payload)
        hold = nbytes / cfg.bandwidth + frags * cfg.per_datagram_overhead
        prog: Prog = []
        if hold > 0.0:
            prog.append((res, hold, None))
        prog.append((None, cfg.latency_s, None))
        return prog

    def _chan(self, src: int, dst: int) -> _Chan:
        chan = self._chans.get((src, dst))
        if chan is None:
            chan = self._chans[(src, dst)] = _Chan(src, dst)
            self.stores.append(chan.recv_posted)
            self.stores.append(chan.data_ready)
        return chan

    def _queue(self, name: str) -> _Store:
        store = self._queues.get(name)
        if store is None:
            store = self._queues[name] = _Store(QUEUE_CAPACITY[name])
            self.stores.append(store)
        return store

    # -- build ------------------------------------------------------------
    def _build(self) -> None:
        runner = self.runner
        placement = runner._build_placement()
        self.placement = placement
        graph = runner.build_graph(placement, self.mcpc_config)
        self._downlink_res = self._new_res()
        self._uplink_res: Optional[_Res] = None
        self._queues: Dict[str, _Store] = {}
        #: every sample, birth and completion of the run, written in
        #: place by the actor bodies and extended in place by a jump
        self.metrics = metrics = RunMetrics()
        # The frequency plan first: chip.compute_time must see the
        # planned clocks when the programs are compiled below.
        self._active_cores = graph.cores()
        runner._apply_frequency_plan(self.chip, graph)
        self.chip.power.set_cores_active(self._active_cores, True)
        for stage in graph.stages:
            # the keys the bodies append to, in stage-graph order
            if stage.core is not None:
                metrics.busy_of(stage.key)
            if stage.inputs:
                metrics.idle_of(stage.key)
            self.actors.append(self._compile(stage))
        #: every list the bodies append samples to (the keys are fixed now)
        self._sample_lists = [acc.samples for acc in (
            *metrics.idle.values(), *metrics.busy.values())]
        synth = self.synth
        if synth is not None:
            # Track -> core bindings in the runner's stage-start order
            # (the host process never binds, exactly like the event path)
            for actor in self.actors:
                if actor.core_id >= 0:
                    synth.bind(actor.span_key, actor.core_id, self.sim.now)

    def _compile(self, stage: Stage) -> _Actor:
        """Compile each op of ``stage`` once into scheduler steps.

        A step is ``(code, a, b, c, d)``: ``_SEND`` (channel, write
        program, bytes, first output after a per-frame compute),
        ``_RECV`` (channel, read program, first input, last input),
        ``_GET`` (store, -, first input, last input), ``_PUT`` (store,
        -, -, first output after a per-frame compute), ``_COMPUTE``
        (seconds, or None and the per-frame seconds function) and
        ``_PROG`` / ``_DOWNLINK`` (program).
        """
        core = -1 if stage.core is None else stage.core
        frame_bytes = self.workload.frame_bytes()
        inputs = stage.inputs
        steps: List[Step] = []
        taken = 0
        frame_compute: Optional[Callable[[int], float]] = None
        post_compute = 0.0
        # between a per-frame compute and the first output after it
        watching = False
        for op in stage.program:
            kind = op.kind
            if kind == "send":
                steps.append((_SEND, self._chan(core, op.peer),
                              self._write_to_prog(core, op.peer, op.nbytes),
                              op.nbytes, watching))
                watching = False
            elif kind == "recv":
                taken += 1
                steps.append((_RECV, self._chan(op.peer, core),
                              self._own_prog(core, op.nbytes, True),
                              taken == 1, taken == inputs))
            elif kind == "get":
                taken += 1
                steps.append((_GET, self._queue(op.queue), None,
                              taken == 1, taken == inputs))
            elif kind == "put":
                steps.append((_PUT, self._queue(op.queue), None, None,
                              watching))
                watching = False
            elif kind == "compute":
                if op.per_frame is None:
                    steps.append((_COMPUTE, self._where(core, op.work)(0),
                                  None, None, None))
                else:
                    assert frame_compute is None, "one per-frame compute"
                    frame_compute = self._where(core, op.per_frame)
                    watching = True
                    steps.append((_COMPUTE, None, frame_compute, None, None))
            else:
                if kind == "mesh_in":
                    prog = self._mesh_prog(SIF_LOCATION, self._coord(core),
                                           frame_bytes, core=core)
                elif kind == "write_own":
                    prog = self._own_prog(core, frame_bytes, False)
                elif kind == "uplink":
                    if self._uplink_res is None:
                        self._uplink_res = self._new_res()
                    prog = self._udp_prog(self._uplink_res,
                                          self.mcpc_config.udp, frame_bytes)
                elif kind == "downlink":
                    prog = self._udp_prog(self._downlink_res,
                                          DOWNLINK_CONFIG, frame_bytes)
                else:  # pragma: no cover - the op vocabulary is closed
                    raise AssertionError(f"unknown op {kind!r}")
                if watching:
                    post_compute += sum(hold for _, hold, _ in prog)
                steps.append((_DOWNLINK if kind == "downlink" else _PROG,
                              prog, None, None, None))
        return _Actor(self, stage, steps, frame_compute, post_compute)

    def _where(self, core: int, work: Callable[[int], float]
               ) -> Callable[[int], float]:
        """Per-frame seconds of SCC-core ``work`` where the stage runs
        (``core`` -1 is the MCPC host)."""
        if core < 0:
            speedup = self.mcpc_config.speedup_vs_scc_core
            return lambda frame: work(frame) / speedup
        compute_time = self.chip.compute_time
        return lambda frame: compute_time(core, work(frame))

    # -- scheduler ---------------------------------------------------------
    def _push(self, t: float, actor: _Actor) -> None:
        heappush(self.heap, (t, self._seq, actor))
        self._seq += 1

    def _run_prog(self, actor: _Actor, prog: Prog, i: int) -> bool:
        """Execute a fused step program; False = reparked mid-program.

        Two bodies, one grant discipline: the plain loop is the hot path
        (no synthesis, no per-step branches beyond the kernel's own);
        the synth loop adds the ``synth.step`` emissions.  Any change to
        the grant/hold arithmetic must land in BOTH loops — the
        differential suite will catch a drift, but keep them in sync.
        """
        heap = self.heap
        synth = self._step_synth
        t = actor.t
        n = len(prog)
        if synth is None:
            while i < n:
                res, hold, _ = prog[i]
                if res is None:
                    t += hold
                else:
                    if heap and t > heap[0][0]:
                        actor.t = t
                        actor.pending = (0, prog, i)
                        self._push(t, actor)
                        return False
                    fa = res.free_at
                    if t < fa:
                        grant = fa
                    else:
                        if res.acct:
                            bs = res.busy_since
                            if bs is not None:
                                res.busy_time += fa - bs  # lint: disable=DET007
                            res.busy_since = t
                        grant = t
                    t = grant + hold
                    res.free_at = t
                i += 1
            actor.t = t
            return True
        while i < n:
            res, hold, meta = prog[i]
            if res is None:
                nt = t + hold
                if meta is not None:
                    synth.step(meta, t, t, nt)
                t = nt
            else:
                if heap and t > heap[0][0]:
                    actor.t = t
                    actor.pending = (0, prog, i)
                    self._push(t, actor)
                    return False
                fa = res.free_at
                if t < fa:
                    # queued behind the current holder: granted at the
                    # exact release float, interval stays open
                    grant = fa
                else:
                    if res.acct:
                        bs = res.busy_since
                        if bs is not None:
                            # the event kernel's interval-close add,
                            # reproduced bit-for-bit:
                            res.busy_time += fa - bs  # lint: disable=DET007
                        res.busy_since = t
                    grant = t
                nt = grant + hold
                res.free_at = nt
                if meta is not None:
                    synth.step(meta, t, grant, nt)
                t = nt
            i += 1
        actor.t = t
        return True

    def _drive(self, actor: _Actor) -> None:
        heap = self.heap
        gen = actor.gen
        op: Optional[Op] = None
        pend = actor.pending
        if pend is not None:
            actor.pending = None
            if pend[0] == 0:
                if not self._run_prog(actor, pend[1], pend[2]):
                    return
            elif pend[0] == 1:
                op = pend[1]
            # pend[0] == 2: plain continue
        while True:
            if op is None:
                try:
                    op = next(gen)
                except StopIteration:
                    actor.done = True
                    if actor.t > self.end_time:
                        self.end_time = actor.t
                    return
                actor.op_i += 1
            kind = op[0]
            if kind == "d":
                actor.t += op[1]
                op = None
                if heap and actor.t > heap[0][0]:
                    actor.pending = (2,)
                    self._push(actor.t, actor)
                    return
            elif kind == "s":
                if not self._run_prog(actor, op[1], 0):
                    return
                op = None
                if heap and actor.t > heap[0][0]:
                    actor.pending = (2,)
                    self._push(actor.t, actor)
                    return
            elif kind == "g":
                if heap and actor.t > heap[0][0]:
                    actor.pending = (1, op)
                    self._push(actor.t, actor)
                    return
                store = op[1]
                if store.items:
                    store.items -= 1
                    while store.putters and store.items < store.capacity:
                        p_actor = store.putters.popleft()
                        store.items += 1
                        p_actor.pending = (2,)
                        self._push(actor.t, p_actor)
                    op = None
                else:
                    store.getters.append(actor)
                    return
            elif kind == "p":
                if heap and actor.t > heap[0][0]:
                    actor.pending = (1, op)
                    self._push(actor.t, actor)
                    return
                store = op[1]
                if store.items < store.capacity:
                    if store.getters:
                        getter = store.getters.popleft()
                        # the event kernel resumes the woken receiver
                        # before the sender continues — same order here
                        self._push(actor.t, getter)
                        actor.pending = (2,)
                        self._push(actor.t, actor)
                        return
                    store.items += 1
                    op = None
                else:
                    store.putters.append(actor)
                    return
            else:  # pragma: no cover - op vocabulary is closed
                raise AssertionError(f"unknown op {op!r}")

    def _run_loop(self) -> None:
        for actor in self.actors:
            actor.gen = actor.body()
            self._push(0.0, actor)
        heap = self.heap
        while heap:
            t, _, actor = heappop(heap)
            actor.t = t
            self._drive(actor)
        stuck = [a for a in self.actors if not a.done]
        if stuck:  # pragma: no cover - would mirror an event deadlock
            raise RuntimeError(f"batched engine deadlock: {stuck}")

    # -- steady-state detection -------------------------------------------
    def _snapshot(self, trig: _Actor) -> _Snapshot:
        T = trig.t
        frames = tuple(a.frame for a in self.actors)
        ops = tuple(a.op_i for a in self.actors)
        deltas = np.array([(a.anchor_t - a.prev_anchor_t)
                           if (a.anchor_t is not None
                               and a.prev_anchor_t is not None)
                           else np.nan
                           for a in self.actors])
        stores = tuple(s.signature() for s in self.stores)
        res_off = np.array([r.free_at - T for r in self._all_res])
        mc_busy = np.array([r.busy_until(T) for r in self._mc_res])
        lens = tuple(len(lst) for lst in self._sample_lists)
        tel = self.synth.phase_sig() if self.synth is not None else None
        return _Snapshot(T, frames, ops, deltas, stores, res_off, mc_busy,
                         lens, tel)

    def _slices_match(self, snap: _Snapshot, prev: _Snapshot,
                      prev2: _Snapshot) -> bool:
        for lst, l2, l1, l0 in zip(self._sample_lists, prev2.lens,
                                   prev.lens, snap.lens):
            if l0 - l1 != l1 - l2:
                return False
            a = np.array(lst[l1:l0])
            b = np.array(lst[l2:l1])
            if a.size and not np.allclose(a, b, rtol=_RTOL, atol=_ATOL):
                return False
        return True

    def _steady(self, snap: _Snapshot, prev: _Snapshot,
                prev2: _Snapshot) -> Optional[float]:
        """Period Δ when the last three snapshots agree, else None."""
        delta = snap.T - prev.T
        if delta <= 0.0 or not math.isclose(prev.T - prev2.T, delta,
                                            rel_tol=_RTOL, abs_tol=_ATOL):
            return None
        for new, old in ((snap, prev), (prev, prev2)):
            if any(nf - of != 1 for nf, of in zip(new.frames, old.frames)):
                return None
        if snap.ops != prev.ops or prev.ops != prev2.ops:
            return None
        if np.any(np.isnan(snap.deltas)) or not np.allclose(
                snap.deltas, delta, rtol=_RTOL, atol=_ATOL * max(1.0, delta)):
            return None
        if snap.stores != prev.stores:
            return None
        # resources either repeat their phase offset or are long idle
        off_ok = (np.isclose(snap.res_off, prev.res_off,
                             rtol=_RTOL, atol=_ATOL * max(1.0, delta))
                  | ((snap.res_off < -delta) & (prev.res_off < -delta)))
        if not np.all(off_ok):
            return None
        if not self._slices_match(snap, prev, prev2):
            return None
        if self.synth is not None and not TelemetrySynth.periodic_ok(
                prev2.tel, prev.tel, snap.tel):
            # the telemetry stream itself must repeat before its period
            # can be captured and replayed symbolically
            return None
        return delta

    def on_trigger_anchor(self, trig: _Actor) -> None:
        self.frames_simulated += 1
        snap = self._snapshot(trig)
        prev, prev2 = self._snap1, self._snap2
        self._snap2 = prev
        self._snap1 = snap
        if prev is None or prev2 is None:
            return
        delta = self._steady(snap, prev, prev2)
        if delta is None:
            return
        if any(a.done for a in self.actors):
            return
        j = min(self.frames - 1 - a.frame for a in self.actors)
        if j < 2:
            return
        if not all(a.budget_ok(j, delta) for a in self.actors):
            return
        self._jump(trig, j, delta, snap, prev)

    # -- the wave jump ----------------------------------------------------
    def _jump(self, trig: _Actor, j: int, delta: float, snap: _Snapshot,
              prev: _Snapshot) -> None:
        """Advance the whole run by ``j`` periods in one step."""
        s = j * delta
        self.jumps.append((trig.frame, j, delta))

        # 1. repeat the last observed period's metric samples j times
        for lst, lo, hi in zip(self._sample_lists, prev.lens, snap.lens):
            sl = lst[lo:hi]
            if sl:
                lst.extend(sl * j)

        # 2. actor-specific synthesis (births, MCPC power segments)
        for a in self.actors:
            a.synthesize(j, delta)

        # 3. completions + latencies of the skipped frames
        metrics = self.metrics
        last_f, last_t = metrics.frame_completions[-1]
        for i in range(1, j + 1):
            metrics.record_frame_done(last_f + i, last_t + i * delta)

        # 4. renumber the in-flight frames' births (identity f -> f+j)
        births = metrics.frame_birth
        max_frame = max(a.frame for a in self.actors)
        for f in range(trig.frame, max_frame + 1):
            b = births.get(f)
            if b is not None:
                births[f + j] = b + s

        # 5. resources: accrue the skipped busy time, shift the clocks
        mc_accrued = snap.mc_busy - prev.mc_busy
        for r, accrued in zip(self._mc_res, mc_accrued):
            for _ in range(j):
                # one add per skipped period, mirroring the event
                # kernel's per-period interval closes bit-for-bit:
                r.busy_time += float(accrued)  # lint: disable=DET007
        for r in self._all_res:
            r.free_at += s
            if r.busy_since is not None:
                # a clock shift on each distinct resource, not a
                # running sum — one add per jump, same as free_at:
                r.busy_since += s  # lint: disable=DET007

        # 6. shift every clock: actors and heap entries (the stores hold
        # counts and actors, nothing that carries a time or a frame)
        for a in self.actors:
            a.shift(s, j)
        # In place: _drive/_run_prog hold references to this very list.
        self.heap[:] = [(t + s, seq, a) for (t, seq, a) in self.heap]
        heapify(self.heap)

        # 7. telemetry: register the captured period as a periodic block,
        # advance counters in closed form, mark the wave for live sinks
        if self.synth is not None:
            assert prev.tel is not None and snap.tel is not None
            self.synth.jump(j, delta, prev.tel, snap.tel, trig.t)

        self._snap1 = self._snap2 = None

    # -- result assembly ---------------------------------------------------
    def run(self) -> RunResult:
        runner = self.runner
        self._run_loop()
        end = self.end_time
        if self._step_synth is not None:
            # mirror the event path's teardown: advance the kernel clock
            # to the finish line and power the cores back down, so the
            # power gauge, trace point and closing sample land at the
            # same instant the event engine records them
            self.sim.run(until=end)
            self.chip.power.set_cores_active(self._active_cores, False)

        metrics = self.metrics
        mcfg = self.mcpc_config
        mcpc_trace = TimeSeries("mcpc_power", initial=mcfg.power_idle_w)
        for start, dur in self.mcpc_segments:
            mcpc_trace.record(start, mcfg.power_render_w)
            mcpc_trace.record(start + dur, mcfg.power_idle_w)
        mcpc_energy = (mcpc_trace.integrate(0.0, end)
                       - mcfg.power_idle_w * (end - 0.0))

        mc_utils = [(r.close() / end if end > 0 else 0.0)
                    for r in self._mc_res]

        runner.last_metrics = metrics
        runner.last_chip = self.chip
        runner.last_viewer = None
        runner.last_telemetry = runner.telemetry or Telemetry(enabled=False)

        return runner._result(self.placement, end, metrics, self.chip,
                              mcpc_energy, mc_utils, [])
