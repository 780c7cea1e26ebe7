"""The stage graph: every stage of a run, its wiring and its frame loop.

The paper's pipeline is one fixed chain — render → sepia → blur →
scratch → flicker → swap → transfer — fed by one SCC renderer, one
sort-first renderer per pipeline, or the MCPC host through a connect
stage.  :func:`stage_graph` writes that chain out once.  Each
:class:`Stage` carries its metrics key and track (``sepia``,
``sepia[2]``), its core (``None`` for the host) and a per-frame program
of :class:`Op`: ``recv``, ``get``, ``compute``, ``mesh_in``,
``write_own``, ``send``, ``put``, ``uplink`` and ``downlink``
(docs/architecture.md, "Stages", says what each does).

Accounting follows from where an op sits, never from the stage's kind:
a stage without input ops is a *source* and marks frame births at the
top of its loop; the first input's wait is the Fig. 15 idle sample and
later inputs' waits are ``wait`` spans; the busy span starts after the
last input (at the loop top for a source) and ends with the program.

The event runner (:func:`start_stage`), the batched engine
(:mod:`repro.engine.batched`), the deadlock prover's protocol IR
(:mod:`repro.pipeline.protocol`) and ``describe`` all read this graph;
a new stage built from the existing ops is added here alone.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Generator, List, NamedTuple,
                    Optional, Tuple, Type)

import numpy as np

from ..filters import (
    FILTER_ORDER,
    BlurFilter,
    FlickerFilter,
    ImageFilter,
    ScratchFilter,
    SepiaFilter,
    SwapFilter,
)
from ..host import MCPC, UDPChannel, UDPConfig, VisualizationClient
from ..rcce import RCCEComm
from ..scc import SCCChip
from ..scc.topology import SIF_LOCATION
from ..sim import Simulator, Store
from ..sim.process import Process
from ..telemetry import Telemetry
from . import metrics as run_metrics
from .arrangements import Placement, make_placement
from .costmodel import CostModel
from .metrics import RunMetrics
from .workload import WalkthroughWorkload

__all__ = ["CONFIGURATIONS", "FILTER_KEYS", "FILTER_CLASSES", "SIF_SOCKET",
           "QUEUE_CAPACITY", "DOWNLINK_CONFIG", "Op", "Stage", "StageGraph",
           "StageContext", "StageTelemetry", "placement_for", "stage_graph",
           "start_stage"]

CONFIGURATIONS = ("single_core", "one_renderer", "n_renderers",
                  "mcpc_renderer")

#: filter stage order within a pipeline
FILTER_KEYS = FILTER_ORDER

_FILTERS: Tuple[Type[ImageFilter], ...] = (
    SepiaFilter, BlurFilter, ScratchFilter, FlickerFilter, SwapFilter)

#: functional-level filter implementations per filter key (payload mode)
FILTER_CLASSES: Dict[str, type] = {cls.key: cls for cls in _FILTERS}

#: the MCPC → connect-stage socket on the system interface
SIF_SOCKET = "sif-socket"

#: bounded host queues by name: the SIF socket buffers two frames, which
#: is what pins the host renderer to the connect stage's period
QUEUE_CAPACITY: Dict[str, int] = {SIF_SOCKET: 2}

#: SCC → MCPC viewer link: PCIe DMA reads are fast, so the transfer
#: stage's UDP send of a full frame costs ~20 ms (part of the 25 ms
#: transfer-stage budget of Fig. 8).
DOWNLINK_CONFIG = UDPConfig(mtu_payload=1472, bandwidth=40e6,
                            per_datagram_overhead=10e-6, latency_s=100e-6)

#: ops that block until data arrives
INPUT_OPS = ("recv", "get")


# ---------------------------------------------------------------------------
# the graph
# ---------------------------------------------------------------------------

class Op(NamedTuple):
    """One step of a stage's per-frame program (see the module docstring)."""

    kind: str
    #: recv: the source core; send: the destination core
    peer: int = -1
    #: recv/send: message bytes (the strip a pipeline carries)
    nbytes: int = 0
    #: send: the strip index the message carries
    strip: int = 0
    #: get/put: the host queue
    queue: str = ""
    #: compute: SCC-core seconds at 533 MHz, the same every frame...
    seconds: float = 0.0
    #: ...or a function of the frame
    per_frame: Optional[Callable[[int], float]] = None

    def work(self, frame: int) -> float:
        """SCC-core seconds (at 533 MHz) of this compute op for a frame."""
        if self.per_frame is None:
            return self.seconds
        return self.per_frame(frame)


class Stage(NamedTuple):
    """One stage instance: where it runs and what it does each frame."""

    #: metrics key, shared by a stage kind's instances ("sepia")
    key: str
    #: telemetry track, one per instance ("sepia[2]")
    track: str
    #: the SCC core it occupies; None runs on the MCPC host
    core: Optional[int]
    program: Tuple[Op, ...]
    #: the strip (pipeline) it handles; None handles whole frames
    strip: Optional[int] = None

    @property
    def inputs(self) -> int:
        """Number of input ops per frame (0 = a source stage)."""
        return sum(op.kind in INPUT_OPS for op in self.program)


@dataclass(frozen=True)
class StageGraph:
    """Every stage of one configuration, in start order."""

    stages: Tuple[Stage, ...]

    def cores(self) -> List[int]:
        """The SCC cores in use, in stage order."""
        return [s.core for s in self.stages if s.core is not None]

    def stage_cores(self) -> Dict[str, List[int]]:
        """Metrics key -> its instances' cores (frequency plans)."""
        out: Dict[str, List[int]] = {}
        for s in self.stages:
            if s.core is not None:
                out.setdefault(s.key, []).append(s.core)
        return out

    def feeds(self, stage: Stage) -> Tuple[str, ...]:
        """Tracks of the stages (or the ``viewer``) ``stage`` feeds."""
        out: List[str] = []
        for op in stage.program:
            if op.kind == "send":
                out.extend(s.track for s in self.stages
                           if s.core == op.peer)
            elif op.kind == "put":
                out.extend(s.track for s in self.stages
                           if Op("get", queue=op.queue) in s.program)
            elif op.kind == "downlink":
                out.append("viewer")
        return tuple(out)


def placement_for(config: str, pipelines: int,
                  arrangement: str = "ordered") -> Placement:
    """The default placement of a configuration."""
    if config not in CONFIGURATIONS:
        raise ValueError(f"unknown config {config!r}; "
                         f"choose from {CONFIGURATIONS}")
    if config == "single_core":
        return Placement(arrangement, input_cores=[0], filter_cores=[],
                         transfer_core=1)
    return make_placement(arrangement, pipelines,
                          per_pipeline_input=(config == "n_renderers"))


def stage_graph(config: str, placement: Placement,
                workload: Optional[WalkthroughWorkload] = None,
                cost: Optional[CostModel] = None,
                uplink: Optional[UDPConfig] = None) -> StageGraph:
    """Build the stage graph of ``config`` on ``placement``.

    ``workload``, ``cost`` and ``uplink`` size the programs (message
    bytes, compute seconds, datagram counts).  Consumers that read only
    the wiring — ``describe`` and the protocol IR — may omit them.
    """
    wl = workload if workload is not None else WalkthroughWorkload(frames=1)
    cm = cost if cost is not None else CostModel()
    link = uplink if uplink is not None else UDPConfig()
    n = placement.num_pipelines
    inputs = placement.input_cores

    def profile_seconds(frame: int) -> float:
        return cm.render_seconds(wl.profile(frame))

    if config == "single_core":
        return StageGraph((Stage(
            "single-core", "single-core", inputs[0], (
                Op("compute", per_frame=lambda f: cm.single_core_frame_seconds(
                    wl.profile(f))),
                Op("downlink"))),))

    strip_bytes = [wl.strip_bytes(p, n) for p in range(n)]
    first = [chain[0] for chain in placement.filter_cores]
    scatter = tuple(Op("send", peer=first[p], nbytes=strip_bytes[p], strip=p)
                    for p in range(n))
    stages: List[Stage] = []
    host: List[Stage] = []
    if config == "one_renderer":
        stages.append(Stage("render", "render", inputs[0], (
            Op("compute", per_frame=profile_seconds),) + scatter))
    elif config == "n_renderers":
        for p in range(n):
            stages.append(Stage("render", f"render[{p}]", inputs[p], (
                Op("compute", per_frame=lambda f, p=p: cm.render_seconds(
                    wl.profile(f, p, n), sort_first=True)),
                scatter[p]), strip=p))
    elif config == "mcpc_renderer":
        datagrams = math.ceil(wl.frame_bytes() / link.mtu_payload)
        stages.append(Stage("connect", "connect", inputs[0], (
            Op("get", queue=SIF_SOCKET),
            Op("mesh_in"),
            Op("compute", seconds=cm.connect_seconds(datagrams, n)),
            Op("write_own")) + scatter))
        # mcpc.compute() takes SCC-core seconds and applies the Xeon's
        # speed-up itself; the host starts after every SCC stage.
        host.append(Stage("mcpc-render", "mcpc-render", None, (
            Op("compute", per_frame=profile_seconds),
            Op("uplink"),
            Op("put", queue=SIF_SOCKET))))
    else:
        raise ValueError(f"unknown config {config!r}; "
                         f"choose from {CONFIGURATIONS}")

    feeder = inputs if config == "n_renderers" else [inputs[0]] * n
    for p, chain in enumerate(placement.filter_cores):
        pixels = wl.viewport(p, n).pixels
        path = [feeder[p], *chain, placement.transfer_core]
        for j, key in enumerate(FILTER_KEYS, start=1):
            stages.append(Stage(key, f"{key}[{p}]", path[j], (
                Op("recv", peer=path[j - 1], nbytes=strip_bytes[p]),
                Op("compute", seconds=cm.filter_seconds(key, pixels)),
                Op("send", peer=path[j + 1], nbytes=strip_bytes[p], strip=p)),
                strip=p))

    gather = tuple(Op("recv", peer=chain[-1], nbytes=strip_bytes[p])
                   for p, chain in enumerate(placement.filter_cores))
    stages.append(Stage("transfer", "transfer", placement.transfer_core,
                        gather + (Op("compute", seconds=cm.assemble_seconds(
                            wl.image_side ** 2)), Op("downlink"))))
    return StageGraph(tuple(stages + host))


# ---------------------------------------------------------------------------
# the event-kernel frame loop
# ---------------------------------------------------------------------------

@dataclass
class StageContext:
    """Everything the stages of one event-kernel run share."""

    chip: SCCChip
    comm: RCCEComm
    workload: WalkthroughWorkload
    metrics: RunMetrics
    frames: int
    num_pipelines: int
    payload_mode: bool = False
    viewer: Optional[VisualizationClient] = None
    #: SCC → MCPC link (transfer stage → visualization client)
    downlink: Optional[UDPChannel] = None
    #: MCPC → SCC link (host renderer → connect stage)
    uplink: Optional[UDPChannel] = None
    mcpc: Optional[MCPC] = None
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0))
    #: root seed for per-stage RNG streams (payload mode)
    seed: int = 0
    #: the telemetry hub the stages report their spans into (a private
    #: disabled one, which costs nothing, when none is given)
    telemetry: Telemetry = field(
        default_factory=lambda: Telemetry(enabled=False))
    #: the host queues, created on first use (see :meth:`queue`)
    queues: Dict[str, Store] = field(default_factory=dict)

    @property
    def sim(self) -> Simulator:
        return self.chip.sim

    def queue(self, name: str) -> Store:
        """The host queue ``name`` (capacity from :data:`QUEUE_CAPACITY`)."""
        store = self.queues.get(name)
        if store is None:
            store = self.queues[name] = Store(
                self.sim, capacity=QUEUE_CAPACITY[name], name=name)
        return store

    def rng_for(self, stage_key: str, pipeline: int) -> np.random.Generator:
        """An independent RNG stream for one stage instance.

        Derived from the root seed via SeedSequence spawning, so the
        stochastic filters' draws do not depend on event interleaving —
        identical seeds give identical films for every arrangement.
        """
        # zlib.crc32 is stable across processes (unlike str hash()).
        digest = zlib.crc32(f"{stage_key}/{pipeline}".encode("ascii"))
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed,
                                   spawn_key=(digest,)))


class StageTelemetry:
    """The stage-level spans and counters, emitted alike by both engines.

    Without ``detail`` only the stage busy/idle spans are emitted (what
    a live sink such as the progress tracker reads, and what the Gantt
    chart draws); ``detail`` (the hub's ``enabled`` flag on the event
    kernel) adds the core bindings, the per-instance counters and the
    ``wait`` and host spans.  The spans carry no run metrics: both
    engines write those to :class:`RunMetrics` themselves.
    """

    __slots__ = ("hub", "detail", "counters")

    def __init__(self, hub: Telemetry, detail: bool) -> None:
        self.hub = hub
        self.detail = detail
        self.counters = hub.counters

    def bind(self, track: str, core: int, t: float) -> None:
        """Track -> core binding: groups a track's slices by core."""
        if self.detail:
            self.hub.emit("stage", "bind", t, track=track, core=core)

    def stage_busy(self, track: str, t0: float, t1: float,
                   frame: int) -> None:
        self.hub.span("stage", track, "busy", t0, t1, frame=frame)
        if self.detail:
            # Per-instance keys (blur[2], not blur): RunMetrics already
            # aggregates per kind; the registry keeps the resolution.
            self.counters.inc(f"stage.{track}.frames")
            self.counters.inc(f"stage.{track}.busy_s", t1 - t0)

    def stage_idle(self, track: str, t: float, seconds: float) -> None:
        """The first input's wait ending at ``t`` (the Fig. 15 sample)."""
        self.hub.span("stage", track, "idle", t - seconds, t)
        if self.detail:
            self.counters.inc(f"stage.{track}.idle_s", seconds)

    def stage_wait(self, track: str, t: float, seconds: float,
                   src_core: int) -> None:
        """A later input's wait: a distinct span name, so it stays apart
        from the Fig. 15 ``idle`` samples while the insight engine still
        sees the full starvation window."""
        if self.detail and seconds > 0:
            self.hub.span("stage", track, "wait", t - seconds, t,
                          src_core=src_core)

    def host_busy(self, track: str, t0: float, t1: float,
                  frame: int) -> None:
        # Category "host", not "stage": the MCPC is no SCC core, so it
        # has no Fig. 15 samples and no row in the stage Gantt chart.
        if self.detail:
            self.hub.span("host", track, "busy", t0, t1, frame=frame)


def start_stage(stage: Stage, ctx: StageContext) -> Process:
    """Spawn ``stage``'s frame loop on the context's simulator."""
    tel = ctx.telemetry
    emit = StageTelemetry(tel, tel.enabled)
    if stage.core is not None:
        emit.bind(stage.track, stage.core, ctx.sim.now)
    elif ctx.mcpc is None or ctx.uplink is None:
        raise ValueError(f"{stage.track} runs on the MCPC: the context "
                         f"needs mcpc and uplink")
    return ctx.sim.process(_frame_loop(stage, ctx, emit), name=stage.track)


def _frame_loop(stage: Stage, ctx: StageContext, emit: StageTelemetry
                ) -> Generator[Any, Any, None]:
    """Run ``stage``'s program once per frame on the event kernel.

    Each op issues exactly the chip, RCCE and UDP calls the paper's
    stage loops make, in program order, so the kernel's event sequence
    is a function of the graph alone.
    """
    sim = ctx.sim
    chip = ctx.chip
    comm = ctx.comm
    metrics = ctx.metrics
    core = -1 if stage.core is None else stage.core
    key = stage.key
    track = stage.track
    frame_bytes = ctx.workload.frame_bytes()
    n_inputs = stage.inputs
    payloads = _payload_step(stage, ctx) if ctx.payload_mode else None

    def idle(seconds: float) -> None:
        now = sim.now
        metrics.record_idle(key, run_metrics.idle_sample(now, seconds))
        emit.stage_idle(track, now, seconds)

    def waited(index: int, src: int) -> Callable[[float], None]:
        if index == 0:  # the first input's wait is the Fig. 15 sample
            return idle
        return lambda seconds: emit.stage_wait(track, sim.now, seconds, src)

    waits = [waited(i, op.peer) for i, op in enumerate(
        op for op in stage.program if op.kind in INPUT_OPS)]

    for frame in range(ctx.frames):
        start = sim.now
        if not n_inputs:
            metrics.mark_frame_birth(frame, start)
        inbox: List[Any] = []
        pixels: Any = None
        taken = 0
        for op in stage.program:
            kind = op.kind
            if kind == "recv":
                msg = yield from comm.recv(core, op.peer,
                                           idle_cb=waits[taken])
                inbox.append(msg.payload)
            elif kind == "get":
                wait_start = sim.now
                inbox.append((yield ctx.queue(op.queue).get()))
                waits[taken](sim.now - wait_start)
            elif kind == "compute":
                if core < 0:
                    assert ctx.mcpc is not None
                    yield from ctx.mcpc.compute(op.work(frame))
                else:
                    yield sim.timeout(chip.compute_time(core,
                                                        op.work(frame)))
                if payloads is not None:
                    pixels = payloads(frame, inbox)
            elif kind == "send":
                payload = None
                if payloads is not None:
                    payload = (frame, op.strip, _strip_of(
                        stage, ctx, pixels, op.strip))
                yield from comm.send(core, op.peer, op.nbytes, tag=frame,
                                     payload=payload)
            elif kind == "put":
                yield ctx.queue(op.queue).put((frame, pixels))
            elif kind == "mesh_in":
                # The frame enters the chip at the system interface
                # router and crosses the mesh to this core.
                yield from chip.mesh.transfer(
                    SIF_LOCATION, chip.topology.core(core).coord,
                    frame_bytes, core=core)
            elif kind == "write_own":
                yield from chip.memory.write_own(core, frame_bytes)
            elif kind == "uplink":
                assert ctx.uplink is not None
                yield from ctx.uplink.transfer(frame_bytes)
            elif kind == "downlink":
                assert ctx.downlink is not None and ctx.viewer is not None
                yield from ctx.downlink.transfer(frame_bytes)
                ctx.viewer.display(frame, pixels)
                metrics.record_frame_done(frame, sim.now)
            else:  # pragma: no cover - the op vocabulary is closed
                raise AssertionError(f"unknown op {kind!r}")
            if kind in INPUT_OPS:
                taken += 1
                if taken == n_inputs:
                    start = sim.now
        if core < 0:
            emit.host_busy(track, start, sim.now, frame)
        else:
            metrics.record_busy(key, sim.now - start)
            emit.stage_busy(track, start, sim.now, frame)


# ---------------------------------------------------------------------------
# payload mode: real pixels through the stages
# ---------------------------------------------------------------------------

def _payload_step(stage: Stage, ctx: StageContext
                  ) -> Callable[[int, List[Any]], Any]:
    """What ``stage`` does to the pixels after its compute burst.

    Returns ``step(frame, inbox) -> pixels``: the inbox holds the items
    the input ops delivered this frame (``(frame, strip, image)`` from
    RCCE, ``(frame, image)`` from a host queue).  Keyed by stage kind.
    """
    wl = ctx.workload
    key = stage.key
    n = ctx.num_pipelines

    if key in ("render", "mcpc-render", "single-core"):
        p = stage.strip

        def draw(frame: int, inbox: List[Any]) -> Any:
            camera = wl.path.camera_at(frame)
            if p is not None:
                return wl.renderer.render(camera, wl.viewport(p, n),
                                          strip_index=p, num_strips=n)
            image = wl.renderer.render(camera, wl.viewport())
            if key == "single-core":
                for k in FILTER_KEYS:
                    image = FILTER_CLASSES[k]().apply(image, ctx.rng)
            return image
        return draw
    if key == "connect":
        return lambda frame, inbox: inbox[0][1]
    if key in FILTER_CLASSES:
        assert stage.strip is not None
        filt: ImageFilter = FILTER_CLASSES[key]()
        rng = ctx.rng_for(key, stage.strip)

        def apply(frame: int, inbox: List[Any]) -> Any:
            image = inbox[0][2]
            return None if image is None else filt.apply(image, rng)
        return apply
    if key == "transfer":
        def assemble(frame: int, inbox: List[Any]) -> Any:
            strips: List[Any] = [None] * len(inbox)
            for _, strip, image in inbox:
                strips[strip] = image
            if any(s is None for s in strips):
                return None
            # Strips arrive swap-flipped (top-down); the frame is stacked
            # in reverse strip order to stay top-down overall.
            return np.vstack(list(reversed(strips)))
        return assemble
    raise ValueError(f"no payload step for stage {stage.track!r}")


def _strip_of(stage: Stage, ctx: StageContext, pixels: Any,
              strip: int) -> Any:
    """The rows of strip ``strip`` a send carries."""
    if pixels is None or stage.strip is not None:
        return pixels
    vp = ctx.workload.viewport(strip, ctx.num_pipelines)
    return pixels[vp.y_start:vp.y_start + vp.height]
