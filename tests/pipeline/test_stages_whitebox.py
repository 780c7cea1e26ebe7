"""White-box tests of individual stage processes.

These drive single stages of the stage graph with hand-built contexts
and hand-fed messages, pinning down the per-stage protocol (recv →
compute → send) independently of the full runner.
"""

import numpy as np
import pytest

from repro.host import MCPC, UDPChannel, VisualizationClient
from repro.pipeline import (CostModel, Placement, RunMetrics,
                            WalkthroughWorkload)
from repro.pipeline.runner import DOWNLINK_CONFIG
from repro.pipeline.stages import (
    SIF_SOCKET,
    StageContext,
    stage_graph,
    start_stage,
)
from repro.rcce import RCCEComm
from repro.scc import SCCChip
from repro.sim import Simulator

FRAMES = 3
COST = CostModel()


def graph_stage(ctx, config, track, input_cores, filter_cores,
                transfer_core=47):
    """Stage ``track`` of ``config``'s graph on a hand-made placement."""
    placement = Placement("ordered", input_cores=input_cores,
                          filter_cores=filter_cores,
                          transfer_core=transfer_core)
    graph = stage_graph(config, placement, ctx.workload, COST)
    return next(s for s in graph.stages if s.track == track)


def filter_stage(ctx, key, core, prev_core, next_core):
    """Filter ``key`` of pipeline 0 on ``core``, fed by ``prev_core``."""
    j = ("sepia", "blur", "scratch", "flicker", "swap").index(key)
    chain = [40, 41, 42, 43, 44]
    chain[j] = core
    inputs = [39]
    if j == 0:
        inputs = [prev_core]
    else:
        chain[j - 1] = prev_core
    transfer = 45
    if j == 4:
        transfer = next_core
    else:
        chain[j + 1] = next_core
    return graph_stage(ctx, "one_renderer", f"{key}[0]", inputs, [chain],
                       transfer)


@pytest.fixture()
def ctx():
    sim = Simulator()
    chip = SCCChip(sim)
    mcpc = MCPC(sim)
    return StageContext(
        chip=chip,
        comm=RCCEComm(chip),
        workload=WalkthroughWorkload(frames=FRAMES, image_side=64),
        metrics=RunMetrics(),
        frames=FRAMES,
        num_pipelines=1,
        viewer=VisualizationClient(sim),
        downlink=UDPChannel(sim, DOWNLINK_CONFIG),
        uplink=mcpc.link,
        mcpc=mcpc,
    )


def feed(ctx, src, dst, frames=FRAMES, nbytes=1000):
    """A producer process sending `frames` messages src -> dst."""
    def producer():
        for frame in range(frames):
            yield from ctx.comm.send(src, dst, nbytes, tag=frame,
                                     payload=(frame, 0, None))
    return producer


def drain(ctx, dst, src, collected, frames=FRAMES):
    def consumer():
        for _ in range(frames):
            msg = yield from ctx.comm.recv(dst, src)
            collected.append(msg)
    return consumer


def test_filter_stage_forwards_every_frame(ctx):
    stage = filter_stage(ctx, "blur", 4, prev_core=2, next_core=6)
    out = []
    ctx.sim.process(feed(ctx, 2, 4)())
    start_stage(stage, ctx)
    ctx.sim.process(drain(ctx, 6, 4, out)())
    ctx.sim.run()
    assert [m.tag for m in out] == [0, 1, 2]
    assert ctx.metrics.busy["blur"].count == FRAMES
    assert ctx.metrics.idle["blur"].count == FRAMES


def test_filter_stage_service_time_includes_compute(ctx):
    stage = filter_stage(ctx, "blur", 4, prev_core=2, next_core=6)
    out = []
    ctx.sim.process(feed(ctx, 2, 4)())
    start_stage(stage, ctx)
    ctx.sim.process(drain(ctx, 6, 4, out)())
    ctx.sim.run()
    pixels = 64 * 64
    expected = COST.filter_seconds("blur", pixels)
    assert ctx.metrics.busy["blur"].mean >= expected


def test_filter_stage_respects_dvfs(ctx):
    """The same stage on a 400 MHz tile is slower by 533/400."""
    times = {}
    for freq in (533.0, 400.0):
        sim = Simulator()
        chip = SCCChip(sim)
        chip.dvfs.set_core_frequency(4, freq)
        local = StageContext(
            chip=chip, comm=RCCEComm(chip),
            workload=ctx.workload, metrics=RunMetrics(), frames=FRAMES,
            num_pipelines=1)
        stage = filter_stage(local, "swap", 4, prev_core=2, next_core=6)
        out = []
        sim.process(feed(local, 2, 4)())
        start_stage(stage, local)
        sim.process(drain(local, 6, 4, out)())
        sim.run()
        times[freq] = local.metrics.busy["swap"].mean
    # Only the compute part scales, so the ratio sits between 1 and 533/400.
    ratio = times[400.0] / times[533.0]
    assert 1.05 < ratio < 533.0 / 400.0 + 0.01


def test_transfer_stage_assembles_and_displays(ctx):
    stage = graph_stage(ctx, "one_renderer", "transfer", [0],
                        [[20, 21, 22, 23, 4], [30, 31, 32, 33, 6]],
                        transfer_core=10)
    for src in (4, 6):
        ctx.sim.process(feed(ctx, src, 10)())
    start_stage(stage, ctx)
    ctx.sim.run()
    assert ctx.viewer.frames_displayed == FRAMES
    assert [f for f, _ in ctx.metrics.frame_completions] == [0, 1, 2]
    assert ctx.metrics.busy["transfer"].count == FRAMES


def test_connect_stage_distributes_strips(ctx):
    stage = graph_stage(ctx, "mcpc_renderer", "connect", [8],
                        [[2, 20, 21, 22, 23], [4, 30, 31, 32, 33]])
    queue = ctx.queue(SIF_SOCKET)
    out0, out1 = [], []

    def host_feed():
        for frame in range(FRAMES):
            yield queue.put((frame, None))

    ctx.sim.process(host_feed())
    start_stage(stage, ctx)
    ctx.sim.process(drain(ctx, 2, 8, out0)())
    ctx.sim.process(drain(ctx, 4, 8, out1)())
    ctx.sim.run()
    assert [m.tag for m in out0] == [0, 1, 2]
    assert [m.tag for m in out1] == [0, 1, 2]
    # The connect stage wrote each frame into its own partition.
    frame_bytes = ctx.workload.frame_bytes()
    assert ctx.chip.memory.core_traffic[8] >= FRAMES * frame_bytes


def test_mcpc_render_process_pushes_frames(ctx):
    stage = graph_stage(ctx, "mcpc_renderer", "mcpc-render", [8],
                        [[2, 20, 21, 22, 23]])
    queue = ctx.queue(SIF_SOCKET)
    got = []

    def consumer():
        for _ in range(FRAMES):
            frame, _ = yield queue.get()
            got.append(frame)

    start_stage(stage, ctx)
    ctx.sim.process(consumer())
    ctx.sim.run()
    assert got == [0, 1, 2]
    assert ctx.mcpc.busy_seconds > 0
    assert ctx.uplink.bytes_sent == FRAMES * ctx.workload.frame_bytes()


def test_mcpc_render_process_requires_host():
    sim = Simulator()
    chip = SCCChip(sim)
    bad_ctx = StageContext(
        chip=chip, comm=RCCEComm(chip),
        workload=WalkthroughWorkload(frames=1, image_side=32),
        metrics=RunMetrics(), frames=1, num_pipelines=1)
    stage = graph_stage(bad_ctx, "mcpc_renderer", "mcpc-render", [8],
                        [[2, 20, 21, 22, 23]])
    with pytest.raises(ValueError):
        start_stage(stage, bad_ctx)
