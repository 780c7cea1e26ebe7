"""Every consumer of the stage graph sees the same channels.

For each renderer placement, arrangement and pipeline count, the
rendezvous channels an event run opens in ``RCCEComm``, the channels the
batched engine builds, the channels of the protocol IR the deadlock
prover checks, and the core pairs behind ``describe``'s feeds must be one
and the same set.
"""

import pytest

from repro.engine import BatchedEngine
from repro.pipeline import (ARRANGEMENTS, PipelineRunner,
                            WalkthroughWorkload, make_placement,
                            max_pipelines)
from repro.pipeline.describe import describe
from repro.pipeline.protocol import extract_protocol
from repro.rcce import RCCEComm

FRAMES = 2


def _placeable(config, arrangement, pipelines):
    """Row-aligned arrangements fit fewer pipelines than the chip does."""
    try:
        make_placement(arrangement, pipelines, config == "n_renderers")
    except ValueError:
        return False
    return True


CASES = [
    (config, arrangement, pipelines)
    for config in ("one_renderer", "n_renderers", "mcpc_renderer")
    for arrangement in ARRANGEMENTS
    for pipelines in range(1, max_pipelines(config == "n_renderers") + 1)
    if _placeable(config, arrangement, pipelines)
]


@pytest.fixture(scope="module")
def workload():
    return WalkthroughWorkload(frames=FRAMES, image_side=16)


def _event_channels(monkeypatch, runner):
    comms = []
    init = RCCEComm.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        comms.append(self)

    monkeypatch.setattr(RCCEComm, "__init__", recording_init)
    runner.run()
    monkeypatch.setattr(RCCEComm, "__init__", init)
    assert len(comms) == 1
    return set(comms[0]._channels)


def _describe_channels(config, pipelines, arrangement):
    desc = describe(config, pipelines, arrangement)
    return {(node.core, desc.stage(feed).core)
            for node in desc.stages if node.core is not None
            for feed in node.feeds if feed != "viewer"}


@pytest.mark.parametrize("config,arrangement,pipelines", CASES)
def test_all_consumers_agree_on_channels(monkeypatch, workload, config,
                                         arrangement, pipelines):
    kwargs = dict(config=config, pipelines=pipelines,
                  arrangement=arrangement, frames=FRAMES, image_side=16,
                  workload=workload)
    event = _event_channels(monkeypatch, PipelineRunner(**kwargs))
    batched = set(BatchedEngine(PipelineRunner(engine="batched",
                                               **kwargs))._chans)
    model = extract_protocol(config, pipelines, arrangement)
    protocol = {op.channel for proc in model.processes for op in proc.ops
                if op.kind in ("send", "recv")}
    assert event == batched == protocol
    assert _describe_channels(config, pipelines, arrangement) == event
    # the placement's chains are all wired: 5 filters + fan-in per pipeline
    assert len(event) == 6 * pipelines
