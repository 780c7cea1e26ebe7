"""Jump coverage: the batched engine where the frame-wave jump fires.

The Hypothesis differential draws short runs in which only
single-pipeline configurations ever turn periodic.  This suite runs the
22 Table-I points (the single-core baseline plus pipelines 1..7 of each
renderer placement) at 40 full-size frames, rotating the arrangement
from point to point, and

* diffs every point's batched result against the event engine under the
  committed ``metrics-tolerances.json``;
* pins the exact set of points on which ``BatchedEngine.jumps`` is
  non-empty, so a change that silently stops (or starts) jumping
  somewhere shows up as a failure rather than as a speed change.

Each renderer placement has at least one jumping point in the pinned
set, so every per-frame-compute budget check and synthesis hook of the
engine is exercised on a run that actually skips frames.
"""

import json
import pathlib

import pytest

from repro.analysis import Tolerances, diff_snapshots, snapshot_from_result
from repro.engine import BatchedEngine
from repro.pipeline import ARRANGEMENTS, PipelineRunner, WalkthroughWorkload

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
TOLERANCES = Tolerances.from_dict(
    json.loads((REPO_ROOT / "metrics-tolerances.json").read_text()))

FRAMES = 40
IMAGE_SIDE = 400

#: the Table-I grid in order, each point on the next arrangement in turn
POINTS = [
    (config, pipelines, ARRANGEMENTS[i % len(ARRANGEMENTS)])
    for i, (config, pipelines) in enumerate(
        [("single_core", 1)]
        + [(config, p)
           for config in ("one_renderer", "n_renderers", "mcpc_renderer")
           for p in range(1, 8)])
]

#: the points whose batched run takes at least one frame-wave jump
JUMPING = {
    ("one_renderer", 1, "ordered"),
    ("n_renderers", 1, "flipped"),
    ("mcpc_renderer", 1, "unordered"),
    ("mcpc_renderer", 2, "ordered"),
    ("mcpc_renderer", 5, "ordered"),
    ("mcpc_renderer", 7, "unordered"),
}


@pytest.fixture(scope="module")
def workload():
    return WalkthroughWorkload(frames=FRAMES, image_side=IMAGE_SIDE)


@pytest.mark.parametrize("config,pipelines,arrangement", POINTS,
                         ids=[f"{c}x{p}-{a}" for c, p, a in POINTS])
def test_table1_point_matches_event_engine(config, pipelines, arrangement,
                                           workload):
    kwargs = dict(config=config, pipelines=pipelines,
                  arrangement=arrangement, frames=FRAMES,
                  image_side=IMAGE_SIDE, workload=workload)
    event_result = PipelineRunner(engine="event", **kwargs).run()
    engine = BatchedEngine(PipelineRunner(engine="batched", **kwargs))
    batched_result = engine.run()
    diff = diff_snapshots(snapshot_from_result(event_result),
                          snapshot_from_result(batched_result), TOLERANCES)
    assert diff.ok, diff.format_text(verbose=True)
    assert bool(engine.jumps) == ((config, pipelines, arrangement)
                                  in JUMPING)
    if engine.jumps:
        skipped = sum(j for _, j, _ in engine.jumps)
        assert engine.frames_simulated + skipped == FRAMES


def test_every_renderer_placement_jumps_somewhere():
    assert {c for c, _, _ in JUMPING} == {"one_renderer", "n_renderers",
                                          "mcpc_renderer"}
