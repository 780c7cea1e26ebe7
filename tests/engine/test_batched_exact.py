"""Exact output of the batched engine at four pinned points.

The differential suites check the batched engine against the event
engine under the committed tolerances; this one pins what the batched
engine itself produces, float for float (as ``float.hex``), so a change
to its scheduler, stores, jump or metric bookkeeping that moves any
result by one ulp fails here even where it stays inside a tolerance.

The points cover each shape of state a frame-wave jump must carry:

* ``mcpc_renderer`` x5 unordered: the MCPC socket is full and a putter
  is blocked when the jump fires;
* ``mcpc_renderer`` x3 ordered: puts are pending in the scheduler at
  the jump;
* ``n_renderers`` x7: never jumps (the coarse scheduler end to end);
* ``one_renderer`` x2 ordered at 60 frames: a short run that jumps.
"""

import pytest

from repro.engine import BatchedEngine
from repro.pipeline import PipelineRunner, WalkthroughWorkload

IMAGE_SIDE = 400

#: (config, pipelines, arrangement, frames) -> the pinned output; the
#: busy/idle rows are (stage key, sample count, sample total) in the
#: order RunMetrics holds them
EXPECTED = {
    ("mcpc_renderer", 5, "unordered", 400): {
        "walkthrough_seconds": "0x1.ab099a33bc71cp+5",
        "scc_energy_j": "0x1.4d9f80786b38ep+11",
        "mcpc_energy_above_idle_j": "0x1.5ee2c9d508d40p+6",
        "busy": [
            ("connect", 400, "0x1.a83ba6c30631bp+5"),
            ("sepia", 2000, "0x1.9786c226809c9p+5"),
            ("blur", 2000, "0x1.8da0008637c03p+7"),
            ("scratch", 2000, "0x1.2fd854f09d2f2p+4"),
            ("flicker", 2000, "0x1.563e707e1763ep+5"),
            ("swap", 2000, "0x1.cae63c8e0916bp+5"),
            ("transfer", 400, "0x1.4c28f5c28f5bep+3"),
        ],
        "idle": [
            ("connect", 400, "0x1.7ffd68893bd55p-4"),
            ("sepia", 2000, "0x1.960a5a5d7ff68p+7"),
            ("blur", 2000, "0x1.bc8b00dd3a1efp+5"),
            ("scratch", 2000, "0x1.d6ef33c8cef62p+7"),
            ("flicker", 2000, "0x1.a7c6e987c68b0p+7"),
            ("swap", 2000, "0x1.8b15c54d29ab1p+7"),
            ("transfer", 400, "0x1.5a5bb0014d401p+4"),
        ],
        "latency_quartiles": (
            "0x1.931a574434860p-1",
            "0x1.931a574434870p-1",
            "0x1.931a574434880p-1",
        ),
        "completions": 400,
        "jumps": [(6, 389, "0x1.0f82563f601c8p-3")],
        "frames_simulated": 11,
    },
    ("mcpc_renderer", 3, "ordered", 400): {
        "walkthrough_seconds": "0x1.2a800d6409970p+6",
        "scc_energy_j": "0x1.a3c412d4ad7c6p+11",
        "mcpc_energy_above_idle_j": "0x1.5ee2c9d508f40p+6",
        "busy": [
            ("connect", 400, "0x1.28127a6ffa59bp+6"),
            ("sepia", 1200, "0x1.2b19cfbed2fc4p+7"),
            ("blur", 1200, "0x1.8ced1750b7e2cp+7"),
            ("scratch", 1200, "0x1.2a7fa1a0cf0e8p+4"),
            ("flicker", 1200, "0x1.669a2bc42903ep+5"),
            ("swap", 1200, "0x1.70904d75c6583p+6"),
            ("transfer", 400, "0x1.4c28f5c28f6cdp+3"),
        ],
        "idle": [
            ("connect", 400, "0x1.7ffd68893bd55p-4"),
            ("sepia", 1200, "0x1.ec8b2417beb22p+5"),
            ("blur", 1200, "0x1.a0a228d7572dap+3"),
            ("scratch", 1200, "0x1.7fb5acacba5a5p+7"),
            ("flicker", 1200, "0x1.4d6f2c1627007p+7"),
            ("swap", 1200, "0x1.df5465db0d2fcp+6"),
            ("transfer", 400, "0x1.61fae17fd68a4p+5"),
        ],
        "latency_quartiles": (
            "0x1.41c5c1f9ee580p+0",
            "0x1.41c5c1f9ee580p+0",
            "0x1.41c5c1f9ee580p+0",
        ),
        "completions": 400,
        "jumps": [(91, 303, "0x1.7be3f405cbd00p-3")],
        "frames_simulated": 97,
    },
    ("n_renderers", 7, "ordered", 400): {
        "walkthrough_seconds": "0x1.c4282d470b032p+5",
        "scc_energy_j": "0x1.99c4690861fadp+11",
        "mcpc_energy_above_idle_j": "0x0.0p+0",
        "busy": [
            ("render", 2800, "0x1.86db867ad8e54p+8"),
            ("sepia", 2800, "0x1.337714d1bae8cp+8"),
            ("blur", 2800, "0x1.52857a80a4a99p+8"),
            ("scratch", 2800, "0x1.3675d087d095cp+8"),
            ("flicker", 2800, "0x1.3e2650fc801fcp+8"),
            ("swap", 2800, "0x1.41bf4d9285054p+8"),
            ("transfer", 400, "0x1.4c28f5c28f6ccp+3"),
        ],
        "idle": [
            ("sepia", 2800, "0x1.21e0c2fb20207p+6"),
            ("blur", 2800, "0x1.4bbbc511b417bp+5"),
            ("scratch", 2800, "0x1.1c18cdd7ab94cp+6"),
            ("flicker", 2800, "0x1.00bad0114fe18p+6"),
            ("swap", 2800, "0x1.edd809dfc4654p+5"),
            ("transfer", 400, "0x1.072d848f388acp+1"),
        ],
        "latency_quartiles": (
            "0x1.d05fef0c4b100p-1",
            "0x1.ee92a71a6ef08p-1",
            "0x1.0145369254e84p+0",
        ),
        "completions": 400,
        "jumps": [],
        "frames_simulated": 400,
    },
    ("one_renderer", 2, "ordered", 60): {
        "walkthrough_seconds": "0x1.127fd000d07ebp+4",
        "scc_energy_j": "0x1.6c91c04114e84p+9",
        "mcpc_energy_above_idle_j": "0x0.0p+0",
        "busy": [
            ("render", 60, "0x1.06db203d708a2p+4"),
            ("sepia", 120, "0x1.b31ac73f528c7p+4"),
            ("blur", 120, "0x1.db96971b3a1a7p+4"),
            ("scratch", 120, "0x1.62daafe45ec9ap+1"),
            ("flicker", 120, "0x1.964a4095f24ffp+2"),
            ("swap", 120, "0x1.4ead3f9753032p+2"),
            ("transfer", 60, "0x1.8e978d4fdf392p+0"),
        ],
        "idle": [
            ("sepia", 120, "0x1.1a934365a2174p+2"),
            ("blur", 120, "0x1.2e64eb4a74b20p+1"),
            ("scratch", 120, "0x1.d43a81d4e52f6p+4"),
            ("flicker", 120, "0x1.9f332d7c3a0dep+4"),
            ("swap", 120, "0x1.b3530ef7dc372p+4"),
            ("transfer", 60, "0x1.9dfc444207972p+3"),
        ],
        "latency_quartiles": (
            "0x1.0188072004db2p+0",
            "0x1.0188072004de0p+0",
            "0x1.0188072004de0p+0",
        ),
        "completions": 60,
        "jumps": [(38, 19, "0x1.1bdc12baedac0p-2")],
        "frames_simulated": 41,
    },
}


@pytest.fixture(scope="module")
def workloads():
    return {frames: WalkthroughWorkload(frames=frames, image_side=IMAGE_SIDE)
            for frames in sorted({point[3] for point in EXPECTED})}


@pytest.mark.parametrize("point", list(EXPECTED),
                         ids=[f"{c}x{p}-{a}-{f}" for c, p, a, f in EXPECTED])
def test_batched_output_is_pinned(point, workloads):
    config, pipelines, arrangement, frames = point
    runner = PipelineRunner(config=config, pipelines=pipelines,
                            arrangement=arrangement, frames=frames,
                            image_side=IMAGE_SIDE,
                            workload=workloads[frames], engine="batched")
    engine = BatchedEngine(runner)
    result = engine.run()
    metrics = runner.last_metrics
    assert result.latency_quartiles is not None
    got = {
        "walkthrough_seconds": result.walkthrough_seconds.hex(),
        "scc_energy_j": result.scc_energy_j.hex(),
        "mcpc_energy_above_idle_j": result.mcpc_energy_above_idle_j.hex(),
        "busy": [(key, acc.count, acc.total.hex())
                 for key, acc in metrics.busy.items()],
        "idle": [(key, acc.count, acc.total.hex())
                 for key, acc in metrics.idle.items()],
        "latency_quartiles": tuple(q.hex()
                                   for q in result.latency_quartiles),
        "completions": len(metrics.frame_completions),
        "jumps": [(frame, j, delta.hex())
                  for frame, j, delta in engine.jumps],
        "frames_simulated": engine.frames_simulated,
    }
    assert got == EXPECTED[point]
