"""Host-independent work count of the render profiles a Table-I sweep
culls.

The 22 Table-I points (``single_core`` plus the three SCC render
configurations at 1..7 pipelines) at the paper's 400 frames share one
workload, so one process needs exactly seven strip splits: the full
frame (``single_core``, ``one_renderer``, ``mcpc_renderer`` and
``n_renderers`` x 1) and ``n_renderers``' strips 2..7.  Each is culled
by one batched pass and no key is culled on its own.  The counts are
exact: they do not depend on the host's speed.
"""

from functools import lru_cache

from repro.pipeline import workload as workload_module
from repro.pipeline.runner import PipelineRunner
from repro.pipeline.workload import WalkthroughWorkload
from repro.render import Renderer
from repro.report.paper import TABLE1_PIPELINES

CONFIGS = ("one_renderer", "n_renderers", "mcpc_renderer")
POINTS = [("single_core", 1)] + [(c, p) for c in CONFIGS
                                 for p in TABLE1_PIPELINES]


def test_table1_sweep_culls_seven_splits_and_no_single_key(monkeypatch):
    # a fresh process-wide workload, so earlier tests' memo does not count
    fresh = lru_cache(maxsize=4)(
        lambda frames, side: WalkthroughWorkload(frames, side))
    monkeypatch.setattr(workload_module, "_default_workload_cached", fresh)
    splits, keys = [], []
    batch, single = Renderer.profiles, Renderer.profile

    def counting_profiles(self, view_projs, viewports, num_strips=1):
        splits.append(num_strips)
        return batch(self, view_projs, viewports, num_strips)

    def counting_profile(self, *args, **kwargs):
        keys.append(args)
        return single(self, *args, **kwargs)

    monkeypatch.setattr(Renderer, "profiles", counting_profiles)
    monkeypatch.setattr(Renderer, "profile", counting_profile)
    assert len(POINTS) == 22
    for config, pipelines in POINTS:
        PipelineRunner(config=config, pipelines=pipelines, frames=400,
                       engine="batched").run()
    assert sorted(splits) == [1, 2, 3, 4, 5, 6, 7]
    assert keys == []
