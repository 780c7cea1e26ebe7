"""Regenerate ``reference.json``: event-engine outputs for every Table-I
point x arrangement at 400 frames (the ``cli_cold`` and ``table1_sweep``
checks) and at 50 frames (the ``service_mix`` checks).

Each row holds the simulated walkthrough seconds, the SCC energy and the
event kernel's event count.  Every run builds a fresh chip model, so the
modelled caches start empty; the rows are therefore pure functions of
the spec and of the simulator's source.

Run ``python3 perfbench/run.py --regen-reference`` from the checkout root
after a change that is meant to alter simulated results.
"""

from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
from typing import Dict, Tuple

from common import (ARRANGEMENTS, FRAMES, REFERENCE, SERVICE_FRAMES,
                    add_src_path, ref_key, table1_points)


def _simulate(point: Tuple[str, int, str, int]) -> Tuple[str, dict]:
    add_src_path()
    from repro.pipeline.runner import PipelineRunner

    config, pipelines, arrangement, frames = point
    runner = PipelineRunner(config=config, pipelines=pipelines,
                            arrangement=arrangement, frames=frames,
                            engine="event")
    result = runner.run()
    return ref_key(*point), {
        "walkthrough_s": result.walkthrough_seconds,
        "energy_j": result.scc_energy_j,
        "sim_events": runner.last_chip.sim.event_count,
    }


def regenerate(jobs: int = 2) -> int:
    points = [(c, p, a, f) for f in (FRAMES, SERVICE_FRAMES)
              for c, p in table1_points() for a in ARRANGEMENTS]
    ctx = multiprocessing.get_context("spawn")
    rows: Dict[str, dict] = {}
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs,
                                                mp_context=ctx) as pool:
        for key, row in pool.map(_simulate, points):
            rows[key] = row
    doc = {"engine": "event", "image_side": 400, "seed": 0,
           "rows": dict(sorted(rows.items()))}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return len(rows)
