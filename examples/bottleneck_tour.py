#!/usr/bin/env python
"""A guided tour of where each configuration's time goes.

For every renderer configuration this example:

1. predicts the pipeline period analytically (``repro.analysis``) and
   names the bottleneck stage;
2. runs the discrete-event simulation and compares;
3. draws an ASCII Gantt chart of the first pipeline's stages so the
   bottleneck is literally visible (the busy bars of the slow stage
   touch; everything downstream shows gaps).

Run:  python examples/bottleneck_tour.py [--pipelines 5] [--frames 60]
"""

import argparse

from repro.analysis import PeriodPredictor
from repro.pipeline import PipelineRunner
from repro.sim import render_gantt
from repro.telemetry import Telemetry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pipelines", type=int, default=5)
    parser.add_argument("--frames", type=int, default=60)
    args = parser.parse_args()

    predictor = PeriodPredictor()
    for config in ("one_renderer", "n_renderers", "mcpc_renderer"):
        print("=" * 72)
        print(predictor.explain(config, args.pipelines))

        telemetry = Telemetry()
        runner = PipelineRunner(config=config, pipelines=args.pipelines,
                                frames=args.frames, telemetry=telemetry)
        result = runner.run()
        predicted = predictor.predict_period(config, args.pipelines)
        print(f"\n  DES period: {result.seconds_per_frame * 1e3:.1f} ms "
              f"(analytic {predicted * 1e3:.1f} ms, "
              f"{100 * (result.seconds_per_frame / predicted - 1):+.1f}% "
              "from queueing/rendezvous)")
        if result.latency_quartiles:
            print(f"  frame latency: "
                  f"{result.latency_quartiles[1] * 1e3:.0f} ms median")

        # Show pipeline 0's stages plus the shared input/output stages.
        wanted = [track for track in telemetry.tracks("stage")
                  if track.endswith("[0]") or "[" not in track]
        window = min(result.walkthrough_seconds,
                     12 * result.seconds_per_frame)
        print()
        print(render_gantt(telemetry, width=64, t1=window, tracks=wanted))
        print()


if __name__ == "__main__":
    main()
