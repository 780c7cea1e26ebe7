"""Calibrated stage cost model (the timing level's ground truth).

Every constant is the *pure compute* time of a stage at the paper's
default 533 MHz, for a full 400x400 frame where per-pixel, per-triangle
or per-node scaling applies.  Memory traffic (the DRAM bounce between
stages, UDP transfers) is charged separately by the simulated memory
system / links, so DVFS experiments scale only the compute part — which
is exactly how the paper's Fig. 16 arithmetic behaves.

Calibration anchors (all from the paper):

* whole pipeline on one SCC core: 382 s / 400 frames = 955 ms per frame,
  with render-only = 94 s (235 ms) and render+transfer = 104 s (+25 ms);
  the filter stages therefore share 695 ms, dominated by blur;
* the DVFS experiment (236 s → 174 s when only blur runs at 800 MHz)
  pins blur's compute at ≈ 465 ms/frame: the saved time must equal
  blur·(1 − 533/800) over 400 frames;
* Fig. 8's ordering of the remaining stages: sepia > flicker > swap >
  scratch (scratch touches only a few columns);
* the render split: frustum culling + transform ≈ 95 ms (dominated by
  per-triangle work against the octree) and rasterization ≈ 140 ms
  (per-pixel fill) — chosen so the n-renderer configuration reproduces
  Fig. 10: per-strip culling does NOT shrink with the strip count (a
  narrow frustum still tests almost every triangle — measured fraction
  ≈ 0.98 on the city walkthrough) while rasterization splits by pixels.

The class is a frozen dataclass: experiments vary parameters by
constructing modified copies (``dataclasses.replace``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict

from ..render import RenderProfile

__all__ = ["FULL_FRAME_PIXELS", "CostModel", "FILTER_SECONDS_FULL_FRAME"]

#: reference frame for the per-pixel constants (400 x 400)
FULL_FRAME_PIXELS = 400 * 400

#: Fig. 8 filter-stage totals per frame at 533 MHz (seconds, full frame)
FILTER_SECONDS_FULL_FRAME: Dict[str, float] = {
    "sepia": 0.095,
    "blur": 0.465,
    "scratch": 0.015,
    "flicker": 0.075,
    "swap": 0.055,
}


@dataclass(frozen=True)
class CostModel:
    """Per-stage compute cost constants (seconds at 533 MHz)."""

    # -- render stage ------------------------------------------------------
    #: octree traversal cost per node visited (pointer chasing, misses)
    cull_per_node_s: float = 50e-6
    #: per-triangle frustum test + transform + setup
    cull_per_triangle_s: float = 68.3e-6
    #: per-pixel z-buffered fill
    raster_per_pixel_s: float = 0.80e-6
    #: extra per-frame work a sort-first renderer does to adjust its
    #: strip frustum ("additional computation is necessary to adjust the
    #: viewing frustum of the camera")
    sort_first_adjust_s: float = 25e-3

    # -- filter stages -----------------------------------------------------
    sepia_per_pixel_s: float = FILTER_SECONDS_FULL_FRAME["sepia"] / FULL_FRAME_PIXELS
    blur_per_pixel_s: float = FILTER_SECONDS_FULL_FRAME["blur"] / FULL_FRAME_PIXELS
    scratch_per_pixel_s: float = FILTER_SECONDS_FULL_FRAME["scratch"] / FULL_FRAME_PIXELS
    flicker_per_pixel_s: float = FILTER_SECONDS_FULL_FRAME["flicker"] / FULL_FRAME_PIXELS
    swap_per_pixel_s: float = FILTER_SECONDS_FULL_FRAME["swap"] / FULL_FRAME_PIXELS

    # -- transfer / connect stages ---------------------------------------------
    #: reassembling the strips into the final frame, per pixel
    assemble_per_pixel_s: float = 5e-3 / FULL_FRAME_PIXELS
    #: per-strip dispatch work in the connect stage
    dispatch_per_strip_s: float = 3e-3
    #: SCC-side kernel/UDP processing per received datagram (P54C +
    #: RCCE-to-socket shim; dominates the connect stage's service time)
    scc_udp_per_datagram_s: float = 130e-6

    # -- generic ------------------------------------------------------------
    #: fixed per-frame stage overhead (flag polling, loop, sync)
    stage_overhead_s: float = 0.5e-3

    # -- derived helpers -----------------------------------------------------
    def render_seconds(self, profile: RenderProfile,
                       sort_first: bool = False) -> float:
        """Compute time of rendering one strip described by ``profile``."""
        t = (self.cull_per_node_s * profile.nodes_visited
             + self.cull_per_triangle_s * profile.triangles_in_view
             + self.raster_per_pixel_s * profile.pixels)
        if sort_first:
            t += self.sort_first_adjust_s
        return t + self.stage_overhead_s

    def filter_seconds(self, key: str, pixels: int) -> float:
        """Compute time of one filter stage over ``pixels``."""
        try:
            table = self._filter_per_pixel
        except AttributeError:
            # Lazily memoised per instance (the dataclass is frozen, so
            # the constants cannot change after construction).  Not a
            # dataclass field: replace()/== ignore it.
            table = {
                "sepia": self.sepia_per_pixel_s,
                "blur": self.blur_per_pixel_s,
                "scratch": self.scratch_per_pixel_s,
                "flicker": self.flicker_per_pixel_s,
                "swap": self.swap_per_pixel_s,
            }
            object.__setattr__(self, "_filter_per_pixel", table)
        per_pixel = table.get(key)
        if per_pixel is None:
            raise ValueError(f"unknown filter stage {key!r}")
        if pixels < 0:
            raise ValueError("pixels must be >= 0")
        return per_pixel * pixels + self.stage_overhead_s

    def assemble_seconds(self, pixels: int) -> float:
        """Transfer-stage compute: stitching strips into a frame."""
        if pixels < 0:
            raise ValueError("pixels must be >= 0")
        return self.assemble_per_pixel_s * pixels + self.stage_overhead_s

    def connect_seconds(self, datagrams: int, num_strips: int) -> float:
        """Connect-stage compute: drain the UDP feed, carve up the frame."""
        if datagrams < 0 or num_strips < 1:
            raise ValueError("datagrams >= 0 and num_strips >= 1 required")
        return (self.scc_udp_per_datagram_s * datagrams
                + self.dispatch_per_strip_s * num_strips
                + self.stage_overhead_s)

    def single_core_frame_seconds(self, profile: RenderProfile) -> float:
        """All compute of one frame on one core (the 955 ms baseline).

        On a single core the inter-stage hand-offs stay in the core's own
        partition/caches, so only compute is charged; the runner adds the
        UDP send to the viewer.
        """
        total = self.render_seconds(profile)
        for key in FILTER_SECONDS_FULL_FRAME:
            total += self.filter_seconds(key, profile.pixels)  # lint: disable=DET007 -- goldens pin this order
        total += self.assemble_seconds(profile.pixels)
        return total

    def with_overrides(self, **kwargs) -> "CostModel":
        """A modified copy (ablation convenience)."""
        return dataclasses.replace(self, **kwargs)
