"""The walkthrough workload: per-frame, per-strip render work profiles.

Timing-level runs do not rasterize pixels; they charge the render stage
according to *real* culling statistics — the octree nodes the strip's
sub-frustum visits and the triangles it collects, measured on the actual
procedural city along the actual 400-frame camera path.  That keeps the
frame-to-frame load variation ("the complexity of the scene") real while
the 400-frame sweeps run in seconds.

Profiles are memoized a whole strip split at a time: the first request
for any ``(frame, strip)`` of ``num_strips`` strips culls every frame x
strip of that split in one vectorized pass
(:meth:`Renderer.profiles <repro.render.Renderer.profiles>`) and keeps
its counters as two ``(frames, num_strips)`` int arrays.  A process-wide
default workload instance is shared by the benches (and by the service's
executor threads, so the memo is locked) and each split is culled once.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Dict, Optional

import numpy as np

from ..render import (
    DEFAULT_FRAME_COUNT,
    CityConfig,
    Renderer,
    RenderProfile,
    SplitProfiles,
    Viewport,
    WalkthroughPath,
    build_city,
)

__all__ = ["WalkthroughWorkload", "default_workload", "DEFAULT_IMAGE_SIDE"]

#: the paper's main experiments use 400x400 RGBA frames (640 KB — the top
#: of the Fig. 12 sweep, consistent with its "data in kb" labels)
DEFAULT_IMAGE_SIDE = 400


class WalkthroughWorkload:
    """Scene + camera path + cached per-strip render profiles.

    Parameters
    ----------
    frames:
        Walkthrough length (paper: 400).
    image_side:
        Square frame side in pixels.
    city:
        Scene configuration (defaults to the standard city).
    """

    def __init__(self, frames: int = DEFAULT_FRAME_COUNT,
                 image_side: int = DEFAULT_IMAGE_SIDE,
                 city: Optional[CityConfig] = None) -> None:
        if frames < 1:
            raise ValueError("frames must be >= 1")
        if image_side < 1:
            raise ValueError("image_side must be >= 1")
        self.frames = frames
        self.image_side = image_side
        self.city_config = city or CityConfig()
        self._renderer: Optional[Renderer] = None
        self.path = WalkthroughPath(frames=frames)
        #: num_strips -> counters of every frame x strip of that split
        self._splits: Dict[int, SplitProfiles] = {}
        #: every frame's camera matrix, built with the first split
        self._view_projs: Optional[np.ndarray] = None
        #: serializes the memo and the lazy scene build: threads sharing
        #: a workload must not cull the same split (or build the city)
        #: twice
        self._lock = threading.RLock()

    @property
    def renderer(self) -> Renderer:
        """The scene renderer (built lazily: geometry is only needed the
        first time a profile or a real image is requested)."""
        if self._renderer is None:
            with self._lock:
                if self._renderer is None:
                    self._renderer = Renderer(build_city(self.city_config))
        return self._renderer

    # -- geometry -----------------------------------------------------------
    def viewport(self, strip_index: int = 0, num_strips: int = 1) -> Viewport:
        """The strip's viewport within the full frame.

        Rows split as evenly as possible; earlier strips take the
        remainder (the paper's horizontal strips).
        """
        if num_strips < 1:
            raise ValueError("num_strips must be >= 1")
        if not 0 <= strip_index < num_strips:
            raise ValueError("strip_index out of range")
        side = self.image_side
        base = side // num_strips
        extra = side % num_strips
        height = base + (1 if strip_index < extra else 0)
        y_start = strip_index * base + min(strip_index, extra)
        return Viewport(side, side, y_start=y_start, height=height)

    def strip_bytes(self, strip_index: int, num_strips: int) -> int:
        """RGBA bytes of one strip (4 bytes/pixel, as the paper's frame
        buffers)."""
        return self.viewport(strip_index, num_strips).bytes_rgba

    def frame_bytes(self) -> int:
        """RGBA bytes of the full frame."""
        return self.image_side * self.image_side * 4

    # -- profiles ------------------------------------------------------------
    def profile(self, frame: int, strip_index: int = 0,
                num_strips: int = 1) -> RenderProfile:
        """Render-work counters for one strip of one frame (memoized)."""
        if not 0 <= frame < self.frames:
            raise ValueError(f"frame {frame} out of 0..{self.frames - 1}")
        if not 0 <= strip_index < num_strips:
            raise ValueError("strip_index out of range")
        # split()'s lock-free hit, inlined: timing runs call this per
        # stage and frame, hundreds of thousands of times per sweep
        split = self._splits.get(num_strips)
        if split is None:
            split = self.split(num_strips)
        return split.at(frame, strip_index)

    def split(self, num_strips: int = 1) -> SplitProfiles:
        """Counters of every frame x strip of one split, culled on the
        first request in one pass and memoized."""
        split = self._splits.get(num_strips)
        if split is None:
            with self._lock:
                split = self._splits.get(num_strips)
                if split is None:
                    viewports = [self.viewport(s, num_strips)
                                 for s in range(num_strips)]
                    split = self.renderer.profiles(
                        self._camera_matrices(), viewports, num_strips)
                    self._splits[num_strips] = split
        return split

    def _camera_matrices(self) -> np.ndarray:
        """Every frame's full-frame camera matrix, ``(frames, 4, 4)``,
        built once (the caller holds the lock).

        Each comes from the scalar :meth:`WalkthroughPath.camera_at`: a
        vectorized ``sin``/``cos`` may round differently by an ulp.
        """
        if self._view_projs is None:
            view_projs = np.empty((self.frames, 4, 4))
            for f in range(self.frames):
                camera = self.path.camera_at(f)
                camera.aspect = 1.0
                view_projs[f] = camera.view_proj()
            self._view_projs = view_projs
        return self._view_projs

    def mean_full_frame_profile(self) -> RenderProfile:
        """Average counters over the whole walkthrough, full frames
        (used for calibration and reporting)."""
        full = self.split(1)
        n = self.frames
        return RenderProfile(
            nodes_visited=int(full.nodes_visited.sum()) // n,
            triangles_in_view=int(full.triangles_in_view.sum()) // n,
            pixels=self.image_side * self.image_side,
            culled_everything=False,
        )

    def __repr__(self) -> str:
        return (
            f"<WalkthroughWorkload frames={self.frames} "
            f"side={self.image_side} splits={sorted(self._splits)}>"
        )


@lru_cache(maxsize=4)
def _default_workload_cached(frames: int, side: int) -> WalkthroughWorkload:
    return WalkthroughWorkload(frames=frames, image_side=side)


def default_workload(frames: int = DEFAULT_FRAME_COUNT,
                     image_side: int = DEFAULT_IMAGE_SIDE) -> WalkthroughWorkload:
    """Process-wide shared workload (memoized so benches reuse profiles)."""
    return _default_workload_cached(frames, image_side)
