"""The walkthrough workload: per-frame, per-strip render work profiles.

Timing-level runs do not rasterize pixels; they charge the render stage
according to *real* culling statistics — the octree nodes the strip's
sub-frustum visits and the triangles it collects, measured on the actual
procedural city along the actual 400-frame camera path.  That keeps the
frame-to-frame load variation ("the complexity of the scene") real while
the 400-frame sweeps run in seconds.

Profiles are memoized per ``(frame, strip, num_strips)``; a process-wide
default workload instance is shared by the benches (and by the service's
executor threads, so the memo is locked) and the geometry work is done
once per key.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache
from typing import Optional

from ..render import (
    DEFAULT_FRAME_COUNT,
    CityConfig,
    Renderer,
    RenderProfile,
    Viewport,
    WalkthroughPath,
    build_city,
)

__all__ = ["WalkthroughWorkload", "default_workload", "DEFAULT_IMAGE_SIDE",
           "DEFAULT_PROFILE_CACHE_CAP"]

#: the paper's main experiments use 400x400 RGBA frames (640 KB — the top
#: of the Fig. 12 sweep, consistent with its "data in kb" labels)
DEFAULT_IMAGE_SIDE = 400

#: default bound on the per-workload profile memo.  A profile is a
#: handful of ints, and a full Table-I crossing on one shared workload
#: (400 frames x the 1..7-strip splits plus full frames) needs ~14.8k
#: entries, so the cap never evicts inside a paper-scale sweep; it only
#: stops open-ended campaigns (unbounded strip-count / frame-count axes
#: on one long-lived workload) from growing memory without limit.
DEFAULT_PROFILE_CACHE_CAP = 32768


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
    profile_cache_cap:
        Bound on the memoized profile count (LRU eviction beyond it);
        profiles are pure functions of their key, so eviction can only
        cost recomputation, never change a result.
    """

    def __init__(self, frames: int = DEFAULT_FRAME_COUNT,
                 image_side: int = DEFAULT_IMAGE_SIDE,
                 city: Optional[CityConfig] = None,
                 profile_cache_cap: int = DEFAULT_PROFILE_CACHE_CAP) -> None:
        if frames < 1:
            raise ValueError("frames must be >= 1")
        if image_side < 1:
            raise ValueError("image_side must be >= 1")
        if profile_cache_cap < 1:
            raise ValueError("profile_cache_cap must be >= 1")
        self.frames = frames
        self.image_side = image_side
        self.city_config = city or CityConfig()
        self.profile_cache_cap = profile_cache_cap
        self._renderer: Optional[Renderer] = None
        self.path = WalkthroughPath(frames=frames)
        #: (frame, strip, num_strips) -> RenderProfile, LRU-bounded
        self._profiles: "OrderedDict[tuple, RenderProfile]" = OrderedDict()
        #: serializes the memo and the lazy scene build: threads sharing
        #: a workload must not cull the same key (or build the city) twice
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
        key = (frame, strip_index, num_strips)
        cached = self._profiles.get(key)
        if cached is None:
            return self._cull(key)
        try:
            self._profiles.move_to_end(key)
        except KeyError:  # evicted by another thread meanwhile
            pass
        return cached

    def _cull(self, key: tuple) -> RenderProfile:
        """Compute and memoize a missing profile, once per key."""
        frame, strip_index, num_strips = key
        with self._lock:
            cached = self._profiles.get(key)
            if cached is not None:
                return cached
            camera = self.path.camera_at(frame)
            camera.aspect = 1.0
            prof = self.renderer.profile(
                camera, self.viewport(strip_index, num_strips),
                strip_index=strip_index, num_strips=num_strips,
            )
            self._profiles[key] = prof
            while len(self._profiles) > self.profile_cache_cap:
                self._profiles.popitem(last=False)
            return prof

    def mean_full_frame_profile(self) -> RenderProfile:
        """Average counters over the whole walkthrough, full frames
        (used for calibration and reporting)."""
        nodes = tris = 0
        for f in range(self.frames):
            p = self.profile(f)
            nodes += p.nodes_visited
            tris += p.triangles_in_view
        n = self.frames
        return RenderProfile(
            nodes_visited=nodes // n,
            triangles_in_view=tris // n,
            pixels=self.image_side * self.image_side,
            culled_everything=False,
        )

    def __repr__(self) -> str:
        return (
            f"<WalkthroughWorkload frames={self.frames} "
            f"side={self.image_side} cached={len(self._profiles)}>"
        )


@lru_cache(maxsize=4)
def _default_workload_cached(frames: int, side: int) -> WalkthroughWorkload:
    return WalkthroughWorkload(frames=frames, image_side=side)


def default_workload(frames: int = DEFAULT_FRAME_COUNT,
                     image_side: int = DEFAULT_IMAGE_SIDE) -> WalkthroughWorkload:
    """Process-wide shared workload (memoized so benches reuse profiles)."""
    return _default_workload_cached(frames, image_side)
