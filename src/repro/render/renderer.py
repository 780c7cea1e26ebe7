"""The render-stage facade: octree + frustum culling + rasterization.

:class:`Renderer` is what the pipeline's render stage runs.  It exposes
both fidelity levels:

* :meth:`render` — actually produce the strip's pixels (functional runs,
  examples, tests);
* :meth:`profiles` — only cull and count (octree nodes visited, triangles
  in view, pixels) for every frame x strip of one strip split in one
  vectorized pass, returning :class:`SplitProfiles` whose
  :class:`RenderProfile` entries the timing cost model converts to
  seconds.  The 400-frame simulations use this, so a full Table I sweep
  finishes in seconds of wall time; :meth:`profile` is the same count
  for a single camera and strip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .camera import Camera
from .frustum import Frustum, frustum_planes, strip_view_proj
from .octree import Octree, TraversalStats
from .raster import RasterStats, Viewport, rasterize
from .scene import CityConfig, build_city

__all__ = ["RenderProfile", "SplitProfiles", "Renderer"]


@dataclass(frozen=True)
class RenderProfile:
    """Work counters for rendering one strip of one frame."""

    nodes_visited: int
    triangles_in_view: int
    pixels: int
    culled_everything: bool

    @property
    def frame_buffer_bytes(self) -> int:
        """4 bytes per pixel, as in the paper's render stage."""
        return self.pixels * 4


class SplitProfiles:
    """Work counters of every frame x strip of one strip split.

    ``nodes_visited`` and ``triangles_in_view`` are ``(frames,
    num_strips)`` int64 arrays; ``pixels`` holds each strip's pixel
    count.  Each :class:`RenderProfile` is built on its first lookup and
    kept: timing runs look one up per stage and frame, hundreds of
    thousands of times in a Table I sweep, but may never ask for the
    frames a frame-wave jump skips.  Threads racing on one lookup may
    each build an equal profile; either is correct.
    """

    __slots__ = ("nodes_visited", "triangles_in_view", "pixels", "_table")

    def __init__(self, nodes_visited: np.ndarray,
                 triangles_in_view: np.ndarray,
                 pixels: Sequence[int]) -> None:
        self.nodes_visited = nodes_visited
        self.triangles_in_view = triangles_in_view
        self.pixels = tuple(pixels)
        self._table: List[Optional[RenderProfile]] = \
            [None] * nodes_visited.size

    def at(self, frame: int, strip_index: int = 0) -> RenderProfile:
        """The counters of one strip of one frame."""
        profile = self._table[frame * len(self.pixels) + strip_index]
        if profile is None:
            profile = self._build(frame, strip_index)
        return profile

    def _build(self, frame: int, strip_index: int) -> RenderProfile:
        tris = int(self.triangles_in_view[frame, strip_index])
        profile = self._table[frame * len(self.pixels) + strip_index] = \
            RenderProfile(
                nodes_visited=int(self.nodes_visited[frame, strip_index]),
                triangles_in_view=tris,
                pixels=self.pixels[strip_index],
                culled_everything=tris == 0,
            )
        return profile


class Renderer:
    """A sort-first-capable renderer over an octree-indexed scene.

    Parameters
    ----------
    mesh:
        Scene geometry; defaults to the procedural city.
    max_triangles_per_leaf, max_depth:
        Octree build parameters.
    """

    #: default sun direction used when ``light="sun"``
    SUN = (0.45, 1.0, 0.6)

    def __init__(self, mesh=None, max_triangles_per_leaf: int = 64,
                 max_depth: int = 10, light="sun") -> None:
        self.mesh = mesh if mesh is not None else build_city(CityConfig())
        self.octree = Octree(self.mesh, max_triangles_per_leaf, max_depth)
        #: flat-shading light direction (``None`` disables shading)
        self.light = self.SUN if light == "sun" else light

    # -- culling ------------------------------------------------------------
    def visible_triangles(self, camera: Camera, strip_index: int = 0,
                          num_strips: int = 1,
                          stats: Optional[TraversalStats] = None) -> np.ndarray:
        """Indices of triangles possibly visible in the given strip."""
        frustum = Frustum.from_view_proj(
            _strip_matrix(camera, strip_index, num_strips))
        return self.octree.query_frustum(frustum, stats)

    # -- functional level -----------------------------------------------------
    def render(self, camera: Camera, viewport: Viewport,
               strip_index: int = 0, num_strips: int = 1,
               raster_stats: Optional[RasterStats] = None) -> np.ndarray:
        """Produce the strip's pixels: ``(strip_height, W, 3)`` float32."""
        indices = self.visible_triangles(camera, strip_index, num_strips)
        return rasterize(
            self.mesh.vertices,
            self.mesh.faces[indices],
            self.mesh.colors[indices],
            camera.view_proj(),
            viewport,
            stats=raster_stats,
            light=self.light,
        )

    # -- timing level ------------------------------------------------------------
    def profiles(self, view_projs: np.ndarray, viewports: Sequence[Viewport],
                 num_strips: int = 1) -> SplitProfiles:
        """Cull only, every frame x strip of one split in one pass.

        ``view_projs`` are the ``(frames, 4, 4)`` full-frame camera
        matrices and ``viewports`` the ``num_strips`` strip viewports;
        strip ``s`` of a frame is culled against
        ``strip_view_proj(view_proj, s, num_strips)``.
        """
        if len(viewports) != num_strips:
            raise ValueError("need one viewport per strip")
        vps = np.asarray(view_projs, dtype=np.float64)
        if num_strips > 1:
            vps = np.stack([strip_view_proj(vps, s, num_strips)
                            for s in range(num_strips)], axis=1)
        visited, triangles = self.octree.count_frusta(
            frustum_planes(vps.reshape(-1, 4, 4)))
        shape = (len(view_projs), num_strips)
        return SplitProfiles(visited.reshape(shape),
                             triangles.reshape(shape),
                             [v.pixels for v in viewports])

    def profile(self, camera: Camera, viewport: Viewport,
                strip_index: int = 0, num_strips: int = 1) -> RenderProfile:
        """Cull only; return the work counters for the cost model."""
        vp = _strip_matrix(camera, strip_index, num_strips)
        return self.profiles(vp[None], (viewport,)).at(0)

    def __repr__(self) -> str:
        return f"<Renderer tris={self.mesh.num_triangles} {self.octree!r}>"


def _strip_matrix(camera: Camera, strip_index: int,
                  num_strips: int) -> np.ndarray:
    """The view-projection matrix the strip's sub-frustum comes from."""
    vp = camera.view_proj()
    if num_strips > 1:
        vp = strip_view_proj(vp, strip_index, num_strips)
    return vp
