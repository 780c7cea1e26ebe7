"""View frustum extraction and culling tests.

The render stage "determines the objects placed within the horizontal
strip [by] a frustum culling" — so besides the full-camera frustum we
support *strip sub-frusta*: the part of the view volume that projects to
one horizontal band of the image, which is what each sort-first renderer
culls against.

Planes come from the Gribb/Hartmann rows-of-the-matrix method; every
plane normal points *into* the frustum, so a point is inside iff all six
signed distances are >= 0.
"""

from __future__ import annotations

import numpy as np

from .mesh3d import AABB

__all__ = ["Frustum", "frustum_planes", "strip_view_proj"]


def _plane_rows(m: np.ndarray) -> np.ndarray:
    """Unnormalized planes ``(..., 6, 4)`` of ``(..., 4, 4)`` matrices:
    left, right, bottom, top, near, far = row 3 ± rows 0, 1, 2."""
    w = m[..., 3:4, :]
    rows = np.empty(m.shape[:-2] + (6, 4))
    rows[..., 0::2, :] = w + m[..., :3, :]
    rows[..., 1::2, :] = w - m[..., :3, :]
    return rows


def _normalized(planes: np.ndarray) -> np.ndarray:
    """Scale each ``(n, d)`` plane to a unit normal, so distances are
    metric; a zero normal is a degenerate plane."""
    norms = np.linalg.norm(planes[..., :3], axis=-1, keepdims=True)
    if np.any(norms < 1e-12):
        raise ValueError("degenerate frustum plane")
    return planes / norms


def frustum_planes(view_projs: np.ndarray) -> np.ndarray:
    """The normalized planes ``(Q, 6, 4)`` of ``Q`` view-projection
    matrices ``(Q, 4, 4)``: :meth:`Frustum.from_view_proj`, batched."""
    m = np.asarray(view_projs, dtype=np.float64)
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise ValueError("view_projs must be (Q, 4, 4)")
    return _normalized(_plane_rows(m))


class Frustum:
    """Six inward-facing planes stored as a ``(6, 4)`` array ``(n, d)``
    with the convention ``n·p + d >= 0`` ⇔ inside."""

    def __init__(self, planes: np.ndarray) -> None:
        planes = np.asarray(planes, dtype=np.float64)
        if planes.shape != (6, 4):
            raise ValueError("a frustum needs exactly six (n, d) planes")
        self.planes = _normalized(planes)

    @classmethod
    def from_view_proj(cls, view_proj: np.ndarray) -> "Frustum":
        """Extract the six planes from a combined view-projection matrix."""
        m = np.asarray(view_proj, dtype=np.float64)
        if m.shape != (4, 4):
            raise ValueError("view_proj must be 4x4")
        return cls(_plane_rows(m))

    # -- queries ------------------------------------------------------------
    def contains_point(self, p: np.ndarray) -> bool:
        """True when the point is inside (or on) all six planes."""
        p = np.asarray(p, dtype=np.float64)
        d = self.planes[:, :3] @ p + self.planes[:, 3]
        return bool(np.all(d >= -1e-9))

    def intersects_aabb(self, box: AABB) -> bool:
        """Conservative AABB test (p-vertex): no false negatives.

        Standard culling test: for each plane take the box corner most
        in the plane's direction; if even that corner is outside, the
        whole box is outside.
        """
        normals = self.planes[:, :3]
        d = self.planes[:, 3]
        # positive vertex per plane: hi where n >= 0 else lo
        pv = np.where(normals >= 0.0, box.hi[None, :], box.lo[None, :])
        dist = np.einsum("ij,ij->i", normals, pv) + d
        return bool(np.all(dist >= -1e-9))

    def classify_aabbs(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Vectorized p-vertex test for many boxes.

        Parameters
        ----------
        los, his:
            ``(N, 3)`` box corners.

        Returns
        -------
        ``(N,)`` bool mask — True where the box potentially intersects.
        """
        los = np.asarray(los, dtype=np.float64)
        his = np.asarray(his, dtype=np.float64)
        if los.shape != his.shape or los.ndim != 2 or los.shape[1] != 3:
            raise ValueError("los/his must both be (N, 3)")
        return self._classify_boxes(los, his)

    def _classify_boxes(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """``classify_aabbs`` without input validation, for callers that
        guarantee ``(N, 3)`` float64 corners (the octree traversal)."""
        normals = self.planes[:, :3]                       # (6, 3)
        d = self.planes[:, 3]                              # (6,)
        # (N, 6, 3): pick hi where the plane normal component is >= 0
        pick_hi = normals[None, :, :] >= 0.0
        pv = np.where(pick_hi, his[:, None, :], los[:, None, :])
        dist = np.einsum("nij,ij->ni", pv, normals) + d[None, :]
        return np.all(dist >= -1e-9, axis=1)


def strip_view_proj(view_proj: np.ndarray, strip_index: int,
                    num_strips: int) -> np.ndarray:
    """View-projection matrix restricted to one horizontal image strip.

    Sort-first parallel rendering splits the screen into ``num_strips``
    horizontal bands; renderer ``strip_index`` only needs geometry whose
    projection falls into NDC ``y ∈ [y0, y1]``.  We compose a "window"
    transform that maps that band onto the full ``[-1, 1]`` NDC range, so
    the standard six-plane extraction yields the sub-frustum.

    Strips are indexed bottom-up (strip 0 = bottom of the image in NDC).
    """
    if num_strips <= 0:
        raise ValueError("num_strips must be >= 1")
    if not 0 <= strip_index < num_strips:
        raise ValueError("strip_index out of range")
    y0 = -1.0 + 2.0 * strip_index / num_strips
    y1 = -1.0 + 2.0 * (strip_index + 1) / num_strips
    # Map [y0, y1] -> [-1, 1]: y' = (2y - (y0+y1)) / (y1-y0)
    scale = 2.0 / (y1 - y0)
    offset = -(y0 + y1) / (y1 - y0)
    window = np.eye(4)
    window[1, 1] = scale
    window[1, 3] = offset
    return window @ np.asarray(view_proj, dtype=np.float64)
