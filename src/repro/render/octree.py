"""Octree spatial index over a triangle mesh.

The render stage "loads the scene and organizes the different objects in
a hierarchical data structure known as an octree ... the octree is
traversed [for frustum culling], causing significant memory accesses."
The traversal statistics (:class:`TraversalStats`) are exactly what the
timing cost model charges for — the octree walk is the irregular,
pointer-chasing memory pattern that makes the render stage expensive on
a cache-starved P54C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .frustum import Frustum
from .mesh3d import AABB, TriangleMesh

__all__ = ["TraversalStats", "OctreeNode", "Octree"]

#: frusta :meth:`Octree.count_frusta` tests at once: bounds its
#: ``(chunk, nodes, 6, 3)`` p-vertex transient (under 1 MB for the
#: 81-node city) whatever the number of frusta; larger chunks measured
#: no faster
CULL_CHUNK = 16


@dataclass
class TraversalStats:
    """Counters from one culling traversal (drives the render cost model)."""

    nodes_visited: int = 0
    nodes_culled: int = 0
    triangles_collected: int = 0

    def merged_with(self, other: "TraversalStats") -> "TraversalStats":
        return TraversalStats(
            self.nodes_visited + other.nodes_visited,
            self.nodes_culled + other.nodes_culled,
            self.triangles_collected + other.triangles_collected,
        )


class OctreeNode:
    """One octree cell: either a leaf holding triangle indices, or eight
    children (sparse — empty octants are ``None``).

    Internal nodes additionally carry the query acceleration built by
    :meth:`Octree._finalize`: the live (non-``None``) children in octant
    order and their stacked bounds, so a traversal can frustum-test all
    children of a node with one vectorized call.
    """

    __slots__ = ("bounds", "triangle_indices", "children",
                 "live_children", "child_los", "child_his")

    def __init__(self, bounds: AABB) -> None:
        self.bounds = bounds
        self.triangle_indices: Optional[np.ndarray] = None
        self.children: Optional[List[Optional["OctreeNode"]]] = None
        self.live_children: Optional[List["OctreeNode"]] = None
        self.child_los: Optional[np.ndarray] = None
        self.child_his: Optional[np.ndarray] = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class Octree:
    """Octree over the triangles of a mesh.

    Triangles are binned by centroid; each node's bounds are padded to
    enclose its triangles fully (loose octree), so a frustum query never
    misses geometry.

    Parameters
    ----------
    mesh:
        The scene geometry.
    max_triangles_per_leaf:
        Split threshold.
    max_depth:
        Hard depth cap (protects against degenerate input).
    """

    def __init__(self, mesh: TriangleMesh, max_triangles_per_leaf: int = 64,
                 max_depth: int = 10) -> None:
        if mesh.num_triangles == 0:
            raise ValueError("cannot index an empty mesh")
        if max_triangles_per_leaf < 1:
            raise ValueError("max_triangles_per_leaf must be >= 1")
        if max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        self.mesh = mesh
        self.max_triangles_per_leaf = max_triangles_per_leaf
        self.max_depth = max_depth
        self._centroids = mesh.centroids()
        self._tri_lo, self._tri_hi = mesh.triangle_bounds()
        self.root = OctreeNode(mesh.bounds())
        self.node_count = 1
        self.leaf_count = 0
        self._build(self.root, np.arange(mesh.num_triangles), depth=0)
        self._finalize(self.root)
        self._flatten()

    def _finalize(self, node: OctreeNode) -> None:
        """Precompute per-node child lists and stacked bounds.

        The tree is immutable after construction, so each internal node's
        live children and their ``(k, 3)`` corner matrices are built once
        here instead of being re-gathered on every frustum query.
        """
        if node.children is None:
            return
        live = [c for c in node.children if c is not None]
        for child in live:
            self._finalize(child)
        node.live_children = live
        # Gathered after the recursive calls: leaf bounds were loosened
        # during _build, and these copies must reflect the final values.
        node.child_los = np.array([c.bounds.lo for c in live],
                                  dtype=np.float64)
        node.child_his = np.array([c.bounds.hi for c in live],
                                  dtype=np.float64)

    def _flatten(self) -> None:
        """Flat breadth-first arrays of the tree for :meth:`count_frusta`.

        Node ``i`` has bounds ``node_lo[i]``/``node_hi[i]``, its parent's
        index ``node_parent[i]`` (the root's is 0), ``child_count[i]``
        live children and ``leaf_tris[i]`` triangles (0 for internal
        nodes).  ``_levels`` holds each depth's ``[start, stop)`` slice;
        in BFS order every parent precedes its level.
        """
        nodes: List[OctreeNode] = [self.root]
        parents = [0]
        levels: List[Tuple[int, int]] = []
        start = 0
        while start < len(nodes):
            stop = len(nodes)
            levels.append((start, stop))
            for i in range(start, stop):
                for child in nodes[i].live_children or ():
                    nodes.append(child)
                    parents.append(i)
            start = stop
        self.node_lo = np.array([n.bounds.lo for n in nodes], dtype=np.float64)
        self.node_hi = np.array([n.bounds.hi for n in nodes], dtype=np.float64)
        self.node_parent = np.array(parents, dtype=np.int64)
        self.child_count = np.array([len(n.live_children or ()) for n in nodes],
                                    dtype=np.int64)
        self.leaf_tris = np.array(
            [len(n.triangle_indices) if n.triangle_indices is not None else 0
             for n in nodes], dtype=np.int64)
        self._levels = levels

    # -- construction -----------------------------------------------------------
    def _build(self, node: OctreeNode, indices: np.ndarray,
               depth: int) -> None:
        if len(indices) <= self.max_triangles_per_leaf or depth >= self.max_depth:
            node.triangle_indices = indices
            # Loose bounds: grow to cover the binned triangles entirely.
            if len(indices):
                node.bounds = AABB(
                    np.minimum(node.bounds.lo,
                               self._tri_lo[indices].min(axis=0)),
                    np.maximum(node.bounds.hi,
                               self._tri_hi[indices].max(axis=0)),
                )
            self.leaf_count += 1
            return
        node.children = [None] * 8
        center = node.bounds.center
        cent = self._centroids[indices]
        octant = ((cent[:, 0] >= center[0]).astype(np.int64)
                  | ((cent[:, 1] >= center[1]).astype(np.int64) << 1)
                  | ((cent[:, 2] >= center[2]).astype(np.int64) << 2))
        for o in range(8):
            sub = indices[octant == o]
            if len(sub) == 0:
                continue
            child = OctreeNode(node.bounds.octant(o))
            node.children[o] = child
            self.node_count += 1
            self._build(child, sub, depth + 1)

    # -- queries ------------------------------------------------------------
    def query_frustum(self, frustum: Frustum,
                      stats: Optional[TraversalStats] = None) -> np.ndarray:
        """Triangle indices of every leaf intersecting the frustum.

        ``stats`` (if given) accumulates visited/culled node counts for
        the cost model.
        """
        stats = stats if stats is not None else TraversalStats()
        collected: List[np.ndarray] = []
        self._query(self.root, frustum, collected, stats)
        if not collected:
            return np.empty(0, dtype=np.int64)
        out = np.concatenate(collected)
        stats.triangles_collected = len(out)
        return out

    def count_frusta(self, planes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Cull counters of many frusta at once, without collecting.

        ``planes`` holds ``Q`` normalized frusta as ``(Q, 6, 4)`` (see
        :func:`~repro.render.frustum.frustum_planes`).  Returns the
        ``(Q,)`` int64 arrays ``(nodes_visited, triangles)`` that
        :meth:`query_frustum` reports as ``stats.nodes_visited`` and
        ``len(indices)``.  Every node is tested against every frustum
        with the p-vertex arithmetic of :meth:`Frustum._classify_boxes`;
        a node is reached when it and all its ancestors pass.  A query
        visits the root plus every child of each reached internal node,
        and collects the triangles of each reached leaf.
        """
        planes = np.asarray(planes, dtype=np.float64)
        if planes.ndim != 3 or planes.shape[1:] != (6, 4):
            raise ValueError("planes must be (Q, 6, 4)")
        visited = np.empty(len(planes), dtype=np.int64)
        triangles = np.empty(len(planes), dtype=np.int64)
        lo = self.node_lo[None, :, None, :]
        hi = self.node_hi[None, :, None, :]
        for start in range(0, len(planes), CULL_CHUNK):
            chunk = planes[start:start + CULL_CHUNK]
            normals = chunk[:, :, :3]                       # (c, 6, 3)
            # (c, N, 6, 3): hi where the plane normal component is >= 0
            pv = np.where(normals[:, None, :, :] >= 0.0, hi, lo)
            dist = (np.einsum("cnij,cij->cni", pv, normals)
                    + chunk[:, None, :, 3])
            reached = np.all(dist >= -1e-9, axis=2)         # (c, N)
            for first, stop in self._levels[1:]:
                reached[:, first:stop] &= \
                    reached[:, self.node_parent[first:stop]]
            end = start + len(chunk)
            visited[start:end] = 1 + reached @ self.child_count
            triangles[start:end] = reached @ self.leaf_tris
        return visited, triangles

    def _query(self, node: OctreeNode, frustum: Frustum,
               collected: List[np.ndarray], stats: TraversalStats) -> None:
        """Iterative DFS classifying all children of a node in one
        vectorized frustum test.

        Equivalent to the textbook per-node recursion: identical visit
        and cull counts, and leaves are collected in the same depth-first
        octant order (children are pushed in reverse so the stack pops
        them in order, each subtree draining before the next starts).
        """
        stats.nodes_visited += 1
        if not frustum.intersects_aabb(node.bounds):
            stats.nodes_culled += 1
            return
        visited = 0
        culled = 0
        stack = [node]
        pop = stack.pop
        classify = frustum._classify_boxes
        while stack:
            node = pop()
            if node.children is None:
                indices = node.triangle_indices
                if indices is not None and len(indices):
                    collected.append(indices)
                continue
            live = node.live_children
            assert live is not None
            mask = classify(node.child_los, node.child_his)
            k = len(live)
            visited += k
            culled += k - int(mask.sum())
            for i in range(k - 1, -1, -1):
                if mask[i]:
                    stack.append(live[i])
        stats.nodes_visited += visited
        stats.nodes_culled += culled

    def all_triangles(self) -> np.ndarray:
        """Every triangle index, in tree order (sanity checks)."""
        out: List[np.ndarray] = []

        def walk(node: OctreeNode) -> None:
            if node.is_leaf:
                if node.triangle_indices is not None:
                    out.append(node.triangle_indices)
                return
            assert node.children is not None
            for child in node.children:
                if child is not None:
                    walk(child)

        walk(self.root)
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(out)

    @property
    def depth(self) -> int:
        """Actual maximum depth of the built tree."""

        def walk(node: OctreeNode) -> int:
            if node.is_leaf:
                return 0
            assert node.children is not None
            return 1 + max(walk(c) for c in node.children if c is not None)

        return walk(self.root)

    def __repr__(self) -> str:
        return (
            f"<Octree tris={self.mesh.num_triangles} nodes={self.node_count} "
            f"leaves={self.leaf_count}>"
        )
