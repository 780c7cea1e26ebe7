"""The batched split cull (``Octree.count_frusta`` behind
``Renderer.profiles``) against the per-node octree walk it replaces.

``Octree.query_frustum`` stays the oracle: for every frustum the batched
``nodes_visited`` must equal the walk's ``TraversalStats.nodes_visited``
and the batched triangle count the walk's ``len(indices)``, exactly —
the counts feed the render cost model, so one differing node would move
simulated times.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.pipeline import WalkthroughWorkload
from repro.render import (
    Camera,
    Frustum,
    Renderer,
    TraversalStats,
    Viewport,
    build_city,
    strip_view_proj,
)
from repro.render.frustum import frustum_planes
from repro.render.scene import CityConfig


def oracle(renderer, camera, strip_index, num_strips):
    """(nodes_visited, triangles, nodes_culled) of the per-node walk."""
    stats = TraversalStats()
    indices = renderer.visible_triangles(camera, strip_index, num_strips,
                                         stats)
    assert stats.triangles_collected == len(indices)
    return stats.nodes_visited, len(indices), stats.nodes_culled


def strip_viewports(num_strips, side=64):
    return [Viewport(side, side) for _ in range(num_strips)]


def test_every_walkthrough_key_matches_the_octree_walk():
    """All 11,200 keys of the paper's workload: 400 frames, 400-pixel
    side, the 1..7-strip splits."""
    workload = WalkthroughWorkload(frames=400, image_side=400)
    renderer = workload.renderer
    mismatches = []
    for num_strips in range(1, 8):
        split = workload.split(num_strips)
        assert split.nodes_visited.shape == (400, num_strips)
        for frame in range(400):
            camera = workload.path.camera_at(frame)
            for strip in range(num_strips):
                visited, tris, _ = oracle(renderer, camera, strip,
                                          num_strips)
                got = (int(split.nodes_visited[frame, strip]),
                       int(split.triangles_in_view[frame, strip]))
                if got != (visited, tris):
                    mismatches.append((frame, strip, num_strips, got,
                                       (visited, tris)))
    assert mismatches == []


@lru_cache(maxsize=None)
def small_renderer(seed, leaf):
    return Renderer(build_city(CityConfig(blocks=3, seed=seed)),
                    max_triangles_per_leaf=leaf)


def unit(v):
    return v / np.linalg.norm(v)


def can_look(eye, target):
    """``look_at`` needs a view direction off the +y up axis."""
    forward = target - eye
    return (np.linalg.norm(forward) > 1e-3
            and np.linalg.norm(np.cross(unit(forward), [0.0, 1.0, 0.0]))
            > 1e-3)


vec3 = st.tuples(*[st.floats(-60.0, 60.0)] * 3).map(np.array)
scenes = st.tuples(st.integers(0, 5), st.sampled_from([1, 4, 16, 64, 4096]))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scene=scenes, eyes=st.lists(vec3, min_size=1, max_size=5),
       target=vec3, fov=st.floats(5.0, 170.0),
       num_strips=st.integers(1, 16))
def test_random_cameras_match_the_octree_walk(scene, eyes, target, fov,
                                              num_strips):
    renderer = small_renderer(*scene)
    cameras = [Camera(eye=eye, target=target, fov_y_deg=fov)
               for eye in eyes if can_look(eye, target)]
    if not cameras:
        return
    split = renderer.profiles(np.stack([c.view_proj() for c in cameras]),
                              strip_viewports(num_strips), num_strips)
    for q, camera in enumerate(cameras):
        for strip in range(num_strips):
            visited, tris, _ = oracle(renderer, camera, strip, num_strips)
            assert int(split.nodes_visited[q, strip]) == visited
            assert int(split.triangles_in_view[q, strip]) == tris


@settings(max_examples=30, deadline=None)
@given(scene=scenes,
       direction=vec3.filter(lambda v: can_look(np.zeros(3), v)),
       fov=st.floats(5.0, 120.0), num_strips=st.integers(1, 16))
def test_cameras_facing_away_cull_the_root(scene, direction, fov,
                                           num_strips):
    """An eye farther from the scene centre than any scene point,
    looking straight away: the root fails its near plane."""
    renderer = small_renderer(*scene)
    bounds = renderer.octree.root.bounds
    away = unit(direction)
    radius = np.linalg.norm(bounds.extent) / 2.0
    eye = bounds.center + away * (radius + 1.0)
    camera = Camera(eye=eye, target=eye + away, fov_y_deg=fov)
    split = renderer.profiles(camera.view_proj()[None],
                              strip_viewports(num_strips), num_strips)
    for strip in range(num_strips):
        assert oracle(renderer, camera, strip, num_strips) == (1, 0, 1)
        assert int(split.nodes_visited[0, strip]) == 1
        assert int(split.triangles_in_view[0, strip]) == 0
        assert split.at(0, strip).culled_everything


def test_single_key_profile_is_a_batch_of_one():
    renderer = small_renderer(0, 16)
    camera = Camera(eye=np.array([30.0, 8.0, 30.0]),
                    target=np.zeros(3))
    viewport = Viewport(64, 64, y_start=0, height=16)
    for num_strips in (1, 4):
        for strip in range(num_strips):
            profile = renderer.profile(camera, viewport, strip, num_strips)
            visited, tris, _ = oracle(renderer, camera, strip, num_strips)
            assert (profile.nodes_visited, profile.triangles_in_view) == \
                (visited, tris)
            assert profile.pixels == viewport.pixels


def test_batched_planes_equal_the_frustum_planes_bitwise():
    rng = np.random.default_rng(7)
    cameras = [Camera(eye=rng.uniform(-50, 50, 3), target=np.zeros(3))
               for _ in range(9)]
    vps = np.stack([c.view_proj() for c in cameras])
    for num_strips in (1, 3):
        for strip in range(num_strips):
            mats = strip_view_proj(vps, strip, num_strips)
            expected = np.stack([
                Frustum.from_view_proj(
                    strip_view_proj(vp, strip, num_strips)).planes
                for vp in vps])
            assert np.array_equal(frustum_planes(mats), expected)


def test_degenerate_matrix_raises_the_frustum_error():
    degenerate = np.zeros((4, 4))
    with pytest.raises(ValueError, match="degenerate frustum plane"):
        Frustum.from_view_proj(degenerate)
    with pytest.raises(ValueError, match="degenerate frustum plane"):
        frustum_planes(np.stack([np.eye(4), degenerate]))
    renderer = small_renderer(0, 16)
    with pytest.raises(ValueError, match="degenerate frustum plane"):
        renderer.profiles(degenerate[None], strip_viewports(2), 2)


def test_shape_validation():
    renderer = small_renderer(0, 16)
    with pytest.raises(ValueError):
        frustum_planes(np.eye(4))
    with pytest.raises(ValueError):
        renderer.octree.count_frusta(np.zeros((6, 4)))
    with pytest.raises(ValueError):
        renderer.profiles(np.eye(4)[None], strip_viewports(2), 3)
