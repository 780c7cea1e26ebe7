"""Tests for the walkthrough workload and strip geometry."""

import pytest

from repro.pipeline import WalkthroughWorkload, default_workload


@pytest.fixture(scope="module")
def workload():
    return WalkthroughWorkload(frames=16, image_side=400)


def test_validation():
    with pytest.raises(ValueError):
        WalkthroughWorkload(frames=0)
    with pytest.raises(ValueError):
        WalkthroughWorkload(image_side=0)


def test_viewport_strips_cover_frame(workload):
    for n in (1, 2, 3, 5, 7, 8):
        total_rows = 0
        prev_end = 0
        for s in range(n):
            vp = workload.viewport(s, n)
            assert vp.y_start == prev_end
            prev_end = vp.y_start + vp.height
            total_rows += vp.height
        assert total_rows == 400


def test_viewport_validation(workload):
    with pytest.raises(ValueError):
        workload.viewport(0, 0)
    with pytest.raises(ValueError):
        workload.viewport(3, 3)


def test_strip_bytes_sum_to_frame(workload):
    for n in (1, 3, 7):
        total = sum(workload.strip_bytes(s, n) for s in range(n))
        assert total == workload.frame_bytes() == 400 * 400 * 4


def test_uneven_split_spreads_remainder(workload):
    # 400 rows over 7 strips: 57*3 + 57... -> heights differ by <= 1.
    heights = [workload.viewport(s, 7).height for s in range(7)]
    assert sum(heights) == 400
    assert max(heights) - min(heights) <= 1


def test_profile_bounds(workload):
    with pytest.raises(ValueError):
        workload.profile(16)
    p = workload.profile(0)
    assert p.pixels == 160_000
    assert p.triangles_in_view > 0


def test_profile_memoized(workload):
    a = workload.profile(1, 0, 4)
    b = workload.profile(1, 0, 4)
    assert a is b


def test_strip_profiles_smaller_pixels(workload):
    full = workload.profile(2)
    strip = workload.profile(2, 0, 4)
    assert strip.pixels == full.pixels // 4


def test_strip_culling_barely_shrinks_triangles(workload):
    """The calibration assumption: a strip sub-frustum still collects
    nearly all visible triangles (tall buildings cross every strip)."""
    full = workload.profile(3)
    worst = max(workload.profile(3, s, 7).triangles_in_view
                for s in range(7))
    assert worst >= 0.85 * full.triangles_in_view


def test_mean_full_frame_profile(workload):
    mean = workload.mean_full_frame_profile()
    assert mean.pixels == 160_000
    assert 0 < mean.triangles_in_view <= workload.renderer.mesh.num_triangles


def test_default_workload_is_shared():
    a = default_workload()
    b = default_workload()
    assert a is b
    assert a.frames == 400
    assert a.image_side == 400


def test_workload_repr(workload):
    assert "side=400" in repr(workload)


def test_profile_validation(workload):
    with pytest.raises(ValueError):
        workload.profile(0, 4, 4)
    with pytest.raises(ValueError):
        workload.profile(0, -1, 4)
    with pytest.raises(ValueError):
        workload.profile(0, 0, 0)


def test_split_memo_holds_one_entry_per_strip_count():
    small = WalkthroughWorkload(frames=16, image_side=400)
    small.profile(3, 1, 4)
    small.profile(5, 3, 4)
    assert sorted(small._splits) == [4]
    small.profile(0)
    assert sorted(small._splits) == [1, 4]
    split = small.split(4)
    assert split is small._splits[4]
    for counts in (split.nodes_visited, split.triangles_in_view):
        assert counts.shape == (16, 4)
        assert counts.dtype.kind == "i"
    for f in range(16):
        for s in range(4):
            p = small.profile(f, s, 4)
            assert p.nodes_visited == split.nodes_visited[f, s]
            assert p.triangles_in_view == split.triangles_in_view[f, s]
            assert p.pixels == small.viewport(s, 4).pixels
            assert p.culled_everything == (p.triangles_in_view == 0)


def test_split_memo_culls_each_split_once_and_never_per_key():
    small = WalkthroughWorkload(frames=8, image_side=64)
    renderer = small.renderer
    batch = renderer.profiles
    calls = []

    def counting_profiles(*args, **kwargs):
        calls.append(args[2])
        return batch(*args, **kwargs)

    def per_key_profile(*args, **kwargs):
        pytest.fail("the workload culled a single key")

    renderer.profiles = counting_profiles
    renderer.profile = per_key_profile
    for _ in range(2):
        for n in (1, 3, 2):
            for f in range(8):
                for s in range(n):
                    small.profile(f, s, n)
        small.mean_full_frame_profile()
    assert calls == [1, 3, 2]


def oracle_profile(workload, frame, strip, num_strips):
    """The per-key octree walk the split cull replaces."""
    from repro.render import TraversalStats

    camera = workload.path.camera_at(frame)
    stats = TraversalStats()
    indices = workload.renderer.visible_triangles(camera, strip, num_strips,
                                                  stats)
    return stats.nodes_visited, len(indices)


def test_concurrent_profiles_cull_each_split_once():
    """Threads sharing a workload (the service's executor) must not cull
    the same split twice, and must see the per-key octree walk's
    counters."""
    import sys
    import threading
    import time

    frames = 6
    keys = [(f, s, n) for f in range(frames) for n in (1, 2, 3)
            for s in range(n)]
    reference = WalkthroughWorkload(frames=frames, image_side=32)
    expected = {k: oracle_profile(reference, *k) for k in keys}

    shared = WalkthroughWorkload(frames=frames, image_side=32)
    renderer = shared.renderer
    cull = renderer.profiles
    calls = []

    def counting_profiles(*args, **kwargs):
        calls.append(args[2])
        time.sleep(0.002)  # widen the miss window across threads
        return cull(*args, **kwargs)

    renderer.profiles = counting_profiles
    workers = 4  # more threads than the CI hosts' cores
    barrier = threading.Barrier(workers)
    seen = [{} for _ in range(workers)]

    def worker(i):
        barrier.wait()
        for k in keys:
            seen[i][k] = shared.profile(*k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(calls) == [1, 2, 3]
    for got in seen:
        assert {k: (p.nodes_visited, p.triangles_in_view)
                for k, p in got.items()} == expected
