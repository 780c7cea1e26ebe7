"""Tests for the hierarchical counter registry."""

import pytest

from repro.telemetry import Counter, CounterRegistry, Gauge, Histogram


def test_counter_is_monotonic():
    c = Counter("mesh.bytes")
    c.inc()
    c.inc(41.0)
    assert c.value == pytest.approx(42.0)
    with pytest.raises(ValueError):
        c.inc(-1.0)


def test_gauge_moves_both_ways():
    g = Gauge("occupancy")
    g.set(5.0)
    g.add(-2.0)
    assert g.value == pytest.approx(3.0)


def test_histogram_wraps_stat_accumulator():
    h = Histogram("latency")
    for v in (1.0, 2.0, 3.0):
        h.observe(v)
    assert h.count == 3
    summary = h.summary()
    assert summary["mean"] == pytest.approx(2.0)
    assert summary["median"] == pytest.approx(2.0)


def test_registry_creates_on_first_use():
    reg = CounterRegistry()
    reg.inc("a.b.c", 2.0)
    reg.set_gauge("a.gauge", 7.0)
    reg.observe("a.hist", 1.5)
    assert len(reg) == 3
    assert "a.b.c" in reg
    assert reg.value("a.b.c") == pytest.approx(2.0)
    assert reg.value("a.gauge") == pytest.approx(7.0)


def test_registry_one_name_one_kind():
    reg = CounterRegistry()
    reg.inc("x")
    with pytest.raises(TypeError):
        reg.gauge("x")
    with pytest.raises(TypeError):
        reg.histogram("x")


def test_registry_value_rejects_histograms():
    reg = CounterRegistry()
    reg.observe("h", 1.0)
    with pytest.raises(TypeError):
        reg.value("h")
    with pytest.raises(KeyError):
        reg.get("missing")


def test_registry_glob_match():
    reg = CounterRegistry()
    reg.inc("mesh.link.0,0->1,0.bytes", 10)
    reg.inc("mesh.link.1,0->2,0.bytes", 20)
    reg.inc("dram.mc0.bytes", 5)
    links = reg.match("mesh.link.*.bytes")
    assert sorted(links) == ["mesh.link.0,0->1,0.bytes",
                             "mesh.link.1,0->2,0.bytes"]
    assert list(reg.match("dram.mc*")) == ["dram.mc0.bytes"]


def test_as_dict_groups_by_kind():
    reg = CounterRegistry()
    reg.inc("c", 3.0)
    reg.set_gauge("g", -1.0)
    reg.histogram("h_empty")
    reg.observe("h", 2.0)
    d = reg.as_dict()
    assert d["counters"] == {"c": 3.0}
    assert d["gauges"] == {"g": -1.0}
    assert d["histograms"]["h_empty"] == {"count": 0.0}
    assert d["histograms"]["h"]["count"] == 1


def test_csv_rows_expand_histograms():
    reg = CounterRegistry()
    reg.inc("c", 1.0)
    reg.observe("h", 4.0)
    reg.observe("h", 6.0)
    rows = {name: (kind, value) for name, kind, value in reg.csv_rows()}
    assert rows["c"] == ("counter", 1.0)
    assert rows["h.count"] == ("histogram", 2.0)
    assert rows["h.mean"] == ("histogram", 5.0)
    assert rows["h.total"] == ("histogram", 10.0)


def test_snapshot_merge_round_trips_histogram_samples():
    samples = [0.1, 0.7, 0.2, 1e-9, 0.30000000000000004]
    worker = CounterRegistry()
    for v in samples:
        worker.observe("stage.latency", v)
    worker.inc("frames", 5)
    snap = worker.snapshot()
    assert snap["histograms"] == {"stage.latency": samples}
    merged = CounterRegistry()
    merged.merge_snapshot(snap)
    merged.merge_snapshot(snap)
    stats = merged.get("stage.latency").stats
    assert stats.samples == samples + samples
    expected = sorted(samples + samples)
    assert stats.quartiles() == (expected[2] * 0.75 + expected[3] * 0.25,
                                 expected[4] * 0.5 + expected[5] * 0.5,
                                 expected[6] * 0.25 + expected[7] * 0.75)
    assert merged.value("frames") == 10.0
