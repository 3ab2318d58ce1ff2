"""MetricsRegistry unit tests: recording, merging, serialisation."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry


class TestHistogram:
    def test_observe_and_summary(self):
        hist = Histogram(bounds=(1, 10, 100))
        for value in (0, 1, 5, 50, 500):
            hist.observe(value)
        assert hist.count == 5
        assert hist.total == 556
        assert hist.vmin == 0
        assert hist.vmax == 500
        assert hist.mean == pytest.approx(556 / 5)
        # counts: <=1, <=10, <=100, overflow
        assert hist.counts == [2, 1, 1, 1]

    def test_merge_bucketwise(self):
        a = Histogram(bounds=(1, 10))
        b = Histogram(bounds=(1, 10))
        a.observe(0)
        b.observe(5)
        b.observe(100)
        a.merge(b)
        assert a.count == 3
        assert a.counts == [1, 1, 1]
        assert a.vmin == 0
        assert a.vmax == 100

    def test_merge_rejects_different_buckets(self):
        a = Histogram(bounds=(1, 10))
        b = Histogram(bounds=(1, 100))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1, 1, 2))

    def test_dict_round_trip(self):
        hist = Histogram()
        hist.observe(3)
        hist.observe(70000)
        clone = Histogram.from_dict(json.loads(json.dumps(hist.to_dict())))
        assert clone.to_dict() == hist.to_dict()


class TestRegistry:
    def test_counters_gauges_series(self):
        reg = MetricsRegistry()
        reg.inc("cec.sat_queries")
        reg.inc("cec.sat_queries", 4)
        reg.set_gauge("cec.n_units", 2)
        reg.max_gauge("bdd.peak_nodes", 10)
        reg.max_gauge("bdd.peak_nodes", 5)  # lower: ignored
        assert reg.counter("cec.sat_queries") == 5
        assert reg.counter("never.seen") == 0
        assert reg.gauge("cec.n_units") == 2
        assert reg.gauge("bdd.peak_nodes") == 10
        # Series went in 1.5.0: a pre-1.5.0 dict's series are dropped.
        older = {**reg.to_dict(), "series": {"x.samples": [0.5]}}
        assert MetricsRegistry.from_dict(older).to_dict() == reg.to_dict()
        assert "series" not in reg.to_dict()
        assert bool(reg)
        assert not bool(MetricsRegistry())

    def test_merge_semantics(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.inc("c", 1)
        b.inc("c", 2)
        a.set_gauge("g", 5)
        b.set_gauge("g", 3)  # lower: merge keeps the peak
        a.observe("h", 1)
        b.observe("h", 1000)
        a.merge(b)
        assert a.counter("c") == 3
        assert a.gauge("g") == 5
        assert a.histogram("h").count == 2
        # An older --metrics-out file's ``series`` key is accepted and
        # ignored.
        a.merge({"counters": {"c": 1}, "series": {"s": [0.1, 0.2]}})
        assert a.counter("c") == 4
        assert "s" not in a.names()

    def test_json_round_trip_cross_process_shape(self):
        reg = MetricsRegistry()
        reg.inc("sat.calls", 7)
        reg.observe("sat.conflicts_per_call", 12, bounds=DEFAULT_BUCKETS)
        reg.set_gauge("cec.n_units", 3)
        clone = MetricsRegistry.from_json(reg.to_json())
        assert clone.to_dict() == reg.to_dict()
        assert clone.names() == reg.names()

    def test_as_flat_dict(self):
        reg = MetricsRegistry()
        reg.inc("sat.calls", 2)
        reg.observe("sat.conflicts_per_call", 10)
        reg.observe("sat.conflicts_per_call", 30)
        flat = reg.as_flat_dict()
        assert flat["sat.calls"] == 2
        assert flat["sat.conflicts_per_call.count"] == 2
        assert flat["sat.conflicts_per_call.sum"] == 40
        assert flat["sat.conflicts_per_call.mean"] == 20
        assert flat["sat.conflicts_per_call.max"] == 30
        prefixed = reg.as_flat_dict(prefix="x.")
        assert set(prefixed) == {"x." + k for k in flat}
