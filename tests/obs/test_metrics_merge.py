"""Merge algebra of the metrics registry when folding worker registries.

The batch runner folds each worker's registry into the run's with
:meth:`MetricsRegistry.merge`, in whatever order the workers finish.  Two facts proved here make that safe:

* merge is **commutative and associative** for every metric family
  (counters add, gauges max, histograms bucket-wise add) — so out-of-order
  folding of distinct worker registries converges to the same totals;
* counter merge is **not idempotent** (merging the same registry twice
  double-counts) — so each worker result must be folded exactly once.
"""

from __future__ import annotations

import random

from repro.obs.metrics import MetricsRegistry, TIME_BUCKETS


def _random_delta(rng: random.Random) -> dict:
    reg = MetricsRegistry()
    for _ in range(rng.randint(1, 4)):
        reg.inc(f"c.{rng.randint(0, 2)}", rng.randint(1, 5))
    for _ in range(rng.randint(0, 2)):
        reg.max_gauge(f"g.{rng.randint(0, 1)}", rng.uniform(0, 10))
    for _ in range(rng.randint(0, 3)):
        reg.observe("h.t", rng.uniform(0, 2), bounds=TIME_BUCKETS)
    return reg.to_dict()


def _totals(registry: MetricsRegistry) -> dict:
    data = registry.to_dict()
    hist = data["histograms"].get("h.t")
    return {
        "counters": data["counters"],
        "gauges": {k: round(v, 9) for k, v in data["gauges"].items()},
        "hist_counts": tuple(hist["counts"]) if hist else None,
        "hist_sum": round(hist["sum"], 9) if hist else None,
    }


def _merged(deltas) -> dict:
    registry = MetricsRegistry()
    for delta in deltas:
        registry.merge(delta)
    return _totals(registry)


class TestMergeAlgebra:
    def test_commutative_any_order(self):
        rng = random.Random(7)
        deltas = [_random_delta(rng) for _ in range(6)]
        reference = _merged(deltas)
        for seed in range(5):
            shuffled = list(deltas)
            random.Random(seed).shuffle(shuffled)
            assert _merged(shuffled) == reference

    def test_associative_grouping(self):
        rng = random.Random(11)
        deltas = [_random_delta(rng) for _ in range(4)]
        # (((a+b)+c)+d)  vs  (a+b) + (c+d) pre-combined.
        left = MetricsRegistry()
        for delta in deltas:
            left.merge(delta)
        ab = MetricsRegistry()
        ab.merge(deltas[0])
        ab.merge(deltas[1])
        cd = MetricsRegistry()
        cd.merge(deltas[2])
        cd.merge(deltas[3])
        grouped = MetricsRegistry()
        grouped.merge(ab)
        grouped.merge(cd)
        assert _totals(grouped) == _totals(left)

    def test_counter_merge_not_idempotent(self):
        delta = _random_delta(random.Random(3))
        once = _merged([delta])
        twice = _merged([delta, delta])
        assert once != twice  # why each worker result is folded once

    def test_gauge_merge_is_idempotent(self):
        reg = MetricsRegistry()
        reg.max_gauge("g", 5.0)
        delta = reg.to_dict()
        target = MetricsRegistry()
        target.merge(delta)
        target.merge(delta)
        assert target.gauge("g") == 5.0
