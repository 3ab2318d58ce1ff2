"""A metrics registry: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` is the canonical sink for everything the
verification stack counts — SAT conflicts/propagations/decisions per
call, BDD node growth and blow-ups, sweep and cascade outcomes,
per-phase wall time — replacing the ad-hoc stats-dict plumbing while
still flattening back to the numeric ``CheckResult.stats`` form the rest
of the repo (and its tests) rely on.

Metric kinds:

* **counter** — monotonically increasing float (``inc``);
* **gauge** — last-write-wins value (``set_gauge`` / ``max_gauge``);
* **histogram** — fixed bucket boundaries, cumulative-style counts plus
  count/sum/min/max (``observe``); bucket layouts never change at
  runtime, so worker histograms merge bucket-by-bucket.

Registries serialise to plain JSON (:meth:`MetricsRegistry.to_dict` /
:meth:`from_dict`) so batch workers can collect their own metrics and
ship them back with the job result for :meth:`merge`.

Naming convention (see ``docs/OBSERVABILITY.md`` for the catalog):
dot-separated lowercase paths, ``<subsystem>.<area>.<what>``, e.g.
``cec.sweep.merges``, ``sat.conflicts_per_call``, ``bdd.peak_nodes``.
"""

from __future__ import annotations

import bisect
import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = ["Histogram", "MetricsRegistry", "DEFAULT_BUCKETS", "TIME_BUCKETS"]

#: Effort-style histogram boundaries (conflicts, propagations, decisions,
#: node counts): powers of four from 1 to ~10^6, then overflow.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0, 1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576
)

#: Wall-time histogram boundaries in seconds.
TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0, 300.0
)


class Histogram:
    """Fixed-bucket histogram; ``counts[i]`` counts values ≤ ``bounds[i]``
    (non-cumulative per-bucket counts, with one overflow bucket at the end).
    """

    __slots__ = ("bounds", "counts", "count", "total", "vmin", "vmax")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        self.vmin = value if self.vmin is None else min(self.vmin, value)
        self.vmax = value if self.vmax is None else max(self.vmax, value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of observed samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def merge(self, other: Union["Histogram", Mapping[str, Any]]) -> None:
        """Fold another histogram (same bucket layout) into this one."""
        if isinstance(other, Histogram):
            data = other.to_dict()
        else:
            data = dict(other)
        if tuple(data.get("bounds", ())) != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(data.get("counts", ())):
            self.counts[i] += int(c)
        self.count += int(data.get("count", 0))
        self.total += float(data.get("sum", 0.0))
        for key, fold in (("min", min), ("max", max)):
            value = data.get(key)
            if value is None:
                continue
            mine = self.vmin if key == "min" else self.vmax
            folded = float(value) if mine is None else fold(mine, float(value))
            if key == "min":
                self.vmin = folded
            else:
                self.vmax = folded

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (the shape :meth:`merge` accepts)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Histogram":
        """Rebuild a histogram from its :meth:`to_dict` form."""
        hist = cls(tuple(data.get("bounds", DEFAULT_BUCKETS)))
        hist.merge(data)
        return hist


class MetricsRegistry:
    """Named counters/gauges/histograms with JSON round-tripping."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def inc(self, name: str, by: float = 1) -> None:
        """Increment a counter."""
        self._counters[name] = self._counters.get(name, 0) + by

    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge (last write wins)."""
        self._gauges[name] = float(value)

    def max_gauge(self, name: str, value: float) -> None:
        """Raise a gauge to ``value`` if it is higher (peak tracking)."""
        value = float(value)
        if value > self._gauges.get(name, float("-inf")):
            self._gauges[name] = value

    def observe(
        self,
        name: str,
        value: float,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        """Record a histogram sample (buckets fixed on first observation)."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(bounds)
        hist.observe(value)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        """Current counter value (0 when never incremented)."""
        return self._counters.get(name, 0)

    def gauge(self, name: str, default: float = 0.0) -> float:
        """Current gauge value."""
        return self._gauges.get(name, default)

    def histogram(self, name: str) -> Optional[Histogram]:
        """The named histogram, or None."""
        return self._histograms.get(name)

    def names(self) -> List[str]:
        """All metric names, sorted."""
        return sorted(
            set(self._counters) | set(self._gauges) | set(self._histograms)
        )

    def __bool__(self) -> bool:
        return bool(self._counters or self._gauges or self._histograms)

    # ------------------------------------------------------------------
    # aggregation / serialisation
    # ------------------------------------------------------------------
    def merge(
        self, other: Union["MetricsRegistry", Mapping[str, Any]]
    ) -> None:
        """Fold another registry (or its :meth:`to_dict` form) into this one.

        Counters add, gauges take the max (the merge use cases — worker
        peaks, per-row peaks — all want peaks), histograms merge
        bucket-wise.  A ``series`` key, written by registries before
        1.5.0, is ignored.
        """
        data = other.to_dict() if isinstance(other, MetricsRegistry) else other
        for name, value in (data.get("counters") or {}).items():
            self.inc(name, value)
        for name, value in (data.get("gauges") or {}).items():
            self.max_gauge(name, value)
        for name, hist in (data.get("histograms") or {}).items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = Histogram.from_dict(hist)
            else:
                mine.merge(hist)

    def to_dict(self) -> Dict[str, Any]:
        """Structured JSON-able form (the shape :meth:`merge` accepts)."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: hist.to_dict()
                for name, hist in self._histograms.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from its :meth:`to_dict` form."""
        registry = cls()
        registry.merge(data)
        return registry

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricsRegistry":
        """Rebuild a registry from its :meth:`to_json` serialisation."""
        return cls.from_dict(json.loads(text))

    def as_flat_dict(self, prefix: str = "") -> Dict[str, float]:
        """Flatten to numeric key/value pairs (histograms → summary keys).

        A histogram ``h`` contributes ``h.count``, ``h.sum``, ``h.mean``
        and ``h.max``.  This is the form metrics snapshots take inside trace files.
        """
        flat: Dict[str, float] = {}
        for name, value in self._counters.items():
            flat[prefix + name] = value
        for name, value in self._gauges.items():
            flat[prefix + name] = value
        for name, hist in self._histograms.items():
            flat[prefix + name + ".count"] = hist.count
            flat[prefix + name + ".sum"] = hist.total
            flat[prefix + name + ".mean"] = hist.mean
            if hist.vmax is not None:
                flat[prefix + name + ".max"] = hist.vmax
        return flat
