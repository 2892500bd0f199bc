"""Deterministic metrics primitives: counters, gauges and histograms.

A :class:`MetricsRegistry` is a plain in-process container — no threads, no
global state, no clocks.  Each orchestrator worker process populates its own
registry (one per seed scope, see :mod:`repro.telemetry.runtime`), serializes
it with :meth:`MetricsRegistry.to_json`, and ships it to the parent inside
the seed batch; the parent folds payloads back in with
:meth:`MetricsRegistry.merge_json` **in seed order**, so a parallel campaign
merges to exactly the per-seed totals a serial campaign accumulates.

Histograms use *fixed* bucket edges chosen at creation time (default
:data:`DEFAULT_TIME_EDGES`).  Fixed edges are what makes the merge
deterministic: bucket counts are integers and add associatively, unlike any
adaptive-bucketing scheme.  Observation *sums* are floats and therefore
excluded from :meth:`MetricsRegistry.deterministic_totals`, the projection
used by the parallel-equals-serial acceptance test.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, Optional, Sequence, Tuple

#: Default histogram edges for stage durations, in seconds.  Spanning 0.5ms
#: to 10s covers everything from a single cached compile to a full reduction.
DEFAULT_TIME_EDGES: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A point-in-time value; merges take the maximum across processes."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-edge histogram: ``len(edges) + 1`` buckets plus count/sum/min/max.

    ``counts[i]`` holds observations ``<= edges[i]``; the final bucket is the
    overflow (``> edges[-1]``).
    """

    __slots__ = ("name", "edges", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str,
                 edges: Sequence[float] = DEFAULT_TIME_EDGES) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ValueError(f"histogram {name!r} needs sorted non-empty edges")
        self.name = name
        self.edges = tuple(float(edge) for edge in edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.edges, value)] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)


class MetricsRegistry:
    """Named counters, gauges and histograms with deterministic merge.

    Example::

        registry = MetricsRegistry()
        registry.inc("cache.hits")
        registry.observe("stage.execute.seconds", 0.012)
        payload = registry.to_json()          # in a worker
        parent_registry.merge_json(payload)   # in the parent, in seed order
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str,
                  edges: Sequence[float] = DEFAULT_TIME_EDGES) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, edges)
        elif histogram.edges != tuple(edges):
            raise ValueError(f"histogram {name!r} already exists with "
                             f"different edges")
        return histogram

    # -- shorthands -------------------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float,
                edges: Sequence[float] = DEFAULT_TIME_EDGES) -> None:
        self.histogram(name, edges).observe(value)

    # -- serialization and merge ------------------------------------------------------

    def to_json(self) -> dict:
        """A JSON-safe snapshot, keys sorted for stable output."""
        return {
            "counters": {name: counter.value
                         for name, counter in sorted(self._counters.items())},
            "gauges": {name: gauge.value
                       for name, gauge in sorted(self._gauges.items())},
            "histograms": {
                name: {
                    "edges": list(histogram.edges),
                    "counts": list(histogram.counts),
                    "count": histogram.count,
                    "sum": histogram.sum,
                    "min": histogram.min,
                    "max": histogram.max,
                }
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def merge_json(self, payload: Optional[dict]) -> None:
        """Fold a :meth:`to_json` payload into this registry.

        Counters and histogram bucket counts add; gauges keep the maximum;
        histogram min/max combine.  Merging the same payloads in the same
        order always produces the same integer totals — float sums are the
        only order-sensitive figures, and they are excluded from
        :meth:`deterministic_totals` for exactly that reason.
        """
        if not payload:
            return
        for name, value in payload.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in payload.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.set(max(gauge.value, value))
        for name, data in payload.get("histograms", {}).items():
            histogram = self.histogram(name, data["edges"])
            for index, count in enumerate(data["counts"]):
                histogram.counts[index] += count
            histogram.count += data["count"]
            histogram.sum += data["sum"]
            for bound, pick in (("min", min), ("max", max)):
                theirs = data.get(bound)
                if theirs is None:
                    continue
                ours = getattr(histogram, bound)
                setattr(histogram, bound,
                        theirs if ours is None else pick(ours, theirs))

    @classmethod
    def from_json(cls, payload: Optional[dict]) -> "MetricsRegistry":
        registry = cls()
        registry.merge_json(payload)
        return registry

    def deterministic_totals(self) -> Dict[str, int]:
        """The integer projection compared by the determinism tests.

        Counters plus histogram observation counts.  What the seeds record
        is bit-identical between a serial and a parallel run of the same
        campaign; the cache accounting of parent-side triage is not, since
        a serial campaign triages on the cache its seeds warmed.  Durations
        (float sums) are deliberately excluded.
        """
        totals = {name: counter.value
                  for name, counter in sorted(self._counters.items())}
        for name, histogram in sorted(self._histograms.items()):
            totals[f"{name}.count"] = histogram.count
        return totals

    def counter_value(self, name: str) -> int:
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def names(self) -> Iterable[str]:
        return sorted({*self._counters, *self._gauges, *self._histograms})
