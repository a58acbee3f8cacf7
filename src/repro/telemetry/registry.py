"""Metric instruments and the registry that owns them.

The registry is deliberately Prometheus-shaped: a *family* is a named
metric of one kind (counter, gauge, histogram) and a family holds one
*series* per distinct label set.  Instruments are plain attribute-bag
objects whose hot methods (``inc``/``set``/``observe``) do nothing but
arithmetic, so a registry-backed counter costs about what a bare integer
attribute would.  There is one kind of registry: instruments are just
numbers in memory, so every component counts into a real one.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import TelemetryError


#: label sets are canonicalized to a sorted tuple of (key, value) pairs
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


#: default histogram buckets for simulated-seconds latencies (20 µs local
#: visits up to whole-second migrations)
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3,
    1e-2, 2e-2, 5e-2, 1e-1, 2e-1, 5e-1, 1.0, 2.0, 5.0,
)

#: default buckets for payload sizes in bytes
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    64, 128, 256, 512, 1024, 4096, 16384, 65536, 262144, 1048576,
)


class Counter:
    """Monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Gauge:
    """Point-in-time value (weights, queue depths, edge-cut)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram: cumulative-style export, O(log b) observe."""

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "sum")

    def __init__(self, name: str, labels: LabelKey, bounds: Sequence[float]):
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(bounds)
        #: one slot per finite upper bound plus the +Inf overflow slot
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record ``value`` with Prometheus ``le`` (less-or-EQUAL) semantics.

        ``bisect_left`` returns the first bound >= value, so an
        observation landing exactly on a bucket bound counts toward that
        bound's bucket, not the next one — ``observe(0.1)`` increments
        ``le="0.1"``.  A ``bisect_right`` here would silently flip every
        on-bound observation into the next bucket and desynchronize the
        exposition from real Prometheus clients.
        """
        self.count += 1
        self.sum += value
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    def observe_many(self, values: Sequence[float]) -> None:
        """:meth:`observe` each value in turn (the same sum, in order)."""
        total = self.sum
        bucket_counts, bounds = self.bucket_counts, self.bounds
        for value in values:
            total += value
            bucket_counts[bisect_left(bounds, value)] += 1
        self.sum = total
        self.count += len(values)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, Prometheus ``le`` style."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, in_bucket in zip(self.bounds, self.bucket_counts):
            running += in_bucket
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out


class _Family:
    __slots__ = ("name", "kind", "help", "bounds", "series")

    def __init__(self, name: str, kind: str, help: str, bounds=None):
        self.name = name
        self.kind = kind
        self.help = help
        self.bounds = bounds
        self.series: Dict[LabelKey, object] = {}


class MetricsRegistry:
    """Owns every metric family; get-or-create access by name + labels."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # ------------------------------------------------------------------
    def _series(self, name: str, kind: str, help: str, labels, bounds=None):
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help, bounds)
            self._families[name] = family
        elif family.kind != kind:
            raise TelemetryError(
                f"metric {name!r} already registered as {family.kind}, not {kind}"
            )
        key = _label_key(labels)
        instrument = family.series.get(key)
        if instrument is None:
            if kind == "counter":
                instrument = Counter(name, key)
            elif kind == "gauge":
                instrument = Gauge(name, key)
            else:
                instrument = Histogram(name, key, family.bounds)
            family.series[key] = instrument
        return instrument

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._series(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._series(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        **labels,
    ) -> Histogram:
        family = self._families.get(name)
        if family is None:
            source = DEFAULT_TIME_BUCKETS if buckets is None else buckets
            bounds = tuple(sorted(source))
            if not bounds:
                raise TelemetryError(f"histogram {name!r} needs at least one bucket")
        else:
            bounds = family.bounds
        return self._series(name, "histogram", help, labels, bounds)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def families(self) -> Iterator[_Family]:
        return iter(self._families.values())

    def value(self, name: str, **labels) -> float:
        """Read one counter/gauge series (0.0 when it never existed)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        instrument = family.series.get(_label_key(labels))
        return instrument.value if instrument is not None else 0.0

    def total(self, name: str, **label_filter) -> float:
        """Sum a counter/gauge family across series matching the filter."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        wanted = _label_key(label_filter)
        total = 0.0
        for key, instrument in family.series.items():
            if all(pair in key for pair in wanted):
                total += instrument.value
        return total

    def snapshot(self) -> List[Dict[str, object]]:
        """JSON-able dump of every series (the JSONL ``metric`` records)."""
        samples: List[Dict[str, object]] = []
        for family in self._families.values():
            for key, instrument in sorted(family.series.items()):
                record: Dict[str, object] = {
                    "name": family.name,
                    "kind": family.kind,
                    "labels": dict(key),
                }
                if family.kind == "histogram":
                    record["count"] = instrument.count
                    record["sum"] = instrument.sum
                    record["buckets"] = [
                        [bound, cumulative]
                        for bound, cumulative in instrument.cumulative_buckets()
                    ]
                else:
                    record["value"] = instrument.value
                samples.append(record)
        return samples
