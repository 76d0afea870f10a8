"""Runtime observability for the fleet runtime.

A small, dependency-free metrics registry in the Prometheus style:
monotonically increasing :class:`Counter`\\ s, last-value :class:`Gauge`\\ s
(with min/max watermarks), and :class:`Histogram`\\ s that retain a bounded
window of recent observations for exact windowed quantiles plus exact
running aggregates (count, total, min, max) over everything ever observed.
Everything is deterministic — no wall-clock reads — so fleet runs with the
same seed produce identical telemetry snapshots.
"""

from __future__ import annotations

import math
import re
from collections import deque
from itertools import islice
from typing import Iterable, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_HISTOGRAM_WINDOW",
    "TelemetryRegistry",
    "jain_fairness",
    "nearest_rank",
    "sanitize_metric_name",
]

# Retained-observation bound per histogram.  Control windows span one
# control interval (tens to hundreds of observations), so any bound far
# above that keeps `percentile_since` exact for the control contract while
# capping memory at O(window) per histogram instead of O(frames).
DEFAULT_HISTOGRAM_WINDOW = 65536

_INVALID_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Rewrite a dotted metric name into a valid Prometheus metric name.

    Prometheus names match ``[a-zA-Z_:][a-zA-Z0-9_:]*``; every other
    character (the registry's dots, camera-id dashes, ...) becomes ``_``,
    and a leading digit gets a ``_`` prefix.
    """
    sanitized = _INVALID_METRIC_CHARS.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def jain_fairness(shares: Iterable[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)`` over ``shares``.

    1.0 means every share is equal; the lower bound ``1/n`` means one member
    got everything.  Empty or all-zero inputs count as perfectly fair
    (nothing was distributed unevenly).
    """
    values = [float(x) for x in shares]
    if not values:
        return 1.0
    square_sum = sum(x * x for x in values)
    if square_sum == 0.0:
        return 1.0
    return sum(values) ** 2 / (len(values) * square_sum)


def nearest_rank(ordered: Sequence[float], fraction: float) -> float:
    """Exact nearest-rank quantile of an ascending sequence (0.0 when empty).

    The smallest value with at least ``fraction`` of the observations at or
    below it; ``fraction`` 0 is the minimum, 1 the maximum.  Every exact
    percentile in the repository is this rank rule (the weighted-centroid
    :class:`~repro.control.hierarchy.QuantileSketch` is an approximation
    and a different algorithm).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    if len(ordered) == 0:
        return 0.0
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Increase the counter; ``amount`` must be non-negative."""
        if amount < 0:
            raise ValueError(f"Counter {self.name!r} cannot decrease (amount={amount})")
        self._value += amount

    @property
    def value(self) -> float:
        """Current count."""
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name}={self._value:g})"


class Gauge:
    """A value that goes up and down, with min/max watermarks."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._updates = 0

    def set(self, value: float) -> None:
        """Record the gauge's current value."""
        value = float(value)
        self._value = value
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        self._updates += 1

    @property
    def value(self) -> float:
        """Most recently set value."""
        return self._value

    @property
    def min(self) -> float:
        """Smallest value ever set (0.0 if never set)."""
        return self._min if self._updates else 0.0

    @property
    def max(self) -> float:
        """Largest value ever set (0.0 if never set)."""
        return self._max if self._updates else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name}={self._value:g}, max={self.max:g})"


class Histogram:
    """Distribution of observed values, bounded memory, exact where it counts.

    Only the most recent ``window`` observations are retained; aggregate
    statistics (:attr:`count`, :attr:`total`, :attr:`mean`, :attr:`min`,
    :attr:`max`) run over *everything* ever observed and stay exact forever.
    :meth:`percentile_since` — the control-plane contract — indexes by
    absolute observation number and is exact whenever the requested window
    still sits inside the retained tail (control intervals observe far
    fewer values than the bound); older starts degrade gracefully to the
    retained tail rather than raising.
    """

    def __init__(self, name: str, window: int = DEFAULT_HISTOGRAM_WINDOW) -> None:
        if window < 1:
            raise ValueError("histogram window must be at least 1")
        self.name = name
        self.window = window
        self._values: deque[float] = deque(maxlen=window)
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self._values.append(value)
        self._count += 1
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        """Number of observations ever made (not just retained)."""
        return self._count

    @property
    def discarded(self) -> int:
        """Observations aged out of the retained window."""
        return self._count - len(self._values)

    @property
    def total(self) -> float:
        """Exact sum of all observations ever made."""
        return self._total

    @property
    def mean(self) -> float:
        """Average over all observations ever made (0.0 when empty)."""
        return self._total / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        """Smallest observation ever made (0.0 when empty)."""
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        """Largest observation ever made (0.0 when empty)."""
        return self._max if self._count else 0.0

    @property
    def values(self) -> tuple[float, ...]:
        """Retained observations in arrival order (for windowed statistics)."""
        return tuple(self._values)

    def percentile(self, q: float) -> float:
        """``q``-th percentile (nearest-rank; ``q`` in [0, 100]).

        Exact until observations age out of the window; afterwards computed
        over the retained tail.
        """
        return self.percentile_since(q, 0)

    def percentile_since(self, q: float, start: int) -> float:
        """Percentile over observations from absolute index ``start`` onward.

        Control loops remember the observation count at their previous tick
        and pass it here to get the quantile of just the last interval's
        window (0.0 when the window is empty).  Exact when ``start`` is
        within the retained window — always true for control intervals
        shorter than the bound — else best-effort over the retained tail.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        if start < 0:
            raise ValueError("start must be non-negative")
        relative = max(0, start - self.discarded)
        if relative >= len(self._values):
            return 0.0
        return nearest_rank(sorted(islice(self._values, relative, None)), q / 100.0)

    def merge_from(self, other: "Histogram") -> None:
        """Fold ``other``'s distribution into this one.

        Aggregates (count/total/min/max) merge exactly; the retained window
        is extended with ``other``'s retained tail, aging out the oldest
        values past the bound — identical to re-observing when both sides
        are under their bounds.
        """
        if not other._count:
            return
        self._values.extend(other._values)
        self._count += other._count
        self._total += other._total
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram({self.name}: n={self.count}, mean={self.mean:g})"


class TelemetryRegistry:
    """Get-or-create store of named counters, gauges, and histograms.

    Names are dotted paths (``frames.dropped.oldest``,
    ``queue.depth.cam007``); :meth:`snapshot` flattens everything into one
    dictionary for reports and tests.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        if name not in self._counters:
            self._check_unused(name, self._gauges, self._histograms)
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        if name not in self._gauges:
            self._check_unused(name, self._counters, self._histograms)
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        if name not in self._histograms:
            self._check_unused(name, self._counters, self._gauges)
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    @staticmethod
    def _check_unused(name: str, *families: dict) -> None:
        for family in families:
            if name in family:
                raise ValueError(f"Metric name {name!r} already used by another metric type")

    def merge(self, other: "TelemetryRegistry", prefix: str = "") -> "TelemetryRegistry":
        """Fold ``other``'s metrics into this registry under ``prefix``.

        Counters add, histograms concatenate their observations, and gauges
        carry over their last value and min/max watermarks.  The sharded
        runtime uses this to aggregate per-node registries into one cluster
        registry (``prefix="node0."`` etc.) without hand-rolled dict walking.
        Returns ``self`` so merges chain.
        """
        for name, counter in sorted(other._counters.items()):
            self.counter(prefix + name).inc(counter.value)
        for name, gauge in sorted(other._gauges.items()):
            merged = self.gauge(prefix + name)
            if gauge._updates:
                merged.set(gauge.min)
                merged.set(gauge.max)
                merged.set(gauge.value)
        for name, hist in sorted(other._histograms.items()):
            # Aggregate merge (exact counts/totals/watermarks, windows
            # concatenate) instead of re-observing every value: merging a
            # node registry costs O(metrics + retained), not O(frames).
            self.histogram(prefix + name).merge_from(hist)
        return self

    def counters(self, prefix: str = "") -> dict[str, float]:
        """Counter values whose names start with ``prefix``."""
        return {
            name: counter.value
            for name, counter in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def snapshot(self) -> dict[str, object]:
        """Flatten all metrics into one ``{name: value-or-summary}`` dict."""
        snap: dict[str, object] = {}
        for name, counter in sorted(self._counters.items()):
            snap[name] = counter.value
        for name, gauge in sorted(self._gauges.items()):
            snap[name] = {"value": gauge.value, "min": gauge.min, "max": gauge.max}
        for name, hist in sorted(self._histograms.items()):
            snap[name] = {
                "count": hist.count,
                "mean": hist.mean,
                "min": hist.min,
                "max": hist.max,
                "p50": hist.percentile(50),
                "p99": hist.percentile(99),
            }
        return snap
