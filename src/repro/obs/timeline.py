"""Time-series metrics: periodic scrapes of telemetry registries.

:class:`~repro.fleet.telemetry.TelemetryRegistry` is cumulative — one number
per metric at end of run.  :class:`MetricsTimeline` adds the time axis: a
driver (the control loop between ticks, or the sharded runtime's lockstep
loop) calls :meth:`MetricsTimeline.scrape` at control-interval boundaries,
and each scrape flattens one registry snapshot into a labeled
:class:`TimelineSample` (``source`` is the node id, or ``"control"`` for the
loop's own registry).  Histograms flatten to ``<name>.count`` /
``<name>.mean`` / ``<name>.p50`` / ``<name>.p99`` sub-series; gauges keep
their last value; counters pass through.

Two exporters, both deterministic:

* :meth:`to_jsonl` — one JSON object per scrape (sorted keys), the format
  analysis notebooks and diffing tools want;
* :meth:`to_prometheus` — Prometheus text exposition of the *latest* sample
  per source, each series labeled ``{node="..."}``, for dashboards that
  speak the scrape format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.fleet.telemetry import TelemetryRegistry, sanitize_metric_name

__all__ = ["TimelineSample", "MetricsTimeline"]

_HISTOGRAM_FIELDS = ("count", "mean", "p50", "p99")


@dataclass(frozen=True)
class TimelineSample:
    """One scrape of one source's registry at one simulated time."""

    time: float
    source: str
    values: dict[str, float]

    def get(self, name: str, default: float = 0.0) -> float:
        """One flattened metric value from this sample."""
        return self.values.get(name, default)


def _flatten(snapshot: dict[str, object]) -> dict[str, float]:
    """Flatten a registry snapshot into scalar series values."""
    values: dict[str, float] = {}
    for name, value in snapshot.items():
        if isinstance(value, dict):
            if "count" in value:  # histogram summary
                for fields in _HISTOGRAM_FIELDS:
                    values[f"{name}.{fields}"] = float(value[fields])
            else:  # gauge summary
                values[name] = float(value["value"])
        else:  # counter
            values[name] = float(value)
    return values


class MetricsTimeline:
    """Labeled time series built from periodic registry scrapes."""

    def __init__(self) -> None:
        self._samples: list[TimelineSample] = []

    def scrape(self, now: float, source: str, registry: TelemetryRegistry) -> TimelineSample:
        """Snapshot ``registry`` at simulated time ``now`` under ``source``."""
        sample = TimelineSample(
            time=float(now), source=str(source), values=_flatten(registry.snapshot())
        )
        self._samples.append(sample)
        return sample

    @property
    def samples(self) -> tuple[TimelineSample, ...]:
        """Every scrape in recording order."""
        return tuple(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def sources(self) -> list[str]:
        """Distinct scrape sources, sorted."""
        return sorted({s.source for s in self._samples})

    def latest(self, source: str) -> TimelineSample | None:
        """The most recent sample of one source (None if never scraped)."""
        for sample in reversed(self._samples):
            if sample.source == source:
                return sample
        return None

    def metric_names(self) -> list[str]:
        """Every flattened series name seen across all samples, sorted."""
        names: set[str] = set()
        for sample in self._samples:
            names.update(sample.values)
        return sorted(names)

    # -- exporters -------------------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSON object per scrape, keys sorted — byte-stable across runs."""
        return "\n".join(
            json.dumps(
                {"t": sample.time, "source": sample.source, "values": sample.values},
                sort_keys=True,
                separators=(",", ":"),
            )
            for sample in self._samples
        )

    def write_jsonl(self, path: str | Path) -> Path:
        """Write the JSONL dump to ``path`` and return it."""
        path = Path(path)
        text = self.to_jsonl()
        path.write_text(text + "\n" if text else "", encoding="utf-8")
        return path

    def to_prometheus(self) -> str:
        """Prometheus text exposition of each source's latest sample.

        Series are grouped per metric with one ``HELP``/``TYPE`` header and
        one ``{node="..."}``-labeled line per source.  Types are ``untyped``
        because flattened sub-series (histogram ``.count``/``.p99``) have no
        single native Prometheus type.
        """
        latest = {source: self.latest(source) for source in self.sources}
        lines: list[str] = []
        for name in self.metric_names():
            metric = sanitize_metric_name(name)
            emitted_header = False
            for source in self.sources:
                sample = latest[source]
                if sample is None or name not in sample.values:
                    continue
                if not emitted_header:
                    lines.append(f"# HELP {metric} Timeline series for telemetry {name!r}.")
                    lines.append(f"# TYPE {metric} untyped")
                    emitted_header = True
                lines.append(f'{metric}{{node="{source}"}} {sample.values[name]:.10g}')
        return "\n".join(lines) + ("\n" if lines else "")

    def write_prometheus(self, path: str | Path) -> Path:
        """Write the Prometheus exposition to ``path`` and return it."""
        path = Path(path)
        path.write_text(self.to_prometheus(), encoding="utf-8")
        return path
