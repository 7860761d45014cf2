"""The metrics registry: counters, gauges, histograms, one JSON contract.

Before this module, run statistics lived in ad-hoc ``as_dict`` bundles
(``MappingStats``, ``CacheStats``) and loose attributes, and every
benchmark reached into whichever internal it needed.  The registry gives
them one shape:

- **Counter** — monotone int (events executed, cache hits, forks);
- **Gauge** — last-written number (peak states, phase seconds);
- **Histogram** — power-of-two bucketed distribution (solver query sizes).

Snapshots are deterministic: sorted names, plain JSON types, no wall-clock
reads besides values that are explicitly time measurements.  The
``metrics`` snapshot of a run report (:func:`report_snapshot`) is the
stable contract consumed by ``benchmarks/``, ``repro trace check-metrics``
and the CI ``metrics-smoke`` job.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "report_snapshot",
    "save_metrics",
    "validate_metrics",
]

METRICS_SCHEMA_VERSION = 1

#: Histogram bucket upper bounds (inclusive); one overflow bucket follows.
DEFAULT_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A last-write-wins number."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0) -> None:
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Bucketed distribution of non-negative integers.

    Buckets are ``bounds`` upper limits (inclusive) plus one overflow
    bucket; the snapshot keeps count/total/min/max so merged worker
    histograms stay exact for those aggregates.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Iterable[int] = DEFAULT_BOUNDS) -> None:
        self.name = name
        self.bounds = tuple(bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, value: int) -> None:
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        self.buckets[index] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def data(self) -> dict:
        """The JSON form stored in snapshots."""
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @staticmethod
    def merge_data(parts: Iterable[dict]) -> dict:
        """Combine :meth:`data` dicts from workers into one (exact)."""
        merged: Optional[dict] = None
        for part in parts:
            if part is None:
                continue
            if merged is None:
                merged = {
                    "bounds": list(part["bounds"]),
                    "buckets": list(part["buckets"]),
                    "count": part["count"],
                    "total": part["total"],
                    "min": part["min"],
                    "max": part["max"],
                }
                continue
            if merged["bounds"] != list(part["bounds"]):
                raise ValueError("cannot merge histograms with different bounds")
            merged["buckets"] = [
                a + b for a, b in zip(merged["buckets"], part["buckets"])
            ]
            merged["count"] += part["count"]
            merged["total"] += part["total"]
            for key, pick in (("min", min), ("max", max)):
                values = [v for v in (merged[key], part[key]) if v is not None]
                merged[key] = pick(values) if values else None
        return merged if merged is not None else Histogram("empty").data()

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count})"


class MetricsRegistry:
    """Named counters/gauges/histograms with a deterministic snapshot."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._labels: Dict[str, str] = {}

    # -- creation / lookup (idempotent by name) -----------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._require_fresh(name)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._require_fresh(name)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, bounds: Iterable[int] = DEFAULT_BOUNDS
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._require_fresh(name)
            metric = self._histograms[name] = Histogram(name, bounds)
        return metric

    def set_label(self, name: str, value: str) -> None:
        self._labels[name] = value

    def install_histogram_data(self, name: str, data: dict) -> None:
        """Attach pre-merged histogram data (worker round-trips)."""
        histogram = Histogram(name, data["bounds"])
        histogram.buckets = list(data["buckets"])
        histogram.count = data["count"]
        histogram.total = data["total"]
        histogram.min = data["min"]
        histogram.max = data["max"]
        self._histograms[name] = histogram

    def _require_fresh(self, name: str) -> None:
        if (
            name in self._counters
            or name in self._gauges
            or name in self._histograms
        ):
            raise ValueError(f"metric name {name!r} already used with another kind")

    # -- snapshot ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-JSON snapshot with sorted, stable key order."""
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "labels": {k: self._labels[k] for k in sorted(self._labels)},
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].data()
                for name in sorted(self._histograms)
            },
        }


def report_snapshot(report) -> dict:
    """The metrics snapshot of one :class:`~repro.core.engine.RunReport`.

    The multi-process counters (``parallel.*``, ``distributed.*``) are
    included only for a report with workers — a
    :class:`~repro.core.distributed.DistributedReport`.
    """
    registry = MetricsRegistry()
    registry.set_label("algorithm", report.algorithm)
    registry.set_label("aborted", str(bool(report.aborted)).lower())

    counters = {
        "run.events_executed": report.events_executed,
        "run.instructions": report.instructions,
        "states.total": report.total_states,
        "states.active": report.active_states,
        "states.error": len(report.error_states),
        "mapping.groups": report.group_count,
        "solver.queries": report.solver_queries,
    }
    for key, value in report.mapping_stats.items():
        counters[f"mapping.{key}"] = value
    for key, value in report.solver_stats.items():
        counters[f"solver.{key}"] = value
    for key, value in (report.cache_stats or {}).items():
        counters[f"solver.cache.{key}"] = value
    for key, value in report.net_stats.items():
        counters[f"net.{key}"] = value
    for key, value in report.reduce_stats.items():
        counters[f"reduce.{key}"] = value
    for name, data in report.phases.items():
        counters[f"phase.{name}.count"] = data["count"]
    counters["run.checkpoints_written"] = report.checkpoints_written
    if report.workers:
        counters["parallel.workers"] = report.workers
        counters["parallel.partitions"] = report.partition_count
        counters["parallel.prefix_events"] = report.prefix_events
        counters["parallel.retries"] = report.retries
        counters["parallel.failed_partitions"] = len(report.failed_partitions)
        counters["distributed.partition_depth"] = report.partition_depth
        counters["distributed.jobs"] = report.jobs_dispatched
        counters["distributed.steals.requested"] = report.steals_requested
        counters["distributed.steals.granted"] = report.steals_granted
        counters["distributed.steals.denied"] = report.steals_denied
    for name, value in counters.items():
        registry.counter(name).value = int(value)

    gauges = {
        "run.runtime_seconds": round(report.runtime_seconds, 6),
        "run.virtual_ms": report.virtual_ms,
        "run.accounted_bytes": report.accounted_bytes,
        "run.peak_states": report.peak_states(),
        "run.peak_accounted_bytes": report.peak_accounted_bytes(),
        # Abort status as a gauge so dashboards can alert on it directly
        # (the "aborted" label carries the same bit as a string).
        "run.aborted": 1 if report.aborted else 0,
        "run.partial": 1 if report.partial else 0,
        "run.resumed": 1 if report.resumed else 0,
    }
    for name, data in report.phases.items():
        gauges[f"phase.{name}.seconds"] = round(data["seconds"], 6)
    if report.workers:
        gauges["parallel.projected_speedup"] = round(report.projected, 4)
    for name, value in gauges.items():
        registry.gauge(name).set(value)

    for name, data in report.histograms.items():
        if data is not None:
            registry.install_histogram_data(name, data)
    return registry.snapshot()


def save_metrics(snapshot: dict, path) -> None:
    """Write a metrics snapshot as pretty-printed JSON (atomically)."""
    from .fileio import atomic_write_text

    atomic_write_text(path, json.dumps(snapshot, indent=2, sort_keys=True) + "\n")


def validate_metrics(data) -> List[str]:
    """Schema-check a metrics snapshot; returns a list of problems.

    An empty list means the snapshot is well-formed.  This is the check
    CI's ``metrics-smoke`` job gates on (via ``repro trace check-metrics``).
    """
    errors: List[str] = []
    if not isinstance(data, dict):
        return ["metrics snapshot must be a JSON object"]
    if data.get("schema") != METRICS_SCHEMA_VERSION:
        errors.append(
            f"schema is {data.get('schema')!r},"
            f" expected {METRICS_SCHEMA_VERSION}"
        )
    for section in ("labels", "counters", "gauges", "histograms"):
        if not isinstance(data.get(section), dict):
            errors.append(f"missing or non-object section {section!r}")
    for name, value in (data.get("counters") or {}).items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append(f"counter {name!r} must be a non-negative int")
    for name, value in (data.get("gauges") or {}).items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"gauge {name!r} must be a number")
    for name, value in (data.get("histograms") or {}).items():
        if not isinstance(value, dict):
            errors.append(f"histogram {name!r} must be an object")
            continue
        missing = {"bounds", "buckets", "count", "total"} - set(value)
        if missing:
            errors.append(f"histogram {name!r} missing {sorted(missing)}")
            continue
        if len(value["buckets"]) != len(value["bounds"]) + 1:
            errors.append(
                f"histogram {name!r} needs len(bounds)+1 buckets"
            )
        elif sum(value["buckets"]) != value["count"]:
            errors.append(f"histogram {name!r} bucket counts != count")
    for required in (
        "run.events_executed",
        "states.total",
        "mapping.groups",
        "solver.queries",
    ):
        if required not in (data.get("counters") or {}):
            errors.append(f"missing required counter {required!r}")
    return errors
