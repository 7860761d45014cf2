"""Structured (JSON) export of SDE run results.

CI pipelines and notebook analyses want run results as data, not prose.
:func:`report_to_dict` flattens a :class:`~repro.core.engine.RunReport`
(including the growth series and mapper statistics) into plain JSON types;
:func:`save_report` / :func:`load_report_dict` round-trip it through a file.
The schema is versioned so downstream tooling can detect incompatible
changes.
"""

from __future__ import annotations

import json
from typing import Dict

from .engine import RunReport

__all__ = ["SCHEMA_VERSION", "report_to_dict", "save_report", "load_report_dict"]

SCHEMA_VERSION = 1


def report_to_dict(report: RunReport, include_series: bool = True) -> Dict:
    """Flatten a run report into JSON-serializable types."""
    out: Dict = {
        "schema": SCHEMA_VERSION,
        "algorithm": report.algorithm,
        "aborted": report.aborted,
        "abort_reason": report.abort_reason,
        "runtime_seconds": round(report.runtime_seconds, 6),
        "virtual_ms": report.virtual_ms,
        "events_executed": report.events_executed,
        "instructions": report.instructions,
        "total_states": report.total_states,
        "active_states": report.active_states,
        "group_count": report.group_count,
        "accounted_bytes": report.accounted_bytes,
        "peak_states": report.peak_states(),
        "peak_accounted_bytes": report.peak_accounted_bytes(),
        "solver_queries": report.solver_queries,
        "mapping_stats": dict(report.mapping_stats),
        # Additive in schema 1: the medium's counters (docs/NETWORK.md) —
        # deterministic under a fixed net seed, so replay diffs catch
        # divergence at the link layer too.
        "net_stats": dict(report.net_stats),
        # Additive in schema 1: the observability layer's phase timings and
        # full metrics snapshot (see docs/OBSERVABILITY.md).
        "phases": {
            name: {"count": data["count"], "seconds": round(data["seconds"], 6)}
            for name, data in report.phases.items()
        },
        "metrics": report.metrics,
        # Additive in schema 1: resilience status (docs/RESILIENCE.md) —
        # partial runs list the partitions that exhausted their retries
        # with enough information to rerun them.
        "partial": report.partial,
        "resumed": report.resumed,
        "checkpoints_written": report.checkpoints_written,
        "retries": report.retries,
        "failed_partitions": [
            failure.as_dict() for failure in report.failed_partitions
        ],
        "errors": [
            {
                "kind": state.error.kind,
                "message": state.error.message,
                "code": state.error.code,
                "node": state.node,
                "virtual_ms": state.clock,
            }
            for state in report.error_states
        ],
    }
    if include_series:
        out["series"] = [
            {
                "wall_seconds": round(sample.wall_seconds, 6),
                "virtual_ms": sample.virtual_ms,
                "events": sample.events_executed,
                "states": sample.total_states,
                "accounted_bytes": sample.accounted_bytes,
                "rss_bytes": sample.rss_bytes,
                "groups": sample.groups,
            }
            for sample in report.samples
        ]
    return out


def save_report(report: RunReport, path, include_series: bool = True) -> None:
    """Write a run report as pretty-printed JSON (atomically)."""
    from ..obs.fileio import atomic_write_text

    atomic_write_text(
        path, json.dumps(report_to_dict(report, include_series), indent=2) + "\n"
    )


def load_report_dict(path) -> Dict:
    """Load a previously saved report; validates the schema version."""
    with open(path) as handle:
        data = json.load(handle)
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"report schema {data.get('schema')} != expected {SCHEMA_VERSION}"
        )
    return data
