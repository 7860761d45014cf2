"""Distributed exploration: the scaling gate (ROADMAP item 1 realized).

``bench_parallel.py`` proves worker-count-independent merging when the
scenario already *has* independent partitions.  This benchmark covers the
hard case that motivated the adaptive cut of
:mod:`repro.core.distributed`: a single connected 3-node symbolic flood
whose SDS component graph gives a fixed virtual-time cut exactly one
partition and therefore zero parallelism.  The adaptive cut deepens the
engine until the component fractures,
ships each subtree as a self-contained job, and work-steals stragglers.

Two properties are gated:

- **Exactness** — the distributed run (4 workers, stealing on) produces
  the same semantic counters *and* the same canonical trace multiset as
  the sequential run.  This holds unconditionally, on any machine.
- **Scaling** — wall-clock speedup at 4 workers.  The bar is tiered by
  the cores actually available to this process (cgroup-capped CI boxes
  often expose fewer): >=1.5x with 4+ cores, >=1.2x with 2-3, and on a
  single core only a bounded-overhead assertion (workers timeshare the
  core, so no wall-clock win is possible by construction).

Wall-clock is measured untraced — shipping per-event traces through the
transport is a debugging feature, not the production path — while the
equality check runs traced.  Headline numbers land in the
``SDE_BENCH_JSON`` artifact via :func:`benchmarks.record.record_bench`.
"""

import os
import time

from benchmarks.bench_solver import SYMBOLIC_FLOOD
from benchmarks.record import record_bench
from repro.api import DistributedRunner, Scenario, Topology, build_engine
from repro.obs import TraceEmitter, diff_traces, validate_trace

WORKERS = 4


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _scenario():
    return Scenario(
        name="symbolic-flood-3",
        program=SYMBOLIC_FLOOD,
        topology=Topology.full_mesh(3),
        horizon_ms=300,
    )


def test_distributed_equals_sequential(once, benchmark):
    """Trace-multiset equality of distributed vs sequential (traced)."""

    def measure():
        seq_trace = TraceEmitter()
        sequential = build_engine(_scenario(), "sds", trace=seq_trace).run()
        dist_trace = TraceEmitter()
        distributed = DistributedRunner(
            _scenario(), "sds", workers=WORKERS, trace=dist_trace
        ).run()
        return sequential, seq_trace, distributed, dist_trace

    sequential, seq_trace, distributed, dist_trace = once(measure)

    seq_counters = sequential.metrics["counters"]
    dist_counters = distributed.metrics["counters"]
    for name in (
        "states.total",
        "mapping.groups",
        "run.events_executed",
        "run.instructions",
        "solver.queries",
    ):
        assert dist_counters[name] == seq_counters[name], (
            name,
            seq_counters[name],
            dist_counters[name],
        )
    assert validate_trace(dist_trace.events) == []
    diff = diff_traces(seq_trace.events, dist_trace.events)
    assert diff.equal, diff.render(limit=5)

    benchmark.extra_info["jobs"] = dist_counters["distributed.jobs"]
    benchmark.extra_info["steals_granted"] = dist_counters["distributed.steals.granted"]
    record_bench(
        distributed_trace_equal=True,
        distributed_jobs=dist_counters["distributed.jobs"],
        distributed_steals_granted=dist_counters["distributed.steals.granted"],
        distributed_partition_depth=dist_counters[
            "distributed.partition_depth"
        ],
    )


def test_distributed_speedup(once, benchmark):
    """Wall-clock speedup at 4 workers on one connected component."""

    def measure():
        t0 = time.perf_counter()
        sequential = build_engine(_scenario(), "sds").run()
        sequential_s = time.perf_counter() - t0

        t1 = time.perf_counter()
        distributed = DistributedRunner(_scenario(), "sds", workers=WORKERS).run()
        distributed_s = time.perf_counter() - t1
        return sequential, sequential_s, distributed, distributed_s

    sequential, sequential_s, distributed, distributed_s = once(measure)

    # Cheap sanity that the timed runs explored the same space; the full
    # trace-level check is test_distributed_equals_sequential's job.
    assert distributed.total_states == sequential.total_states
    assert distributed.group_count == sequential.group_count

    cores = _available_cores()
    speedup = sequential_s / max(distributed_s, 1e-9)
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["cores"] = cores
    benchmark.extra_info["sequential_s"] = round(sequential_s, 3)
    benchmark.extra_info["distributed_s"] = round(distributed_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["partition_depth"] = distributed.partition_depth
    benchmark.extra_info["jobs"] = distributed.jobs_dispatched
    record_bench(
        distributed_sequential_s=round(sequential_s, 3),
        distributed_wall_s=round(distributed_s, 3),
        distributed_speedup=round(speedup, 2),
        distributed_workers=WORKERS,
        distributed_cores=cores,
    )
    if cores >= 4:
        # The acceptance bar: near-linear scaling on the connected
        # component a fixed time cut cannot split at all.
        assert speedup >= 1.5, (
            f"distributed run too slow: {sequential_s:.2f}s sequential vs"
            f" {distributed_s:.2f}s on {WORKERS} workers (x{speedup:.2f})"
        )
    elif cores >= 2:
        assert speedup >= 1.2, (
            f"distributed run too slow: {sequential_s:.2f}s sequential vs"
            f" {distributed_s:.2f}s on {WORKERS} workers (x{speedup:.2f})"
        )
    else:
        # One core: no wall-clock win is possible, so assert the bounded
        # overhead of partition probing + shipping + process management.
        assert speedup > 1.0 / 1.4, (
            f"distributed overhead too high on a single core:"
            f" {sequential_s:.2f}s sequential vs {distributed_s:.2f}s"
            f" (x{speedup:.2f})"
        )
