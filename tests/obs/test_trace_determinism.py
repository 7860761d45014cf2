"""Trace determinism: repeated runs and any worker count produce the
same canonical event multiset.

This is the observable form of the parallel-equivalence guarantee: the
*semantic* events of a run (forks, sends, deliveries, mapper copies,
solver queries) do not depend on scheduling host, worker count, or cache
state — only volatile bookkeeping fields (ids, seq, worker, cache
outcomes) may differ, and the canonical multiset drops exactly those.
"""

import pytest

from repro import build_engine
from repro.cli import main
from repro.core.distributed import DistributedRunner
from repro.obs import TraceEmitter, diff_traces, validate_trace
from repro.workloads import flood_scenario, grid_scenario

SPLIT_MS = 2000


def _traced_sequential(scenario, algorithm):
    trace = TraceEmitter()
    build_engine(scenario, algorithm, trace=trace).run()
    return trace.events


class TestRepeatedRuns:
    @pytest.mark.parametrize("algorithm", ["cob", "cow", "sds"])
    def test_back_to_back_runs_are_identical(self, algorithm):
        first = _traced_sequential(flood_scenario(3, rounds=2), algorithm)
        second = _traced_sequential(flood_scenario(3, rounds=2), algorithm)
        diff = diff_traces(first, second)
        assert diff.equal, diff.render()

    def test_grid_scenario_also_identical(self):
        first = _traced_sequential(grid_scenario(3, sim_seconds=4), "sds")
        second = _traced_sequential(grid_scenario(3, sim_seconds=4), "sds")
        assert diff_traces(first, second).equal


class TestWorkerCountIndependence:
    @pytest.fixture(scope="class")
    def sequential_events(self):
        return _traced_sequential(grid_scenario(3, sim_seconds=6), "cow")

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_multiset_equals_sequential(
        self, sequential_events, workers
    ):
        trace = TraceEmitter()
        report = DistributedRunner(
            grid_scenario(3, sim_seconds=6),
            "cow",
            workers=workers,
            split_ms=SPLIT_MS,
            steal=False,
            trace=trace,
        ).run()
        assert not report.aborted
        assert validate_trace(trace.events) == []
        diff = diff_traces(sequential_events, trace.events)
        assert diff.equal, diff.render(limit=5)

    def test_parallel_trace_carries_worker_meta_events(self):
        trace = TraceEmitter()
        DistributedRunner(
            grid_scenario(3, sim_seconds=6),
            "cow",
            workers=2,
            split_ms=SPLIT_MS,
            steal=False,
            trace=trace,
        ).run()
        kinds = {event["ev"] for event in trace.events}
        assert "worker.partition.start" in kinds
        assert "worker.merge" in kinds
        workers_seen = {
            event["worker"] for event in trace.events if "worker" in event
        }
        assert len(workers_seen) >= 2


class TestMetricsDeterminism:
    def test_deterministic_counters_are_worker_count_independent(self):
        reports = {}
        for workers in (1, 2):
            reports[workers] = DistributedRunner(
                grid_scenario(3, sim_seconds=6),
                "cow",
                workers=workers,
                split_ms=SPLIT_MS,
                steal=False,
            ).run()
        # Cache hit/miss ratios, backend-solve counts, model shortcuts and
        # simplifier work all legitimately shift with partitioning (they
        # depend on per-process memo/cache state); every other counter
        # must match exactly.
        volatile = {
            "solver.cache.",
            "solver.backend.",
            "solver.shortcuts.",
            "solver.simplify.",
            "phase.",
        }
        # The worker and job counts are the harness itself.
        harness = {"parallel.workers", "distributed.jobs"}
        for name, value in reports[1].metrics["counters"].items():
            if name in harness or any(
                name.startswith(prefix) for prefix in volatile
            ):
                continue
            assert reports[2].metrics["counters"][name] == value, name


class TestCLIRoundTrip:
    def test_trace_out_diff_and_check_metrics(self, tmp_path, capsys):
        sequential = tmp_path / "seq.jsonl"
        parallel = tmp_path / "par.jsonl"
        metrics = tmp_path / "metrics.json"
        base = ["run", "flood:3", "--sim-seconds", "2"]
        assert main(base + ["--trace-out", str(sequential), "--metrics-out", str(metrics)]) == 0
        assert main(base + ["--workers", "2", "--trace-out", str(parallel)]) == 0
        assert main(["trace", "summary", str(sequential)]) == 0
        assert main(["trace", "diff", str(sequential), str(parallel)]) == 0
        assert main(["trace", "check-metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "semantically identical" in out
        assert "metrics OK" in out

    def test_trace_diff_detects_difference(self, tmp_path):
        small = tmp_path / "small.jsonl"
        large = tmp_path / "large.jsonl"
        assert main(["run", "flood:3", "--sim-seconds", "1", "--trace-out", str(small)]) == 0
        assert main(["run", "flood:3", "--sim-seconds", "3", "--trace-out", str(large)]) == 0
        assert main(["trace", "diff", str(small), str(large)]) == 1

    def test_check_metrics_rejects_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 999}')
        assert main(["trace", "check-metrics", str(bad)]) == 1
