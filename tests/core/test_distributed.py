"""Distributed exploration: partitioner, coordinator, and steal protocol.

The contracts pinned here (see docs/DISTRIBUTED.md):

1. A distributed run — any worker count, stealing on or off, transports
   inline or multiprocess — merges to exactly the sequential run: same
   semantic counters, same state census, same canonical trace multiset.
2. Jobs are self-contained: a job's pickled engine snapshot round-trips
   through bytes and replays its subtree in a fresh engine with no access
   to the coordinator's memory.
3. The deepening loop stops when the component graph has fractured into
   enough balanced partitions, and degrades gracefully when it cannot:
   a frontier that drains before fracturing (or an explicit cut depth
   past the end of the run) yields a sequential-prefix-only report.
4. Steal grants move work atomically (partial + kept + stolen in one
   reply); a donor with fewer than two live partitions denies; stale
   replies are dropped whole; killed workers retry through the typed
   failures of :mod:`repro.core.resilience`.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import Scenario, Topology, build_engine
from repro.core.distributed import (
    DistributedRunner,
    InlineTransport,
    Transport,
    _Coordinator,
    _job,
    _split_for_steal,
    deepen_until_partitioned,
)
from repro.core.engine import RunReport, restore_snapshot
from repro.core.partition import partition_groups, steal_split
from repro.core.resilience import RetryPolicy, WorkerFailure
from repro.core.stats import PROGRAM_IMAGE_COST_PER_INSTRUCTION
from repro.obs import TraceEmitter, diff_traces, validate_trace

SYMBOLIC_PING = """
var seen;
func on_boot() { timer_set(0, 40 + node_id() * 7); }
func on_timer(tid) {
    var buf[1];
    buf[0] = symbolic("reading", 8);
    bc_send(buf, 1);
}
func on_recv(src, len) {
    var v = recv_byte(0);
    if (v > 128) { v -= 128; }
    if (v > 64) { v -= 64; }
    if (v > 32) { seen += 1; } else { seen += 2; }
}
"""

FAST = RetryPolicy(
    max_retries=2,
    backoff_base_seconds=0.001,
    poll_interval_seconds=0.02,
)


def _scenario():
    """A 2-node symbolic flood: one connected SDS component that
    fractures within ~20 events — heavy enough to partition, light
    enough for tier-1."""
    return Scenario(
        name="symbolic-ping",
        program=SYMBOLIC_PING,
        topology=Topology.full_mesh(2),
        horizon_ms=150,
    )


def _sequential(trace=None):
    engine = build_engine(_scenario(), "sds", trace=trace)
    report = engine.run()
    return engine, report


def _assert_matches_sequential(report, seq_engine, seq_report):
    assert report.total_states == seq_report.total_states
    assert report.group_count == seq_report.group_count
    assert report.events_executed == seq_report.events_executed
    assert report.instructions == seq_report.instructions
    assert report.solver_queries == seq_report.solver_queries
    assert report.state_census() == seq_engine.state_census()


class TestDeepening:
    def test_connected_frontier_fractures_with_depth(self):
        engine = build_engine(_scenario(), "sds")
        partitions = deepen_until_partitioned(
            engine, min_partitions=4, probe_events=2
        )
        assert len(partitions) >= 4
        assert engine.events_executed > 0
        assert not engine.aborted

    def test_drained_frontier_returns_empty(self):
        # min_partitions above what the scenario ever fractures into:
        # the probe runs the engine dry and reports what it found.
        engine = build_engine(_scenario(), "sds")
        partitions = deepen_until_partitioned(
            engine, min_partitions=10_000, probe_limit_events=None
        )
        assert not engine.scheduler_snapshot()
        assert len(partitions) >= 1  # terminal components, all quiescent


class TestJobRoundTrip:
    def test_pickled_job_replays_its_subtree(self):
        engine = build_engine(_scenario(), "sds")
        partitions = deepen_until_partitioned(
            engine, min_partitions=4, probe_events=2
        )
        payload, state_count = _job(engine, [partitions[0]])
        assert state_count == partitions[0].state_count()

        restored = restore_snapshot(pickle.loads(payload))
        assert len(restored.states) == state_count
        restored.run()
        assert restored.events_executed > 0
        assert not restored.aborted

    def test_inline_job_returns_a_run_report(self):
        engine = build_engine(_scenario(), "sds")
        partitions = deepen_until_partitioned(
            engine, min_partitions=4, probe_events=2
        )
        payload, state_count = _job(engine, partitions)
        report = InlineTransport.run_job(7, payload)
        assert isinstance(report, RunReport)
        assert report.job_id == 7
        assert report.trace_events == []  # the cut engine was untraced
        assert sum(report.state_census().values()) == report.total_states
        assert report.total_states >= state_count


class TestDistributedEqualsSequential:
    def test_one_worker_uses_inline_transport(self):
        seq_engine, seq_report = _sequential()
        report = DistributedRunner(
            _scenario(), "sds", workers=1, probe_events=2
        ).run()
        assert report.transport_name == "InlineTransport"
        assert report.jobs_dispatched == 1
        _assert_matches_sequential(report, seq_engine, seq_report)

    @pytest.mark.parametrize("steal", [False, True])
    def test_multiprocess_workers_match(self, steal):
        seq_engine, seq_report = _sequential()
        report = DistributedRunner(
            _scenario(),
            "sds",
            workers=3,
            min_partitions=4,
            probe_events=2,
            steal=steal,
            retry_policy=FAST,
        ).run()
        _assert_matches_sequential(report, seq_engine, seq_report)
        assert report.jobs_dispatched >= 2

    def test_trace_multiset_equals_sequential(self):
        seq_trace = TraceEmitter()
        _sequential(trace=seq_trace)
        dist_trace = TraceEmitter()
        report = DistributedRunner(
            _scenario(),
            "sds",
            workers=2,
            probe_events=2,
            trace=dist_trace,
            retry_policy=FAST,
        ).run()
        assert not report.aborted
        assert validate_trace(dist_trace.events) == []
        diff = diff_traces(seq_trace.events, dist_trace.events)
        assert diff.equal, diff.render(limit=5)
        kinds = {event["ev"] for event in dist_trace.events}
        assert "worker.partition.start" in kinds
        assert "worker.job.dispatch" in kinds
        assert "worker.merge" in kinds

    def test_explicit_cut_depth_past_run_end(self):
        # The whole run happens in the "prefix": no jobs, no transport
        # work, and the report is exactly the sequential one.
        seq_engine, seq_report = _sequential()
        report = DistributedRunner(
            _scenario(), "sds", workers=4, partition_depth=10**6
        ).run()
        assert report.jobs_dispatched == 0
        assert report.partition_count == 0
        _assert_matches_sequential(report, seq_engine, seq_report)

    def test_distributed_metrics_counters_present(self):
        report = DistributedRunner(
            _scenario(), "sds", workers=1, probe_events=2
        ).run()
        counters = report.metrics["counters"]
        assert counters["distributed.jobs"] == 1
        assert counters["distributed.partition_depth"] == report.partition_depth
        assert "distributed.steals.granted" in counters


class TestStealSplit:
    def _restored_job(self, bundle_of):
        """Cut the scenario, then restore one job (``bundle_of`` picks its
        partitions) from its pickled snapshot, as a worker does."""
        engine = build_engine(_scenario(), "sds")
        partitions = deepen_until_partitioned(
            engine, min_partitions=4, probe_events=2
        )
        payload, _ = _job(engine, bundle_of(partitions))
        return restore_snapshot(pickle.loads(payload))

    def test_single_partition_donor_denies(self):
        worker = self._restored_job(lambda partitions: [partitions[0]])
        # One partition, still runnable: nothing to split off.
        assert _split_for_steal(worker, 0) is None

    def test_drained_donor_denies(self):
        worker = self._restored_job(lambda partitions: partitions)
        worker.run()  # final partition state: nothing runnable anywhere
        assert _split_for_steal(worker, 0) is None

    def test_split_conserves_states(self):
        worker = self._restored_job(lambda partitions: partitions)
        split = _split_for_steal(worker, 0)
        assert split is not None
        partial, kept_payload, stolen_jobs = split
        assert isinstance(partial, RunReport)
        assert partial.total_states == 0
        assert partial.state_census() == {}
        assert partial.accounted_bytes == (
            PROGRAM_IMAGE_COST_PER_INSTRUCTION * len(worker.program.code)
        )
        kept_engine = restore_snapshot(pickle.loads(kept_payload))
        stolen_states = sum(state_count for _, state_count in stolen_jobs)
        assert len(kept_engine.states) + stolen_states == len(worker.states)
        for payload, state_count in stolen_jobs:
            stolen = restore_snapshot(pickle.loads(payload))
            assert len(stolen.states) == state_count

    def test_steal_split_balances_by_weight(self):
        engine = build_engine(_scenario(), "sds")
        partitions = deepen_until_partitioned(
            engine, min_partitions=4, probe_events=2
        )
        kept, stolen = steal_split(partitions)
        assert kept and stolen
        assert len(kept) + len(stolen) == len(partitions)
        kept_w = sum(p.state_count() for p in kept)
        stolen_w = sum(p.state_count() for p in stolen)
        assert kept_w >= stolen_w  # donor keeps the heavier-or-equal half


class ScriptedTransport(Transport):
    """A deterministic two-worker transport driven by the test.

    ``send`` records outgoing messages; the script maps each send to the
    replies the fake workers produce, which ``recv`` then serves.
    """

    def __init__(self, worker_count=2):
        self._worker_count = worker_count
        self.sent = []
        self.replies = []
        self.script = []  # callables: (worker, message) -> [replies]
        self._alive = [True] * worker_count
        self.restarts = []

    @property
    def worker_count(self):
        return self._worker_count

    def start(self):
        pass

    def send(self, worker, message):
        self.sent.append((worker, message))
        if self.script:
            handler = self.script.pop(0)
            self.replies.extend(handler(worker, message))

    def recv(self, timeout):
        return self.replies.pop(0) if self.replies else None

    def alive(self, worker):
        return self._alive[worker]

    def restart(self, worker):
        self.restarts.append(worker)
        self._alive[worker] = True

    def stop(self):
        pass


class TestCoordinatorProtocol:
    def _coordinator(self, transport, jobs, **kwargs):
        return _Coordinator(
            transport,
            jobs,
            policy=kwargs.pop("policy", FAST),
            steal=kwargs.pop("steal", True),
            run_inline=kwargs.pop("run_inline", None),
            sleep=lambda _s: None,
            **kwargs,
        )

    def test_steal_denied_during_final_partition(self):
        transport = ScriptedTransport()
        jobs = [(b"j0", 4), (b"j1", 4)]

        def on_dispatch_j0(worker, message):
            assert message[0] == "job"
            return []  # worker 0 keeps running

        def on_dispatch_j1(worker, message):
            return [("done", worker, message[1], f"result-{message[1]}")]

        def on_steal(worker, message):
            assert message == ("steal",)
            # Donor is down to its last live partition: deny, then finish.
            return [
                ("steal_deny", worker, 0),
                ("done", worker, 0, "result-0"),
            ]

        transport.script = [on_dispatch_j0, on_dispatch_j1, on_steal]
        coordinator = self._coordinator(transport, jobs)
        coordinator.run()
        assert coordinator.steal_stats.requested == 1
        assert coordinator.steal_stats.denied == 1
        assert coordinator.steal_stats.granted == 0
        assert sorted(coordinator.results) == ["result-0", "result-1"]
        assert coordinator.retries == 0

    def test_steal_grant_enqueues_stolen_jobs(self):
        transport = ScriptedTransport()
        jobs = [(b"j0", 8), (b"j1", 2)]

        def on_dispatch_j0(worker, message):
            return []

        def on_dispatch_j1(worker, message):
            return [("done", worker, message[1], "result-1")]

        def on_steal(worker, message):
            return [
                (
                    "steal_reply",
                    worker,
                    0,
                    "partial-0",
                    b"kept-half",
                    [(b"stolen-half", 3)],
                ),
                ("done", worker, 0, "result-0"),
            ]

        def on_dispatch_stolen(worker, message):
            assert message[2] == b"stolen-half"
            return [("done", worker, message[1], "result-2")]

        transport.script = [
            on_dispatch_j0,
            on_dispatch_j1,
            on_steal,
            on_dispatch_stolen,
        ]
        coordinator = self._coordinator(transport, jobs)
        coordinator.run()
        assert coordinator.steal_stats.granted == 1
        # Donor's retry payload switched to the kept half.
        assert coordinator.payloads[0] == b"kept-half"
        assert sorted(coordinator.results) == [
            "partial-0",
            "result-0",
            "result-1",
            "result-2",
        ]

    def test_stale_steal_reply_dropped_whole(self):
        # The donor died *after* sending a steal reply that arrives after
        # its job was already requeued: accepting the partial or the
        # stolen half would double-count the replayed subtree.
        transport = ScriptedTransport()
        jobs = [(b"j0", 4)]
        coordinator = self._coordinator(transport, jobs, steal=False)
        coordinator.transport.start()
        idle = {0, 1}
        coordinator._dispatch(idle)
        coordinator._busy.pop(0)  # presumed dead; job requeued elsewhere
        coordinator._handle(
            (
                "steal_reply",
                0,
                0,
                "stale-partial",
                b"stale-kept",
                [(b"stale-stolen", 2)],
            ),
            idle,
        )
        assert coordinator.results == []
        assert coordinator.steal_stats.granted == 0
        assert coordinator._outstanding == 1

    def test_worker_death_retries_through_typed_failure(self):
        transport = ScriptedTransport()
        jobs = [(b"j0", 4)]

        attempts = []

        def on_dispatch(worker, message):
            attempts.append(message[3])
            if len(attempts) == 1:
                transport._alive[worker] = False  # die without reporting
                return []
            return [("done", worker, message[1], "result-0")]

        transport.script = [on_dispatch, on_dispatch]
        coordinator = self._coordinator(transport, jobs, steal=False)
        coordinator.run()
        assert attempts == [0, 1]
        assert transport.restarts == [0]
        assert coordinator.retries == 1
        assert coordinator.results == ["result-0"]

    def test_exhausted_job_raises_typed_failure(self):
        transport = ScriptedTransport(worker_count=1)
        jobs = [(b"j0", 4)]

        def always_fail(worker, message):
            return [
                (
                    "fail",
                    worker,
                    message[1],
                    WorkerFailure(
                        task_index=message[1],
                        kind="exception",
                        message="boom",
                        exc_type="RuntimeError",
                    ),
                )
            ]

        transport.script = [always_fail, always_fail, always_fail]

        def inline_fails(job_id, payload):
            raise RuntimeError("inline boom")

        coordinator = self._coordinator(
            transport, jobs, steal=False, run_inline=inline_fails
        )
        with pytest.raises(Exception) as excinfo:
            coordinator.run()
        assert "inline boom" in str(excinfo.value)

    def test_allow_partial_degrades_to_failed_jobs(self):
        import dataclasses

        transport = ScriptedTransport(worker_count=1)
        jobs = [(b"j0", 4)]

        def always_fail(worker, message):
            return [
                (
                    "fail",
                    worker,
                    message[1],
                    WorkerFailure(
                        task_index=message[1], kind="exception", message="boom"
                    ),
                )
            ]

        transport.script = [always_fail, always_fail, always_fail]

        def inline_fails(job_id, payload):
            raise RuntimeError("inline boom")

        policy = dataclasses.replace(FAST, allow_partial=True)
        coordinator = self._coordinator(
            transport, jobs, steal=False, run_inline=inline_fails, policy=policy
        )
        coordinator.run()
        assert len(coordinator.failed) == 1
        assert coordinator.failed[0].state_count == 4


class TestChaos:
    def test_chaos_killed_workers_recover_and_match(self, monkeypatch):
        # Every job's first subprocess attempt dies mid-run (including
        # mid-steal-protocol); the retry path must still converge to the
        # sequential result.
        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "1")
        seq_engine, seq_report = _sequential()
        report = DistributedRunner(
            _scenario(), "sds", workers=2, probe_events=2, retry_policy=FAST
        ).run()
        assert report.retries >= 1
        assert not report.failed_partitions
        _assert_matches_sequential(report, seq_engine, seq_report)

    def test_inline_transport_never_chaos_kills(self, monkeypatch):
        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "1")
        seq_engine, seq_report = _sequential()
        report = DistributedRunner(
            _scenario(), "sds", workers=1, probe_events=2
        ).run()
        assert isinstance(report.transport_name, str)
        _assert_matches_sequential(report, seq_engine, seq_report)


class TestCLI:
    def test_run_workers_runs_distributed(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        assert (
            main(
                [
                    "run",
                    "flood:3",
                    "--sim-seconds",
                    "2",
                    "--workers",
                    "2",
                    "--json",
                    str(out),
                ]
            )
            == 0
        )
        captured = capsys.readouterr().out
        assert "distributed:" in captured
        import json

        report = json.loads(out.read_text())
        assert report["total_states"] > 0

    def test_split_ms_and_partition_depth_rejected_together(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "run",
                    "flood:3",
                    "--workers",
                    "2",
                    "--split-ms",
                    "500",
                    "--partition-depth",
                    "20",
                ]
            )
        assert excinfo.value.code == 2  # argparse usage error
        assert "not allowed with argument" in capsys.readouterr().err
