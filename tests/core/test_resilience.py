"""Fault tolerance: supervision, retry, checkpoint/resume, cap aborts.

The contracts pinned here (see docs/RESILIENCE.md):

1. A worker SIGKILL'd mid-job must *never* hang the run — a blocking
   ``queue.get()`` drain would do exactly that.  The distributed
   coordinator (the one worker supervisor) detects the death, keeps the
   exit code, retries the job, and a chaos-killed multi-process run
   finishes with results identical to an unfaulted sequential run.
2. Jobs that exhaust their retries surface as typed
   :class:`WorkerFailure` records — raised with the original worker
   traceback chained, or reported in ``failed_partitions`` under
   ``allow_partial`` with the exit code, group indices and state count.
3. A resumed checkpoint yields a report equal to an uninterrupted run's
   on every deterministic field, and corrupt/truncated/foreign
   checkpoint files are rejected loudly at load.
4. Cap aborts (state / memory / wall-clock) produce a well-formed
   partial report, and a checkpoint taken before the abort resumes
   cleanly past it once the cap is raised.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario, Topology
from repro.core import distributed
from repro.core.distributed import (
    DistributedRunner,
    MultiprocessTransport,
    _Coordinator,
)
from repro.core.engine import capture_snapshot, restore_snapshot
from repro.core.partition import partition_groups
from repro.core.reduce import canonical_violations
from repro.core.resilience import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    RetryPolicy,
    WorkerFailure,
    WorkerFailureError,
    chaos_kill_probability,
    chaos_kill_requested,
    failure_from_exception,
    load_checkpoint,
    resume_engine,
    save_checkpoint,
)
from repro.core.scenario import build_engine
from repro.obs import TraceEmitter, diff_traces
from repro.workloads import flood_scenario, grid_scenario

# Fast-failing policy for supervision unit tests: real backoff sleeps
# would only slow the suite down.
FAST = RetryPolicy(
    max_retries=2,
    backoff_base_seconds=0.001,
    poll_interval_seconds=0.02,
)


def _error_signature(report):
    return sorted(
        (s.node, s.error.kind, s.error.message, s.error.code, s.clock)
        for s in report.error_states
    )


def _assert_reports_match(left, right):
    """Equality on every deterministic report field (sids are volatile)."""
    assert left.total_states == right.total_states
    assert left.group_count == right.group_count
    assert left.events_executed == right.events_executed
    assert left.instructions == right.instructions
    assert left.virtual_ms == right.virtual_ms
    assert left.mapping_stats == right.mapping_stats
    assert left.accounted_bytes == right.accounted_bytes
    assert left.solver_queries == right.solver_queries
    assert _error_signature(left) == _error_signature(right)


def _sample_series(report):
    """The Figure-10 series minus its wall-clock and RSS fields."""
    return [
        (
            s.virtual_ms,
            s.events_executed,
            s.live_states,
            s.total_states,
            s.accounted_bytes,
            s.groups,
        )
        for s in report.samples
    ]


def _assert_resumed_samples_match(resumed, baseline, resumed_at):
    """A resumed run's samples equal the uninterrupted run's, including
    every sample taken after the resume point."""
    assert any(s.events_executed > resumed_at for s in resumed.samples)
    assert _sample_series(resumed) == _sample_series(baseline)


# ---------------------------------------------------------------------------
# Synthetic pool worker (module-level: the target of a forked process)
# ---------------------------------------------------------------------------


class FakeResult:
    """Minimal stand-in for a job's RunReport — just needs ``.job_id``."""

    def __init__(self, job_id: int) -> None:
        self.job_id = job_id


def _fake_worker(worker_index, inbox, outbox, steal_check_events):
    """Replaces the pool's job loop; each job's payload names its fate."""
    while True:
        message = inbox.get()
        if message[0] == "stop":
            return
        if message[0] != "job":
            continue
        _, job_id, payload, attempt = message
        mode = payload.decode()
        if mode == "crash" or (mode == "crash-first" and attempt == 0):
            os._exit(23 if mode == "crash" else 17)  # die unreported
        if mode == "hang":
            time.sleep(60)
        if mode == "raise":
            try:
                raise ValueError("boom")
            except ValueError as exc:
                failure = failure_from_exception(exc, job_id)
            outbox.put(("fail", worker_index, job_id, failure))
            continue
        outbox.put(("done", worker_index, job_id, FakeResult(job_id)))


def _inline_ok(job_id, payload):
    return FakeResult(job_id)


def _inline_raise(job_id, payload):
    raise RuntimeError("inline boom")


def _coordinator(
    monkeypatch, modes, *, run_inline=_inline_raise, policy=FAST, **kw
):
    """A coordinator over a real two-process pool running ``_fake_worker``."""
    monkeypatch.setattr(distributed, "_job_worker_main", _fake_worker)
    jobs = [(mode.encode(), 9) for mode in modes]
    return _Coordinator(
        MultiprocessTransport(2, start_method="fork"),
        jobs,
        policy=policy,
        steal=False,
        run_inline=run_inline,
        sleep=lambda _s: None,
        **kw,
    )


# ---------------------------------------------------------------------------
# Failure records and retry policy
# ---------------------------------------------------------------------------


class TestWorkerFailure:
    def test_pickle_round_trip(self):
        failure = WorkerFailure(
            task_index=3,
            kind="crash",
            message="died",
            exitcode=-9,
            attempts=2,
            group_indices=(1, 4),
            state_count=12,
        )
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.as_dict() == failure.as_dict()
        assert clone.group_indices == (1, 4)

    def test_as_dict_is_json_serializable(self):
        failure = WorkerFailure(task_index=0, kind="timeout", message="slow")
        data = json.loads(json.dumps(failure.as_dict()))
        assert data["kind"] == "timeout"
        assert data["task_index"] == 0

    def test_describe_names_the_partition(self):
        failure = WorkerFailure(
            task_index=7, kind="exception", message="x", exc_type="KeyError"
        )
        text = failure.describe()
        assert "partition 7" in text
        assert "KeyError" in text

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WorkerFailure(task_index=0, kind="melted", message="?")


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        a = RetryPolicy(seed=42)
        b = RetryPolicy(seed=42)
        for task in range(3):
            for attempt in range(1, 4):
                assert a.backoff_seconds(task, attempt) == b.backoff_seconds(
                    task, attempt
                )

    def test_backoff_grows_exponentially_within_jitter(self):
        policy = RetryPolicy(
            backoff_base_seconds=0.1, backoff_factor=2.0, backoff_jitter=0.25
        )
        for attempt in (1, 2, 3):
            base = 0.1 * 2.0 ** (attempt - 1)
            delay = policy.backoff_seconds(0, attempt)
            assert base <= delay <= base * 1.25

    def test_first_attempt_has_no_delay(self):
        assert RetryPolicy().backoff_seconds(0, 0) == 0.0

    def test_seed_changes_jitter(self):
        delays = {
            RetryPolicy(seed=s).backoff_seconds(1, 2) for s in range(8)
        }
        assert len(delays) > 1

    def test_chaos_env_parsing(self, monkeypatch):
        for value, expected in (
            ("1", True),
            ("true", True),
            ("", False),
            ("0", False),
            ("no", False),
        ):
            monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", value)
            assert chaos_kill_requested() is expected
        monkeypatch.delenv("SDE_CHAOS_KILL_WORKER")
        assert chaos_kill_requested() is False

    def test_chaos_probability_parsing(self, monkeypatch):
        for value, expected in (
            ("", 0.0),
            ("0", 0.0),
            ("false", 0.0),
            ("no", 0.0),
            ("0.0", 0.0),
            ("0.3", 0.3),
            ("1", 1.0),
            ("1.0", 1.0),
            ("2.5", 1.0),  # clamped
            ("-0.5", 0.0),  # clamped
            ("yes", 1.0),  # plain-truthy string keeps the legacy meaning
            ("banana", 1.0),
        ):
            monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", value)
            assert chaos_kill_probability() == expected
        monkeypatch.delenv("SDE_CHAOS_KILL_WORKER")
        assert chaos_kill_probability() == 0.0

    def test_chaos_truthy_kills_only_first_attempt(self, monkeypatch):
        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "yes")
        assert chaos_kill_requested(0, token="t") is True
        assert chaos_kill_requested(1, token="t") is False
        assert chaos_kill_requested(2, token="t") is False

    def test_chaos_fractional_is_a_seeded_per_attempt_coin(self, monkeypatch):
        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "0.3")
        verdicts = [
            chaos_kill_requested(attempt, token=f"job{job}")
            for job in range(40)
            for attempt in range(3)
        ]
        # Deterministic: the same (token, attempt) grid re-decides
        # identically on a rerun.
        rerun = [
            chaos_kill_requested(attempt, token=f"job{job}")
            for job in range(40)
            for attempt in range(3)
        ]
        assert verdicts == rerun
        # Fractional: neither all-kill nor no-kill, and roughly the asked
        # probability (wide tolerance — this is a seeded coin, not a
        # statistics test).
        rate = sum(verdicts) / len(verdicts)
        assert 0.1 < rate < 0.5
        # Attempts are independent coins: some first attempts survive and
        # some retries die, unlike the all-or-nothing form.
        first = [chaos_kill_requested(0, token=f"job{j}") for j in range(40)]
        later = [chaos_kill_requested(1, token=f"job{j}") for j in range(40)]
        assert any(first) and not all(first)
        assert any(later) and not all(later)

    def test_chaos_fractional_zero_and_one_edges(self, monkeypatch):
        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "0.0")
        assert not any(
            chaos_kill_requested(a, token=f"j{j}")
            for j in range(10)
            for a in range(3)
        )
        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "1.0")
        assert all(chaos_kill_requested(0, token=f"j{j}") for j in range(10))
        assert not any(chaos_kill_requested(1, token=f"j{j}") for j in range(10))


# ---------------------------------------------------------------------------
# Supervision (the distributed coordinator over a real process pool)
# ---------------------------------------------------------------------------


class TestWorkerSupervisor:
    def test_healthy_workers_complete_without_retries(self, monkeypatch):
        coordinator = _coordinator(monkeypatch, ["ok", "ok", "ok"])
        coordinator.run()
        assert sorted(r.job_id for r in coordinator.results) == [0, 1, 2]
        assert coordinator.failed == []
        assert coordinator.retries == 0

    def test_killed_worker_is_retried_and_recovers(self, monkeypatch):
        trace = TraceEmitter()
        coordinator = _coordinator(
            monkeypatch, ["crash-first", "crash-first"], trace=trace
        )
        coordinator.run()
        assert sorted(r.job_id for r in coordinator.results) == [0, 1]
        assert coordinator.failed == []
        assert coordinator.retries == 2  # each job died once
        names = [event["ev"] for event in trace.events]
        assert "worker.crash" in names
        assert "worker.retry" in names
        crash = next(e for e in trace.events if e["ev"] == "worker.crash")
        assert crash["kind"] == "crash"
        assert crash["exitcode"] == 17

    def test_dead_worker_does_not_hang_the_drain(self, monkeypatch):
        # Regression: a blocking ``queue.get()`` drain waits forever when
        # a worker dies without enqueueing a result.
        started = time.monotonic()
        policy = RetryPolicy(
            max_retries=0, poll_interval_seconds=0.02, backoff_base_seconds=0.0
        )
        with pytest.raises(WorkerFailureError) as excinfo:
            _coordinator(monkeypatch, ["crash"], policy=policy).run()
        assert time.monotonic() - started < 30.0
        failure = excinfo.value.failure
        assert failure.kind == "crash"
        assert failure.exitcode == 23
        assert "exitcode 23" in failure.message
        assert "partition 0" in str(excinfo.value)

    def test_final_attempt_runs_inline(self, monkeypatch):
        # With max_retries=1 a crashing job gets its last chance in the
        # coordinator's own process — immune to further worker loss.
        policy = RetryPolicy(
            max_retries=1, poll_interval_seconds=0.02, backoff_base_seconds=0.0
        )
        coordinator = _coordinator(
            monkeypatch, ["crash", "crash"], run_inline=_inline_ok, policy=policy
        )
        coordinator.run()
        assert sorted(r.job_id for r in coordinator.results) == [0, 1]
        assert coordinator.failed == []
        assert coordinator.retries == 2

    def test_allow_partial_reports_instead_of_raising(self, monkeypatch):
        policy = RetryPolicy(
            max_retries=0,
            poll_interval_seconds=0.02,
            allow_partial=True,
        )
        coordinator = _coordinator(
            monkeypatch,
            ["crash", "crash"],
            policy=policy,
            group_indices={0: (3, 5)},
        )
        coordinator.run()
        assert coordinator.results == []
        assert coordinator.retries == 0
        failed = coordinator.failed
        assert sorted(f.task_index for f in failed) == [0, 1]
        by_index = {f.task_index: f for f in failed}
        # The failure record carries enough to rerun the job.
        assert by_index[0].group_indices == (3, 5)
        assert by_index[0].state_count == 9
        assert by_index[0].exitcode == 23
        assert by_index[1].group_indices == ()

    def test_mixed_outcome_keeps_completed_partitions(self, monkeypatch):
        # One healthy job + one that always dies: the healthy result
        # must survive the other job's failure.
        policy = RetryPolicy(
            max_retries=0, poll_interval_seconds=0.02, allow_partial=True
        )
        coordinator = _coordinator(monkeypatch, ["ok", "crash"], policy=policy)
        coordinator.run()
        assert [r.job_id for r in coordinator.results] == [0]
        assert [f.task_index for f in coordinator.failed] == [1]

    def test_timeout_classified_and_terminated(self, monkeypatch):
        policy = RetryPolicy(
            max_retries=0,
            poll_interval_seconds=0.02,
            task_timeout_seconds=0.3,
            allow_partial=True,
        )
        started = time.monotonic()
        coordinator = _coordinator(monkeypatch, ["hang"], policy=policy)
        coordinator.run()
        assert time.monotonic() - started < 30.0
        assert coordinator.results == []
        failed = coordinator.failed
        assert len(failed) == 1
        assert failed[0].kind == "timeout"
        assert "wall-clock budget" in failed[0].message
        assert failed[0].exitcode == -signal.SIGTERM

    def test_worker_exception_preserves_origin(self, monkeypatch):
        policy = RetryPolicy(max_retries=0, poll_interval_seconds=0.02)
        with pytest.raises(WorkerFailureError) as excinfo:
            _coordinator(monkeypatch, ["raise"], policy=policy).run()
        failure = excinfo.value.failure
        assert failure.kind == "exception"
        assert failure.exc_type == "ValueError"
        assert "ValueError: boom" in failure.traceback
        assert "_fake_worker" in failure.traceback
        # The worker traceback is chained for pytest/traceback display.
        assert excinfo.value.__cause__ is not None
        assert "worker traceback" in str(excinfo.value.__cause__)

    def test_inline_fallback_failure_is_classified(self, monkeypatch):
        policy = RetryPolicy(
            max_retries=1,
            poll_interval_seconds=0.02,
            backoff_base_seconds=0.0,
            allow_partial=True,
        )
        coordinator = _coordinator(
            monkeypatch, ["crash"], run_inline=_inline_raise, policy=policy
        )
        coordinator.run()
        assert coordinator.results == []
        failed = coordinator.failed
        assert len(failed) == 1
        assert failed[0].kind == "exception"
        assert failed[0].exc_type == "RuntimeError"
        assert "inline boom" in failed[0].message
        assert "_inline_raise" in failed[0].traceback
        assert failed[0].attempts == 2
        assert failed[0].state_count == 9


# ---------------------------------------------------------------------------
# End-to-end fault injection (the acceptance scenario)
# ---------------------------------------------------------------------------


class TestChaosEquivalence:
    def test_killed_workers_recover_to_sequential_results(self, monkeypatch):
        # Every worker's first attempt dies via SDE_CHAOS_KILL_WORKER;
        # retries complete the run and the merged report + trace multiset
        # must equal the unfaulted sequential run's.
        sequential_trace = TraceEmitter()
        sequential_engine = build_engine(
            flood_scenario(4, rounds=6), "sds", trace=sequential_trace
        )
        sequential = sequential_engine.run()

        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "1")
        parallel_trace = TraceEmitter()
        scenario = flood_scenario(4, rounds=6)
        parallel = DistributedRunner(
            scenario,
            "sds",
            workers=2,
            split_ms=scenario.horizon_ms * 3 // 10,
            steal=False,
            trace=parallel_trace,
            retry_policy=RetryPolicy(
                backoff_base_seconds=0.001, poll_interval_seconds=0.02
            ),
        ).run()

        assert parallel.retries >= 2  # both workers were killed once
        assert not parallel.partial
        _assert_reports_match(parallel, sequential)
        assert parallel.state_census() == sequential_engine.state_census()
        diff = diff_traces(sequential_trace.events, parallel_trace.events)
        assert diff.equal, diff.render(limit=5)
        # The faults themselves are visible in the (meta) trace.
        crashes = [
            e for e in parallel_trace.events if e["ev"] == "worker.crash"
        ]
        assert len(crashes) >= 2
        assert parallel.metrics["counters"]["parallel.retries"] == (
            parallel.retries
        )

    def test_exhausted_jobs_keep_exitcode_and_groups(self, monkeypatch):
        # Every first attempt dies and no retry is allowed: each job of
        # the cut is reported with the killed process's exit code, the
        # mapper groups it carried and its state count — together the
        # jobs name every group of the cut exactly once.
        monkeypatch.setenv("SDE_CHAOS_KILL_WORKER", "1")
        report = DistributedRunner(
            grid_scenario(3, sim_seconds=6),
            "cow",
            workers=2,
            split_ms=2000,
            steal=False,
            max_retries=0,
            allow_partial=True,
            retry_policy=RetryPolicy(poll_interval_seconds=0.02),
        ).run()
        assert report.partial
        assert len(report.failed_partitions) == 2
        groups = []
        for failure in report.failed_partitions:
            assert failure.kind == "crash"
            assert failure.exitcode == 137
            assert failure.state_count > 0
            groups.extend(failure.group_indices)
            assert failure.as_dict()["group_indices"] == list(
                failure.group_indices
            )
        assert sorted(groups) == list(range(len(groups)))
        assert len(groups) >= report.partition_count


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------


def _scenario():
    return grid_scenario(3, sim_seconds=6)


#: A 3-node symbolic flood with a guard that fails on some readings: the
#: handler analysis certifies it, so symmetry/POR prune (240 states) and
#: the run reports violations.
GUARDED_FLOOD = """
var seen;
func on_boot() { timer_set(0, 40 + node_id() * 7); }
func on_timer(tid) {
    var buf[1];
    buf[0] = symbolic("reading", 8);
    bc_send(buf, 1);
}
func on_recv(src, len) {
    var v = recv_byte(0);
    assert(v < 250, 7);
    if (v > 128) { v -= 128; }
    if (v > 64) { v -= 64; }
    if (v > 32) { seen += 1; } else { seen += 2; }
}
"""


def _reduced_engine():
    scenario = Scenario(
        name="guarded-flood",
        program=GUARDED_FLOOD,
        topology=Topology.full_mesh(3),
        horizon_ms=300,
    )
    return build_engine(scenario, "sds", symmetry=True, por=True)


class TestCheckpointResume:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        baseline_engine = build_engine(_scenario(), "sds")
        baseline = baseline_engine.run()

        engine = build_engine(_scenario(), "sds")
        engine.run_until(split_ms=3000)
        path = tmp_path / "mid.sdeckpt"
        header = save_checkpoint(engine, path)
        assert header["events_executed"] == engine.events_executed
        del engine

        resumed = resume_engine(path)
        report = resumed.run()
        assert report.resumed
        _assert_reports_match(report, baseline)
        _assert_resumed_samples_match(report, baseline, header["events_executed"])
        assert resumed.state_census() == baseline_engine.state_census()

    @pytest.mark.parametrize("algorithm", ["cob", "cow", "sds"])
    def test_resume_matches_for_other_mappers(self, tmp_path, algorithm):
        baseline_engine = build_engine(_scenario(), algorithm)
        baseline = baseline_engine.run()
        engine = build_engine(_scenario(), algorithm)
        engine.run_until(split_ms=2000)
        path = tmp_path / "mid.sdeckpt"
        header = save_checkpoint(engine, path)
        resumed = resume_engine(path)
        report = resumed.run()
        _assert_reports_match(report, baseline)
        _assert_resumed_samples_match(report, baseline, header["events_executed"])
        assert resumed.state_census() == baseline_engine.state_census()

    @pytest.mark.parametrize("cut", [50, 150, 300])
    def test_resume_matches_under_symmetry_and_por(self, tmp_path, cut):
        # The reducer's seen-sets are search state: a resume that only
        # re-seeds them from the live states prunes differently afterwards
        # (more states, more events, other reduce counters).
        baseline_engine = _reduced_engine()
        baseline = baseline_engine.run()
        assert baseline.reduce_stats["pruned"] > 0
        engine = _reduced_engine()
        engine.run_until(split_events=cut)
        path = tmp_path / "mid.sdeckpt"
        header = save_checkpoint(engine, path)
        assert header["events_executed"] == cut
        report = resume_engine(path).run()
        _assert_reports_match(report, baseline)
        assert report.reduce_stats == baseline.reduce_stats
        topology = baseline_engine.topology
        assert canonical_violations(report, topology) == canonical_violations(
            baseline, topology
        )
        assert canonical_violations(baseline, topology)
        assert report.state_census() == baseline.state_census()

    def test_periodic_checkpointing_during_run(self, tmp_path):
        path = tmp_path / "auto.sdeckpt"
        trace = TraceEmitter()
        engine = build_engine(
            _scenario(),
            "sds",
            checkpoint_path=str(path),
            checkpoint_every_events=50,
            trace=trace,
        )
        report = engine.run()
        assert report.checkpoints_written >= 2
        assert path.exists()
        writes = [e for e in trace.events if e["ev"] == "checkpoint.write"]
        assert len(writes) == report.checkpoints_written
        # Resuming the *last* periodic checkpoint completes identically.
        resumed = resume_engine(path)
        resumed_at = resumed.events_executed
        resumed_report = resumed.run()
        _assert_reports_match(resumed_report, report)
        _assert_resumed_samples_match(resumed_report, report, resumed_at)
        assert resumed.state_census() == engine.state_census()

    def test_resume_restores_trace_continuity(self, tmp_path):
        sequential_trace = TraceEmitter()
        build_engine(_scenario(), "sds", trace=sequential_trace).run()

        first_trace = TraceEmitter()
        engine = build_engine(_scenario(), "sds", trace=first_trace)
        engine.run_until(split_ms=3000)
        path = tmp_path / "mid.sdeckpt"
        save_checkpoint(engine, path)

        resumed_trace = TraceEmitter()
        resumed = resume_engine(path, trace=resumed_trace)
        resumed.run()
        # The checkpoint carried the pre-split events, so the resumed
        # trace is the *complete* run's trace, not just the tail.
        diff = diff_traces(sequential_trace.events, resumed_trace.events)
        assert diff.equal, diff.render(limit=5)
        assert any(
            e["ev"] == "checkpoint.resume" for e in resumed_trace.events
        )

    def test_resume_report_flags_and_json(self, tmp_path):
        from repro.core.reporting import report_to_dict

        engine = build_engine(_scenario(), "sds")
        engine.run_until(split_ms=3000)
        path = tmp_path / "mid.sdeckpt"
        save_checkpoint(engine, path)
        report = resume_engine(path).run()
        data = report_to_dict(report)
        assert data["resumed"] is True
        assert data["partial"] is False
        assert report.metrics["gauges"]["run.resumed"] == 1

    def test_header_is_readable_without_unpickling(self, tmp_path):
        engine = build_engine(_scenario(), "sds")
        engine.run_until(split_ms=3000)
        path = tmp_path / "mid.sdeckpt"
        save_checkpoint(engine, path)
        with open(path, "rb") as handle:
            magic = handle.readline().strip()
            header = json.loads(handle.readline())
        assert magic == CHECKPOINT_MAGIC
        assert header["algorithm"] == "sds"
        assert header["events_executed"] == engine.events_executed
        assert header["total_states"] == len(engine.states)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        engine = build_engine(_scenario(), "sds")
        engine.run_until(split_ms=3000)
        path = tmp_path / "mid.sdeckpt"
        save_checkpoint(engine, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(CheckpointError, match="integrity"):
            load_checkpoint(path)

    def test_corrupted_body_rejected(self, tmp_path):
        engine = build_engine(_scenario(), "sds")
        engine.run_until(split_ms=3000)
        path = tmp_path / "mid.sdeckpt"
        save_checkpoint(engine, path)
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="integrity"):
            load_checkpoint(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "not-a-checkpoint"
        path.write_bytes(b"definitely json\n{}")
        with pytest.raises(CheckpointError, match="not an SDE checkpoint"):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.sdeckpt")

    @pytest.mark.parametrize("header", [b"[1]", b"7", b'"v4"', b"null"])
    def test_non_object_header_rejected(self, tmp_path, header):
        path = tmp_path / "odd.sdeckpt"
        path.write_bytes(CHECKPOINT_MAGIC + b"\n" + header + b"\nbody")
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path)

    def test_future_version_rejected(self, tmp_path):
        engine = build_engine(_scenario(), "sds")
        engine.run_until(split_ms=3000)
        path = tmp_path / "mid.sdeckpt"
        save_checkpoint(engine, path)
        magic, header_bytes, body = path.read_bytes().split(b"\n", 2)
        header = json.loads(header_bytes)
        header["version"] = 99
        path.write_bytes(
            magic + b"\n" + json.dumps(header).encode("ascii") + b"\n" + body
        )
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)


    def test_previous_version_rejected(self, tmp_path):
        # A version-3 body carries no reducer state: resuming it would
        # silently diverge under symmetry/POR, so the header refuses it.
        path = tmp_path / "old.sdeckpt"
        path.write_bytes(CHECKPOINT_MAGIC + b'\n{"version": 3}\nbody')
        with pytest.raises(CheckpointError, match="version 3"):
            resume_engine(path)


@pytest.fixture(scope="module")
def damage_site(tmp_path_factory):
    """A real checkpoint's bytes, and a path to write damaged copies to."""
    directory = tmp_path_factory.mktemp("damage")
    engine = build_engine(_scenario(), "sds")
    engine.run_until(split_ms=3000)
    path = directory / "mid.sdeckpt"
    save_checkpoint(engine, path)
    return path.read_bytes(), directory / "damaged.sdeckpt"


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_only_raises_checkpoint_error(damage_site, data):
    """Any flipped byte or truncation of a real checkpoint is refused
    with :class:`CheckpointError` — never another exception, never a
    silent resume."""
    original, path = damage_site
    position = data.draw(st.integers(0, len(original) - 1), label="position")
    if data.draw(st.booleans(), label="truncate"):
        damaged = original[:position]
    else:
        flipped = bytearray(original)
        flipped[position] ^= 0xFF
        damaged = bytes(flipped)
    path.write_bytes(damaged)
    with pytest.raises(CheckpointError):
        resume_engine(path)


# ---------------------------------------------------------------------------
# One snapshot format for checkpoints and distributed jobs
# ---------------------------------------------------------------------------


def _frontier(engine):
    """Everything a restored engine continues from, sids included."""
    states = {
        sid: (
            state.node,
            state.status,
            state.clock,
            tuple(state.memory),
            len(state.constraints),
            tuple((event.time, event.kind) for event in state.events),
        )
        for sid, state in engine.states.items()
    }
    groups = sorted(
        sorted(state.sid for states in group.values() for state in states)
        for group in engine.mapper.groups()
    )
    return states, groups, engine.scheduler_snapshot(), engine.clock.now


class TestOneSnapshotFormat:
    def test_job_of_all_groups_restores_like_a_checkpoint(self, tmp_path):
        engine = build_engine(_scenario(), "sds")
        engine.run_until(split_ms=3000)
        job = pickle.loads(
            pickle.dumps(capture_snapshot(engine, partition_groups(engine.mapper)))
        )
        path = tmp_path / "mid.sdeckpt"
        save_checkpoint(engine, path)
        _, checkpoint = load_checkpoint(path)

        assert job.baselines is None and checkpoint.baselines is not None
        for watermark in ("state_watermark", "packet_watermark", "broadcast_watermark"):
            assert getattr(job, watermark) == getattr(checkpoint, watermark)
        from_job = restore_snapshot(job)
        from_checkpoint = restore_snapshot(checkpoint)
        assert _frontier(from_job) == _frontier(from_checkpoint)
        assert _frontier(from_checkpoint) == _frontier(engine)


# ---------------------------------------------------------------------------
# Cap aborts (state / memory / wall-clock)
# ---------------------------------------------------------------------------


class TestCapAborts:
    def _abort_report(self, **caps):
        engine = build_engine(
            grid_scenario(3, sim_seconds=10),
            "sds",
            sample_every_events=1,
            **caps,
        )
        return engine.run(), engine

    def test_state_cap_produces_partial_report(self):
        report, _ = self._abort_report(max_states=10)
        assert report.aborted
        assert "state cap exceeded" in report.abort_reason
        assert report.total_states > 10  # the sample that tripped the cap
        assert report.metrics["gauges"]["run.aborted"] == 1

    def test_memory_cap_produces_partial_report(self):
        report, _ = self._abort_report(max_accounted_bytes=1)
        assert report.aborted
        assert "memory cap exceeded" in report.abort_reason
        assert report.metrics["gauges"]["run.aborted"] == 1

    def test_wall_cap_produces_partial_report(self):
        report, _ = self._abort_report(max_wall_seconds=1e-9)
        assert report.aborted
        assert "wall-clock cap exceeded" in report.abort_reason

    def test_aborted_report_serializes_cleanly(self, tmp_path):
        from repro.core.reporting import load_report_dict, save_report
        from repro.obs import validate_metrics

        report, _ = self._abort_report(max_states=10)
        assert validate_metrics(report.metrics) == []
        path = tmp_path / "aborted.json"
        save_report(report, path)
        data = load_report_dict(path)
        assert data["aborted"] is True
        assert "state cap" in data["abort_reason"]
        assert data["metrics"]["gauges"]["run.aborted"] == 1

    def test_unaborted_run_reports_zero_gauge(self):
        report = build_engine(grid_scenario(3, sim_seconds=4), "sds").run()
        assert report.metrics["gauges"]["run.aborted"] == 0

    def test_checkpoint_before_abort_resumes_past_the_cap(self, tmp_path):
        # Table I's workflow: a capped run aborts, but the last checkpoint
        # lets the operator raise the cap and continue instead of
        # restarting from scratch.
        baseline_engine = build_engine(grid_scenario(3, sim_seconds=6), "sds")
        baseline = baseline_engine.run()

        path = tmp_path / "pre-abort.sdeckpt"
        engine = build_engine(
            grid_scenario(3, sim_seconds=6),
            "sds",
            sample_every_events=1,
            max_states=20,
            checkpoint_path=str(path),
            checkpoint_every_events=5,
        )
        capped = engine.run()
        assert capped.aborted
        assert path.exists()

        header, _ = load_checkpoint(path)
        assert header["total_states"] <= 20  # written before the abort

        resumed = resume_engine(path, max_states=None, sample_every_events=200)
        report = resumed.run()
        assert not report.aborted
        _assert_reports_match(report, baseline)
        assert resumed.state_census() == baseline_engine.state_census()
