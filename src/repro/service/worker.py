"""The job worker subprocess: one SDE run, streamed and checkpointed.

Each attempt at a job runs here, in a child process supervised by the
:class:`~repro.service.jobs.JobManager`.  The worker:

- rebuilds the scenario from the submission spec (workload registry);
- runs the engine with service-owned checkpointing into the job dir, so
  a killed attempt leaves a resumable checkpoint behind;
- **streams** the event trace: every emitted event is appended to
  ``trace.jsonl`` immediately (line-buffered JSONL), which is what makes
  ``GET /v1/runs/{id}/trace`` live rather than post-hoc;
- on a retry or a service restart, *resumes from the latest checkpoint*
  (PR 3 machinery) instead of starting over — the resumed report is
  pinned equal to an uninterrupted run on every deterministic field;
- writes ``report.json`` atomically and ships a small summary dict back
  on the result queue (or a typed
  :class:`~repro.core.resilience.WorkerFailure` on error).

**Chaos.**  The supervisor decides per attempt whether this worker dies
(seeded coin over ``SDE_CHAOS_KILL_WORKER``, see
:func:`repro.core.resilience.chaos_kill_requested`) and passes a
deterministic ``kill_after`` trace-event count in the payload.  The
worker then ``os._exit``\\ s mid-run once that many events have streamed
— after data has hit the trace file and (usually) a checkpoint has hit
disk, which is exactly the crash the resume path must survive.
"""

from __future__ import annotations

import json
import os
import pickle
from typing import Optional

from ..core.resilience import CheckpointError, failure_from_exception, resume_engine
from ..core.scenario import build_engine
from ..obs.events import TraceEmitter
from .spec import SubmissionSpec

__all__ = ["StreamingTraceEmitter", "execute_job", "job_entry"]


class StreamingTraceEmitter(TraceEmitter):
    """A TraceEmitter that writes each event through to a JSONL file.

    The in-memory event list stays authoritative (checkpoints serialize
    it); the file is a write-through mirror flushed per event so an
    ``os._exit`` or SIGKILL loses nothing that was emitted.  ``kill_after``
    implements the chaos gate's mid-run worker death: the process exits
    hard once that many events have been streamed.
    """

    __slots__ = ("_handle", "_streamed", "kill_after")

    def __init__(self, path, kill_after: Optional[int] = None) -> None:
        super().__init__()
        # "w": a retry owns the whole file — its resumed trace replays the
        # checkpointed prefix, so appending would duplicate events.
        self._handle = open(path, "w", encoding="utf-8")
        self._streamed = 0
        self.kill_after = kill_after

    def emit(self, ev: str, **fields) -> None:
        super().emit(ev, **fields)
        self._stream(self.events[-1])

    def extend(self, events) -> None:
        events = list(events)
        super().extend(events)
        for event in events:
            self._stream(event)

    def _stream(self, event: dict) -> None:
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")
        self._handle.flush()
        self._streamed += 1
        if self.kill_after is not None and self._streamed >= self.kill_after:
            os._exit(137)  # chaos: die like an OOM kill, mid-run

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass


def execute_job(payload: dict) -> dict:
    """Run one job attempt to completion in this process.

    ``payload`` carries the spec dict plus the service-owned paths and
    cadence::

        {"spec": {...}, "trace_path": ..., "report_path": ...,
         "checkpoint_path": ..., "checkpoint_every": 25,
         "kill_after": None | int}

    Returns the summary dict the job manager stores on the record.
    """
    spec = SubmissionSpec.from_dict(payload["spec"])
    checkpoint_path = payload["checkpoint_path"]
    trace = StreamingTraceEmitter(
        payload["trace_path"], kill_after=payload.get("kill_after")
    )
    try:
        engine = None
        if os.path.exists(checkpoint_path):
            # A previous attempt (or a previous service life) left a
            # checkpoint: continue it rather than redoing the work.  The
            # resumed report is pinned equal to an uninterrupted run.
            try:
                engine = resume_engine(
                    checkpoint_path,
                    trace=trace,
                    checkpoint_path=checkpoint_path,
                    checkpoint_every_events=payload["checkpoint_every"],
                )
            except CheckpointError:
                # Unreadable (corrupt, or an older format): runs are
                # deterministic, so starting over from the spec yields
                # the same report.
                pass
        resumed = engine is not None
        if engine is None:
            scenario = spec.build_scenario()
            engine = build_engine(
                scenario,
                spec.algorithm,
                trace=trace,
                checkpoint_path=checkpoint_path,
                checkpoint_every_events=payload["checkpoint_every"],
                **spec.engine_overrides(),
            )
        report = engine.run()
        from ..core.reporting import save_report

        save_report(report, payload["report_path"])
        return {
            "ok": True,
            "events_executed": report.events_executed,
            "total_states": report.total_states,
            "error_states": len(report.error_states),
            "aborted": report.aborted,
            "abort_reason": report.abort_reason,
            "resumed": resumed,
            "checkpoints_written": report.checkpoints_written,
            "trace_events": len(trace),
        }
    finally:
        trace.close()


def job_entry(payload_bytes: bytes, queue, attempt: int = 0) -> None:
    """Subprocess target: run the attempt, ship a summary or a failure.

    Same contract as the distributed runner's pool workers: failures
    travel as typed :class:`WorkerFailure` records (exception name,
    message, full traceback), never bare pickled exceptions.
    """
    # A fork()ed child inherits the service loop's signal plumbing: a
    # no-op C handler for SIGTERM/SIGINT plus the loop's wakeup fd.
    # Left in place, terminate() would not kill the worker, and worse,
    # the child's handler would write into the *shared* wakeup pipe and
    # convince the parent loop that *it* was signalled.  Restore default
    # handling before any real work.
    import signal

    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)

    payload = pickle.loads(payload_bytes)
    try:
        queue.put(pickle.dumps(execute_job(payload)))
    except BaseException as exc:  # noqa: BLE001 - classified for the parent
        queue.put(
            pickle.dumps(failure_from_exception(exc, 0, attempts=attempt + 1))
        )
