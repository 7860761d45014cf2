"""Multi-process SDE: cut one run into self-contained jobs, run them on a pool.

The paper names this as the key next step (Section VI): "we have to
identify the sets of states which can be safely offloaded on other cores
and thus can be independently executed."  :mod:`repro.core.partition`
identifies those sets — connected components of the dstate/state sharing
graph; this module executes them on worker processes, following
"Distributed Symbolic Execution using Test-Depth Partitioning"
(PAPERS.md): run the engine sequentially to a **cut**, ship every live
partition as a self-contained job, and keep the pool busy with
work-stealing.

Where to cut is the one choice :class:`DistributedRunner` offers:

- a **virtual-time cut** (``split_ms``) runs until that virtual time, by
  which the scenario's communication structure has formed — the right cut
  for topologies like the paper's grid, whose components are independent
  from early on;
- an **event-depth cut** (``partition_depth``) stops after that many
  executed events;
- the default, **adaptive** cut deepens in event slices until the sharing
  graph has fractured.  Splitting a connected SDS component at one instant
  is unsound — ``needs_fork`` decisions depend on virtual states in
  *other* dstates of the component — but components naturally fracture as
  execution deepens (states diverge, sharing dissolves), so
  :func:`deepen_until_partitioned` recomputes
  :func:`~repro.core.partition.partition_groups` after each slice and cuts
  at the first frontier with enough balanced components (or when the run
  completes first — the degenerate sequential case).

After the cut the pipeline is the same for all three:

1. :func:`~repro.core.partition.lpt_assign` bundles the partitions onto
   the workers, and each bundle ships as a job: the pickled
   :class:`~repro.core.engine.EngineSnapshot` of its groups (the same
   serialization a checkpoint uses, under the run's
   :meth:`EngineConfig.worker_variant`) next to its state count.  Every
   cut lands on an event boundary, so all states are quiescent and the
   scheduler snapshot is exact; the constraints travel inside the
   snapshot (each shipped state carries its ``ConstraintSet``), which is
   what makes a job self-contained.
2. A coordinator hands the jobs to workers over a pluggable
   :class:`Transport` (a ``multiprocessing`` pool, or the in-process
   :class:`InlineTransport` for one worker).  With ``steal`` on,
   stragglers are rebalanced by **work-stealing**: an idle pool prompts a
   busy worker to re-partition its remaining frontier at its next event
   boundary and hand half back as fresh jobs.  With ``steal`` off and a
   time cut, this is the plain split/partition/ship/merge pipeline.
3. The per-job results — each a plain :class:`~repro.core.engine.RunReport`
   — merge into one :class:`DistributedReport`.

Why the merged report is pinned identical to the sequential run: a cut
ships every live state to exactly one job, transmissions only ever map
within the sender's dstates, and each state executes the identical event
sequence no matter which process hosts it (the scheduler snapshot
preserves the sequential pop order, and solver verdicts are
solver-instance independent).  A steal is just another cut — the donor's
partial slice is reported with *flow* counters only (events,
instructions, solver queries, stats, trace events) while all *stock*
totals (states, census, groups, errors, memory) come from the terminal
jobs, whose states are exactly the sequential run's.  So state counts,
the census, error states, group counts, mapping stats and solver query
totals sum to the sequential run's values for any worker count and any
steal timing; only cache hit/miss ratios shift with the partitioning.
State ids remain volatile; semantic trace comparison is by canonical
multiset, which ignores them.

Failures use the typed-failure vocabulary of
:mod:`repro.core.resilience`: dead workers are detected by liveness
scans (keeping their exit code), jobs are retried with the deterministic
backoff policy, the final crash/exception attempt runs inline, and
``SDE_CHAOS_KILL_WORKER`` kills job attempts in their subprocess.  A donor
that dies *after* a steal reply costs nothing extra — the reply carries
the kept half as a fresh payload, so the retry resumes from the split —
and a donor that dies *before* replying simply retries the original job.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import queue as queue_module
import sys
import time as _time
from abc import ABC, abstractmethod
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.events import TraceEmitter
from ..obs.metrics import Histogram, report_snapshot
from ..obs.profile import merge_phase_snapshots
from .engine import RunReport, SDEEngine, capture_snapshot, restore_snapshot
from .partition import (
    Partition,
    lpt_assign,
    partition_groups,
    projected_speedup,
    steal_split,
)
from .resilience import (
    RetryPolicy,
    WorkerFailure,
    chaos_kill_requested,
    failure_from_exception,
    raise_worker_failure,
)
from .stats import PROGRAM_IMAGE_COST_PER_INSTRUCTION, Sample, process_rss_bytes

__all__ = [
    "DistributedReport",
    "DistributedRunner",
    "InlineTransport",
    "MultiprocessTransport",
    "Transport",
    "deepen_until_partitioned",
]

#: Events between a worker's steal-request polls.  Each poll is one
#: non-blocking queue read; the value bounds steal latency (a donor can
#: only hand work over at an event boundary it actually reaches).
DEFAULT_STEAL_CHECK_EVENTS = 64

#: Events per partitioner probe slice (adaptive mode).
DEFAULT_PROBE_EVENTS = 32

#: Adaptive-mode budget: if the sharing graph has not fractured within
#: this many events, distribute whatever components exist (possibly one —
#: the run then degrades to supervised sequential execution).
DEFAULT_PROBE_LIMIT_EVENTS = 4096

#: Seconds a worker that answered "nothing to steal" is left alone before
#: the coordinator asks again (its component may fracture later).
STEAL_RETRY_COOLDOWN_SECONDS = 0.5


def _job(engine: SDEEngine, bundle: Sequence[Partition]) -> Tuple[bytes, int]:
    """One partition bundle as a job: its pickled snapshot and state count.

    The state count is all the coordinator knows of a job without
    unpickling it — enough to meter steals and describe failures.
    """
    return (
        pickle.dumps(capture_snapshot(engine, bundle)),
        sum(p.state_count() for p in bundle),
    )


def _job_report(engine: SDEEngine, job_id: int) -> RunReport:
    """A job's result: its engine's report, tagged with the job id and
    carrying the job's trace events for the coordinator to merge."""
    engine._sample_and_check_caps(force=True)
    report = RunReport(engine)
    report.job_id = job_id
    report.trace_events = engine.trace.events if engine.trace is not None else []
    return report


def deepen_until_partitioned(
    engine: SDEEngine,
    min_partitions: int,
    probe_events: int = DEFAULT_PROBE_EVENTS,
    probe_limit_events: Optional[int] = DEFAULT_PROBE_LIMIT_EVENTS,
    balance_workers: Optional[int] = None,
    balance_fraction: float = 0.8,
    trace: Optional[TraceEmitter] = None,
) -> List[Partition]:
    """Advance ``engine`` until its sharing graph has fractured.

    Runs ``probe_events``-sized slices and recomputes the component
    decomposition after each, returning the partition list of the first
    frontier with at least ``min_partitions`` components that still have
    runnable states.  With ``balance_workers`` set, the cut additionally
    waits until the LPT-projected speedup on that many workers reaches
    ``balance_fraction`` of linear — a frontier that has *just* fractured
    is typically lopsided, and cutting there trades the whole run's
    balance for a few hundred saved prefix events.  Returns whatever
    exists once ``probe_limit_events`` is exhausted or the run completes —
    callers must handle both the empty-frontier and the still-connected
    cases.
    """
    engine.run_until(split_events=0)  # boot states exist before probing
    while True:
        partitions = partition_groups(engine.mapper)
        runnable = {sid for _, sid in engine.scheduler_snapshot()}
        if not runnable or engine.aborted:
            return partitions
        live_partitions = [p for p in partitions if p.state_sids & runnable]
        live = len(live_partitions)
        if trace is not None:
            trace.emit(
                "worker.partition.deepen",
                events=engine.events_executed,
                partitions=live,
            )
        balanced = balance_workers is None or projected_speedup(
            live_partitions, balance_workers
        ) >= balance_fraction * balance_workers
        if live >= min_partitions and balanced:
            return partitions
        if (
            probe_limit_events is not None
            and engine.events_executed >= probe_limit_events
        ):
            return partitions
        before = engine.events_executed
        engine.run_until(split_events=before + probe_events)
        if engine.events_executed == before:
            return partitions  # horizon reached with entries still queued


# ---------------------------------------------------------------------------
# Transport: opaque message passing between the coordinator and workers
# ---------------------------------------------------------------------------
#
# Wire protocol (all messages are picklable tuples; the transport never
# inspects them beyond delivery):
#
#   coordinator -> worker:
#     ("job", job_id, payload_bytes, attempt)   run one job
#     ("steal", )                               re-partition and hand half back
#     ("stop", )                                exit the worker loop
#
#   worker -> coordinator:
#     ("done", worker, job_id, RunReport)       terminal result for job_id
#     ("steal_reply", worker, job_id, partial_report, kept_payload,
#       [(payload, state_count), ...])          donor split: flow-only slice
#                                               report + its continuation +
#                                               the stolen jobs
#     ("steal_deny", worker, job_id)            single component, can't split
#     ("fail", worker, job_id, WorkerFailure)   worker survived an exception


class Transport(ABC):
    """Moves opaque messages between one coordinator and N workers.

    Implementations own worker lifecycle (:meth:`start`, :meth:`alive`,
    :meth:`restart`, :meth:`stop`) and message delivery (:meth:`send` to a
    specific worker, :meth:`recv` from any).  The coordinator guarantees it
    never sends a job to a worker it believes busy; workers queue anything
    unexpected until the current job finishes.
    """

    worker_count: int

    @abstractmethod
    def start(self) -> None:
        """Bring up ``worker_count`` workers."""

    @abstractmethod
    def send(self, worker: int, message: tuple) -> None:
        """Deliver ``message`` to ``worker``."""

    @abstractmethod
    def recv(self, timeout: float) -> Optional[tuple]:
        """Next worker message, or ``None`` after ``timeout`` seconds."""

    @abstractmethod
    def alive(self, worker: int) -> bool:
        """Whether ``worker`` can still make progress."""

    @abstractmethod
    def restart(self, worker: int) -> Optional[int]:
        """Replace ``worker`` with a fresh one (dropping queued input).

        Returns the replaced worker's exit code when the backend has one
        (a killed subprocess), else ``None``.
        """

    @abstractmethod
    def stop(self) -> None:
        """Tear everything down; never raises."""


def _execute_job(
    worker_index: int,
    job_id: int,
    payload: bytes,
    send,
    poll_steal,
    steal_check_events: int,
) -> None:
    """Run one job payload to completion, honouring steal requests.

    The engine advances in ``steal_check_events``-sized slices; between
    slices (an event boundary — states quiescent, snapshot exact) the
    worker polls for a steal request.  Granting one means: snapshot *all*
    local partitions, ship a flow-only partial result plus the stolen half
    plus our own continuation payload in a single atomic reply, then
    resume from the continuation.  The reply is self-delimiting: even if
    this worker dies right after sending it, the coordinator can finish
    the subtree from the kept/stolen payloads alone.
    """
    while True:
        snapshot = pickle.loads(payload)
        engine = restore_snapshot(
            snapshot, trace=TraceEmitter(worker=job_id) if snapshot.traced else None
        )
        while True:
            target = engine.events_executed + steal_check_events
            engine.run_until(split_events=target)
            if engine.events_executed < target or engine.aborted:
                send(("done", worker_index, job_id, _job_report(engine, job_id)))
                return
            if poll_steal is not None and poll_steal():
                split = _split_for_steal(engine, job_id)
                if split is None:
                    send(("steal_deny", worker_index, job_id))
                    continue
                partial, payload, stolen_jobs = split
                send(
                    (
                        "steal_reply",
                        worker_index,
                        job_id,
                        partial,
                        payload,
                        stolen_jobs,
                    )
                )
                break  # restart from the kept half


def _split_for_steal(
    engine: SDEEngine, job_id: int
) -> Optional[Tuple[RunReport, bytes, List[Tuple[bytes, int]]]]:
    """Split a running engine in half; ``None`` when it cannot be split.

    Returns ``(partial_report, kept_payload, stolen_jobs)``.  The partial
    report covers the donor's slice up to this boundary with *flow*
    counters only: its stock totals are zeroed (and ``accounted_bytes``
    set to the shared-image sentinel) because every state lives on in
    exactly one of the kept/stolen payloads, whose terminal reports will
    count them.
    """
    partitions = partition_groups(engine.mapper)
    runnable = {sid for _, sid in engine.scheduler_snapshot()}
    live = [p for p in partitions if p.state_sids & runnable]
    if len(live) < 2:
        return None

    def runnable_weight(partition: Partition) -> int:
        return len(partition.state_sids & runnable)

    # Balance the *remaining* work; quiescent partitions carry stock
    # states but no events, so they stay with the donor (same shipping
    # cost either way, one fewer restore on the thief).
    kept, given = steal_split(live, weight=runnable_weight)
    if not kept or not given:
        return None
    kept = kept + [p for p in partitions if not (p.state_sids & runnable)]
    kept_payload, _ = _job(engine, kept)
    stolen_jobs = [_job(engine, given)]
    partial = _job_report(engine, job_id)
    partial.total_states = 0
    partial.active_states = 0
    partial.group_count = 0
    partial.error_states = []
    partial.census = {}
    partial.accounted_bytes = PROGRAM_IMAGE_COST_PER_INSTRUCTION * len(
        engine.program.code
    )
    return partial, kept_payload, stolen_jobs


def _job_worker_main(
    worker_index: int, inbox, outbox, steal_check_events: int
) -> None:  # pragma: no cover - subprocess
    """Pool-worker entry: serve job messages until told to stop.

    ``SDE_CHAOS_KILL_WORKER`` makes job attempts die unreported (like an
    OOM kill): every first attempt when set plain-truthy, a seeded
    per-(job, attempt) coin when set to a fractional probability.
    """
    import gc

    # Fork-started workers inherit the coordinator's whole heap.  Freeze it
    # so the cyclic GC never scans (and copy-on-write-unshares) inherited
    # pages — without this, a large parent heap multiplies across workers
    # and the run degrades to slower than sequential.
    gc.freeze()
    pending: deque = deque()

    def poll_steal() -> bool:
        try:
            message = inbox.get_nowait()
        except queue_module.Empty:
            return False
        if message[0] == "steal":
            return True
        pending.append(message)  # stop/unexpected: handle after this job
        return False

    while True:
        if pending:
            message = pending.popleft()
        else:
            message = inbox.get()
        tag = message[0]
        if tag == "stop":
            return
        if tag == "steal":
            # Raced with our own completion: nothing running here.
            outbox.put(("steal_deny", worker_index, -1))
            continue
        _, job_id, payload, attempt = message
        if chaos_kill_requested(attempt, token=f"job:{job_id}"):
            os._exit(137)
        try:
            _execute_job(
                worker_index,
                job_id,
                payload,
                outbox.put,
                poll_steal,
                steal_check_events,
            )
        except BaseException as exc:
            outbox.put(
                ("fail", worker_index, job_id, failure_from_exception(exc, job_id))
            )


class MultiprocessTransport(Transport):
    """The in-process pool backend: one subprocess per worker.

    Per-worker inbox queues plus one shared outbox.  ``restart`` replaces
    the process *and* its inbox, so queued messages for a dead worker are
    dropped rather than replayed at a worker that never had the job.
    """

    def __init__(
        self,
        worker_count: int,
        start_method: Optional[str] = None,
        steal_check_events: int = DEFAULT_STEAL_CHECK_EVENTS,
    ) -> None:
        if worker_count < 1:
            raise ValueError("need at least one worker")
        self.worker_count = worker_count
        self.steal_check_events = steal_check_events
        import multiprocessing

        if start_method is not None:
            self._context = multiprocessing.get_context(start_method)
        else:
            try:
                self._context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                self._context = multiprocessing.get_context("spawn")
        self._inboxes: Dict[int, object] = {}
        self._processes: Dict[int, object] = {}
        self._outbox = None

    def start(self) -> None:
        self._outbox = self._context.Queue()
        for worker in range(self.worker_count):
            self._spawn(worker)

    def _spawn(self, worker: int) -> None:
        inbox = self._context.Queue()
        process = self._context.Process(
            target=_job_worker_main,
            args=(worker, inbox, self._outbox, self.steal_check_events),
        )
        process.daemon = True
        process.start()
        self._inboxes[worker] = inbox
        self._processes[worker] = process

    def send(self, worker: int, message: tuple) -> None:
        self._inboxes[worker].put(message)

    def recv(self, timeout: float) -> Optional[tuple]:
        try:
            return self._outbox.get(timeout=timeout)
        except queue_module.Empty:
            return None

    def alive(self, worker: int) -> bool:
        process = self._processes.get(worker)
        return process is not None and process.is_alive()

    def restart(self, worker: int) -> Optional[int]:
        exitcode = None
        process = self._processes.pop(worker, None)
        if process is not None:
            if process.is_alive():
                process.terminate()
            process.join()
            exitcode = process.exitcode
        old_inbox = self._inboxes.pop(worker, None)
        if old_inbox is not None:
            old_inbox.close()
        self._spawn(worker)
        return exitcode

    def stop(self) -> None:
        for worker, process in list(self._processes.items()):
            if process.is_alive():
                try:
                    self._inboxes[worker].put(("stop",))
                except Exception:  # pragma: no cover - queue already broken
                    pass
        deadline = _time.monotonic() + 2.0
        for process in self._processes.values():
            process.join(timeout=max(0.0, deadline - _time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join()
        self._processes.clear()
        self._inboxes.clear()


class InlineTransport(Transport):
    """Single in-process worker: jobs execute synchronously inside ``send``.

    The same pickle round-trip as subprocess workers (payloads are built
    and unpickled identically), no fork/spawn overhead, nothing to steal
    (one worker is never idle while another is busy) and chaos injection
    does not apply — killing the worker would kill the coordinator.  This
    is the ``workers=1`` backend and the determinism anchor for tests.
    """

    worker_count = 1

    def __init__(self) -> None:
        self._replies: deque = deque()

    def start(self) -> None:
        self._replies.clear()

    def send(self, worker: int, message: tuple) -> None:
        tag = message[0]
        if tag in ("stop",):
            return
        if tag == "steal":
            self._replies.append(("steal_deny", 0, -1))
            return
        _, job_id, payload, attempt = message
        try:
            self._replies.append(("done", 0, job_id, self.run_job(job_id, payload)))
        except BaseException as exc:
            self._replies.append(
                ("fail", 0, job_id, failure_from_exception(exc, job_id))
            )

    @staticmethod
    def run_job(job_id: int, payload: bytes) -> RunReport:
        """Run one job to completion in this process; raises on failure.

        Also the coordinator's in-process final attempt at a job.  Nothing
        polls for steals, so the job runs as one slice.
        """
        replies: List[tuple] = []
        _execute_job(0, job_id, payload, replies.append, None, sys.maxsize)
        return replies[-1][3]

    def recv(self, timeout: float) -> Optional[tuple]:
        if self._replies:
            return self._replies.popleft()
        return None

    def alive(self, worker: int) -> bool:
        return True

    def restart(self, worker: int) -> None:  # pragma: no cover - never dies
        return None

    def stop(self) -> None:
        self._replies.clear()


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


class _RunningJob:
    """Coordinator-side record of one in-flight job."""

    __slots__ = ("job_id", "attempt", "deadline")

    def __init__(self, job_id: int, attempt: int, deadline) -> None:
        self.job_id = job_id
        self.attempt = attempt
        self.deadline = deadline


class StealStats:
    """Work-stealing counters for the merged report."""

    __slots__ = ("requested", "granted", "denied")

    def __init__(self) -> None:
        self.requested = 0
        self.granted = 0
        self.denied = 0


class _Coordinator:
    """Drives jobs over a transport: dispatch, steal, supervise, retry.

    The run's only worker supervisor: typed :class:`WorkerFailure`
    records, deterministic seeded backoff, an in-process final attempt for
    crash/exception failures (timeouts keep retrying in a subprocess), and
    ``allow_partial`` degrading exhausted jobs to report entries instead
    of raising.  Completed jobs survive another job's failure.
    ``jobs`` are ``(payload, state_count)`` pairs.  ``group_indices`` maps
    the initial cut's job ids to the mapper groups they carry, so a
    failure record names enough to rerun the job; jobs split off by a
    steal carry their state count only.
    """

    def __init__(
        self,
        transport: Transport,
        jobs: List[Tuple[bytes, int]],
        policy: RetryPolicy,
        steal: bool,
        run_inline,
        trace: Optional[TraceEmitter] = None,
        sleep=_time.sleep,
        group_indices: Optional[Dict[int, Tuple[int, ...]]] = None,
    ) -> None:
        self.transport = transport
        self.policy = policy
        self.steal_enabled = steal and transport.worker_count > 1
        self.run_inline = run_inline
        self.group_indices = dict(group_indices or {})
        self.trace = trace
        self.sleep = sleep

        self.payloads: Dict[int, bytes] = {}
        self.state_counts: Dict[int, int] = {}
        self._next_job_id = 0
        for payload, state_count in jobs:
            self._enqueue_new(payload, state_count)
        self.pending: deque = deque(sorted(self.payloads))
        self.attempts: Dict[int, int] = {}
        self.results: List[RunReport] = []
        self.failed: List[WorkerFailure] = []
        self.retries = 0
        self.steal_stats = StealStats()
        self.jobs_dispatched = 0
        self._outstanding = len(self.payloads)
        self._resolved: set = set()
        self._busy: Dict[int, _RunningJob] = {}
        self._steal_pending: set = set()
        self._steal_cooldown: Dict[int, float] = {}

    # -- public ------------------------------------------------------------

    def run(self) -> None:
        """Run every job (and every job stolen along the way) to an end."""
        if self._outstanding == 0:
            return
        self.transport.start()
        try:
            idle = set(range(self.transport.worker_count))
            while self._outstanding > 0:
                self._dispatch(idle)
                self._maybe_steal(idle)
                message = self.transport.recv(self.policy.poll_interval_seconds)
                if message is None:
                    self._scan_workers(idle)
                    continue
                self._handle(message, idle)
        finally:
            self.transport.stop()

    # -- internals ----------------------------------------------------------

    def _enqueue_new(self, payload: bytes, state_count: int) -> int:
        job_id = self._next_job_id
        self._next_job_id += 1
        self.payloads[job_id] = payload
        self.state_counts[job_id] = state_count
        return job_id

    def _dispatch(self, idle: set) -> None:
        while self.pending and idle:
            worker = min(idle)
            if not self.transport.alive(worker):
                self.transport.restart(worker)
            job_id = self.pending.popleft()
            if job_id in self._resolved:  # pragma: no cover - defensive
                continue
            idle.discard(worker)
            attempt = self.attempts.get(job_id, 0)
            deadline = None
            if self.policy.task_timeout_seconds is not None:
                deadline = (_time.monotonic() + self.policy.task_timeout_seconds)
            self._busy[worker] = _RunningJob(job_id, attempt, deadline)
            self.jobs_dispatched += 1
            if self.trace is not None:
                self.trace.emit("worker.job.dispatch", job=job_id, attempt=attempt)
            self.transport.send(worker, ("job", job_id, self.payloads[job_id], attempt))

    def _maybe_steal(self, idle: set) -> None:
        if not self.steal_enabled or self.pending or not idle:
            return
        now = _time.monotonic()
        for worker in sorted(self._busy):
            if worker in self._steal_pending:
                continue
            if self._steal_cooldown.get(worker, 0.0) > now:
                continue
            self._steal_pending.add(worker)
            self.steal_stats.requested += 1
            if self.trace is not None:
                self.trace.emit("worker.steal.request", victim=worker)
            self.transport.send(worker, ("steal",))
            return  # one request per loop turn

    def _handle(self, message: tuple, idle: set) -> None:
        tag = message[0]
        if tag == "done":
            _, worker, job_id, result = message
            if job_id in self._resolved:
                return  # stale duplicate after a presumed-death requeue
            self._resolved.add(job_id)
            self._outstanding -= 1
            self.results.append(result)
            self._busy.pop(worker, None)
            self._steal_pending.discard(worker)
            idle.add(worker)
            if self.trace is not None:
                self.trace.emit("worker.job.done", job=job_id)
        elif tag == "steal_reply":
            _, worker, job_id, partial, kept_payload, stolen_jobs = message
            self._steal_pending.discard(worker)
            running = self._busy.get(worker)
            if (
                job_id in self._resolved
                or running is None
                or running.job_id != job_id
            ):
                # The whole job was (or will be) re-run from its pre-split
                # payload; the partial and the stolen half must be dropped
                # together or states would be double-counted.
                return
            self.steal_stats.granted += 1
            # Cooldown after a grant too: re-stealing from a donor that
            # just paid for a split/restore thrashes the run's tail.
            self._steal_cooldown[worker] = (
                _time.monotonic() + STEAL_RETRY_COOLDOWN_SECONDS
            )
            self.results.append(partial)
            # The donor continues from the kept half: a later crash must
            # retry only that half, not replay the reported slice.
            self.payloads[job_id] = kept_payload
            if running.deadline is not None:
                running.deadline = (
                    _time.monotonic() + self.policy.task_timeout_seconds
                )
            moved = 0
            for payload, state_count in stolen_jobs:
                self.pending.append(self._enqueue_new(payload, state_count))
                self._outstanding += 1
                moved += state_count
            if self.trace is not None:
                self.trace.emit("worker.steal.grant", job=job_id, states=moved)
        elif tag == "steal_deny":
            _, worker, _job_id = message
            self._steal_pending.discard(worker)
            self._steal_cooldown[worker] = (
                _time.monotonic() + STEAL_RETRY_COOLDOWN_SECONDS
            )
            self.steal_stats.denied += 1
            if self.trace is not None:
                self.trace.emit("worker.steal.deny", job=_job_id)
        elif tag == "fail":
            _, worker, job_id, failure = message
            self._busy.pop(worker, None)
            self._steal_pending.discard(worker)
            idle.add(worker)
            if job_id not in self._resolved:
                self._job_failed(job_id, failure)

    def _scan_workers(self, idle: set) -> None:
        now = _time.monotonic()
        for worker, running in list(self._busy.items()):
            if not self.transport.alive(worker):
                # A flushed result may still be queued; prefer it over a
                # crash record.
                message = self.transport.recv(self.policy.poll_interval_seconds)
                if message is not None:
                    self._handle(message, idle)
                    return
                self._busy.pop(worker, None)
                self._steal_pending.discard(worker)
                exitcode = self.transport.restart(worker)
                idle.add(worker)
                self._job_failed(
                    running.job_id,
                    WorkerFailure(
                        task_index=running.job_id,
                        kind="crash",
                        message="worker process died without reporting a"
                        f" result (exitcode {exitcode})",
                        exitcode=exitcode,
                    ),
                )
            elif running.deadline is not None and now > running.deadline:
                self._busy.pop(worker, None)
                self._steal_pending.discard(worker)
                exitcode = self.transport.restart(worker)
                idle.add(worker)
                self._job_failed(
                    running.job_id,
                    WorkerFailure(
                        task_index=running.job_id,
                        kind="timeout",
                        message="job exceeded its wall-clock budget of"
                        f" {self.policy.task_timeout_seconds}s",
                        exitcode=exitcode,
                    ),
                )

    def _job_failed(self, job_id: int, failure: WorkerFailure) -> None:
        self.attempts[job_id] = self.attempts.get(job_id, 0) + 1
        failure.attempts = self.attempts[job_id]
        self._describe_job(job_id, failure)
        if self.trace is not None:
            self.trace.emit(
                "worker.crash",
                task=job_id,
                kind=failure.kind,
                exitcode=failure.exitcode,
                attempt=failure.attempts,
            )
        if failure.attempts > self.policy.max_retries:
            self._exhaust(job_id, failure)
            return
        self.retries += 1
        delay = self.policy.backoff_seconds(job_id, failure.attempts)
        if delay > 0:
            self.sleep(delay)
        if self.trace is not None:
            self.trace.emit("worker.retry", task=job_id, attempt=failure.attempts)
        final = failure.attempts == self.policy.max_retries
        if final and failure.kind != "timeout":
            # Last chance: run in the coordinator's process — immune to
            # worker loss.  Timeouts keep retrying in a subprocess; an
            # in-process attempt could not be killed.
            self._run_final_inline(job_id)
        else:
            self.pending.append(job_id)

    def _describe_job(self, job_id: int, failure: WorkerFailure) -> None:
        """Attach what is known about the job's subtree to ``failure``."""
        if not failure.state_count:
            failure.state_count = self.state_counts.get(job_id, 0)
        if not failure.group_indices:
            failure.group_indices = self.group_indices.get(job_id, ())

    def _run_final_inline(self, job_id: int) -> None:
        try:
            result = self.run_inline(job_id, self.payloads[job_id])
        except BaseException as exc:  # noqa: BLE001 - classified below
            self.attempts[job_id] += 1
            failure = failure_from_exception(
                exc, job_id, attempts=self.attempts[job_id]
            )
            self._describe_job(job_id, failure)
            self._exhaust(job_id, failure)
            return
        self._resolved.add(job_id)
        self._outstanding -= 1
        self.results.append(result)

    def _exhaust(self, job_id: int, failure: WorkerFailure) -> None:
        self._resolved.add(job_id)
        self._outstanding -= 1
        if self.policy.allow_partial:
            self.failed.append(failure)
            return
        raise_worker_failure(failure)


# ---------------------------------------------------------------------------
# Runner + report
# ---------------------------------------------------------------------------


def _sum_dicts(parts: Sequence[Dict[str, int]]) -> Dict[str, int]:
    merged: Dict[str, int] = {}
    for part in parts:
        for key, value in part.items():
            merged[key] = merged.get(key, 0) + value
    return merged


class DistributedReport(RunReport):
    """Merged report of a multi-process run.

    Built from the run reports of the prefix and of every job rather
    than from an engine.  The semantic totals are pinned identical to the
    sequential run for any worker count and any steal timing (see the
    module docstring).  The multi-process extras are ``workers``,
    ``worker_results`` (the jobs' reports), ``prefix_events``,
    ``split_ms`` (the time cut, or ``None``), ``partition_depth`` (the
    cut, in executed events), ``partition_count``, ``projected`` (the
    LPT-projected speedup), ``jobs_dispatched``, the ``steals_*``
    counters, ``transport_name`` and the resilience status (``retries``,
    ``failed_partitions``, ``partial``).
    """

    def __init__(
        self,
        *,
        prefix: RunReport,
        worker_results: List[RunReport],
        image_cost: int,
        partitions: List[Partition],
        workers: int,
        split_ms: Optional[int],
        partition_depth: int,
        jobs_dispatched: int,
        steal_stats: StealStats,
        transport_name: str,
        runtime_seconds: float,
        failed_partitions: Sequence[WorkerFailure] = (),
        retries: int = 0,
    ) -> None:
        merge_started = _time.perf_counter()
        self.algorithm = prefix.algorithm
        self.workers = workers
        self.worker_results = list(worker_results)
        self.prefix_events = prefix.events_executed
        self.split_ms = split_ms
        self.partition_depth = partition_depth
        self.partition_count = len(partitions)
        self.projected = (projected_speedup(partitions, workers) if partitions else 1.0)
        self.jobs_dispatched = jobs_dispatched
        self.steals_requested = steal_stats.requested
        self.steals_granted = steal_stats.granted
        self.steals_denied = steal_stats.denied
        self.transport_name = transport_name
        self.runtime_seconds = runtime_seconds
        # Resilience: jobs that exhausted their retries (only under
        # --allow-partial; otherwise the run raised) and the retry count.
        # A report with failed partitions is *partial*: its totals cover
        # the prefix plus the surviving jobs only.
        self.failed_partitions = list(failed_partitions)
        self.retries = retries
        self.partial = bool(self.failed_partitions)
        self.checkpoints_written = prefix.checkpoints_written
        self.resumed = prefix.resumed

        results = self.worker_results
        self.aborted = prefix.aborted or any(w.aborted for w in results)
        self.abort_reason = prefix.abort_reason or next(
            (w.abort_reason for w in results if w.abort_reason), ""
        )
        if results:
            # Every prefix state was shipped to exactly one job, so the
            # jobs' final totals sum to the sequential run's totals.
            self.virtual_ms = max(w.virtual_ms for w in results)
            self.total_states = sum(w.total_states for w in results)
            self.active_states = sum(w.active_states for w in results)
            self.group_count = sum(w.group_count for w in results)
            self.error_states = [state for w in results for state in w.error_states]
            # Each job's accounting re-charges the shared program image;
            # count it once, like the sequential run does.
            self.accounted_bytes = image_cost + sum(
                w.accounted_bytes - image_cost for w in results
            )
            self.census = {node: 0 for node in prefix.census}
            for worker in results:
                for node, count in worker.census.items():
                    self.census[node] = self.census.get(node, 0) + count
        else:
            # Degenerate: the run finished before the cut.
            self.virtual_ms = prefix.virtual_ms
            self.total_states = prefix.total_states
            self.active_states = prefix.active_states
            self.group_count = prefix.group_count
            self.error_states = list(prefix.error_states)
            self.accounted_bytes = prefix.accounted_bytes
            self.census = dict(prefix.census)
        self.events_executed = prefix.events_executed + sum(
            w.events_executed for w in results
        )
        self.instructions = prefix.instructions + sum(w.instructions for w in results)
        self.solver_queries = prefix.solver_queries + sum(
            w.solver_queries for w in results
        )
        self.mapping_stats = dict(prefix.mapping_stats)
        for worker in results:
            for key, value in worker.mapping_stats.items():
                self.mapping_stats[key] = self.mapping_stats.get(key, 0) + value

        self.samples: List[Sample] = list(prefix.samples)
        self.samples.append(
            Sample(
                wall_seconds=runtime_seconds,
                virtual_ms=self.virtual_ms,
                events_executed=self.events_executed,
                live_states=self.active_states,
                total_states=self.total_states,
                accounted_bytes=self.accounted_bytes,
                rss_bytes=process_rss_bytes(),
                groups=self.group_count,
            )
        )

        # Observability merge: stats sum exactly (same argument as the
        # state totals above); phases/histograms merge across the prefix
        # and every job, plus a "merge" phase for this method itself.
        self.solver_stats = _sum_dicts(
            [prefix.solver_stats] + [w.solver_stats for w in results]
        )
        self.net_stats = _sum_dicts([prefix.net_stats] + [w.net_stats for w in results])
        self.reduce_stats = _sum_dicts(
            [prefix.reduce_stats] + [w.reduce_stats for w in results]
        )
        cache_parts = [
            part
            for part in [prefix.cache_stats] + [w.cache_stats for w in results]
            if part is not None
        ]
        self.cache_stats = _sum_dicts(cache_parts) if cache_parts else None
        histogram_names = set(prefix.histograms)
        for worker in results:
            histogram_names.update(worker.histograms)
        self.histograms = {
            name: Histogram.merge_data(
                [prefix.histograms.get(name)]
                + [w.histograms.get(name) for w in results]
            )
            for name in sorted(histogram_names)
        }
        merge_phase = {
            "merge": {
                "count": 1,
                "seconds": _time.perf_counter() - merge_started,
            }
        }
        self.phases = merge_phase_snapshots(
            [prefix.phases] + [w.phases for w in results] + [merge_phase]
        )
        self.metrics = report_snapshot(self)

    def summary(self) -> str:
        headline, _, totals = super().summary().partition("\n")
        cut = (
            f"{self.split_ms} ms"
            if self.split_ms is not None
            else f"{self.partition_depth} events"
        )
        return "\n".join(
            [
                headline,
                f"  workers          : {self.workers}"
                f" ({self.transport_name} transport)",
                f"  split point      : {cut} ({self.prefix_events} prefix events)",
                f"  partitions       : {self.partition_count}"
                f" (projected speedup x{self.projected:.2f})",
                f"  jobs dispatched  : {self.jobs_dispatched}",
                f"  steals           : {self.steals_granted} granted"
                f" / {self.steals_denied} denied"
                f" / {self.steals_requested} requested",
                totals,
            ]
        )

    def __repr__(self) -> str:
        return (
            f"DistributedReport({self.algorithm}, workers={self.workers},"
            f" jobs={self.jobs_dispatched}, steals={self.steals_granted},"
            f" states={self.total_states}, partial={self.partial})"
        )


class DistributedRunner:
    """Run one scenario: cut, ship the partitions as jobs, merge.

    The cut is a virtual time (``split_ms``), an event depth
    (``partition_depth``), or — with neither — adaptive probing until the
    sharing graph fractures; passing both is an error.  Each partition
    bundle becomes a self-contained job, and the coordinator drives the
    jobs over the transport with work-stealing (``steal``) and supervised
    retries.  With ``workers=1`` (or a single job) the run degrades to
    supervised sequential execution over the same pickle round-trip.
    """

    def __init__(
        self,
        scenario,
        algorithm: str = "sds",
        workers: int = 4,
        split_ms: Optional[int] = None,
        partition_depth: Optional[int] = None,
        min_partitions: Optional[int] = None,
        probe_events: int = DEFAULT_PROBE_EVENTS,
        probe_limit_events: Optional[int] = DEFAULT_PROBE_LIMIT_EVENTS,
        steal: bool = True,
        steal_check_events: int = DEFAULT_STEAL_CHECK_EVENTS,
        transport: Optional[Transport] = None,
        start_method: Optional[str] = None,
        trace: Optional[TraceEmitter] = None,
        retry_policy: Optional[RetryPolicy] = None,
        max_retries: Optional[int] = None,
        allow_partial: Optional[bool] = None,
        task_timeout_seconds: Optional[float] = None,
        **engine_overrides,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if split_ms is not None and partition_depth is not None:
            raise ValueError("split_ms and partition_depth are mutually exclusive")
        self.scenario = scenario
        self.algorithm = algorithm
        self.workers = workers
        self.split_ms = split_ms
        self.partition_depth = partition_depth
        self.min_partitions = (
            min_partitions if min_partitions is not None else 2 * workers
        )
        self.probe_events = probe_events
        self.probe_limit_events = probe_limit_events
        self.steal = steal
        self.steal_check_events = steal_check_events
        self.transport = transport
        self.start_method = start_method
        self.trace = trace
        policy = retry_policy if retry_policy is not None else RetryPolicy()
        replacements = {}
        if max_retries is not None:
            replacements["max_retries"] = max_retries
        if allow_partial is not None:
            replacements["allow_partial"] = allow_partial
        if task_timeout_seconds is not None:
            replacements["task_timeout_seconds"] = task_timeout_seconds
        self.retry_policy = dataclasses.replace(policy, **replacements)
        self.engine_overrides = engine_overrides

    def _cut(self, engine: SDEEngine) -> List[Partition]:
        """Advance ``engine`` to the cut; returns its partitions."""
        if self.split_ms is not None or self.partition_depth is not None:
            engine.run_until(split_ms=self.split_ms, split_events=self.partition_depth)
            return partition_groups(engine.mapper)
        return deepen_until_partitioned(
            engine,
            min_partitions=self.min_partitions,
            probe_events=self.probe_events,
            probe_limit_events=self.probe_limit_events,
            balance_workers=self.workers,
            trace=self.trace,
        )

    def run(self) -> DistributedReport:
        from .scenario import build_engine

        started = _time.perf_counter()
        engine = build_engine(
            self.scenario,
            self.algorithm,
            trace=self.trace,
            **self.engine_overrides,
        )
        partitions = self._cut(engine)
        engine._sample_and_check_caps(force=True)
        prefix = RunReport(engine)

        assignment: List[List[Partition]] = []
        if not engine.aborted and engine.scheduler_snapshot():
            assignment = [
                bundle
                for bundle in lpt_assign(partitions, self.workers)
                if bundle
            ]
        else:
            partitions = []
        jobs = [_job(engine, bundle) for bundle in assignment]
        if jobs and self.trace is not None:
            self.trace.emit(
                "worker.partition.start",
                partitions=len(partitions),
                states=sum(p.state_count() for p in partitions),
            )

        transport = self.transport
        if transport is None:
            if self.workers == 1 or len(jobs) <= 1:
                transport = InlineTransport()
            else:
                transport = MultiprocessTransport(
                    self.workers,
                    start_method=self.start_method,
                    steal_check_events=self.steal_check_events,
                )
        # Initial jobs are numbered in assignment order.
        coordinator = _Coordinator(
            transport,
            jobs,
            policy=self.retry_policy,
            steal=self.steal,
            run_inline=InlineTransport.run_job,
            trace=self.trace,
            group_indices={
                job_id: tuple(i for p in bundle for i in p.group_indices)
                for job_id, bundle in enumerate(assignment)
            },
        )
        coordinator.run()
        results = sorted(
            coordinator.results, key=lambda w: (w.job_id, -w.total_states)
        )
        if self.trace is not None:
            for worker in results:
                self.trace.extend(worker.trace_events)
            self.trace.emit("worker.merge", workers=len(results))
        return DistributedReport(
            prefix=prefix,
            worker_results=results,
            image_cost=(
                PROGRAM_IMAGE_COST_PER_INSTRUCTION * len(engine.program.code)
            ),
            partitions=partitions,
            workers=self.workers,
            split_ms=self.split_ms,
            partition_depth=prefix.events_executed,
            jobs_dispatched=coordinator.jobs_dispatched,
            steal_stats=coordinator.steal_stats,
            transport_name=type(transport).__name__,
            runtime_seconds=_time.perf_counter() - started,
            failed_partitions=coordinator.failed,
            retries=coordinator.retries,
        )
