"""Fault tolerance for SDE runs: failure records, retry, checkpoint/resume.

The paper's headline experiments run for hours (Table I's COB run went
9h39m before aborting at the memory cap).  At that scale three failure
modes dominate; this module holds the shared vocabulary for each:

1. **Worker loss** — a partition worker OOM-killed or SIGKILL'd dies
   without reporting a result.  The coordinator of
   :mod:`repro.core.distributed` detects the death with a bounded poll
   plus a liveness scan, enforces a per-job wall-clock budget, and
   classifies every failure in a typed :class:`WorkerFailure` that
   preserves the exit code or the original traceback
   (:func:`failure_from_exception`).
2. **Transient failures** — failed jobs are requeued with deterministic
   seeded exponential backoff (:class:`RetryPolicy`; no wall-clock reads
   feed any retry *decision*), and the final attempt for crash/exception
   failures runs in-process, which is immune to process loss.  With
   ``allow_partial`` the run degrades gracefully: exhausted jobs are
   reported (with enough information to rerun them) instead of aborting
   the whole run.
3. **Run loss** — :func:`save_checkpoint` writes a whole-engine
   :class:`~repro.core.engine.EngineSnapshot` (frontier, id watermarks,
   counter baselines, trace so far, reducer search state) to disk
   atomically, behind a versioned header with an integrity checksum;
   :func:`resume_engine` loads it, applies config overrides and restores
   it, so the completed run's report is identical to an uninterrupted one
   on every deterministic field.

A checkpoint and a distributed job are the same serialization
(:func:`~repro.core.engine.capture_snapshot` /
:func:`~repro.core.engine.restore_snapshot`): a checkpoint is the
snapshot of every group plus the baselines a job does not need because
the distributed merge re-adds them.  This module owns only the file
format around it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import traceback as traceback_module
from dataclasses import dataclass
from typing import Optional, Tuple

from ..obs.fileio import atomic_write_bytes
from .config import split_config_overrides
from .engine import EngineSnapshot, capture_snapshot, restore_snapshot

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "RetryPolicy",
    "WorkerFailure",
    "WorkerFailureError",
    "chaos_kill_probability",
    "chaos_kill_requested",
    "failure_from_exception",
    "load_checkpoint",
    "raise_worker_failure",
    "resume_engine",
    "save_checkpoint",
]


# ---------------------------------------------------------------------------
# Failure classification
# ---------------------------------------------------------------------------

#: kinds a worker attempt can fail with
FAILURE_KINDS = ("crash", "exception", "timeout")


class WorkerFailure:
    """One classified partition failure — picklable and JSON-able.

    ``kind`` is ``"crash"`` (process died without reporting), ``"exception"``
    (worker raised; ``exc_type``/``traceback`` carry the original), or
    ``"timeout"`` (per-partition wall-clock budget exceeded).  The record
    keeps the partition's group indices and state count so an exhausted
    partition can be re-run later from the same snapshot.
    """

    __slots__ = (
        "task_index",
        "kind",
        "exc_type",
        "message",
        "traceback",
        "exitcode",
        "attempts",
        "group_indices",
        "state_count",
    )

    def __init__(
        self,
        task_index: int,
        kind: str,
        message: str,
        exc_type: str = "",
        traceback: str = "",
        exitcode: Optional[int] = None,
        attempts: int = 0,
        group_indices: Tuple[int, ...] = (),
        state_count: int = 0,
    ) -> None:
        if kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind {kind!r}")
        self.task_index = task_index
        self.kind = kind
        self.exc_type = exc_type
        self.message = message
        self.traceback = traceback
        self.exitcode = exitcode
        self.attempts = attempts
        self.group_indices = tuple(group_indices)
        self.state_count = state_count

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)

    def as_dict(self) -> dict:
        """JSON form used by report serialization."""
        return {
            "task_index": self.task_index,
            "kind": self.kind,
            "exc_type": self.exc_type,
            "message": self.message,
            "traceback": self.traceback,
            "exitcode": self.exitcode,
            "attempts": self.attempts,
            "group_indices": list(self.group_indices),
            "state_count": self.state_count,
        }

    def describe(self) -> str:
        origin = f" [{self.exc_type}]" if self.exc_type else ""
        return (
            f"partition {self.task_index} {self.kind}{origin} after"
            f" {self.attempts} attempt(s): {self.message}"
        )

    def __repr__(self) -> str:
        return (
            f"WorkerFailure(task={self.task_index}, kind={self.kind},"
            f" attempts={self.attempts})"
        )


def failure_from_exception(
    exc: BaseException, task_index: int, **fields
) -> WorkerFailure:
    """Classify a raised exception as an ``"exception"`` failure record.

    Keeps the original exception type name and its formatted traceback,
    so the record can cross a process boundary as plain data; ``fields``
    fill the remaining :class:`WorkerFailure` slots.
    """
    return WorkerFailure(
        task_index=task_index,
        kind="exception",
        message=str(exc),
        exc_type=type(exc).__name__,
        traceback="".join(
            traceback_module.format_exception(type(exc), exc, exc.__traceback__)
        ),
        **fields,
    )


class WorkerFailureError(RuntimeError):
    """A partition exhausted its retries (and the run is not --allow-partial).

    ``failure`` is the final :class:`WorkerFailure`; the original worker
    traceback is chained as ``__cause__`` so pytest/tracebacks show it.
    """

    def __init__(self, failure: WorkerFailure) -> None:
        super().__init__(failure.describe())
        self.failure = failure


class _RemoteTraceback(Exception):
    """Carrier for a worker's formatted traceback (chained as __cause__)."""

    def __init__(self, text: str) -> None:
        super().__init__(f"\n--- worker traceback ---\n{text}")


def raise_worker_failure(failure: WorkerFailure) -> None:
    """Raise :class:`WorkerFailureError`, chaining the worker traceback."""
    error = WorkerFailureError(failure)
    if failure.traceback:
        raise error from _RemoteTraceback(failure.traceback)
    raise error


def chaos_kill_probability() -> float:
    """Parse ``SDE_CHAOS_KILL_WORKER`` as a kill probability in [0, 1].

    Accepted forms, in order of precedence:

    - unset / ``"0"`` / ``"false"`` / ``"no"`` — chaos off (``0.0``);
    - a float literal — clamped into ``[0.0, 1.0]`` (``"0.3"`` means 30%
      of attempts die, the sustained partial-failure load the service
      chaos gate runs under);
    - any other truthy string (``"1"``, ``"yes"``, ``"banana"``) — the
      historical all-or-nothing form, meaning ``1.0``.
    """
    value = os.environ.get("SDE_CHAOS_KILL_WORKER", "").strip().lower()
    if value in ("", "0", "false", "no"):
        return 0.0
    try:
        probability = float(value)
    except ValueError:
        return 1.0
    return min(max(probability, 0.0), 1.0)


def chaos_kill_requested(attempt: int = 0, token: str = "") -> bool:
    """Fault-injection hook: should this worker attempt die right now?

    When triggered, the attempt dies via ``os._exit`` before enqueueing a
    result — indistinguishable from an OOM-kill from the supervisor's
    point of view.  Three regimes, per :func:`chaos_kill_probability`:

    - probability ``0.0`` — never kill;
    - probability ``1.0`` (any plain-truthy value) — kill exactly the
      *first* attempt (``attempt == 0``); retries run normally, so a
      chaos run must complete with results identical to an unfaulted
      run.  CI's ``fault-smoke`` job is built on this.
    - fractional probability — a **deterministic seeded coin** per
      ``(token, attempt)``: independent attempts of the same task get
      independent verdicts, and a rerun with the same tokens makes
      identical kill decisions (no wall-clock or global-RNG reads).  A
      task whose every retry loses the coin toss legitimately exhausts
      its retries — graceful degradation is part of what the chaos gate
      exercises.
    """
    probability = chaos_kill_probability()
    if probability <= 0.0:
        return False
    if probability >= 1.0:
        return attempt == 0
    rng = random.Random(f"chaos:{token}:{attempt}")
    return rng.random() < probability


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How failed partitions are retried.

    All retry *decisions* are pure functions of (seed, task, attempt) —
    no wall-clock reads — so a rerun makes identical choices.  The only
    clock use is the optional per-partition wall budget, which is
    explicitly a wall-clock cap, and the backoff *sleeps* themselves.
    """

    #: retries after the first attempt; total attempts = max_retries + 1
    max_retries: int = 2
    #: first retry delay; doubles (factor) per further retry
    backoff_base_seconds: float = 0.05
    backoff_factor: float = 2.0
    #: deterministic jitter fraction added on top of the exponential delay
    backoff_jitter: float = 0.25
    #: seeds the jitter PRNG (never wall-clock)
    seed: int = 0
    #: result-queue poll granularity; bounds worker-death detection latency
    poll_interval_seconds: float = 0.05
    #: per-partition wall-clock budget; None disables timeout detection
    task_timeout_seconds: Optional[float] = None
    #: report exhausted partitions instead of raising
    allow_partial: bool = False

    def backoff_seconds(self, task_index: int, attempt: int) -> float:
        """Deterministic exponential backoff with seeded jitter."""
        if attempt <= 0:
            return 0.0
        base = self.backoff_base_seconds * (self.backoff_factor ** (attempt - 1))
        rng = random.Random(f"{self.seed}:{task_index}:{attempt}")
        return base * (1.0 + self.backoff_jitter * rng.random())


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"SDECKPT"
# Version 2: construction parameters travel as one EngineConfig under
# "config", and solver counters as the solver's stats_dict under
# "solver_stats" (version-1 checkpoints carried both exploded).
# Version 3: EngineConfig gained medium/medium_params and ExecutionState
# gained the link_busy slot — version-2 pickles would deserialize into
# objects silently missing both, so they are rejected at the header.
# Version 4: the body is an EngineSnapshot whose baselines carry the
# symmetry/POR reducer's search state; a version-3 body would resume
# without it (and so diverge), so it is rejected at the header.
CHECKPOINT_VERSION = 4


class CheckpointError(RuntimeError):
    """The checkpoint file is missing, corrupt, or incompatible."""


def save_checkpoint(engine, path) -> dict:
    """Serialize ``engine`` to ``path`` atomically; returns the header.

    File layout: ``SDECKPT\\n<json header>\\n<pickle body>``.  The header
    carries the format version, run coordinates, and a SHA-256 of the body
    so truncated or bit-rotted checkpoints are rejected at load rather
    than producing a silently wrong resume.
    """
    body = pickle.dumps(capture_snapshot(engine), protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "version": CHECKPOINT_VERSION,
        "algorithm": engine.mapper.name,
        "events_executed": engine.events_executed,
        "clock_now": engine.clock.now,
        "total_states": len(engine.states),
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("ascii")
    atomic_write_bytes(path, CHECKPOINT_MAGIC + b"\n" + header_bytes + b"\n" + body)
    return header


def load_checkpoint(path) -> Tuple[dict, EngineSnapshot]:
    """Read and verify a checkpoint; returns ``(header, snapshot)``."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    magic, _, rest = raw.partition(b"\n")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not an SDE checkpoint")
    header_bytes, _, body = rest.partition(b"\n")
    try:
        header = json.loads(header_bytes)
    except ValueError as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint header") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: checkpoint header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {header.get('version')!r} is not"
            f" supported (this build reads version {CHECKPOINT_VERSION});"
            " re-run without --resume"
        )
    digest = hashlib.sha256(body).hexdigest()
    if digest != header.get("sha256"):
        raise CheckpointError(
            f"{path}: integrity check failed (checkpoint truncated or"
            " corrupted)"
        )
    try:
        snapshot = pickle.loads(body)
    except Exception as exc:
        raise CheckpointError(f"{path}: undecodable checkpoint body") from exc
    if not isinstance(snapshot, EngineSnapshot) or snapshot.baselines is None:
        raise CheckpointError(f"{path}: body is not a whole-engine snapshot")
    return header, snapshot


def resume_engine(path, trace=None, **engine_overrides):
    """Rebuild a mid-run engine from a checkpoint file.

    The returned engine continues exactly where the checkpoint was taken
    (see :func:`~repro.core.engine.restore_snapshot`), so ``engine.run()``
    yields a report whose deterministic fields equal an uninterrupted
    run's.  ``engine_overrides`` are config fields that win over the
    checkpointed ones: a run aborted at a cap can be resumed with the cap
    raised (``max_states=None``), or with checkpointing re-enabled
    (``checkpoint_path``, ``checkpoint_every_events``, ...).
    """
    _, snapshot = load_checkpoint(path)
    config_fields, rest = split_config_overrides(engine_overrides)
    if rest:
        raise TypeError(f"unknown engine override(s) {sorted(rest)}")
    if config_fields:
        snapshot.config = snapshot.config.replace(**config_fields)
    return restore_snapshot(snapshot, trace=trace)
