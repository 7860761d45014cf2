"""Run statistics: state/memory growth sampling (Figure 10's raw data).

The paper samples execution time, number of states and RSS of the KleeNet
process over each run.  We sample the same three series, with memory
reported two ways:

- **accounted bytes** — a deterministic per-state cost model (cells, event
  queue, constraints, history, plus the shared LLVM-bitcode-equivalent
  baseline).  This is the series benchmarks compare across algorithms,
  because Python RSS is noisy and dominated by interpreter overhead.
- **process RSS** — read from ``/proc/self/status`` when available, as a
  real-machine cross-check.

The cost model intentionally mirrors what drives KleeNet's RSS: duplicate
states pay full price for their private memory image even when their
content is identical — that is exactly the waste COW/SDS remove.
"""

from __future__ import annotations

import time
from typing import Collection, Dict, Iterable, List, NamedTuple, Optional

from ..vm.state import ExecutionState

__all__ = ["Sample", "StatsRecorder", "estimate_state_bytes", "process_rss_bytes"]

#: Fixed per-state overhead (bookkeeping structures), in bytes.
STATE_BASE_COST = 256
#: Cost per guest memory cell (value + slot).
CELL_COST = 8
#: Cost per pending event.
EVENT_COST = 48
#: Cost per path-constraint entry (amortized DAG nodes are shared/interned).
CONSTRAINT_COST = 64
#: Cost per communication-history entry.
HISTORY_COST = 24
#: Shared baseline: the loaded program image (KleeNet's "LLVM bytecode"
#: load shows as the initial jump in Figure 10's memory plots).
PROGRAM_IMAGE_COST_PER_INSTRUCTION = 96


class Sample(NamedTuple):
    """One point of the Figure-10 time series."""

    wall_seconds: float
    virtual_ms: int
    events_executed: int
    live_states: int
    total_states: int
    accounted_bytes: int
    rss_bytes: int
    groups: int


def estimate_state_bytes(state: ExecutionState) -> int:
    """Deterministic memory footprint of one execution state."""
    return (
        STATE_BASE_COST
        + CELL_COST * len(state.memory)
        + EVENT_COST * len(state.events)
        + CONSTRAINT_COST * len(state.constraints)
        + HISTORY_COST * len(state.history)
    )


def process_rss_bytes() -> int:
    """Resident set size of this process; 0 if unavailable."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


class StatsRecorder:
    """Collects the growth time series during an engine run.

    Accounting is incremental: each state's cost is cached (one signed int
    per sid, negative while not live) beside running totals, so a sample
    re-costs only the states marked dirty since the previous one.
    """

    def __init__(
        self,
        program_instructions: int,
        sample_every_events: int = 64,
    ) -> None:
        self.samples: List[Sample] = []
        self._started = time.perf_counter()
        self._image_cost = (PROGRAM_IMAGE_COST_PER_INSTRUCTION * program_instructions)
        self._sample_every = max(1, sample_every_events)
        self._last_sampled_at = -1
        self._costs: Optional[Dict[int, int]] = None  # None: next sample walks all
        self._accounted = self._live = 0

    def should_sample(self, events_executed: int) -> bool:
        if self._last_sampled_at < 0:
            return True
        return events_executed - self._last_sampled_at >= self._sample_every

    def restore(self, samples: Iterable[Sample], last_sampled_at: int) -> None:
        """Continue a series (checkpoint resume); the next sample walks all."""
        self.samples = list(samples)
        self._last_sampled_at = last_sampled_at
        self._costs = None

    def record(
        self,
        states: Collection[ExecutionState],
        virtual_ms: int,
        events_executed: int,
        groups: int,
        dirty: Optional[Iterable[ExecutionState]] = None,
        verify: bool = False,
    ) -> Sample:
        """Append one sample of ``states``, every state of the run.

        With ``dirty`` — every state created, or changed in cost or
        liveness, since the previous sample — only those are re-costed;
        without it (and on the first sample) every state is.  ``verify``
        also recomputes the totals by a full walk; they must match.
        """
        costs = self._costs
        if dirty is None or costs is None:
            costs = self._costs = {}
            self._accounted = self._live = 0
            dirty = states
        for state in dirty:
            cost = estimate_state_bytes(state)
            if not state.is_active():
                cost = -cost
            old = costs.get(state.sid, 0)
            costs[state.sid] = cost
            self._accounted += abs(cost) - abs(old)
            self._live += (cost > 0) - (old > 0)
        if verify:
            walked = (
                sum(map(estimate_state_bytes, states)),
                sum(1 for state in states if state.is_active()),
            )
            if walked != (self._accounted, self._live):
                raise AssertionError(
                    f"incremental (accounted, live) {(self._accounted, self._live)}"
                    f" != full walk {walked}: a state changed but was not marked dirty"
                )
        sample = Sample(
            wall_seconds=time.perf_counter() - self._started,
            virtual_ms=virtual_ms,
            events_executed=events_executed,
            live_states=self._live,
            total_states=len(states),
            accounted_bytes=self._image_cost + self._accounted,
            rss_bytes=process_rss_bytes(),
            groups=groups,
        )
        self.samples.append(sample)
        self._last_sampled_at = events_executed
        return sample

    def elapsed(self) -> float:
        return time.perf_counter() - self._started

    def peak_states(self) -> int:
        return max((s.total_states for s in self.samples), default=0)

    def peak_accounted_bytes(self) -> int:
        return max((s.accounted_bytes for s in self.samples), default=0)
