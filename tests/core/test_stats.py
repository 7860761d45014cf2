"""Incremental memory accounting and the run-scoped GC policy.

The engine re-costs only the states it marked dirty since the previous
sample (``StatsRecorder.record``).  These tests hold that series equal to
a full walk over the same engine at every sample, show that a missed mark
fails the ``check_invariants`` cross-check loudly, and pin that the event
loop's raised GC threshold never leaks to the caller.
"""

import gc
import itertools

import pytest

from repro.core.engine import STATE_HEAP_GC_THRESHOLD
from repro.core.scenario import build_engine
from repro.core.stats import StatsRecorder
from repro.expr import bv, eq, var
from repro.net import SymbolicDuplication, SymbolicNodeReboot, SymbolicPacketDrop
from repro.workloads import flood_scenario

NODES = (0, 1, 2)

FAILURES = {
    "none": lambda: [],
    "drop": lambda: [SymbolicPacketDrop(NODES, budget=2)],
    "dup": lambda: [SymbolicDuplication(NODES, budget=1)],
    "reboot": lambda: [SymbolicNodeReboot(NODES, budget=1)],
}

#: Every field but the two read off the wall clock and the OS.
DETERMINISTIC = (
    "virtual_ms",
    "events_executed",
    "live_states",
    "total_states",
    "accounted_bytes",
    "groups",
)


def _deterministic(samples):
    return [tuple(getattr(s, field) for field in DETERMINISTIC) for s in samples]


def _flood_engine(algorithm, failures="drop", reduction=False, **overrides):
    return build_engine(
        flood_scenario(3, rounds=2),
        algorithm,
        failure_models=FAILURES[failures](),
        symmetry=reduction,
        por=reduction,
        sample_every_events=1,
        **overrides,
    )


def _run_with_reference(engine):
    """Run ``engine``; return its samples, full-walk references of the same
    sample points, and ``(dirty, total)`` state counts per sample."""
    references, visits = [], []
    incremental = engine.stats.record
    instructions = len(engine.program.code)

    def record(states, *args, dirty=None, verify=False):
        fresh = StatsRecorder(instructions)  # empty cache: walks every state
        references.append(fresh.record(states, *args))
        visits.append((len(dirty), len(states)))
        return incremental(states, *args, dirty=dirty, verify=verify)

    engine.stats.record = record
    report = engine.run()
    return report.samples, references, visits


@pytest.mark.parametrize("reduction", [False, True], ids=["plain", "symmetry+por"])
@pytest.mark.parametrize("failures", list(FAILURES))
@pytest.mark.parametrize("algorithm", ["cob", "cow", "sds"])
def test_incremental_series_equals_full_walk(algorithm, failures, reduction):
    engine = _flood_engine(algorithm, failures, reduction)
    samples, references, _ = _run_with_reference(engine)
    assert len(samples) == len(references) > 1
    assert _deterministic(samples) == _deterministic(references)


def test_samples_recost_only_dirty_states():
    engine = _flood_engine("sds", "drop")
    samples, _, visits = _run_with_reference(engine)
    dirty = sum(d for d, _ in visits)
    walked = sum(t for _, t in visits)
    assert samples[-1].total_states > len(NODES)
    assert dirty < walked


def test_unmarked_mutation_fails_the_cross_check():
    engine = _flood_engine("sds", "drop", check_invariants=True)
    engine.run_until(split_events=10)
    victim = next(iter(engine.states.values()))
    victim.add_constraint(eq(var("unmarked"), bv(1)))
    engine._dirty.discard(victim)
    with pytest.raises(AssertionError, match="was not marked dirty"):
        engine.run()


def test_restore_forgets_the_cost_cache():
    engine = _flood_engine("sds", "drop")
    engine.run_until(split_events=10)
    victim = next(iter(engine.states.values()))
    victim.add_constraint(eq(var("unmarked"), bv(1)))
    engine._dirty.clear()
    full_walk = StatsRecorder(len(engine.program.code)).record(
        engine.states.values(), 0, 0, 0
    )
    missed = engine._sample_and_check_caps()
    assert missed.accounted_bytes < full_walk.accounted_bytes
    samples = list(engine.stats.samples)
    engine.stats.restore(samples, samples[-1].events_executed)
    assert engine.stats.samples == samples
    assert engine._sample_and_check_caps().accounted_bytes == full_walk.accounted_bytes


# ---------------------------------------------------------------------------
# GC policy: the raised gen-0 threshold is scoped to the event loop
# ---------------------------------------------------------------------------

CALLER = (1234, 11, 12)


@pytest.fixture
def caller_threshold():
    saved = gc.get_threshold()
    gc.set_threshold(*CALLER)
    try:
        yield CALLER
    finally:
        gc.set_threshold(*saved)


def _observe_threshold(engine):
    """Record the GC threshold seen inside the loop, at every dispatch."""
    seen = []
    dispatch = engine._dispatch

    def observed(state, event):
        seen.append(gc.get_threshold())
        dispatch(state, event)

    engine._dispatch = observed
    return seen


class TestGcPolicy:
    def test_restored_after_normal_return(self, caller_threshold):
        engine = _flood_engine("sds", "drop")
        seen = _observe_threshold(engine)
        report = engine.run()
        assert not report.aborted
        assert set(seen) == {(STATE_HEAP_GC_THRESHOLD,) + caller_threshold[1:]}
        assert gc.get_threshold() == caller_threshold

    def test_restored_after_cap_abort(self, caller_threshold):
        engine = _flood_engine("cob", "drop", max_states=5)
        report = engine.run()
        assert report.aborted and "state cap" in report.abort_reason
        assert gc.get_threshold() == caller_threshold

    def test_restored_after_exception_in_loop(self, caller_threshold):
        engine = _flood_engine("sds", "drop")
        calls = itertools.count()
        dispatch = engine._dispatch

        def failing(state, event):
            if next(calls) == 5:
                raise RuntimeError("handler blew up")
            dispatch(state, event)

        engine._dispatch = failing
        with pytest.raises(RuntimeError, match="handler blew up"):
            engine.run()
        assert gc.get_threshold() == caller_threshold

    def test_disabled_collection_stays_disabled(self):
        saved = gc.get_threshold()
        gc.set_threshold(0)
        try:
            engine = _flood_engine("sds", "drop")
            seen = _observe_threshold(engine)
            engine.run()
            assert {threshold[0] for threshold in seen} == {0}
            assert gc.get_threshold()[0] == 0
        finally:
            gc.set_threshold(*saved)
