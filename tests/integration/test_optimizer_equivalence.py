"""Optimizations must be semantically invisible.

The acceptance bar for every performance tier — the solver
query-optimization pipeline, opcode fusion (superinstructions) and
loop-increment constraint reuse: for every mapping algorithm, the
canonical trace multiset of a run is the one pinned in
``golden_traces.json``.  Memoized models, verdict memos,
canonicalization, the counterexample cache, fused dispatch and delta
re-simplification may only change *how* a result is reached, never which
result — and never a fork, a send, a delivery or a mapper copy
downstream of one.

The golden file stores, per (scenario, algorithm) cell, the SHA-256 of
the sorted canonical event multiset, its size and the deterministic
counters.  It was cut from runs on which every optimization (alone and
all at once) agreed with the unoptimized interpreter and solver
pipelines.  Regenerate it only for an intentional semantic change, with
:func:`golden_cell` over the same cells.

Each optimization is also switched off, one at a time and all at once,
through the reference paths that remain: the base-ISA executor
(``Executor(fuse_ops=False)``), a solver whose every query reaches the
backend (no cache tiers, model shortcut or verdict memo), and full
re-simplification with per-conjunct model verdicts recomputed on every
check.  Those runs must hit the same golden cell as the default run.

Two workload shapes: the paper's flood/dissemination scenarios (failure
branching decided at the engine level) and a symbolic-data program whose
every receive branches on a ``symbolic()`` reading — the shape that
actually exercises every tier of the pipeline.  The symbolic program
deliberately contains the compare+branch and load/inc/store patterns the
fuser targets (``CMP_JZ``/``CMP_JNZ``/``INC_MEM``).
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.api import Scenario, Topology, TraceEmitter, build_engine
from repro.core import engine as engine_module
from repro.obs import canonical_multiset
from repro.solver.constraints import ConstraintSet
from repro.solver.model import Model
from repro.vm.executor import Executor
from repro.workloads import dissemination_scenario, flood_scenario

SYMBOLIC_READINGS = """
var seen;
func on_boot() { timer_set(0, 40 + node_id() * 7); }
func on_timer(tid) {
    var buf[1];
    buf[0] = symbolic("reading", 8);
    bc_send(buf, 1);
}
func on_recv(src, len) {
    var v = recv_byte(0);
    if (v > 64) { v -= 64; }
    if (v > 32) { seen += 1; } else { seen += 2; }
}
"""

#: Deterministic counters pinned per cell next to the trace digest.
SEMANTIC_COUNTERS = (
    "states.total",
    "run.events_executed",
    "run.instructions",
    "solver.queries",
    "solver.sat_results",
    "solver.unsat_results",
)

GOLDEN = json.loads(Path(__file__).with_name("golden_traces.json").read_text())


def golden_cell(scenario, algorithm, **overrides):
    """One run's golden entry: trace-multiset digest, size, counters."""
    trace = TraceEmitter()
    report = build_engine(scenario, algorithm, trace=trace, **overrides).run()
    multiset = canonical_multiset(trace.events)
    lines = sorted(
        json.dumps(event, sort_keys=True) for event in multiset.elements()
    )
    counters = report.metrics["counters"]
    return {
        "counters": {name: counters[name] for name in SEMANTIC_COUNTERS},
        "events": sum(multiset.values()),
        "multiset_sha256": hashlib.sha256(
            "\n".join(lines).encode()
        ).hexdigest(),
    }


def _scenarios():
    return [
        ("flood", flood_scenario(3, rounds=2)),
        (
            "dissemination",
            dissemination_scenario(Topology.line(3), rounds=2),
        ),
        (
            "symbolic",
            Scenario(
                name="symbolic-readings",
                program=SYMBOLIC_READINGS,
                topology=Topology.line(3),
                horizon_ms=200,
            ),
        ),
    ]


SCENARIOS = _scenarios()
SCENARIO_IDS = [name for name, _ in SCENARIOS]
ALGORITHMS = ["cob", "cow", "sds"]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
def test_optimizations_match_golden(scenario, algorithm):
    name, scenario = scenario
    assert golden_cell(scenario, algorithm) == GOLDEN[f"{name}-{algorithm}"]


def _unfused(monkeypatch):
    """The engine interprets the base ISA: no superinstructions."""
    monkeypatch.setattr(
        engine_module, "Executor", functools.partial(Executor, fuse_ops=False)
    )


def _solver_shortcuts_off(monkeypatch):
    """No model shortcut and no verdict memo; with ``solver_cache=False``
    every query is normalized and solved by the backend."""
    monkeypatch.setattr(ConstraintSet, "cached_model", lambda self: None)
    monkeypatch.setattr(
        ConstraintSet, "cached_verdict", lambda self, extra: (False, None)
    )


def _incremental_reuse_off(monkeypatch):
    """Full re-simplification on every implied equality, and every model
    check evaluates each conjunct afresh."""
    monkeypatch.setattr(
        ConstraintSet,
        "_resimplify_delta",
        lambda self, base, conjunct, stats: self._resimplify(
            base + (conjunct,), stats
        ),
    )
    satisfies = Model.satisfies

    def unmemoized(self, constraints):
        self._memo.clear()
        return satisfies(self, constraints)

    monkeypatch.setattr(Model, "satisfies", unmemoized)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
def test_solver_optimizer_invisible(scenario, algorithm, monkeypatch):
    """Cache tiers, model shortcut and verdict memo never change a result."""
    name, scenario = scenario
    _solver_shortcuts_off(monkeypatch)
    assert (
        golden_cell(scenario, algorithm, solver_cache=False)
        == GOLDEN[f"{name}-{algorithm}"]
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
def test_opcode_fusion_invisible(scenario, algorithm, monkeypatch):
    """Superinstruction dispatch == base-ISA dispatch, per trace multiset."""
    name, scenario = scenario
    _unfused(monkeypatch)
    assert golden_cell(scenario, algorithm) == GOLDEN[f"{name}-{algorithm}"]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
def test_loop_reuse_invisible(scenario, algorithm, monkeypatch):
    """Delta canonicalization + model memos never flip a verdict."""
    name, scenario = scenario
    _incremental_reuse_off(monkeypatch)
    assert golden_cell(scenario, algorithm) == GOLDEN[f"{name}-{algorithm}"]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_everything_off_equals_everything_on(algorithm, monkeypatch):
    """Every reference path at once vs the default run's golden cell."""
    _unfused(monkeypatch)
    _solver_shortcuts_off(monkeypatch)
    _incremental_reuse_off(monkeypatch)
    scenario = dict(SCENARIOS)["symbolic"]
    assert (
        golden_cell(scenario, algorithm, solver_cache=False)
        == GOLDEN[f"symbolic-{algorithm}"]
    )


#: Symbolic readings guarded by assertions, so reduction runs report
#: real violations for the verdict gate below.
GUARDED_READINGS = """
var seen;
func on_boot() { timer_set(0, 40 + node_id() * 7); }
func on_timer(tid) {
    var buf[1];
    buf[0] = symbolic("reading", 8);
    bc_send(buf, 1);
}
func on_recv(src, len) {
    var v = recv_byte(0);
    assert(v < 200, 7);
    seen += 1;
}
"""

REDUCTION_TOPOLOGIES = [
    Topology.full_mesh(3),
    Topology.line(3),
    Topology.ring(4),
    Topology.grid(2, 2),
]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize(
    "topology", REDUCTION_TOPOLOGIES, ids=lambda t: t.name
)
def test_reduction_preserves_verdicts(topology, algorithm):
    """Symmetry + POR prune states, never reported violations.

    Unlike the solver/interpreter optimizations above, reduction is
    *not* trace-invisible — it exists to skip work — so the gate is the
    canonical violation set (``repro.core.reduce.canonical_violations``):
    reduction on vs. off must report the same bugs, per (kind, message,
    line, code, node orbit).
    """
    from repro.core.reduce import canonical_violations

    scenario = Scenario(
        name=f"guarded-{topology.name}",
        program=GUARDED_READINGS,
        topology=topology,
        horizon_ms=300,
    )
    off = build_engine(scenario, algorithm).run()
    on = build_engine(scenario, algorithm, symmetry=True, por=True).run()
    verdicts_off = canonical_violations(off, topology)
    assert verdicts_off, "gate is vacuous: scenario reported no violations"
    assert canonical_violations(on, topology) == verdicts_off
    assert on.total_states <= off.total_states
