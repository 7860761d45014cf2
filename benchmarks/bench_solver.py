"""Solver query-optimization gate on the 3-node symbolic flood.

Runs the symbolic flood once and gates on two properties:

1. **Correctness**: every deterministic counter equals the committed
   constant in :data:`FLOOD_COUNTERS` — the values the seed solver
   pipeline (flatten, partition, exact+model cache, search) and every
   optimization setting agreed on when the pipeline was retired.  The
   optimizer may only change *how much work* the backend does, never a
   verdict, a state count or an executed event.
2. **Work reduction**: at least 30% fewer backend solve-group calls
   (``solver.backend.groups`` — each is one normalize+cache+search pass
   over an independent conjunct group) than the seed pipeline's
   committed, deterministic :data:`SEED_BACKEND_GROUPS`.

Wall clock is recorded, not gated: ``perfbench``'s ``flood3`` workload
runs this same scenario and bounds its ``run_s``.  How well the exact
cache tier catches repeated groups is recorded as a work count instead:
the backend searches its misses cost (``solver.backend.searches``) are
gated ``lower`` in the committed baseline, so a change that makes the
cache miss more fails the trend check.

All numbers come from the run's metrics snapshot — the same JSON
contract ``repro run --metrics-out`` writes — not from solver internals.
Headline numbers are persisted to the ``SDE_BENCH_JSON`` artifact (see
``benchmarks/record.py``).

The flood workload in ``repro.workloads`` never queries the solver (its
drop failures are decided at the engine level), so the scenario here
floods *symbolic sensor readings*: every receive branches on symbolic
data three deep, which is what issues branch-feasibility queries.
"""

import time

from repro.api import Scenario, Topology, build_engine

from benchmarks.record import record_bench

SYMBOLIC_FLOOD = """
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

#: Deterministic counters of the symbolic flood under SDS.
FLOOD_COUNTERS = {
    "states.total": 37_376,
    "run.events_executed": 5_206,
    "mapping.groups": 512,
    "run.instructions": 450_551,
    "solver.queries": 65_548,
    "solver.sat_results": 65_548,
    "solver.unsat_results": 0,
}

#: ``solver.backend.groups`` of the seed pipeline on this scenario.
SEED_BACKEND_GROUPS = 130_956


def _scenario():
    return Scenario(
        name="symbolic-flood-3",
        program=SYMBOLIC_FLOOD,
        topology=Topology.full_mesh(3),
        horizon_ms=300,
    )


def test_optimizer_reduces_backend_solves(once, benchmark):
    def run():
        engine = build_engine(_scenario(), "sds")
        start = time.perf_counter()
        report = engine.run()
        return time.perf_counter() - start, report

    opt_s, opt = once(run)
    opt_c = opt.metrics["counters"]

    # 1. Same answers: the optimizer must be semantically invisible.
    assert {name: opt_c[name] for name in FLOOD_COUNTERS} == FLOOD_COUNTERS

    # 2. Less work: >=30% fewer backend solve-group passes than the seed.
    opt_groups = opt_c["solver.backend.groups"]
    reduction = 1.0 - opt_groups / SEED_BACKEND_GROUPS
    assert reduction >= 0.30, (
        f"backend solve reduction {reduction:.1%} < 30%"
        f" ({SEED_BACKEND_GROUPS} -> {opt_groups} groups)"
    )

    record_bench(
        solver_backend_groups_seed=SEED_BACKEND_GROUPS,
        solver_backend_groups_optimized=opt_groups,
        solver_group_reduction_pct=round(reduction * 100, 1),
        solver_backend_searches=opt_c["solver.backend.searches"],
        solver_cache_hits_exact=opt_c["solver.cache.hit.exact"],
        solver_wall_clock_optimized=round(opt_s, 3),
    )
    benchmark.extra_info["optimized_s"] = round(opt_s, 3)
    benchmark.extra_info["backend_groups_seed"] = SEED_BACKEND_GROUPS
    benchmark.extra_info["backend_groups_optimized"] = opt_groups
    benchmark.extra_info["reduction"] = round(reduction, 3)
    benchmark.extra_info["model_shortcuts"] = opt_c["solver.shortcuts.model"]
    benchmark.extra_info["verdict_shortcuts"] = opt_c[
        "solver.shortcuts.verdict"
    ]
    benchmark.extra_info["backend_searches"] = opt_c["solver.backend.searches"]
    benchmark.extra_info["cache_hits_exact"] = opt_c["solver.cache.hit.exact"]
