"""The benchmark's four workloads, each one deterministic SDE scenario.

SDE explores every path of a scenario, so no input is sampled: the
benchmark's ``--seed`` is recorded in the environment stamp but changes
nothing a workload runs.  Why each workload exists is recorded in
``perfbench/NOTES.md`` and in ``BENCHMARK.json``.
"""

from __future__ import annotations

#: The symbolic flood of ``benchmarks/bench_solver.py``, pinned verbatim so
#: an edit there cannot silently change what this benchmark measures.
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

#: name -> (scenario kind, engine overrides, distributed runner options)
WORKLOADS = {
    "flood3": ("flood3", {}, None),
    "grid5": ("grid5", {}, None),
    "flood4_reduced": ("flood4", {"symmetry": True, "por": True}, None),
    # DistributedRunner with 2 workers and stealing off: with stealing on
    # (the CLI default) run time swung 2.0-4.4 s between runs (NOTES.md).
    "flood3_dist": ("flood3", {}, {"workers": 2, "steal": False}),
}


def build_scenario(kind: str):
    from repro.api import Scenario, Topology
    from repro.workloads import grid_scenario

    if kind == "grid5":
        return grid_scenario(5, sim_seconds=20, drop_budget=2)
    nodes = {"flood3": 3, "flood4": 4}[kind]
    return Scenario(
        name=f"symbolic-flood-{nodes}",
        program=SYMBOLIC_FLOOD,
        topology=Topology.full_mesh(nodes),
        horizon_ms=300,
    )


def prepare(name: str):
    """Build, compile and set up ``name``; return ``(runnable, scenario)``.

    ``runnable.run()`` returns the run's report.  A sequential workload's
    engine is set up here; :class:`~repro.api.DistributedRunner` builds and
    sets up its engine inside ``run()``, so for ``flood3_dist`` that part of
    set-up is timed as part of the run.
    """
    from repro.api import DistributedRunner, build_engine

    kind, overrides, distributed = WORKLOADS[name]
    scenario = build_scenario(kind)
    scenario.compiled()
    if distributed is not None:
        return DistributedRunner(scenario, "sds", **distributed), scenario
    engine = build_engine(scenario, "sds", **overrides)
    engine.setup()
    return engine, scenario


def verdict(report, scenario) -> dict:
    """The deterministic answers of one run, as compared against
    ``expected.json``."""
    from repro.api import canonical_violations

    counters = report.metrics["counters"]
    violations = canonical_violations(report, scenario.topology)
    return {
        "aborted": bool(report.aborted),
        "states.total": counters["states.total"],
        "mapping.groups": counters["mapping.groups"],
        "run.events_executed": counters["run.events_executed"],
        "run.instructions": counters["run.instructions"],
        "solver.queries": counters["solver.queries"],
        "reduce.pruned": counters.get("reduce.pruned", 0),
        "violations": sorted(list(v) for v in violations),
    }
