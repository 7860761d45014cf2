"""Engine/VM throughput benchmarks and interpreter perf gates.

Not a paper artifact — these keep an eye on the substrate itself:

- raw bytecode dispatch rate;
- instructions per handler dispatch, a deterministic measure of how much
  work the superinstructions fold into one dispatch, on the concrete hot
  loop and on the 3-node symbolic flood, each gated at >= its committed
  value;
- state fork cost;
- solver query rate;
- SDS end-to-end instruction rate (read from the metrics snapshot);
- the 3-node symbolic flood's deterministic counters, pinned to the
  committed constants in ``benchmarks/bench_solver.py``.

Wall clock is recorded but not gated here: ``perfbench`` bounds the
flood's and the 5x5 grid's ``run_s`` end to end.  Regressions here would
silently stretch every Table-I/Figure-10 run.  Headline numbers are
persisted to the ``SDE_BENCH_JSON`` artifact (see
``benchmarks/record.py``).
"""

import time

from repro.api import Scenario, Solver, Topology, build_engine
from repro.lang import compile_source
from repro.vm import Executor
from repro.workloads import grid_scenario

# The exact workload bench_solver gates on, so the numbers stay
# comparable across the two bench files and across PRs.
from benchmarks.bench_solver import FLOOD_COUNTERS, SYMBOLIC_FLOOD
from benchmarks.record import record_bench

HOT_LOOP = """
var acc;
func main(n) {
    var i = 0;
    while (i < n) {
        acc = (acc + i) ^ (i << 3);
        i += 1;
    }
}
"""

#: Base instructions per handler dispatch, measured when the gates were
#: cut; fusion may only fold more work into a dispatch, never less.
HOT_LOOP_INSTRUCTIONS_PER_DISPATCH = 2.125
FLOOD_INSTRUCTIONS_PER_DISPATCH = 1.955


def _flood_scenario() -> Scenario:
    return Scenario(
        name="symbolic-flood-3",
        program=SYMBOLIC_FLOOD,
        topology=Topology.full_mesh(3),
        horizon_ms=300,
    )


def _dispatch_rate(executor: Executor, arg: int = 20_000) -> float:
    """Instructions per second of one hot-loop event (per-round delta:
    the executor counter is cumulative across rounds)."""
    state = executor.make_initial_state(0)
    before = executor.instructions_executed
    start = time.perf_counter()
    executor.run_event(state, "main", [arg])
    elapsed = time.perf_counter() - start
    return (executor.instructions_executed - before) / max(elapsed, 1e-9)


def _count_dispatches(executor: Executor) -> list:
    """Wrap every threaded handler with a counter; returns the cell."""
    count = [0]

    def counted(handler):
        def dispatch(state, arg, line):
            count[0] += 1
            return handler(state, arg, line)

        return dispatch

    executor._threaded = tuple(
        (counted(handler), arg, line)
        for handler, arg, line in executor._threaded
    )
    return count


def test_concrete_dispatch_rate(benchmark):
    program = compile_source(HOT_LOOP)
    executor = Executor(program)

    def run_loop():
        state = executor.make_initial_state(0)
        before = executor.instructions_executed
        executor.run_event(state, "main", [20_000])
        return executor.instructions_executed - before

    instructions = benchmark(run_loop)
    assert instructions > 0
    benchmark.extra_info["instructions_per_round"] = instructions
    benchmark.extra_info["superinstructions"] = executor.decoded.fused


def test_instructions_per_dispatch_gate(once):
    """Superinstructions fold >= the committed work into each dispatch."""
    program = compile_source(HOT_LOOP)

    def measure():
        executor = Executor(program)
        rate = max(_dispatch_rate(executor) for _ in range(3))
        counted = Executor(program)
        dispatches = _count_dispatches(counted)
        counted.run_event(counted.make_initial_state(0), "main", [20_000])
        return rate, counted.instructions_executed / dispatches[0]

    rate, per_dispatch = once(measure)
    per_dispatch = round(per_dispatch, 3)
    record_bench(
        dispatch_rate_threaded=int(rate),
        hot_loop_instructions_per_dispatch=per_dispatch,
    )
    assert per_dispatch >= HOT_LOOP_INSTRUCTIONS_PER_DISPATCH, per_dispatch


def test_state_fork_cost(benchmark):
    scenario = grid_scenario(5, sim_seconds=2)
    engine = build_engine(scenario, "sds")
    engine.setup()
    state = next(iter(engine.states.values()))

    def fork_many():
        return [state.fork() for _ in range(1000)]

    twins = benchmark(fork_many)
    assert len(twins) == 1000


def test_solver_query_rate(benchmark):
    from repro.expr import bv, ne, ult, var

    solver = Solver(use_cache=False)
    x = var("x")

    def query_batch():
        sat = 0
        for bound in range(2, 34):
            if solver.check([ult(x, bv(bound)), ne(x, bv(0))]):
                sat += 1
        return sat

    sat = benchmark(query_batch)
    assert sat == 32


def test_sds_end_to_end_rate(benchmark):
    def run():
        engine = build_engine(grid_scenario(5, sim_seconds=4), "sds")
        return engine.run()

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    counters = report.metrics["counters"]
    gauges = report.metrics["gauges"]
    rate = counters["run.instructions"] / max(gauges["run.runtime_seconds"], 1e-9)
    benchmark.extra_info["instructions_per_second"] = int(rate)
    benchmark.extra_info["events"] = counters["run.events_executed"]
    assert not report.aborted


def test_symbolic_flood_gate(once):
    """The 3-node symbolic flood: committed counters and dispatch density.

    The deterministic counters must equal the committed constants (which
    every earlier interpreter and solver pipeline agreed on), and fusion
    must fold >= the committed instructions into each dispatch.
    """

    def run():
        engine = build_engine(_flood_scenario(), "sds")
        dispatches = _count_dispatches(engine.executor)
        return engine.run(), dispatches[0]

    report, dispatches = once(run)
    counters = report.metrics["counters"]
    assert {name: counters[name] for name in FLOOD_COUNTERS} == FLOOD_COUNTERS
    per_dispatch = round(counters["run.instructions"] / dispatches, 3)
    record_bench(
        flood_backend_groups=counters["solver.backend.groups"],
        flood_instructions_per_dispatch=per_dispatch,
    )
    assert per_dispatch >= FLOOD_INSTRUCTIONS_PER_DISPATCH, per_dispatch
