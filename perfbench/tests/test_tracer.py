"""Self-tests of the benchmark's outside-in tracer and its pinned answers.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

import gc
import json
import os
import subprocess
import sys

import layers
import run
from tracer import GC_LAYER, Tracer, percentile_us
from workloads import WORKLOADS

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class Program:
    """Stands in for a layer of the program: outer() calls inner()."""

    def __init__(self, clock, tracer=None):
        self.clock = clock
        self.tracer = tracer

    def outer(self):
        self.clock.advance(1.0)
        self.inner()
        self.clock.advance(2.0)
        self.inner()
        return "outer"

    def inner(self):
        self.clock.advance(0.5)
        if self.tracer is not None:  # a GC pass directly inside inner()
            self.tracer._on_gc("start", {"generation": 2})
            self.clock.advance(0.25)
            self.tracer._on_gc("stop", {"generation": 2})


def test_nested_self_times_subtract_children_and_gc():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    original_outer = Program.outer
    tracer.wrap(Program, "outer", "a")
    tracer.wrap(Program, "inner", "b", keep_durations=True)
    program = Program(clock, tracer)
    try:
        with tracer.root("root"):
            clock.advance(0.125)
            assert program.outer() == "outer"
            clock.advance(0.375)
    finally:
        tracer.uninstall()
    assert tracer.calls == {"a": 1, "b": 2, "root": 1}
    assert tracer.durations["b"] == [0.75, 0.75]
    assert tracer.self_s["b"] == 1.0  # 2 x (0.75 - 0.25 of GC)
    assert tracer.self_s[GC_LAYER] == 0.5
    assert tracer.self_s["a"] == 3.0  # 4.5 - 2 x 0.75 of children
    assert tracer.self_s["root"] == 0.5
    assert tracer.gc_collections == 2 and tracer.gc_gen2_collections == 2
    assert tracer.wall_s == 5.0 == sum(tracer.self_s.values())
    assert Program.outer is original_outer


def test_real_gc_pass_is_attributed_and_times_add_up():
    tracer = Tracer()

    def churn():
        for _ in range(3):
            cycle = []
            cycle.append(cycle)
            gc.collect()

    class Layer:
        work = staticmethod(churn)

    tracer.wrap(Layer, "work", "layer")
    try:
        with tracer.root("root"):
            Layer.work()
    finally:
        tracer.uninstall()
    assert tracer.gc_collections >= 3
    assert tracer.self_s[GC_LAYER] > 0
    assert abs(sum(tracer.self_s.values()) - tracer.wall_s) < 1e-9


def test_gc_outside_the_root_span_is_ignored():
    tracer = Tracer()
    tracer.wrap(Program, "inner", "b")
    try:
        gc.collect()
    finally:
        tracer.uninstall()
    assert tracer.gc_collections == 0


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    class Failing:
        def boom(self):
            clock.advance(1.0)
            raise ValueError("boom")

    tracer.wrap(Failing, "boom", "x")
    try:
        with tracer.root("root"):
            try:
                Failing().boom()
            except ValueError:
                pass
    finally:
        tracer.uninstall()
    assert tracer.calls["x"] == 1 and tracer.self_s["x"] == 1.0


def test_install_then_uninstall_restores_every_wrapped_function():
    from repro.core import distributed
    from repro.solver import Solver
    from repro.vm.executor import Executor

    before = (
        Executor.__dict__["run_event"],
        Solver.__dict__["branch_feasibility"],
        distributed.deepen_until_partitioned,
    )
    callbacks = list(gc.callbacks)
    tracer = layers.install()
    assert Executor.__dict__["run_event"] is not before[0]
    patched = [(owner, attr) for owner, attr, _ in tracer._patches]
    originals = {
        (id(owner), attr): original for owner, attr, original in tracer._patches
    }
    tracer.uninstall()
    for owner, attr in patched:
        if isinstance(owner, type):
            current = owner.__dict__[attr]
        else:
            current = getattr(owner, attr)
        assert current is originals[(id(owner), attr)], (owner, attr)
    after = (
        Executor.__dict__["run_event"],
        Solver.__dict__["branch_feasibility"],
        distributed.deepen_until_partitioned,
    )
    assert after == before
    assert gc.callbacks == callbacks


def test_percentile_is_nearest_rank():
    values = [i / 1e6 for i in range(1, 101)]
    assert percentile_us(values, 0.50) == 50.0
    assert percentile_us(values, 0.99) == 99.0
    assert percentile_us([], 0.99) == 0.0


def _rep(*flags):
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "rep.py"), "flood4_reduced"]
        + list(flags),
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_traced_run_gives_the_untraced_answers():
    untraced = _rep()
    traced = _rep("--traced")
    assert traced["verdict"] == untraced["verdict"]
    assert traced["peak_accounted_mb"] == untraced["peak_accounted_mb"]
    assert run.check_trace("flood4_reduced", traced) == []


def test_liveness_guard_flags_a_span_that_never_fired():
    traced = {
        "span_calls": {"vm": 5, "mapping": 1},
        "layers": {name: 0.0 for name in run.SELF_TIME_METRICS},
    }
    traced["layers"]["trace.wall_s"] = 0.0
    problems = run.check_trace("flood3", traced)
    assert any("'solver'" in problem for problem in problems)
    traced["layers"]["trace.wall_s"] = 1.0
    problems = run.check_trace("flood3", traced)
    assert any("traced wall" in problem for problem in problems)


def test_expected_answers_agree_with_the_existing_pins():
    with open(os.path.join(PERFBENCH, "expected.json")) as handle:
        expected = json.load(handle)
    assert set(expected) == set(WORKLOADS)
    assert expected["flood3_dist"] == expected["flood3"]
    pin = os.path.join(ROOT, "benchmarks", "baselines", "BENCH_reduce.json")
    with open(pin) as handle:
        reduce_pin = json.load(handle)["recorded"]
    assert expected["flood3"]["states.total"] == reduce_pin["reduce_states_off"]
    assert expected["flood4_reduced"]["states.total"] == 4002
    assert expected["flood4_reduced"]["reduce.pruned"] == 936


def test_benchmark_json_names_what_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == list(layers.PER_LAYER)
