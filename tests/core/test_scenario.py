"""Scenario/config API unit tests."""

import pytest

from repro import (
    ALGORITHMS,
    Scenario,
    Topology,
    build_engine,
    make_mapper,
    run_scenario,
)
from repro.core import COBMapper, COWMapper, SDSMapper
from repro.solver import Solver

MINI = "var x; func on_boot() { x = node_id(); }"


def mini_scenario(**overrides):
    params = dict(
        name="mini",
        program=MINI,
        topology=Topology.line(2),
        horizon_ms=100,
    )
    params.update(overrides)
    return Scenario(**params)


class TestMakeMapper:
    def test_algorithm_names(self):
        assert ALGORITHMS == ("cob", "cow", "sds")
        assert isinstance(make_mapper("cob"), COBMapper)
        assert isinstance(make_mapper("cow"), COWMapper)
        assert isinstance(make_mapper("sds"), SDSMapper)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_mapper("magic")

    def test_fresh_instance_each_call(self):
        assert make_mapper("sds") is not make_mapper("sds")


class TestBuildEngine:
    def test_defaults(self):
        engine = build_engine(mini_scenario())
        assert engine.mapper.name == "sds"
        assert engine.topology.node_count == 2

    def test_overrides_forwarded(self):
        engine = build_engine(
            mini_scenario(),
            "cow",
            medium_params={"latency_ms": 9},
            max_states=123,
        )
        assert engine.medium.latency_ms == 9
        assert engine.max_states == 123

    def test_custom_solver(self):
        solver = Solver(use_cache=False)
        engine = build_engine(mini_scenario(), "sds", solver=solver)
        assert engine.solver is solver

    def test_invariant_checking_flag(self):
        engine = build_engine(mini_scenario(), "sds", check_invariants=True)
        assert engine.check_invariants

    def test_scenario_caps_flow_through(self):
        scenario = mini_scenario()
        scenario.max_states = 7
        scenario.max_wall_seconds = 1.5
        engine = build_engine(scenario, "sds")
        assert engine.max_states == 7
        assert engine.max_wall_seconds == 1.5


class TestRunScenario:
    def test_returns_report(self):
        report = run_scenario(mini_scenario(), "sds")
        assert report.algorithm == "sds"
        assert report.total_states == 2

    def test_program_compiled_lazily_and_cached(self):
        scenario = mini_scenario()
        assert isinstance(scenario.program, str)
        run_scenario(scenario, "sds")
        from repro.lang import CompiledProgram

        assert isinstance(scenario.program, CompiledProgram)

    def test_node_count_property(self):
        assert mini_scenario().node_count == 2

    def test_each_run_gets_fresh_failure_models(self):
        calls = []

        def factory():
            calls.append(1)
            return []

        scenario = mini_scenario(failure_factory=factory)
        run_scenario(scenario, "sds")
        run_scenario(scenario, "sds")
        assert len(calls) == 2
