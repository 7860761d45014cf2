"""EngineConfig: the one-object engine construction surface.

Covers the frozen dataclass itself, the override splitting that
``build_engine``/``resume_engine`` share, the worker variant, the
rejection of the retired keyword call form, and the knob audit: every
config field must be reachable from outside the library.
"""

import dataclasses
import inspect
import pickle

import pytest

from repro import cli
from repro.api import EngineConfig, SDEEngine, Scenario, Topology, build_engine
from repro.core.config import ENGINE_CONFIG_FIELDS, split_config_overrides
from repro.net.failures import SymbolicPacketDrop
from repro.service.spec import CONFIG_FIELD_ALLOWLIST
from repro.workloads import flood_scenario


class TestConfigObject:
    def test_frozen(self):
        config = EngineConfig(horizon_ms=1000)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.horizon_ms = 2000

    def test_sequences_normalized_to_tuples(self):
        config = EngineConfig(horizon_ms=1000, boot_times=[0, 5, 10])
        assert config.boot_times == (0, 5, 10)
        assert isinstance(config.failure_models, tuple)

    def test_replace_derives_variant(self):
        config = EngineConfig(horizon_ms=1000)
        derived = config.replace(max_states=7)
        assert derived.max_states == 7 and config.max_states is None

    def test_worker_variant_strips_parent_only_duties(self):
        config = EngineConfig(
            horizon_ms=1000,
            check_invariants=True,
            checkpoint_path="x.sdeckpt",
            checkpoint_every_events=10,
            checkpoint_every_seconds=1.0,
        )
        worker = config.worker_variant()
        assert not worker.check_invariants
        assert worker.checkpoint_path is None
        assert worker.checkpoint_every_events is None
        assert worker.checkpoint_every_seconds is None
        assert worker.horizon_ms == 1000

    def test_picklable(self):
        config = EngineConfig(horizon_ms=1000, boot_times=(1, 2))
        assert pickle.loads(pickle.dumps(config)) == config

    def test_make_solver_honours_switches(self):
        solver = EngineConfig(
            horizon_ms=1, solver_cache=False, solver_max_nodes=99
        ).make_solver()
        assert solver.cache_stats() is None
        assert solver._max_nodes == 99


class TestOverrideSplitting:
    def test_split_config_overrides(self):
        config_part, rest = split_config_overrides(
            {"max_states": 5, "trace": object(), "symmetry": True}
        )
        assert set(config_part) == {"max_states", "symmetry"}
        assert set(rest) == {"trace"}

    def test_field_inventory_matches_dataclass(self):
        assert ENGINE_CONFIG_FIELDS == {
            f.name for f in dataclasses.fields(EngineConfig)
        }

    def test_build_engine_routes_overrides_into_config(self):
        engine = build_engine(
            flood_scenario(3), "sds", max_states=123, symmetry=True
        )
        assert engine.config.max_states == 123
        assert engine.reducer is not None

    def test_build_engine_rejects_unknown_override(self):
        with pytest.raises(TypeError, match="unknown"):
            build_engine(flood_scenario(3), "sds", not_a_knob=1)


class TestLegacyKeywordShim:
    def test_config_plus_legacy_keywords_is_an_error(self):
        """The retired keyword and positional-horizon forms are errors: ``config``
        must be an :class:`EngineConfig` and takes no extra options."""
        scenario = flood_scenario(3)
        from repro.core.scenario import make_mapper

        parts = (scenario.compiled(), scenario.topology, make_mapper("sds"))
        with pytest.raises(TypeError):
            SDEEngine(*parts, EngineConfig(horizon_ms=500), max_states=9)
        with pytest.raises(TypeError):
            SDEEngine(*parts, horizon_ms=500, max_states=9)
        with pytest.raises(TypeError, match="EngineConfig"):
            SDEEngine(*parts, 500)


class _Captured(Exception):
    pass


def _cli_run_fields(monkeypatch, tmp_path):
    """Config fields ``repro run`` sets when every engine flag is given."""
    captured = {}

    def fake_build_engine(scenario, algorithm, **overrides):
        captured.update(overrides)
        raise _Captured

    monkeypatch.setattr(cli, "build_engine", fake_build_engine)
    with pytest.raises(_Captured):
        cli.main([
            "run", "flood:3",
            "--max-states", "5",
            "--max-wall-seconds", "9",
            "--checkpoint-out", str(tmp_path / "run.sdeckpt"),
            "--checkpoint-every", "7",
            "--checkpoint-every-seconds", "3",
            "--symmetry",
            "--por",
            "--link-loss", "0.1",
        ])
    return {
        name for name, value in captured.items()
        if name in ENGINE_CONFIG_FIELDS and value is not None
    }


def _scenario_fields():
    """Config fields a Scenario (and ``build_engine``'s own arguments) set."""
    scenario = Scenario(
        name="audit",
        program="func on_boot() { }",
        topology=Topology.line(2),
        horizon_ms=77,
        failure_factory=lambda: (SymbolicPacketDrop([0]),),
        preset_globals={"g": 1},
        medium="realistic",
        medium_params={"loss": 0.1, "latency_ms": 3},
        boot_times=[0, 1],
        max_states=5,
        max_accounted_bytes=6,
        max_wall_seconds=7.0,
        sample_every_events=8,
    )
    config = scenario.engine_config()
    default = EngineConfig(horizon_ms=1)
    mapped = {
        f.name for f in dataclasses.fields(EngineConfig)
        if getattr(config, f.name) != getattr(default, f.name)
    }
    arguments = set(inspect.signature(build_engine).parameters)
    return mapped | (arguments & ENGINE_CONFIG_FIELDS)


def test_every_config_field_has_a_caller(monkeypatch, tmp_path):
    """No caller-less knobs: each field comes from the service allowlist,
    a ``repro run`` flag, or the Scenario -> config mapping."""
    reachable = (
        CONFIG_FIELD_ALLOWLIST
        | _cli_run_fields(monkeypatch, tmp_path)
        | _scenario_fields()
    )
    assert ENGINE_CONFIG_FIELDS - reachable == set()
