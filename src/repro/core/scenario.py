"""Scenario configuration — the public entry point for running SDE.

A :class:`Scenario` bundles everything an SDE run needs (guest program,
topology, horizon, failure configuration, presets); :func:`run_scenario`
executes it under a chosen state-mapping algorithm.  KleeNet is configured
"using a configuration file" — Scenario is that file as a Python object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..lang.bytecode import CompiledProgram
from ..lang.compiler import compile_source
from ..net.failures import FailureModel
from ..net.topology import Topology
from ..solver import Solver
from .cob import COBMapper
from .config import EngineConfig, split_config_overrides
from .cow import COWMapper
from .engine import PresetValue, RunReport, SDEEngine
from .mapping import StateMapper
from .sds import SDSMapper

__all__ = [
    "Scenario",
    "make_mapper",
    "register_mapper",
    "available_algorithms",
    "build_engine",
    "run_scenario",
    "ALGORITHMS",
]

ALGORITHMS = ("cob", "cow", "sds")

_MAPPERS: Dict[str, Callable[[], StateMapper]] = {
    "cob": COBMapper,
    "cow": COWMapper,
    "sds": SDSMapper,
}


def register_mapper(name: str, factory: Callable[[], StateMapper]) -> None:
    """Register a custom state-mapping algorithm under ``name``.

    The factory must return a fresh :class:`StateMapper` per call (mappers
    hold per-run state).  Registering an existing name replaces it, so
    tests can shadow a built-in and restore it afterwards.
    """
    _MAPPERS[name] = factory


def available_algorithms() -> tuple:
    """Every registered algorithm name, built-ins first."""
    extras = sorted(name for name in _MAPPERS if name not in ALGORITHMS)
    return ALGORITHMS + tuple(extras)


def make_mapper(algorithm: str) -> StateMapper:
    """Instantiate a state-mapping algorithm by name ('cob'/'cow'/'sds')."""
    try:
        return _MAPPERS[algorithm]()
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from"
            f" {available_algorithms()}"
        ) from None


@dataclass
class Scenario:
    """A complete SDE test setup."""

    name: str
    program: Union[str, CompiledProgram]
    topology: Topology
    horizon_ms: int
    #: factory producing fresh failure models per run (models hold no state,
    #: but a factory keeps runs fully independent).
    failure_factory: Callable[[], Sequence[FailureModel]] = tuple
    preset_globals: Dict[str, PresetValue] = field(default_factory=dict)
    #: network medium registry name plus its construction parameters
    #: (docs/NETWORK.md); "ideal" is the paper-fidelity default.
    medium: str = "ideal"
    medium_params: Dict[str, object] = field(default_factory=dict)
    boot_times: Optional[List[int]] = None
    max_states: Optional[int] = None
    max_accounted_bytes: Optional[int] = None
    max_wall_seconds: Optional[float] = None
    sample_every_events: int = 64

    def compiled(self) -> CompiledProgram:
        if isinstance(self.program, CompiledProgram):
            return self.program
        compiled = compile_source(self.program)
        self.program = compiled  # compile once, reuse across runs
        return compiled

    @property
    def node_count(self) -> int:
        return self.topology.node_count

    def engine_config(self, **overrides) -> EngineConfig:
        """The :class:`EngineConfig` this scenario describes.

        Failure models are instantiated fresh from the factory each call,
        so every engine built from the returned config is independent.
        """
        config = EngineConfig(
            horizon_ms=self.horizon_ms,
            failure_models=tuple(self.failure_factory()),
            preset_globals=self.preset_globals,
            medium=self.medium,
            medium_params=(
                dict(self.medium_params) if self.medium_params else None
            ),
            boot_times=(
                tuple(self.boot_times) if self.boot_times is not None else None
            ),
            max_states=self.max_states,
            max_accounted_bytes=self.max_accounted_bytes,
            max_wall_seconds=self.max_wall_seconds,
            sample_every_events=self.sample_every_events,
        )
        return config.replace(**overrides) if overrides else config


def build_engine(
    scenario: Scenario,
    algorithm: str = "sds",
    check_invariants: bool = False,
    solver: Optional[Solver] = None,
    config: Optional[EngineConfig] = None,
    **overrides,
) -> SDEEngine:
    """Construct (but do not run) an engine for ``scenario``.

    ``overrides`` may name any :class:`EngineConfig` field (applied on top
    of the scenario's config) plus the ``trace`` collaborator; anything
    else is rejected so typos fail loudly instead of silently running with
    defaults.
    """
    config_fields, rest = split_config_overrides(overrides)
    trace = rest.pop("trace", None)
    if rest:
        raise TypeError(f"unknown engine override(s) {sorted(rest)}")
    if config is None:
        config = scenario.engine_config(check_invariants=check_invariants)
    elif check_invariants:
        config = config.replace(check_invariants=True)
    if config_fields:
        config = config.replace(**config_fields)
    return SDEEngine(
        scenario.compiled(),
        scenario.topology,
        make_mapper(algorithm),
        config,
        solver=solver,
        trace=trace,
    )


def run_scenario(
    scenario: Scenario,
    algorithm: str = "sds",
    check_invariants: bool = False,
    **overrides,
) -> RunReport:
    """Run ``scenario`` under ``algorithm`` and return the report."""
    engine = build_engine(
        scenario, algorithm, check_invariants=check_invariants, **overrides
    )
    return engine.run()
