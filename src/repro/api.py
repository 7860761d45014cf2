"""The stable public API of the reproduction, in one place.

Everything an example, benchmark, or downstream script should need is
importable from here::

    from repro.api import Scenario, EngineConfig, run_scenario

    report = run_scenario(my_scenario, "sds", solver_optimize=False)

The deep module paths (``repro.core.engine``, ``repro.solver.core``, ...)
remain importable but are internal: their layout may shift between
versions, while this facade's ``__all__`` is the compatibility contract.

The facade groups four things:

- **scenario construction** — :class:`Scenario`, :class:`Topology`, the
  workload registry (:func:`make_workload` / :func:`register_workload`),
  and the network-medium registry (:func:`make_medium` /
  :func:`register_medium` / :func:`available_media`, with the built-in
  :class:`IdealMedium` and :class:`RealisticMedium`; see
  ``docs/NETWORK.md``);
- **engine configuration and runs** — :class:`EngineConfig`,
  :func:`build_engine`, :func:`run_scenario`, :class:`SDEEngine`,
  :class:`DistributedRunner` (with the :class:`Transport` backends),
  :func:`resume_engine`, and the mapper registry
  (:func:`make_mapper` / :func:`register_mapper`);
- **the solver surface** — :class:`Solver`, :class:`ConstraintSet`,
  :class:`Model` (see ``docs/SOLVER.md`` for the pipeline);
- **state-space reduction** — :func:`automorphisms`,
  :func:`canonical_violations`, :func:`analyze_recv_handler`,
  :class:`StateReducer` (see ``docs/REDUCTION.md``; enabled per run via
  ``EngineConfig(symmetry=..., por=...)``);
- **reports and observability** — :class:`RunReport`,
  :func:`save_report` / :func:`load_report`, :class:`TraceEmitter`;
- **the job service** — :class:`SDEService`, :class:`ServiceLimits`,
  :class:`SubmissionSpec`, :class:`RunStore` (``repro serve``; see
  ``docs/SERVICE.md`` for the HTTP contract and lifecycle).
"""

from __future__ import annotations

from .core.config import EngineConfig
from .core.distributed import (
    DistributedReport,
    DistributedRunner,
    InlineTransport,
    MultiprocessTransport,
    Transport,
)
from .core.engine import RunReport, SDEEngine
from .core.reduce import (
    StateReducer,
    analyze_recv_handler,
    automorphisms,
    canonical_violations,
)
from .core.reporting import load_report_dict, report_to_dict, save_report
from .core.resilience import resume_engine
from .core.scenario import (
    ALGORITHMS,
    Scenario,
    available_algorithms,
    build_engine,
    make_mapper,
    register_mapper,
    run_scenario,
)
from .net.medium import (
    IdealMedium,
    Medium,
    available_media,
    make_medium,
    register_medium,
)
from .net.realistic import RealisticMedium
from .net.topology import Topology
from .obs.events import TraceEmitter, load_trace
from .service import (
    JobRecord,
    RunStore,
    SDEService,
    ServiceLimits,
    SpecError,
    SubmissionSpec,
    serve_main,
)
from .solver import ConstraintSet, Model, Solver
from .workloads import (
    WORKLOADS,
    available_workloads,
    make_workload,
    register_workload,
)

#: canonical name for reading a saved report back (the underlying helper
#: returns the raw dict — reports are plain data once serialized).
load_report = load_report_dict

__all__ = [
    # scenario construction
    "Scenario",
    "Topology",
    "WORKLOADS",
    "available_workloads",
    "make_workload",
    "register_workload",
    # network media
    "Medium",
    "IdealMedium",
    "RealisticMedium",
    "available_media",
    "make_medium",
    "register_medium",
    # engine configuration and runs
    "EngineConfig",
    "SDEEngine",
    "build_engine",
    "run_scenario",
    "DistributedRunner",
    "DistributedReport",
    "Transport",
    "InlineTransport",
    "MultiprocessTransport",
    "resume_engine",
    "ALGORITHMS",
    "available_algorithms",
    "make_mapper",
    "register_mapper",
    # solver surface
    "Solver",
    "ConstraintSet",
    "Model",
    # state-space reduction
    "StateReducer",
    "analyze_recv_handler",
    "automorphisms",
    "canonical_violations",
    # reports and observability
    "RunReport",
    "report_to_dict",
    "save_report",
    "load_report",
    "load_report_dict",
    "TraceEmitter",
    "load_trace",
    # the job service
    "SDEService",
    "ServiceLimits",
    "SubmissionSpec",
    "SpecError",
    "RunStore",
    "JobRecord",
    "serve_main",
]
