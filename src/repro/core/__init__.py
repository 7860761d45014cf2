"""The paper's contribution: SDE state mapping and the execution engine.

- :mod:`repro.core.mapping` — the pluggable state-mapper interface
- :mod:`repro.core.cob` / :mod:`repro.core.cow` / :mod:`repro.core.sds`
  — the three algorithms of Section III
- :mod:`repro.core.engine` — the KleeNet-equivalent engine (Section IV)
- :mod:`repro.core.history` — communication histories / conflicts
- :mod:`repro.core.explode` — dscenario explosion + equivalence oracle
- :mod:`repro.core.testcase` — concrete test-case generation
- :mod:`repro.core.complexity` — Section III-E's analytic bounds
- :mod:`repro.core.partition` — partition analysis (independent dstate sets)
- :mod:`repro.core.distributed` — multi-process execution of those partitions
- :mod:`repro.core.scenario` — the public Scenario/run API
"""

from .cob import COBMapper, DScenario  # noqa: F401
from .config import ENGINE_CONFIG_FIELDS, EngineConfig  # noqa: F401
from .complexity import (  # noqa: F401
    dscenario_tree_size,
    instructions_to_reach,
    nstep_instructions,
    nstep_successors,
    worst_case_space,
    worst_case_states_at_level,
)
from .cow import COWMapper, DState  # noqa: F401
from .engine import RunReport, SDEEngine  # noqa: F401
from .explode import (  # noqa: F401
    dscenario_fingerprints,
    explosion_count,
    iter_dscenarios,
    logical_state_config,
)
from .history import conflict_free, find_conflicts, in_direct_conflict  # noqa: F401
from .mapping import MappingError, MappingStats, StateMapper  # noqa: F401
from .optimize import (  # noqa: F401
    MergeGroup,
    OptimizationReport,
    analyze_equal_packets,
)
from .partition import (  # noqa: F401
    Partition,
    lpt_assign,
    partition_groups,
    projected_speedup,
    schedule_makespan,
    speedup_bound,
)
from .reporting import (  # noqa: F401
    load_report_dict,
    report_to_dict,
    save_report,
)
from .replay import (  # noqa: F401
    ForcedFailureModel,
    replay_assignments,
    replay_testcase,
)
from .scenario import (  # noqa: F401
    ALGORITHMS,
    Scenario,
    available_algorithms,
    build_engine,
    make_mapper,
    register_mapper,
    run_scenario,
)
from .sds import SDSMapper, VDState, VirtualState  # noqa: F401
from .stats import Sample, StatsRecorder, estimate_state_bytes  # noqa: F401
from .testcase import (  # noqa: F401
    DistributedTestCase,
    TestCase,
    generate_incrementally,
    testcase_for_dscenario,
    testcase_for_state,
    testcases_for_errors,
)
