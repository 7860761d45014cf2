"""Which functions of the program are spans of which layer, and the
per-layer metrics a traced run reports.

The spans wrap the public functions of each layer from outside the
program (see ``tracer.py``); nothing under ``src/`` is changed to trace it.
"""

from __future__ import annotations

from tracer import GC_LAYER, Tracer, percentile_us

ROOT_LAYER = "engine"

#: Every per-layer metric, with its unit, in report order.
PER_LAYER = (
    ("vm.calls", "count"),
    ("vm.self_s", "s"),
    ("vm.instructions", "count"),
    ("vm.event_p50_us", "us"),
    ("vm.event_p99_us", "us"),
    ("solver.calls", "count"),
    ("solver.self_s", "s"),
    ("solver.call_p99_us", "us"),
    ("solver.queries", "count"),
    ("solver.backend_groups", "count"),
    ("solver.cache_hits", "count"),
    ("solver.cache_lookups", "count"),
    ("solver.cache_hit_ratio", "ratio"),
    ("mapping.calls", "count"),
    ("mapping.self_s", "s"),
    ("mapping.groups", "count"),
    ("mapping.virtual_forks", "count"),
    ("state.forks", "count"),
    ("state.fork_s", "s"),
    ("net.calls", "count"),
    ("net.self_s", "s"),
    ("failures.calls", "count"),
    ("failures.self_s", "s"),
    ("reduce.calls", "count"),
    ("reduce.self_s", "s"),
    ("reduce.pruned", "count"),
    ("reduce.prune_ratio", "ratio"),
    ("sample.calls", "count"),
    ("sample.self_s", "s"),
    ("sample.states_walked", "count"),
    ("sched.calls", "count"),
    ("sched.self_s", "s"),
    ("gc.collections", "count"),
    ("gc.gen2_collections", "count"),
    ("gc.self_s", "s"),
    ("engine.unattributed_s", "s"),
    ("engine.unattributed_share", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("dist.self_s", "s"),
    ("dist.probe_s", "s"),
    ("dist.partition_depth", "count"),
    ("dist.jobs", "count"),
    ("dist.steals_granted", "count"),
    ("dist.steals_denied", "count"),
    ("dist.payload_bytes", "bytes"),
    ("dist.recv_wait_s", "s"),
    ("dist.worker_busy_s", "s"),
    ("dist.job_max_s", "s"),
)

#: Per workload, the layers whose spans must fire.  A span that silently
#: stops firing (a renamed or deleted function) fails the traced run.
REQUIRED_SPANS = {
    "flood3": ("vm", "solver", "mapping", "state", "net", "sample", "sched"),
    "grid5": ("vm", "mapping", "state", "net", "failures", "sample", "sched"),
    "flood4_reduced": (
        "vm", "solver", "mapping", "state", "net", "reduce", "sample", "sched",
    ),
    "flood3_dist": (
        "vm", "solver", "sample", "sched", "dist.probe", "dist.send", "dist.recv",
    ),
}


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _wrap_hierarchy(tracer, base, attrs, layer, observe=None):
    """Wrap each of ``attrs`` wherever ``base`` or a subclass implements it."""
    for cls in _subclasses(base):
        for attr in attrs:
            method = cls.__dict__.get(attr)
            if method is None or getattr(method, "__isabstractmethod__", False):
                continue
            tracer.wrap(cls, attr, layer, observe=observe)


class LayerTracer(Tracer):
    """A :class:`Tracer` plus the work counts read off wrapped calls."""

    def __init__(self) -> None:
        super().__init__()
        self.states_walked = 0
        self.payload_bytes = 0

    def _count_sample(self, args, sample):
        self.states_walked += sample.total_states

    def _count_payload(self, args, result):
        message = args[2]
        self.payload_bytes += sum(len(x) for x in message if isinstance(x, bytes))


def install() -> LayerTracer:
    """Wrap every layer's public functions; return the live tracer."""
    import repro.net.realistic  # noqa: F401  (registers its Medium subclass)
    from repro.core import distributed
    from repro.core.mapping import StateMapper
    from repro.core.reduce import StateReducer
    from repro.core.stats import StatsRecorder
    from repro.net.failures import FailureModel
    from repro.net.medium import Medium
    from repro.sim.queue import EventQueue
    from repro.solver import Solver
    from repro.vm.executor import Executor
    from repro.vm.state import ExecutionState

    tracer = LayerTracer()
    tracer.wrap(Executor, "run_event", "vm", keep_durations=True)
    for attr in ("branch_feasibility", "may_be_true", "must_be_true", "check"):
        tracer.wrap(Solver, attr, "solver", keep_durations=True)
    _wrap_hierarchy(
        tracer, StateMapper, ("map_transmission", "on_local_fork"), "mapping"
    )
    tracer.wrap(ExecutionState, "fork", "state")
    _wrap_hierarchy(tracer, Medium, ("plan_unicast", "plan_broadcast"), "net")
    _wrap_hierarchy(tracer, FailureModel, ("apply",), "failures")
    for attr in ("observe", "observe_twin", "record_delivery", "on_pruned_event"):
        tracer.wrap(StateReducer, attr, "reduce")
    tracer.wrap(StatsRecorder, "record", "sample", observe=tracer._count_sample)
    tracer.wrap(EventQueue, "pop", "sched")
    tracer.wrap(
        distributed, "deepen_until_partitioned", "dist.probe", keep_durations=True
    )
    _wrap_hierarchy(
        tracer, distributed.Transport, ("send",), "dist.send", tracer._count_payload
    )
    _wrap_hierarchy(tracer, distributed.Transport, ("recv",), "dist.recv")
    return tracer


def layer_metrics(tracer: LayerTracer, report) -> dict:
    """Every per-layer metric of one traced run (0 where a layer is idle)."""
    counters = report.metrics["counters"]
    by_target = tracer.calls_by_target
    self_s = tracer.self_s
    cache = {k: v for k, v in counters.items() if k.startswith("solver.cache.")}
    hits = sum(v for k, v in cache.items() if k.startswith("solver.cache.hit."))
    lookups = hits + cache.get("solver.cache.miss", 0)
    observe_calls = by_target["StateReducer.observe"]
    pruned = counters.get("reduce.pruned", 0)
    worker_runtimes = [
        w.runtime_seconds for w in getattr(report, "worker_results", ())
    ]
    return {
        "vm.calls": tracer.calls["vm"],
        "vm.self_s": self_s["vm"],
        "vm.instructions": counters["run.instructions"],
        "vm.event_p50_us": percentile_us(tracer.durations["vm"], 0.50),
        "vm.event_p99_us": percentile_us(tracer.durations["vm"], 0.99),
        "solver.calls": tracer.calls["solver"],
        "solver.self_s": self_s["solver"],
        "solver.call_p99_us": percentile_us(tracer.durations["solver"], 0.99),
        "solver.queries": counters["solver.queries"],
        "solver.backend_groups": counters.get("solver.backend.groups", 0),
        "solver.cache_hits": hits,
        "solver.cache_lookups": lookups,
        "solver.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "mapping.calls": tracer.calls["mapping"],
        "mapping.self_s": self_s["mapping"],
        "mapping.groups": counters["mapping.groups"],
        "mapping.virtual_forks": counters.get("mapping.virtual_forks", 0),
        "state.forks": tracer.calls["state"],
        "state.fork_s": self_s["state"],
        "net.calls": tracer.calls["net"],
        "net.self_s": self_s["net"],
        "failures.calls": tracer.calls["failures"],
        "failures.self_s": self_s["failures"],
        "reduce.calls": tracer.calls["reduce"],
        "reduce.self_s": self_s["reduce"],
        "reduce.pruned": pruned,
        "reduce.prune_ratio": pruned / observe_calls if observe_calls else 0.0,
        "sample.calls": tracer.calls["sample"],
        "sample.self_s": self_s["sample"],
        "sample.states_walked": tracer.states_walked,
        "sched.calls": tracer.calls["sched"],
        "sched.self_s": self_s["sched"],
        "gc.collections": tracer.gc_collections,
        "gc.gen2_collections": tracer.gc_gen2_collections,
        "gc.self_s": self_s[GC_LAYER],
        "engine.unattributed_s": self_s[ROOT_LAYER],
        "engine.unattributed_share": self_s[ROOT_LAYER] / tracer.wall_s,
        "trace.wall_s": tracer.wall_s,
        "dist.self_s": (
            self_s["dist.probe"] + self_s["dist.send"] + self_s["dist.recv"]
        ),
        "dist.probe_s": sum(tracer.durations["dist.probe"], 0.0),
        "dist.partition_depth": getattr(report, "partition_depth", 0),
        "dist.jobs": getattr(report, "jobs_dispatched", 0),
        "dist.steals_granted": getattr(report, "steals_granted", 0),
        "dist.steals_denied": getattr(report, "steals_denied", 0),
        "dist.payload_bytes": tracer.payload_bytes,
        "dist.recv_wait_s": self_s["dist.recv"],
        "dist.worker_busy_s": sum(worker_runtimes, 0.0),
        "dist.job_max_s": max(worker_runtimes, default=0.0),
    }
