"""The SDE engine — this reproduction's KleeNet.

"KleeNet simulates a complete distributed system in a single process.  It
starts with k states representing the nodes in the network.  As in any
simulation, in each step KleeNet executes an event of a node and advances
the time to the next event in the queue.  If the symbolic execution of an
event handler produces new states, they're simply added to the state set.
The state mapping algorithms are triggered either at the node's local branch
(COB) or upon a node's message transmission (COW, SDS)."  — Section IV

This module is exactly that loop:

- a global, deterministic event queue over all execution states;
- event dispatch into the symbolic VM (boot / timer / reception handlers);
- failure-model application at reception (symbolic drops etc.);
- transmissions routed through the pluggable state mapper;
- growth sampling, state/memory/runtime caps (the paper aborts COB at the
  machine's memory limit — the caps reproduce that behaviour), and a final
  run report;
- the one serialization of a mid-run engine (:class:`EngineSnapshot`,
  :func:`capture_snapshot`, :func:`restore_snapshot`), shared by
  checkpoints (:mod:`repro.core.resilience`) and distributed jobs
  (:mod:`repro.core.distributed`).
"""

from __future__ import annotations

import gc
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..lang.bytecode import CompiledProgram
from ..lang.compiler import compile_source
from ..net.medium import make_medium
from ..net.packet import Packet, ensure_packet_ids_above, packet_id_watermark
from ..net.topology import Topology
from ..obs.events import TraceEmitter
from ..obs.metrics import report_snapshot
from ..obs.profile import PhaseProfiler
from ..oslib.kernel import HANDLER_BOOT, HANDLER_RECV, HANDLER_TIMER, NodeOS
from ..sim.clock import VirtualClock
from ..sim.queue import EventQueue
from ..solver import CacheStats, Solver
from ..vm.executor import Executor
from ..vm.state import (
    CellValue,
    Event,
    ExecutionState,
    Status,
    ensure_state_ids_above,
    state_id_watermark,
)
from .config import EngineConfig
from .mapping import StateMapper
from .reduce import StateReducer
from .stats import Sample, StatsRecorder

__all__ = [
    "EngineSnapshot",
    "PresetValue",
    "RunReport",
    "SDEEngine",
    "capture_snapshot",
    "restore_snapshot",
]

# A preset global: one value for all nodes, or an explicit per-node mapping.
PresetValue = Union[int, Dict[int, int]]

#: Gen-0 cyclic-GC threshold while the event loop runs: the state heap is
#: never freed during a run and holds almost no cyclic garbage, so at the
#: default (700) the collector keeps rescanning live states for nothing.
STATE_HEAP_GC_THRESHOLD = 50_000


class RunReport:
    """Everything a benchmark or test wants to know about one SDE run.

    A distributed job's result is one of these too; the merged report of
    a multi-process run is its subclass
    :class:`~repro.core.distributed.DistributedReport`.
    """

    # -- multi-process status: a sequential run has no workers, retries
    # or failed partitions (DistributedReport sets all four) ---------------
    workers = 0
    partial = False
    retries = 0
    failed_partitions: Sequence = ()

    def __init__(self, engine: "SDEEngine") -> None:
        self.algorithm = engine.mapper.name
        self.aborted = engine.aborted
        self.abort_reason = engine.abort_reason
        self.runtime_seconds = engine.stats.elapsed()
        self.events_executed = engine.events_executed
        self.instructions = engine.executor.instructions_executed
        self.total_states = len(engine.states)
        self.active_states = sum(1 for s in engine.states.values() if s.is_active())
        self.error_states = [
            s for s in engine.states.values() if s.status == Status.ERROR
        ]
        self.census = engine.state_census()
        self.group_count = engine.mapper.group_count()
        self.mapping_stats = engine.mapper.stats.as_dict()
        self.solver_queries = engine.solver.queries
        self.samples: List[Sample] = list(engine.stats.samples)
        self.virtual_ms = engine.clock.now
        self.accounted_bytes = (self.samples[-1].accounted_bytes if self.samples else 0)
        # -- observability extras (the metrics-snapshot contract) ----------
        self.phases = engine.profiler.snapshot()
        self.cache_stats = engine.solver.cache_stats()
        self.solver_stats = engine.solver.stats_dict()
        self.net_stats = engine.medium.stats_dict()
        self.histograms = {
            "solver.query.conjuncts": engine.solver.conjunct_histogram.data(),
        }
        # -- resilience extras ---------------------------------------------
        self.checkpoints_written = engine.checkpoints_written
        self.resumed = engine.resumed
        # -- symmetry/POR reduction (repro.core.reduce) ---------------------
        self.reduce_stats = (
            engine.reducer.stats_dict() if engine.reducer is not None else {}
        )
        self.metrics = report_snapshot(self)

    def peak_states(self) -> int:
        return max((s.total_states for s in self.samples), default=self.total_states)

    def peak_accounted_bytes(self) -> int:
        return max((s.accounted_bytes for s in self.samples), default=0)

    def state_census(self) -> Dict[int, int]:
        """States per node at the end of the run."""
        return dict(self.census)

    def summary(self) -> str:
        status = "ABORTED" if self.aborted else "completed"
        lines = [
            f"[{self.algorithm}] {status} after {self.runtime_seconds:.2f}s"
            + (f" ({self.abort_reason})" if self.aborted else ""),
            f"  virtual time     : {self.virtual_ms} ms",
            f"  events executed  : {self.events_executed}",
            f"  instructions     : {self.instructions}",
            f"  states (total)   : {self.total_states}",
            f"  dscenarios/dstates: {self.group_count}",
            f"  accounted memory : {self.accounted_bytes / 1e6:.2f} MB",
            f"  error states     : {len(self.error_states)}",
            f"  solver queries   : {self.solver_queries}",
        ]
        if self.retries:
            lines.append(f"  worker retries   : {self.retries}")
        if self.partial:
            lines.append(
                f"  PARTIAL: {len(self.failed_partitions)} partition(s)"
                " failed after retries"
            )
            for failure in self.failed_partitions:
                lines.append(f"    - {failure.describe()}")
        for name, data in self.phases.items():
            lines.append(
                f"  phase {name:<11}: {data['seconds']:.3f}s"
                f" ({data['count']} enters)"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"RunReport({self.algorithm}, states={self.total_states},"
            f" groups={self.group_count}, aborted={self.aborted})"
        )


@dataclass
class EngineSnapshot:
    """A mid-run engine as picklable data: the one engine serialization.

    Taken between events, where every state is quiescent and the
    scheduler entries (one per runnable state, in pop order) reproduce the
    sequential scheduling exactly.  It holds the run's inputs (algorithm,
    program, topology, config), the frontier of the captured groups (the
    mapper payload — every state carries its own path constraints — plus
    scheduler entries and clock) and the id watermarks, so a restored
    engine never reuses an id.

    A *job* snapshot (a distributed partition bundle) stops there: the
    merge re-adds the prefix counters, and the restored reducer seeds
    itself from the shipped states.  A *whole* snapshot (every group — a
    checkpoint) also carries ``baselines``: the counters, samples, phases
    and trace so far, and the symmetry/POR reducer's search state, so the
    resumed run's report equals the uninterrupted run's.

    The snapshot references live engine objects; pickle it before the
    engine runs on.
    """

    algorithm: str
    program: CompiledProgram
    topology: Topology
    config: EngineConfig
    mapper_payload: object
    scheduler_entries: List[Tuple[int, int]]
    clock_now: int
    state_watermark: int
    packet_watermark: int
    broadcast_watermark: int
    traced: bool
    baselines: Optional[dict] = None


def capture_snapshot(engine: "SDEEngine", partitions=None) -> EngineSnapshot:
    """Snapshot ``engine`` between events, allocating no ids.

    ``partitions`` (a bundle of :class:`~repro.core.partition.Partition`)
    makes a job snapshot of just those groups, under the config's worker
    variant; ``None`` makes a whole snapshot with baselines, under the
    config minus its checkpoint cadence (a resumed run only checkpoints
    if the caller re-enables it).
    """
    mapper = engine.mapper
    entries = engine.scheduler_snapshot()
    broadcast_watermark = next(engine._broadcast_ids) - 1
    engine._broadcast_ids = itertools.count(broadcast_watermark + 1)
    baselines = None
    if partitions is None:
        groups: Sequence[int] = range(mapper.group_count())
        config = engine.config.replace(
            checkpoint_path=None,
            checkpoint_every_events=None,
            checkpoint_every_seconds=None,
        )
        reducer = engine.reducer
        baselines = {
            "events_executed": engine.events_executed,
            "instructions": engine.executor.instructions_executed,
            "solver_queries": engine.solver.queries,
            "solver_stats": engine.solver.stats_dict(),
            "conjunct_histogram": engine.solver.conjunct_histogram,
            "cache_stats": engine.solver.cache_stats(),
            "mapping_stats": mapper.stats.as_dict(),
            "net_stats": engine.medium.stats_dict(),
            "phases": engine.profiler.snapshot(),
            "samples": list(engine.stats.samples),
            "checkpoints_written": engine.checkpoints_written,
            "trace_events": list(engine.trace.events)
            if engine.trace is not None
            else [],
            "reducer": (reducer.seen, reducer.delivery_seen, reducer.stats)
            if reducer is not None
            else None,
        }
    else:
        groups = [index for p in partitions for index in p.group_indices]
        sids = set().union(*(p.state_sids for p in partitions))
        entries = [entry for entry in entries if entry[1] in sids]
        config = engine.config.worker_variant()
    return EngineSnapshot(
        algorithm=mapper.name,
        program=engine.program,
        topology=engine.topology,
        config=config,
        mapper_payload=mapper.snapshot_groups(groups),
        scheduler_entries=entries,
        clock_now=engine.clock.now,
        state_watermark=state_id_watermark(),
        packet_watermark=packet_id_watermark(),
        broadcast_watermark=broadcast_watermark,
        traced=engine.trace is not None,
        baselines=baselines,
    )


def restore_snapshot(
    snapshot: EngineSnapshot, trace: Optional[TraceEmitter] = None
) -> "SDEEngine":
    """A fresh engine continuing ``snapshot`` where it was taken.

    The engine gets its own solver and a fresh mapper that re-installs the
    shipped groups; the scheduler is re-seeded in the captured pop order
    and id counters move past the watermarks.  A whole snapshot's
    baselines are installed in place, and its trace so far is replayed
    into ``trace``.
    """
    from .scenario import make_mapper

    mapper = make_mapper(snapshot.algorithm)
    engine = SDEEngine(
        snapshot.program, snapshot.topology, mapper, snapshot.config, trace=trace
    )
    engine._started = True  # the boot states live in the snapshot
    mapper.restore_groups(snapshot.mapper_payload)
    for group in mapper.groups():
        for states in group.values():
            for state in states:
                engine.states[state.sid] = state
    engine.clock.advance_to(snapshot.clock_now)
    for event_time, sid in snapshot.scheduler_entries:
        engine.scheduler.push(event_time, sid)
    ensure_state_ids_above(snapshot.state_watermark)
    ensure_packet_ids_above(snapshot.packet_watermark)
    engine._broadcast_ids = itertools.count(snapshot.broadcast_watermark + 1)
    baselines = snapshot.baselines
    if baselines is None:
        return engine
    engine.events_executed = baselines["events_executed"]
    engine.executor.instructions_executed = baselines["instructions"]
    solver = engine.solver
    solver.queries = baselines["solver_queries"]
    solver.restore_stats(baselines["solver_stats"])
    solver.conjunct_histogram = baselines["conjunct_histogram"]
    if baselines["cache_stats"] and solver._cache is not None:
        solver._cache.stats = CacheStats.restore(baselines["cache_stats"])
    for slot, value in baselines["mapping_stats"].items():
        setattr(mapper.stats, slot, value)
    engine.medium.restore_stats(baselines["net_stats"])
    for name, data in baselines["phases"].items():
        phase = engine.profiler.phase(name)
        phase.count = data["count"]
        phase.seconds = data["seconds"]
    samples = baselines["samples"]
    engine.stats.restore(samples, samples[-1].events_executed if samples else -1)
    engine.checkpoints_written = baselines["checkpoints_written"]
    engine.resumed = True
    if engine.reducer is not None and baselines["reducer"] is not None:
        reducer = engine.reducer
        reducer.seen, reducer.delivery_seen, reducer.stats = baselines["reducer"]
        reducer.seeded = True  # covered already: run_until must not re-seed
    if trace is not None:
        trace.extend(baselines["trace_events"])
        trace.emit("checkpoint.resume", events=engine.events_executed)
    return engine


class SDEEngine:
    """Symbolic distributed execution of one scenario."""

    def __init__(
        self,
        program: Union[str, CompiledProgram],
        topology: Topology,
        mapper: StateMapper,
        config: EngineConfig,
        *,
        solver: Optional[Solver] = None,
        trace: Optional[TraceEmitter] = None,
    ) -> None:
        if not isinstance(config, EngineConfig):
            raise TypeError(
                f"SDEEngine needs an EngineConfig, got {type(config).__name__}"
            )
        if isinstance(program, str):
            program = compile_source(program)
        self.config = config
        self.program = program
        self.topology = topology
        self.mapper = mapper
        medium_params = dict(config.medium_params or {})
        medium_params.setdefault("latency_ms", config.latency_ms)
        self.medium = make_medium(config.medium, topology, **medium_params)
        self.clock = VirtualClock(config.horizon_ms)
        self.solver = solver if solver is not None else config.make_solver()
        self.executor = Executor(
            program,
            self.solver,
            host=NodeOS(self),
            max_steps_per_event=config.max_steps_per_event,
        )
        self.failure_models = list(config.failure_models)
        self.preset_globals = dict(config.preset_globals or {})
        self.boot_times = (
            list(config.boot_times)
            if config.boot_times is not None
            else [0] * topology.node_count
        )
        if len(self.boot_times) != topology.node_count:
            raise ValueError("boot_times must list one time per node")
        self.max_states = config.max_states
        self.max_accounted_bytes = config.max_accounted_bytes
        self.max_wall_seconds = config.max_wall_seconds
        self.check_invariants = config.check_invariants

        self.states: Dict[int, ExecutionState] = {}
        self.packets: Dict[int, Packet] = {}  # pid -> packet (for reports)
        self.scheduler: EventQueue[int] = EventQueue()
        self.events_executed = 0
        self.aborted = False
        self.abort_reason = ""
        self._broadcast_ids = itertools.count(1)
        self._started = False
        # Checkpointing (see repro.core.resilience): with a path set, the
        # run loop snapshots itself every N events / T wall seconds so a
        # killed run can continue via `repro run --resume`.
        self.checkpoint_path = config.checkpoint_path
        self.checkpoint_every_events = config.checkpoint_every_events
        self.checkpoint_every_seconds = config.checkpoint_every_seconds
        self.checkpoints_written = 0
        self.resumed = False
        self._last_checkpoint_events = 0
        self._last_checkpoint_elapsed = 0.0
        self.stats = StatsRecorder(
            len(program.code),
            sample_every_events=config.sample_every_events,
        )
        # States touched since the last sample: the only ones the recorder
        # re-costs (see StatsRecorder.record).
        self._dirty: Set[ExecutionState] = set()
        # Observability: `trace is None` means tracing off — every emit
        # site guards on that, so the disabled path allocates nothing.
        self.trace = trace
        self.profiler = PhaseProfiler()
        self._phase_execute = self.profiler.phase("execute")
        self._phase_map = self.profiler.phase("map")
        self.medium.trace = trace
        self.solver.attach_observability(trace, self.profiler)
        mapper.bind(self._register_state, trace=trace)
        # Symmetry/POR reduction (repro.core.reduce): built only when a
        # reduction flag is set, so default runs carry zero overhead.
        self.reducer: Optional[StateReducer] = None
        if config.symmetry or config.por:
            self.reducer = StateReducer(
                topology,
                self.program,
                symmetry=config.symmetry,
                por=config.por,
                trace=trace,
                medium=self.medium,
            )
        self._reduce_candidates: List[ExecutionState] = []
        self._mapping_twins: List[ExecutionState] = []
        self._mapping_active = False

    # -- EngineServices (used by NodeOS) ---------------------------------------

    @property
    def node_count(self) -> int:
        return self.topology.node_count

    def guest_unicast(
        self, sender: ExecutionState, dest: int, payload: List[CellValue]
    ) -> None:
        from ..vm.syscalls import SyscallAbort

        if dest == sender.node:
            raise SyscallAbort("unicast to self")
        for node, deliver_at in self.medium.plan_unicast(
            sender, dest, len(payload)
        ):
            self._transmit(sender, node, payload, 0, deliver_at)

    def guest_broadcast(self, sender: ExecutionState, payload: List[CellValue]) -> None:
        broadcast_id = next(self._broadcast_ids)
        # Broadcast = a series of unicasts to every neighbour (footnote 1).
        for node, deliver_at in self.medium.plan_broadcast(
            sender, len(payload)
        ):
            self._transmit(sender, node, payload, broadcast_id, deliver_at)

    def _transmit(
        self,
        sender: ExecutionState,
        dest_node: int,
        payload: List[CellValue],
        broadcast_id: int,
        deliver_at: int,
    ) -> None:
        packet = Packet(
            sender.node, dest_node, tuple(payload), sender.clock, broadcast_id
        )
        self.packets[packet.pid] = packet
        with self._phase_map:
            self._mapping_active = True
            try:
                receivers = self.mapper.map_transmission(sender, dest_node)
            finally:
                self._mapping_active = False
        sender.record_sent(packet.pid, dest_node)
        self._dirty.add(sender)
        if self.trace is not None:
            self.trace.emit(
                "packet.send",
                src=sender.node,
                dest=dest_node,
                t=sender.clock,
                # Boolean, not the group id: broadcast ids are allocated
                # from a watermarked counter and differ across workers.
                bcast=broadcast_id is not None,
                pid=packet.pid,
            )
        for receiver in receivers:
            receiver.record_received(packet.pid, sender.node)
            receiver.push_event(deliver_at, Event.RECV, packet)
            self._schedule(receiver)
            if self.trace is not None:
                self.trace.emit(
                    "packet.deliver",
                    node=receiver.node,
                    src=sender.node,
                    t=deliver_at,
                    pid=packet.pid,
                    sid=receiver.sid,
                )
        if self.reducer is not None and self._mapping_twins:
            self._reduce_mapping_twins(receivers, packet)

    def _reduce_mapping_twins(
        self, receivers: List[ExecutionState], packet: Packet
    ) -> None:
        """Sleep redundant non-receiving twins created by this mapping.

        Mapper spawns during ``map_transmission`` that are *not* in the
        receiver list exist only to pair other scenario combinations with
        the non-delivery of this packet (SDS target twins, COW bystander
        duplicates).  When such a twin's canonical form is already covered
        and the delivery is independent of its pending events, exploring
        it cannot reach a new configuration — the partial-order sleep.
        """
        twins, self._mapping_twins = self._mapping_twins, []
        receiving = {receiver.sid for receiver in receivers}
        for twin in twins:
            if twin.sid in receiving:
                self._reduce_candidates.append(twin)
                continue
            if self.reducer.observe_twin(twin, packet):
                twin.status = Status.PRUNED
                if self.trace is not None:
                    self.trace.emit(
                        "reduce.sleep",
                        node=twin.node,
                        t=twin.clock,
                        sid=twin.sid,
                    )

    # -- setup --------------------------------------------------------------------

    def setup(self) -> None:
        """Create the k boot states, preset globals, schedule boot events."""
        if self._started:
            raise RuntimeError("engine already set up")
        self._started = True
        if self.trace is not None:
            self.trace.emit(
                "run.start",
                algorithm=self.mapper.name,
                nodes=self.topology.node_count,
            )
        initial: List[ExecutionState] = []
        for node in self.topology.nodes():
            state = self.executor.make_initial_state(node)
            self._apply_presets(state)
            state.push_event(self.boot_times[node], Event.BOOT, None)
            initial.append(state)
            self.states[state.sid] = state
        self.mapper.register_initial(initial)
        for state in initial:
            self._schedule(state)

    def _apply_presets(self, state: ExecutionState) -> None:
        for name, preset in self.preset_globals.items():
            if name not in self.program.globals_layout:
                raise KeyError(f"program has no global {name!r} to preset")
            address, size = self.program.globals_layout[name]
            value = preset.get(state.node, 0) if isinstance(preset, dict) else preset
            if size != 1:
                raise ValueError(f"cannot preset array global {name!r}")
            state.memory[address] = value & 0xFFFFFFFF

    # -- the main loop ----------------------------------------------------------------

    def run(self) -> RunReport:
        self.run_until()
        self._sample_and_check_caps(force=True)
        if self.trace is not None:
            self.trace.emit(
                "run.end",
                algorithm=self.mapper.name,
                events=self.events_executed,
            )
        return RunReport(self)

    def run_until(
        self,
        split_ms: Optional[int] = None,
        split_events: Optional[int] = None,
    ) -> None:
        """Drive the event loop, optionally stopping at a split point.

        With ``split_ms`` set, no event scheduled after that virtual time is
        consumed — the pending entries stay queued, so the run can be
        snapshotted (:meth:`scheduler_snapshot`) and resumed elsewhere.
        ``split_events`` bounds the number of events executed the same way.
        With neither bound this is the complete run loop.  It runs under
        :data:`STATE_HEAP_GC_THRESHOLD`; the caller's GC thresholds are
        restored on every exit.
        """
        if not self._started:
            self.setup()
        if self.reducer is not None and not self.reducer.seeded:
            # Resumed checkpoints / restored worker partitions inherit
            # states that must count as covered, never be parked.
            self.reducer.seed(self.states.values())
        thresholds = gc.get_threshold()
        if 0 < thresholds[0] < STATE_HEAP_GC_THRESHOLD:
            gc.set_threshold(STATE_HEAP_GC_THRESHOLD, *thresholds[1:])
        try:
            self._event_loop(split_ms, split_events)
        finally:
            gc.set_threshold(*thresholds)

    def _event_loop(
        self, split_ms: Optional[int], split_events: Optional[int]
    ) -> None:
        while True:
            if (split_events is not None and self.events_executed >= split_events):
                break  # event-count split point reached
            entry = self.scheduler.pop(self._entry_valid, max_time=split_ms)
            if entry is None:
                break  # no runnable state left (or virtual-time split hit)
            event_time, sid = entry
            if self.clock.expired(event_time):
                break  # simulation horizon reached
            state = self.states[sid]
            self._dirty.add(state)
            event = state.pop_event()
            self.clock.advance_to(event_time)
            state.clock = event_time
            with self._phase_execute:
                self._dispatch(state, event)
            if self.reducer is not None:
                self._apply_reduction()
            self.events_executed += 1
            if self.stats.should_sample(self.events_executed):
                self._sample_and_check_caps()
            if self._checkpoint_due():
                self.write_checkpoint()  # after sampling: resumes keep the cadence
            if self.check_invariants:
                self.mapper.check_invariants()
            if self.aborted:
                break

    # -- checkpointing (repro.core.resilience) ---------------------------------

    def _checkpoint_due(self) -> bool:
        if self.checkpoint_path is None:
            return False
        if (
            self.checkpoint_every_events is not None
            and self.events_executed - self._last_checkpoint_events
            >= self.checkpoint_every_events
        ):
            return True
        return (
            self.checkpoint_every_seconds is not None
            and self.stats.elapsed() - self._last_checkpoint_elapsed
            >= self.checkpoint_every_seconds
        )

    def write_checkpoint(self, path: Optional[str] = None) -> str:
        """Snapshot the full engine to disk (atomic, checksummed).

        Safe between events: every state is quiescent and the scheduler
        snapshot preserves the sequential pop order, the same property the
        distributed runner's cut relies on.
        """
        from .resilience import save_checkpoint

        target = path if path is not None else self.checkpoint_path
        if target is None:
            raise ValueError("no checkpoint path configured")
        save_checkpoint(self, target)
        self.checkpoints_written += 1
        self._last_checkpoint_events = self.events_executed
        self._last_checkpoint_elapsed = self.stats.elapsed()
        if self.trace is not None:
            self.trace.emit(
                "checkpoint.write",
                events=self.events_executed,
                path=str(target),
            )
        return str(target)

    def scheduler_snapshot(self) -> List[Tuple[int, int]]:
        """Pending work as ``(time, sid)`` pairs in deterministic pop order.

        Exactly one entry per runnable state — the first *valid* heap entry,
        in heap order — so re-pushing the pairs into a fresh
        :class:`EventQueue` reproduces this engine's scheduling order (ties
        at equal times pop in the captured sequence).
        """
        out: List[Tuple[int, int]] = []
        seen = set()
        for event_time, _, sid in self.scheduler.entries():
            if sid in seen:
                continue
            if self._entry_valid(event_time, sid):
                seen.add(sid)
                out.append((event_time, sid))
        return out

    def _entry_valid(self, event_time: int, sid: int) -> bool:
        # PRUNED states stay schedulable: their events must surface so the
        # reducer can decide wake-vs-sleep per delivery (_dispatch_pruned).
        state = self.states.get(sid)
        return (
            state is not None
            and (state.status == Status.IDLE or state.status == Status.PRUNED)
            and state.peek_event_time() == event_time
        )

    def _schedule(self, state: ExecutionState) -> None:
        self._dirty.add(state)
        if state.events and state.status in (Status.IDLE, Status.PRUNED):
            self.scheduler.push(state.peek_event_time(), state.sid)

    def _register_state(self, state: ExecutionState) -> None:
        """Spawn callback for mappers and failure models."""
        self.states[state.sid] = state
        self._schedule(state)  # also marks the state dirty
        if self.reducer is not None:
            if self._mapping_active:
                self._mapping_twins.append(state)
            else:
                self._reduce_candidates.append(state)

    # -- event dispatch ---------------------------------------------------------------

    def _dispatch(self, state: ExecutionState, event: Event) -> None:
        if state.status == Status.PRUNED:
            self._dispatch_pruned(state, event)
            return
        if event.kind == Event.BOOT:
            self._run_handler(state, HANDLER_BOOT, ())
        elif event.kind == Event.TIMER:
            if NodeOS.timer_event_is_live(state, event) and self.program.has_handler(
                HANDLER_TIMER
            ):
                self._run_handler(state, HANDLER_TIMER, (event.data,))
            else:
                self._schedule(state)  # stale timer: just keep going
        elif event.kind == Event.RECV:
            self._dispatch_reception(state, event.data)
        else:  # pragma: no cover - exhaustive over event kinds
            raise AssertionError(f"unknown event kind {event.kind!r}")

    def _dispatch_pruned(self, state: ExecutionState, event: Event) -> None:
        """An event surfaced on a parked state: wake or swallow.

        The reducer wakes the state for a reception whose configuration ⊕
        delivery class no active state has covered (restoring exactness
        for reception-driven divergence); everything else is slept.
        """
        if self.reducer.on_pruned_event(state, event) == "wake":
            state.status = Status.IDLE
            if self.trace is not None:
                self.trace.emit(
                    "reduce.wake", node=state.node, t=state.clock, sid=state.sid
                )
            self._dispatch(state, event)
        else:
            self._schedule(state)  # keep draining the parked queue

    def _run_handler(
        self, state: ExecutionState, handler: str, args: Tuple[int, ...]
    ) -> List[ExecutionState]:
        if not self.program.has_handler(handler):
            self._schedule(state)
            return [state]
        results = self.executor.run_event(
            state, handler, args, on_fork=self._on_local_fork
        )
        for result in results:
            self.states.setdefault(result.sid, result)
            self._schedule(result)
            if self.trace is not None and not result.is_active():
                self.trace.emit(
                    "state.terminate",
                    node=result.node,
                    t=result.clock,
                    status=result.status,
                    sid=result.sid,
                )
        if self.reducer is not None:
            self._reduce_candidates.extend(results)
        return results

    def _on_local_fork(
        self, parent: ExecutionState, children: List[ExecutionState]
    ) -> None:
        for child in children:
            self.states[child.sid] = child
            self._dirty.add(child)
            if self.trace is not None:
                self.trace.emit(
                    "state.fork",
                    node=parent.node,
                    t=parent.clock,
                    reason="local",
                    parent=parent.sid,
                    child=child.sid,
                )
        self.mapper.on_local_fork(parent, children)

    def _dispatch_reception(self, state: ExecutionState, packet: Packet) -> None:
        if self.reducer is not None:
            # Mark (configuration ⊕ delivery) covered by an active state,
            # so parked alpha-twins of this state can sleep through the
            # same delivery class instead of waking.
            self.reducer.record_delivery(state, packet)
        # Failure models first: they may fork the state (symbolic drop /
        # duplicate / reboot decisions).  Those forks are node-local
        # branches: COB reacts by forking dscenarios.
        plans = [(state, 1, False)]
        for model in self.failure_models:
            plans, forks = model.apply(plans, packet)
            for parent, twin in forks:
                self._register_state(twin)
                if self.trace is not None:
                    self.trace.emit(
                        "state.fork",
                        node=parent.node,
                        t=parent.clock,
                        reason="failure",
                        parent=parent.sid,
                        child=twin.sid,
                    )
                self.mapper.on_local_fork(parent, [twin])
        for variant, deliveries, reboot in plans:
            if reboot:
                self._reboot(variant)
            elif deliveries == 0:
                self._schedule(variant)  # packet dropped: nothing to run
            else:
                self._deliver_to_handler(variant, packet, deliveries)

    def _deliver_to_handler(
        self, state: ExecutionState, packet: Packet, deliveries: int
    ) -> None:
        wave = [state]
        for _ in range(deliveries):
            next_wave: List[ExecutionState] = []
            for current in wave:
                if not current.is_active():
                    continue
                current.current_packet = packet
                results = self._run_handler(
                    current, HANDLER_RECV, (packet.src, len(packet))
                )
                for result in results:
                    result.current_packet = None
                    next_wave.append(result)
            wave = next_wave

    def _reboot(self, state: ExecutionState) -> None:
        """Crash-and-reboot: wipe RAM, cancel timers, re-run on_boot."""
        if self.trace is not None:
            self.trace.emit(
                "state.reboot", node=state.node, t=state.clock, sid=state.sid
            )
        state.memory = [0] * self.program.memory_size
        for address, value in self.program.initializers:
            state.memory[address] = value & 0xFFFFFFFF
        self._apply_presets(state)
        for timer_id in list(state.timer_generations):
            state.timer_generations[timer_id] += 1
        state.push_event(state.clock, Event.BOOT, None)
        self._schedule(state)

    # -- symmetry/POR reduction (repro.core.reduce) -----------------------------------

    def _apply_reduction(self) -> None:
        """Park post-dispatch duplicates under the canonical seen-set.

        Runs after each event completes — never mid-delivery-wave, so a
        multi-delivery plan always finishes on live states.  Candidates
        are every state touched or created by the dispatch; a candidate
        whose canonical form is already covered is parked (not dropped:
        it stays a dstate member and can be woken by an uncovered
        delivery).
        """
        candidates, self._reduce_candidates = self._reduce_candidates, []
        reducer = self.reducer
        if not reducer.enabled:
            return
        for state in candidates:
            if reducer.observe(state):
                state.status = Status.PRUNED
                if self.trace is not None:
                    self.trace.emit(
                        "reduce.prune",
                        node=state.node,
                        t=state.clock,
                        sid=state.sid,
                    )

    # -- sampling & caps --------------------------------------------------------------

    def _sample_and_check_caps(self, force: bool = False) -> Optional[Sample]:
        sample = self.stats.record(
            self.states.values(),
            self.clock.now,
            self.events_executed,
            self.mapper.group_count(),
            dirty=self._dirty,
            verify=self.check_invariants,
        )
        self._dirty.clear()
        if self.aborted:
            return sample
        if self.max_states is not None and sample.total_states > self.max_states:
            self._abort(f"state cap exceeded ({sample.total_states}"
                        f" > {self.max_states})")
        elif (
            self.max_accounted_bytes is not None
            and sample.accounted_bytes > self.max_accounted_bytes
        ):
            self._abort(
                f"memory cap exceeded ({sample.accounted_bytes}"
                f" > {self.max_accounted_bytes} bytes)"
            )
        elif (
            self.max_wall_seconds is not None
            and self.stats.elapsed() > self.max_wall_seconds
        ):
            self._abort(f"wall-clock cap exceeded ({self.max_wall_seconds}s)")
        return sample

    def _abort(self, reason: str) -> None:
        # Mirrors the paper's Table I: "COB ... aborted" at the memory cap.
        self.aborted = True
        self.abort_reason = reason

    # -- conveniences for tests/examples ----------------------------------------------

    def states_of_node(self, node: int) -> List[ExecutionState]:
        return [s for s in self.states.values() if s.node == node]

    def state_census(self) -> Dict[int, int]:
        """States per node — the quickest way to see where growth happens
        (on-path nodes and their overhearing neighbours dominate)."""
        census: Dict[int, int] = {node: 0 for node in self.topology.nodes()}
        for state in self.states.values():
            census[state.node] += 1
        return census

    def error_states(self) -> List[ExecutionState]:
        return [s for s in self.states.values() if s.status == Status.ERROR]
