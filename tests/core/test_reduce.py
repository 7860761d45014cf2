"""Symmetry + partial-order reduction (``repro.core.reduce``).

Four layers:

- the automorphism machinery (group sizes for the stock topologies,
  orbits, closure);
- the canonicalization property — ``canonicalize(permute(s)) ==
  canonicalize(s)`` for random reachable states under random
  automorphisms (hypothesis);
- the static receive-handler certification that guards POR;
- the reducer wired into the engine: pruning/sleeping/waking counters,
  verdict preservation, the uncertified-handler self-disable, and
  composition with the multi-process runner (time cut and adaptive cut).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    DistributedRunner,
    Scenario,
    Topology,
    build_engine,
)
from repro.core.reduce import (
    analyze_recv_handler,
    automorphisms,
    canonical_state_form,
    canonical_violations,
    delivery_independent,
    node_orbit,
    permute_state,
    state_fingerprint,
)
from repro.expr import add, bv, var
from repro.lang import compile_source
from repro.net.packet import Packet

#: Symbolic readings guarded by assertions: every reception forks on the
#: solver and one branch violates, so runs report real verdicts.
GUARDED = """
var seen = 0;

func on_boot() {
    timer_set(0, 40 + node_id() * 7);
}

func on_timer(id) {
    var buf[1];
    buf[0] = symbolic("reading", 8);
    bc_send(buf, 1);
}

func on_recv(src, len) {
    var v = recv_byte(0);
    assert(v < 200, 7);
    seen = seen + 1;
}
"""


def _guard_scenario(topology, horizon_ms=300):
    return Scenario(
        name=f"guarded-{topology.name}",
        program=GUARDED,
        topology=topology,
        horizon_ms=horizon_ms,
    )


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "topology,order",
        [
            (Topology.line(3), 2),  # reflection
            (Topology.line(5), 2),
            (Topology.full_mesh(3), 6),  # S_3
            (Topology.ring(4), 8),  # dihedral D_4
            (Topology.ring(5), 10),  # dihedral D_5
            (Topology.grid(2, 2), 8),  # 2x2 lattice == 4-ring
            (Topology.grid(3, 2), 4),  # horizontal x vertical flips
        ],
        ids=lambda value: getattr(value, "name", value),
    )
    def test_group_orders(self, topology, order):
        assert len(automorphisms(topology)) == order

    def test_identity_always_present(self):
        for topology in (Topology.line(4), Topology.star(4)):
            autos = automorphisms(topology)
            assert tuple(range(topology.node_count)) in autos

    def test_group_closed_under_composition(self):
        autos = automorphisms(Topology.ring(4))
        group = set(autos)
        for left in autos:
            for right in autos:
                composed = tuple(left[right[i]] for i in range(len(right)))
                assert composed in group

    def test_orbits(self):
        line = Topology.line(3)
        autos = automorphisms(line)
        # Ends reflect onto each other; the middle is fixed.
        assert node_orbit(0, autos) == node_orbit(2, autos) == 0
        assert node_orbit(1, autos) == 1
        ring = Topology.ring(5)
        ring_autos = automorphisms(ring)
        assert {node_orbit(n, ring_autos) for n in range(5)} == {0}

    def test_truncation_keeps_identity(self):
        mesh = Topology.full_mesh(4)
        autos = automorphisms(mesh, limit=3)
        assert len(autos) == 3
        assert tuple(range(4)) in autos


# ---------------------------------------------------------------------------
# Canonicalization invariance (the tentpole property test)
# ---------------------------------------------------------------------------

_TOPOLOGIES = [
    Topology.line(3),
    Topology.ring(4),
    Topology.grid(2, 2),
    Topology.grid(3, 2),
]
_STATE_CACHE = {}


def _reachable_states(index):
    """All states (any status) of a sequential GUARDED run, cached."""
    if index not in _STATE_CACHE:
        topology = _TOPOLOGIES[index]
        engine = build_engine(_guard_scenario(topology), "sds")
        engine.run()
        _STATE_CACHE[index] = (
            list(engine.states.values()),
            automorphisms(topology),
        )
    return _STATE_CACHE[index]


class TestCanonicalInvariance:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_permuted_state_has_same_canonical_form(self, data):
        index = data.draw(
            st.integers(min_value=0, max_value=len(_TOPOLOGIES) - 1)
        )
        states, autos = _reachable_states(index)
        state = states[
            data.draw(st.integers(min_value=0, max_value=len(states) - 1))
        ]
        perm = autos[
            data.draw(st.integers(min_value=0, max_value=len(autos) - 1))
        ]
        assert canonical_state_form(
            permute_state(state, perm), autos
        ) == canonical_state_form(state, autos)

    def test_identity_permutation_is_noop_fingerprint(self):
        states, autos = _reachable_states(0)
        identity = tuple(range(3))
        for state in states[:10]:
            assert state_fingerprint(state, identity) == state_fingerprint(
                state
            )


# ---------------------------------------------------------------------------
# Static receive-handler certification (the POR guard)
# ---------------------------------------------------------------------------


def _analyze(recv_body):
    source = """
var total = 0;

func on_recv(src, len) {
%s
}
""" % recv_body
    return analyze_recv_handler(compile_source(source))


class TestHandlerAnalysis:
    def test_no_handler_certifies(self):
        ok, reason = analyze_recv_handler(
            compile_source("var x = 0;\nfunc on_boot() { x = 1; }\n")
        )
        assert ok and reason == "no receive handler"

    def test_commuting_increment_certifies(self):
        ok, reason = _analyze("    total = total + 1;")
        assert ok, reason
        ok, reason = _analyze("    var v = recv_byte(0);\n    total += 1;")
        assert ok, reason

    def test_guarded_workload_certifies(self):
        ok, reason = analyze_recv_handler(compile_source(GUARDED))
        assert ok, reason

    def test_overwriting_global_rejects(self):
        ok, reason = _analyze("    total = recv_byte(0);")
        assert not ok
        assert "non-commutative" in reason

    def test_send_in_handler_rejects(self):
        # Rejected for the indexed payload store before the send syscall
        # is even reached — either reason keeps POR off.
        ok, reason = _analyze(
            "    var buf[1];\n    buf[0] = 1;\n    bc_send(buf, 1);"
        )
        assert not ok

    def test_timer_in_handler_rejects(self):
        ok, reason = _analyze("    timer_set(0, 10);")
        assert not ok
        assert "impure syscall" in reason

    def test_call_rejects(self):
        source = """
var total = 0;
func helper() { total += 1; }
func on_recv(src, len) { helper(); }
"""
        ok, reason = analyze_recv_handler(compile_source(source))
        assert not ok
        assert "call" in reason


class TestDeliveryIndependence:
    def test_same_source_is_dependent(self):
        a = Packet(src=0, dest=1, payload=(1,), sent_at=10)
        b = Packet(src=0, dest=2, payload=(2,), sent_at=10)
        assert not delivery_independent(a, b)

    def test_concrete_disjoint_sources_are_independent(self):
        a = Packet(src=0, dest=2, payload=(1,), sent_at=10)
        b = Packet(src=1, dest=2, payload=(2,), sent_at=10)
        assert delivery_independent(a, b)

    def test_shared_symbolic_variable_is_dependent(self):
        reading = var("n0.reading0", 8)
        a = Packet(src=0, dest=2, payload=(reading,), sent_at=10)
        b = Packet(
            src=1, dest=2, payload=(add(reading, bv(1, 8)),), sent_at=20
        )
        assert not delivery_independent(a, b)

    def test_distinct_symbolic_variables_are_independent(self):
        a = Packet(src=0, dest=2, payload=(var("n0.r0", 8),), sent_at=10)
        b = Packet(src=1, dest=2, payload=(var("n1.r0", 8),), sent_at=10)
        assert delivery_independent(a, b)


# ---------------------------------------------------------------------------
# The reducer wired into the engine
# ---------------------------------------------------------------------------


class TestReducerInEngine:
    def test_grid_guard_prunes_sleeps_and_wakes(self):
        topology = Topology.grid(2, 2)
        off = build_engine(_guard_scenario(topology, 400), "sds").run()
        on = build_engine(
            _guard_scenario(topology, 400), "sds", symmetry=True, por=True
        ).run()
        assert on.total_states < off.total_states
        counters = on.metrics["counters"]
        assert counters["reduce.pruned"] >= 1
        assert counters["reduce.slept_twins"] >= 1
        assert counters["reduce.woken"] >= 1
        assert counters["reduce.disabled"] == 0
        assert canonical_violations(on, topology) == canonical_violations(
            off, topology
        )

    @pytest.mark.parametrize("algorithm", ["cob", "cow", "sds"])
    def test_verdicts_preserved_across_algorithms(self, algorithm):
        topology = Topology.ring(4)
        off = build_engine(_guard_scenario(topology), algorithm).run()
        on = build_engine(
            _guard_scenario(topology), algorithm, symmetry=True, por=True
        ).run()
        assert canonical_violations(off, topology)  # the gate is not vacuous
        assert canonical_violations(on, topology) == canonical_violations(
            off, topology
        )
        assert on.total_states <= off.total_states

    def test_uncertified_handler_self_disables(self):
        # Rebroadcasting inside on_recv is not POR-safe (a parked state
        # would suppress its sends), so the reducer must switch itself
        # off and change nothing.
        relay = """
var fwd = 0;

func on_boot() {
    if (node_id() == 0) { timer_set(0, 50); }
}

func on_timer(id) {
    var buf[1];
    buf[0] = symbolic("x", 8);
    bc_send(buf, 1);
}

func on_recv(src, len) {
    if (fwd < 1) {
        var buf[1];
        buf[0] = recv_byte(0);
        bc_send(buf, 1);
    }
    fwd += 1;
}
"""

        def scenario():
            return Scenario(
                name="relay-line",
                program=relay,
                topology=Topology.line(3),
                horizon_ms=200,
            )

        off = build_engine(scenario(), "sds").run()
        on = build_engine(
            scenario(), "sds", symmetry=True, por=True
        ).run()
        counters = on.metrics["counters"]
        assert counters["reduce.disabled"] == 1
        assert counters["reduce.pruned"] == 0
        assert counters["reduce.slept_twins"] == 0
        assert on.total_states == off.total_states
        assert on.group_count == off.group_count
        assert on.events_executed == off.events_executed

    def test_reduction_off_exposes_no_counters(self):
        report = build_engine(
            _guard_scenario(Topology.line(3)), "sds"
        ).run()
        assert not any(
            key.startswith("reduce.")
            for key in report.metrics["counters"]
        )

    def test_composes_with_parallel_runner(self):
        topology = Topology.ring(4)
        sequential = build_engine(
            _guard_scenario(topology), "sds", symmetry=True, por=True
        ).run()
        scenario = _guard_scenario(topology)
        parallel = DistributedRunner(
            scenario,
            "sds",
            workers=2,
            split_ms=scenario.horizon_ms * 3 // 10,
            steal=False,
            symmetry=True,
            por=True,
        ).run()
        assert parallel.total_states == sequential.total_states
        assert canonical_violations(
            parallel, topology
        ) == canonical_violations(sequential, topology)
        merged = parallel.metrics["counters"]
        assert merged["reduce.slept_twins"] >= 1

    def test_composes_with_distributed_runner(self):
        topology = Topology.ring(4)
        off = build_engine(_guard_scenario(topology), "sds").run()
        distributed = DistributedRunner(
            _guard_scenario(topology),
            "sds",
            workers=2,
            probe_events=2,
            symmetry=True,
            por=True,
        ).run()
        assert canonical_violations(
            distributed, topology
        ) == canonical_violations(off, topology)
        assert distributed.total_states < off.total_states
        assert distributed.metrics["counters"]["reduce.slept_twins"] >= 1
