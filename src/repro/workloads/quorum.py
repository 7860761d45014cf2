"""Quorum (majority-ack) replication — a consensus-class write path.

One writer replicates a value to every other node and *commits* once a
majority of the cluster (itself included) has acknowledged:

- the writer unicasts ``WRITE`` to every replica;
- each replica stores the value and unicasts ``ACK`` back;
- at ``quorum`` acks the writer unicasts ``COMMIT`` to every replica;
- a replica applying ``COMMIT`` asserts it actually holds the value
  (**code 55**) — the classic commit-without-data hole.

The protocol is unicast-heavy and point-to-point, which is exactly what
the routed :class:`~repro.net.realistic.RealisticMedium` exists for: on a
ring, writer-to-replica traffic crosses multiple hops, so the workload
defaults to ``medium="realistic"``.  (The ideal medium delivers unicasts
one hop only; combining it with a ring is rejected loudly rather than
reporting a vacuous pass.)

Majority quorums tolerate a minority of silent replicas — that is the
point of the design, and also its audit surface.  With a symbolic drop of
the ``WRITE`` at one replica, SDE finds the world where the writer still
reaches quorum through the others and the victim applies a commit for a
value it never received (assert 55).  Without failures the run is
violation free.
"""

from __future__ import annotations

from typing import Optional

from ..core.scenario import Scenario
from ..net.failures import SymbolicPacketDrop
from ..net.packet import Packet
from ..net.topology import Topology

__all__ = ["QUORUM_APP", "quorum_scenario", "write_packet"]

#: payload[0] tags: 1 = WRITE, 2 = ACK, 3 = COMMIT.
KIND_WRITE = 1
KIND_ACK = 2
KIND_COMMIT = 3

QUORUM_APP = """
// ---- majority-ack replication ----
var is_writer = 0;     // preset: 1 on the writer node
var quorum = 0;        // preset: acks needed to commit (writer included)
var write_at = 0;      // preset: when the writer starts (ms)
var value = 0;         // the replicated value (0 = not received)
var acks = 0;          // writer: acks counted so far
var committed = 0;     // writer: 1 once quorum reached
var applied = 0;       // replica: 1 once commit applied

func on_boot() {
    if (is_writer == 1) {
        timer_set(0, write_at);
    }
}

func on_timer(tid) {
    value = 7;
    acks = 1;  // the writer's own copy counts toward the quorum
    var buf[2];
    buf[0] = 1;
    buf[1] = value;
    for (var peer = 0; peer < node_count(); peer += 1) {
        if (peer != node_id()) {
            uc_send(peer, buf, 2);
        }
    }
}

func on_recv(src, len) {
    var kind = recv_byte(0);
    if (kind == 1) {
        // WRITE: store and acknowledge.
        value = recv_byte(1);
        var buf[2];
        buf[0] = 2;
        buf[1] = node_id();
        uc_send(src, buf, 2);
        return;
    }
    if (kind == 2) {
        // ACK (writer only): count toward the quorum, commit once there.
        if (committed == 0) {
            acks += 1;
            if (acks >= quorum) {
                committed = 1;
                var buf[2];
                buf[0] = 3;
                buf[1] = 0;
                for (var peer = 0; peer < node_count(); peer += 1) {
                    if (peer != node_id()) {
                        uc_send(peer, buf, 2);
                    }
                }
            }
        }
        return;
    }
    // COMMIT: applying a value we never received is the safety violation.
    assert(value > 0, 55);
    applied = 1;
}
"""


def write_packet(packet: Packet) -> bool:
    """Failure filter: only WRITE legs may be dropped."""
    return len(packet.payload) == 2 and packet.payload[0] == KIND_WRITE


def quorum_scenario(
    size: int = 4,
    topology: str = "ring",
    write_at_ms: int = 10,
    failures: bool = True,
    medium: str = "realistic",
    medium_params: Optional[dict] = None,
    sim_seconds: int = 1,
) -> Scenario:
    """Replicate one write from node 0 across ``size`` nodes.

    With ``failures=True`` a budget-1 symbolic drop targets the ``WRITE``
    at the replica farthest from the writer; the majority quorum commits
    through the remaining replicas and the victim trips assert 55.
    """
    if size < 3:
        raise ValueError("quorum replication needs at least 3 nodes")
    if topology == "ring":
        topo = Topology.ring(size)
    elif topology == "mesh":
        topo = Topology.full_mesh(size)
    else:
        raise ValueError(f"unsupported quorum topology {topology!r}")
    if medium == "ideal" and topology == "ring":
        raise ValueError(
            "the ideal medium delivers unicasts one hop only; quorum on a"
            " ring needs medium='realistic' (or topology='mesh')"
        )
    victim = size // 2  # farthest from the writer on a ring

    def failure_factory():
        if not failures:
            return ()
        return (
            SymbolicPacketDrop(
                nodes=[victim], budget=1, packet_filter=write_packet
            ),
        )

    return Scenario(
        name=f"quorum-{topo.name}",
        program=QUORUM_APP,
        topology=topo,
        horizon_ms=sim_seconds * 1000,
        failure_factory=failure_factory,
        preset_globals={
            "is_writer": {0: 1},
            "quorum": size // 2 + 1,
            "write_at": write_at_ms,
        },
        medium=medium,
        medium_params=dict(medium_params or {}),
    )
