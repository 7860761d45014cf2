"""Leader election on rings and meshes (a consensus-class workload).

A deterministic bully-style election in guest NSL:

- every node gossips the highest node id it has heard (one staggered
  broadcast round, lowest id first, so the maximum propagates along the
  stagger order);
- at announce time a node that still believes *itself* to be the maximum
  declares leadership and floods a LEADER announcement (flood-once, like
  the dissemination workload);
- two safety assertions make split brain observable to SDE:

  - **code 40** — a self-declared leader hears a *different* leader's
    announcement (two leaders coexist);
  - **code 41** — a node hears announcements from two different leaders.

Under no failures exactly one node (the maximum id) declares and the run
is violation free.  Under a symbolic drop of the maximum's id-gossip at
its stagger predecessor (the runner-up believer), SDE finds the world
where a second node self-declares — classic election split brain.  The
scenario factory wires that minimal drop by default so the violating and
certified configurations differ only in ``failures=``.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from ..core.scenario import Scenario
from ..net.failures import SymbolicPacketDrop
from ..net.packet import Packet
from ..net.topology import Topology

__all__ = ["ELECTION_APP", "election_scenario", "id_gossip_from_max"]

#: payload[0] tags: 1 = id gossip, 2 = leader announcement.
KIND_ID = 1
KIND_LEADER = 2

ELECTION_APP = """
// ---- staggered max-id leader election ----
var stagger = 0;       // preset: per-node gossip offset (ms)
var announce_at = 0;   // preset: when believers declare leadership (ms)
var best = 0;          // highest node id heard so far
var leader = 0;        // 1 once this node declared itself leader
var heard_leader = 0;  // announced leader id + 1 (0 = none yet)

func on_boot() {
    best = node_id();
    timer_set(0, stagger * (node_id() + 1));
    timer_set(1, announce_at + node_id());
}

func on_timer(tid) {
    var buf[2];
    if (tid == 0) {
        // One gossip round: tell the neighbourhood the best id we know.
        buf[0] = 1;
        buf[1] = best;
        bc_send(buf, 2);
        return;
    }
    if (best == node_id()) {
        // Nobody outranked us: declare and flood the announcement.
        leader = 1;
        buf[0] = 2;
        buf[1] = node_id();
        bc_send(buf, 2);
    }
}

func on_recv(src, len) {
    var kind = recv_byte(0);
    var value = recv_byte(1);
    if (kind == 1) {
        if (value > best) {
            best = value;
        }
        return;
    }
    // Leader announcement.  Split brain is a safety violation:
    assert(!(leader == 1 && value != node_id()), 40);
    assert(!(heard_leader > 0 && heard_leader != value + 1), 41);
    if (heard_leader == 0) {
        heard_leader = value + 1;
        var buf[2];
        buf[0] = 2;
        buf[1] = value;
        bc_send(buf, 2);  // flood-once relay
    }
}
"""


def id_gossip_from_max(packet: Packet, max_id: int) -> bool:
    """Failure filter: only the maximum id's gossip leg may be dropped."""
    return (
        len(packet.payload) == 2
        and packet.payload[0] == KIND_ID
        and packet.payload[1] == max_id
    )


def election_scenario(
    size: int = 5,
    topology: str = "ring",
    stagger_ms: int = 50,
    failures: bool = True,
    medium: str = "ideal",
    medium_params: Optional[dict] = None,
    sim_seconds: Optional[int] = None,
) -> Scenario:
    """Elect a leader among ``size`` nodes on a ``ring`` or ``mesh``.

    With ``failures=True`` a budget-1 symbolic drop targets the maximum
    id's gossip at its stagger predecessor — the one reception whose loss
    leaves a second believer standing at announce time.  The same drop is
    effective on both supported topologies.
    """
    if size < 3:
        raise ValueError("election needs at least 3 nodes")
    if topology == "ring":
        topo = Topology.ring(size)
    elif topology == "mesh":
        topo = Topology.full_mesh(size)
    else:
        raise ValueError(f"unsupported election topology {topology!r}")
    max_id = size - 1
    announce_at = stagger_ms * (size + 2)
    if sim_seconds is None:
        sim_seconds = max(1, (announce_at + size * 20) // 1000 + 1)

    def failure_factory():
        if not failures:
            return ()
        return (
            SymbolicPacketDrop(
                nodes=[max_id - 1],
                budget=1,
                packet_filter=partial(id_gossip_from_max, max_id=max_id),
            ),
        )

    return Scenario(
        name=f"election-{topo.name}",
        program=ELECTION_APP,
        topology=topo,
        horizon_ms=sim_seconds * 1000,
        failure_factory=failure_factory,
        preset_globals={
            "stagger": stagger_ms,
            "announce_at": announce_at,
        },
        medium=medium,
        medium_params=dict(medium_params or {}),
    )
