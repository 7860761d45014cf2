"""Trickle-style data dissemination (a second full protocol workload).

The paper names "data dissemination" among the flooding-like protocols that
stress SDE (Section IV-C).  This workload implements a deterministic
simplification of Trickle (RFC 6206) version gossip in guest NSL:

- every node periodically broadcasts its current version number;
- hearing a *newer* version adopts it and re-broadcasts promptly
  (inconsistency -> interval reset);
- hearing an *older* version triggers an immediate corrective broadcast;
- hearing the *same* version increments a suppression counter, and a node
  that heard enough consistent gossip skips its next broadcast
  (Trickle's k-suppression), which is what keeps steady-state traffic low.

Randomized timers are replaced by deterministic per-node staggering (SDE
requires reproducible schedules; KleeNet runs Contiki the same way).

Node 0 is seeded with version 1; dissemination is complete when every node
gossips version 1.  Under symbolic packet drops SDE explores the worlds
where the update is lost and must recover through later gossip rounds —
a structurally different workload from collect: broadcast-heavy, no routing,
every node both producer and consumer.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..core.scenario import Scenario
from ..net.failures import standard_failure_suite
from ..net.packet import Packet
from ..net.topology import Topology

__all__ = ["DISSEMINATION_APP", "dissemination_scenario", "first_gossip_packet"]

DISSEMINATION_APP = """
// ---- trickle-like version dissemination ----
const SUPPRESS_K = 2;

var version = 0;       // preset: 1 on the seed node
var interval = 0;      // preset: gossip period (ms)
var rounds_left = 0;   // preset: gossip budget per node
var suppressed = 0;    // consistent-gossip counter
var adopted_at = 0;    // when this node learned the current version

func on_boot() {
    // Deterministic stagger replaces Trickle's random point in [I/2, I].
    timer_set(0, interval + node_id() * 7);
}

func on_timer(tid) {
    if (suppressed < SUPPRESS_K) {
        var buf[2];
        buf[0] = version;
        buf[1] = node_id();
        bc_send(buf, 2);
    }
    suppressed = 0;
    rounds_left -= 1;
    if (rounds_left > 0) {
        timer_set(0, interval);
    }
}

func on_recv(src, len) {
    var heard = recv_byte(0);
    if (heard > version) {
        // Inconsistency: adopt and gossip promptly (interval reset).
        version = heard;
        adopted_at = time();
        suppressed = 0;
        timer_set(0, 1 + node_id());
    } else {
        if (heard < version) {
            // Peer is stale: correct it immediately.
            var buf[2];
            buf[0] = version;
            buf[1] = node_id();
            bc_send(buf, 2);
        } else {
            suppressed += 1;
        }
    }
}
"""


def first_gossip_packet(packet: Packet) -> bool:
    """The failure filter: only version-1 gossip legs may be dropped."""
    return len(packet.payload) == 2 and packet.payload[0] == 1


def dissemination_scenario(
    topology: Topology,
    rounds: int = 3,
    interval_ms: int = 200,
    sim_seconds: Optional[int] = None,
    drop_nodes: Optional[Iterable[int]] = None,
    seed_node: int = 0,
) -> Scenario:
    """Gossip the seed's version-1 update through ``topology``."""
    if sim_seconds is None:
        sim_seconds = max(1, (rounds + 2) * interval_ms // 1000 + 1)
    if drop_nodes is None:
        drop_nodes = [n for n in topology.nodes() if n != seed_node]
    return Scenario(
        name=f"dissemination-{topology.name}",
        program=DISSEMINATION_APP,
        topology=topology,
        horizon_ms=sim_seconds * 1000,
        failure_factory=lambda: standard_failure_suite(
            drop_nodes, packet_filter=first_gossip_packet
        ),
        preset_globals={
            "version": {seed_node: 1},
            "interval": interval_ms,
            "rounds_left": rounds,
        },
    )
