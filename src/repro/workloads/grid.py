"""The paper's grid scenarios (Section IV-A, Figure 9).

25 / 49 / 100 Contiki nodes in a 5x5 / 7x7 / 10x10 lattice.  After boot, the
node in the bottom-right corner sends a data packet every second to the sink
in the top-left corner; on-path nodes forward hop by hop along the
preconfigured static route; every neighbour overhears each leg.  Nodes on
the data path and their neighbours symbolically drop one packet.  Simulated
time: 10 seconds.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..net.failures import standard_failure_suite
from ..net.topology import Topology
from ..core.scenario import Scenario
from .programs import collect_program, first_collect_packet

__all__ = ["grid_scenario", "PAPER_SIZES", "paper_grid_scenario"]

#: The paper's three scenario sizes (number of nodes -> grid side).
PAPER_SIZES = {25: 5, 49: 7, 100: 10}


def grid_scenario(
    side: int,
    sim_seconds: int = 10,
    send_period_ms: int = 1000,
    drop_budget: int = 1,
    drop_any_packet: bool = False,
    extra_sources: Tuple[int, ...] = (),
    max_states: Optional[int] = None,
    max_accounted_bytes: Optional[int] = None,
    max_wall_seconds: Optional[float] = None,
    sample_every_events: int = 64,
) -> Scenario:
    """Build a side x side grid collection scenario.

    The sink is node 0 (top-left); the source is node side*side-1
    (bottom-right).  Symbolic packet drops are configured on the data path
    and its neighbours, exactly as in the paper's test setup.
    """
    topology = Topology.grid(side)
    node_count = topology.node_count
    sink = 0
    source = node_count - 1
    sources = [source] + [s for s in extra_sources if s != source]
    drop_set = set()
    for src in sources:
        on_path, path_neighbors, _bystanders = topology.path_roles(src, sink)
        drop_set |= (on_path | path_neighbors)
    drop_nodes = sorted(drop_set - set(sources))
    next_hops = topology.next_hop_table(sink)
    sends = max(1, sim_seconds * 1000 // send_period_ms - 1)

    presets: Dict[str, object] = {
        "rime_next_hop": {node: hop for node, hop in next_hops.items()},
        "rime_sink": sink,
        "rime_source": source,
        "send_period": send_period_ms,
        "sends_left": {src: sends for src in sources},
    }

    return Scenario(
        name=f"grid-{side}x{side}",
        program=collect_program(),
        topology=topology,
        horizon_ms=sim_seconds * 1000,
        failure_factory=lambda: standard_failure_suite(
            drop_nodes,
            budget=drop_budget,
            packet_filter=None if drop_any_packet else first_collect_packet,
        ),
        preset_globals=presets,
        max_states=max_states,
        max_accounted_bytes=max_accounted_bytes,
        max_wall_seconds=max_wall_seconds,
        sample_every_events=sample_every_events,
    )


def paper_grid_scenario(nodes: int, **overrides) -> Scenario:
    """One of the paper's three scenarios by node count (25/49/100)."""
    try:
        side = PAPER_SIZES[nodes]
    except KeyError:
        raise ValueError(
            f"paper scenarios have 25/49/100 nodes, not {nodes}"
        ) from None
    return grid_scenario(side, **overrides)
