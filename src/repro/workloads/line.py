"""Line-topology forwarding scenario (the paper's running example).

Section II-B motivates logical conflicts with "a multi-hop data collection
protocol in a line setup with nodes 1..k that forward each packet from node
i to i+1": here node 0 originates and data flows 0 -> 1 -> ... -> k-1.
Used by unit/integration tests and the quickstart example; it is the
smallest scenario exhibiting sender-rival conflicts and bystanders.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..net.failures import standard_failure_suite
from ..net.topology import Topology
from ..core.scenario import Scenario
from .programs import collect_program, first_collect_packet

__all__ = ["line_scenario"]


def line_scenario(
    k: int,
    sim_seconds: int = 3,
    send_period_ms: int = 1000,
    sends: Optional[int] = None,
    drop_nodes: Optional[Iterable[int]] = None,
    drop_budget: int = 1,
    drop_any_packet: bool = False,
    dup_nodes: Iterable[int] = (),
    reboot_nodes: Iterable[int] = (),
) -> Scenario:
    """A k-node chain; node 0 produces, node k-1 is the sink.

    By default every node except the source may symbolically drop one
    packet (the line is all data path — there are no bystander *nodes*,
    but plenty of bystander *states*: everyone two or more hops from each
    transmission).
    """
    if k < 2:
        raise ValueError("a line scenario needs at least 2 nodes")
    topology = Topology.line(k)
    source, sink = 0, k - 1
    if drop_nodes is None:
        drop_nodes = [node for node in topology.nodes() if node != source]
    if sends is None:
        sends = max(1, sim_seconds * 1000 // send_period_ms - 1)

    presets = {
        "rime_next_hop": topology.next_hop_table(sink),
        "rime_sink": sink,
        "rime_source": source,
        "send_period": send_period_ms,
        "sends_left": {source: sends},
    }
    return Scenario(
        name=f"line-{k}",
        program=collect_program(),
        topology=topology,
        horizon_ms=sim_seconds * 1000,
        failure_factory=lambda: standard_failure_suite(
            drop_nodes,
            dup_nodes=dup_nodes,
            reboot_nodes=reboot_nodes,
            budget=drop_budget,
            packet_filter=None if drop_any_packet else first_collect_packet,
        ),
        preset_globals=presets,
    )
