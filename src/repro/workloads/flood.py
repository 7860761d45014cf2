"""The limitation scenario (Section IV-C).

"It is easy to set up test scenarios or applications where COW and SDS
algorithms perform nearly as bad as COB.  One example would be a
full-meshed network where nodes continuously transmit data to their k-1
neighbours."  In a full mesh with constant flooding there are no
bystanders: every state is a sender, target or rival of every transmission,
so SDS has nothing left to save.  ``benchmarks/bench_limitations.py`` shows
the three algorithms converging here — the honest counterpoint to Table I.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..net.failures import standard_failure_suite
from ..net.topology import Topology
from ..core.scenario import Scenario
from .programs import flood_program

__all__ = ["flood_scenario"]


def flood_scenario(
    k: int,
    rounds: int = 2,
    period_ms: int = 100,
    sim_seconds: Optional[int] = None,
    drop_nodes: Optional[Iterable[int]] = None,
    drop_budget: int = 1,
) -> Scenario:
    """k nodes, full mesh, every node broadcasts every ``period_ms``."""
    if k < 2:
        raise ValueError("flooding needs at least 2 nodes")
    topology = Topology.full_mesh(k)
    if sim_seconds is None:
        sim_seconds = max(1, (rounds + 2) * period_ms * 2 // 1000 + 1)
    if drop_nodes is None:
        drop_nodes = list(topology.nodes())
    presets = {
        "flood_period": period_ms,
        "floods_left": rounds,
    }
    return Scenario(
        name=f"flood-{k}",
        program=flood_program(),
        topology=topology,
        horizon_ms=sim_seconds * 1000,
        failure_factory=lambda: standard_failure_suite(
            drop_nodes, budget=drop_budget
        ),
        preset_globals=presets,
    )
