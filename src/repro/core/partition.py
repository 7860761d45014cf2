"""Parallelization analysis (the paper's future work, Section VI).

"For the parallelization, we have to identify the sets of states which can
be safely offloaded on other cores and thus can be independently executed."

Two dstates can be executed independently iff no execution state is shared
between them: packets are only ever mapped within a sender's dstates, so
state sets of disjoint dstate groups never interact.

- Under COW every state belongs to exactly one dstate, so every dstate is
  its own partition.
- Under SDS states span several dstates; dstates sharing an actual state
  must stay on one core.  The partition is the connected-component
  decomposition of the dstate/state bipartite graph.
- Under COB every dscenario is independent (embarrassingly parallel — but
  over a state set exponentially larger to begin with).

:func:`partition_groups` computes the components; :func:`speedup_bound`
gives the resulting ideal parallel speedup (total work / largest
partition), which ``benchmarks/bench_partition.py`` reports for the grid
scenarios.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .mapping import StateMapper

__all__ = [
    "Partition",
    "lpt_assign",
    "partition_groups",
    "projected_speedup",
    "schedule_makespan",
    "speedup_bound",
    "steal_split",
]


class Partition:
    """One independently executable set of groups (dstates/dscenarios)."""

    __slots__ = ("group_indices", "state_sids")

    def __init__(self, group_indices: List[int], state_sids: set) -> None:
        self.group_indices = group_indices
        self.state_sids = state_sids

    def group_count(self) -> int:
        return len(self.group_indices)

    def state_count(self) -> int:
        return len(self.state_sids)

    def __repr__(self) -> str:
        return (
            f"Partition({len(self.group_indices)} groups,"
            f" {len(self.state_sids)} states)"
        )


def partition_groups(mapper: StateMapper) -> List[Partition]:
    """Connected components of the group/state sharing graph."""
    groups = list(mapper.groups())
    parent = list(range(len(groups)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    first_group_of_state: Dict[int, int] = {}
    for index, group in enumerate(groups):
        for states in group.values():
            for state in states:
                earlier = first_group_of_state.get(state.sid)
                if earlier is None:
                    first_group_of_state[state.sid] = index
                else:
                    union(earlier, index)

    components: Dict[int, Partition] = {}
    for index, group in enumerate(groups):
        root = find(index)
        partition = components.get(root)
        if partition is None:
            partition = Partition([], set())
            components[root] = partition
        partition.group_indices.append(index)
        for states in group.values():
            partition.state_sids.update(state.sid for state in states)
    return sorted(
        components.values(), key=lambda p: (-p.state_count(), p.group_indices)
    )


def speedup_bound(partitions: List[Partition]) -> float:
    """Ideal parallel speedup: total states / states of the largest part."""
    if not partitions:
        return 1.0
    total = sum(partition.state_count() for partition in partitions)
    largest = max(partition.state_count() for partition in partitions)
    return total / largest if largest else 1.0


def lpt_assign(partitions: List[Partition], cores: int) -> List[List[Partition]]:
    """LPT assignment of partitions to ``cores`` cores.

    Work is approximated by partition state count (states execute
    proportionally many events).  Longest-Processing-Time-first is the
    classic 4/3-approximation.  Returns the actual per-core assignment —
    ``result[c]`` lists the partitions core ``c`` executes — which is what
    :class:`repro.core.distributed.DistributedRunner` ships as jobs.
    The assignment is deterministic: ties in both partition weight and core
    load break by original partition order / lowest core index.
    """
    if cores < 1:
        raise ValueError("need at least one core")
    assignment: List[List[Partition]] = [[] for _ in range(cores)]
    loads = [0] * cores
    order = sorted(
        range(len(partitions)),
        key=lambda i: (-partitions[i].state_count(), i),
    )
    for index in order:
        laziest = min(range(cores), key=lambda c: (loads[c], c))
        assignment[laziest].append(partitions[index])
        loads[laziest] += partitions[index].state_count()
    return assignment


def steal_split(
    partitions: List[Partition], weight=None
) -> Tuple[List[Partition], List[Partition]]:
    """Split partitions into near-equal-work (kept, stolen) halves.

    LPT into two bins; the first (heavier-or-equal) bin stays with the
    donor.  ``weight`` defaults to the stock state count; work-stealing
    donors pass a *runnable*-state weight instead, so a late-run split
    balances remaining work rather than accumulated terminated states.
    With fewer than two partitions there is nothing to steal and the
    stolen half is empty — callers deny the steal request.
    """
    if len(partitions) < 2:
        return list(partitions), []
    if weight is None:
        def weight(partition: Partition) -> int:
            return partition.state_count()

    order = sorted(
        range(len(partitions)),
        key=lambda i: (-weight(partitions[i]), i),
    )
    kept: List[Partition] = []
    stolen: List[Partition] = []
    loads = [0, 0]
    for index in order:
        side = 0 if loads[0] <= loads[1] else 1
        (kept, stolen)[side].append(partitions[index])
        loads[side] += weight(partitions[index])
    if not stolen:  # all-zero weights degenerate to one bin
        stolen.append(kept.pop())
    return kept, stolen


def schedule_makespan(partitions: List[Partition], cores: int) -> int:
    """LPT makespan of the partitions on ``cores`` cores.

    The makespan of :func:`lpt_assign`'s schedule; it answers the practical
    question behind the paper's future work: *given this run's partitions,
    how long would P cores take?*
    """
    assignment = lpt_assign(partitions, cores)
    loads = [sum(partition.state_count() for partition in core) for core in assignment]
    return max(loads) if loads else 0


def projected_speedup(partitions: List[Partition], cores: int) -> float:
    """Speedup of the LPT schedule vs single-core execution."""
    total = sum(partition.state_count() for partition in partitions)
    makespan = schedule_makespan(partitions, cores)
    return total / makespan if makespan else 1.0
