"""Packets exchanged during symbolic distributed execution.

A :class:`Packet` is immutable and globally unique (``pid``) — the paper
assumes "all packets that are exchanged in the network are unique and
distinguishable from each other", which is what communication histories and
conflict detection key on.  Payload cells may be symbolic expressions:
transmitting symbolic data is how constraints propagate between nodes.
"""

from __future__ import annotations

import itertools
from typing import Tuple, Union

from ..expr import BVExpr

__all__ = [
    "Packet",
    "reset_packet_ids",
    "ensure_packet_ids_above",
    "packet_id_watermark",
]

PayloadCell = Union[int, BVExpr]

_packet_ids = itertools.count(1)


def reset_packet_ids() -> None:
    """Restart pid numbering (kept per-process otherwise; tests only)."""
    global _packet_ids
    _packet_ids = itertools.count(1)


def ensure_packet_ids_above(minimum: int) -> None:
    """Advance the pid counter past ``minimum``.

    Worker processes restoring an engine snapshot inherit packets whose pids
    were allocated in the parent; new pids must not collide with them
    (communication histories key on pid uniqueness).
    """
    global _packet_ids
    if next(_packet_ids) <= minimum:
        _packet_ids = itertools.count(minimum + 1)


def packet_id_watermark() -> int:
    """The highest pid allocated so far; allocates none (snapshots are pure)."""
    global _packet_ids
    upcoming = next(_packet_ids)
    _packet_ids = itertools.count(upcoming)
    return upcoming - 1


class Packet:
    """One unicast transmission (broadcast = a series of these)."""

    __slots__ = ("pid", "src", "dest", "payload", "sent_at", "broadcast_id")

    def __init__(
        self,
        src: int,
        dest: int,
        payload: Tuple[PayloadCell, ...],
        sent_at: int,
        broadcast_id: int = 0,
    ) -> None:
        self.pid = next(_packet_ids)
        self.src = src
        self.dest = dest
        self.payload = tuple(payload)
        self.sent_at = sent_at
        # Non-zero when this unicast is one leg of a broadcast; legs of the
        # same broadcast share the id (diagnostics only).
        self.broadcast_id = broadcast_id

    def __len__(self) -> int:
        return len(self.payload)

    def is_symbolic(self) -> bool:
        return any(not isinstance(cell, int) for cell in self.payload)

    def __repr__(self) -> str:
        kind = "bcast-leg" if self.broadcast_id else "unicast"
        return (
            f"Packet#{self.pid}({kind} {self.src}->{self.dest},"
            f" {len(self.payload)}B @{self.sent_at}ms)"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Packet):
            return NotImplemented
        return self.pid == other.pid

    def __hash__(self) -> int:
        return hash(self.pid)
