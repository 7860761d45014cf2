"""Exact-match query caching (KLEE's query cache, one tier).

SDE queries are massively redundant: forked siblings share all but one
conjunct, and every branch site issues near-identical feasibility pairs.
The cache maps the frozenset of one independence group's conjuncts to
the backend's answer for it — a :class:`Model` for SAT, ``None`` for
UNSAT — under an LRU bound.  A hit returns the stored answer outright;
a miss goes to search, whose result is stored.

Stats use the metric names the observability layer exports
(``solver.cache.hit.exact`` / ``miss`` / ``stores``);
:meth:`CacheStats.restore` maps them back for checkpoint resume and
ignores names it does not know (older snapshots carry retired tiers).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from ..expr import BoolExpr
from .model import Model

__all__ = ["SolverCache", "CacheStats"]

Key = FrozenSet[BoolExpr]


class CacheStats:
    """Hit/miss accounting."""

    __slots__ = ("exact_hits", "misses", "stores")

    #: metric-snapshot name -> attribute (the JSON contract behind the
    #: ``solver.cache.*`` counters; also accepted by :meth:`restore`).
    METRIC_NAMES = {
        "hit.exact": "exact_hits",
        "miss": "misses",
        "stores": "stores",
    }

    def __init__(self) -> None:
        for attribute in self.__slots__:
            setattr(self, attribute, 0)

    def as_dict(self) -> Dict[str, int]:
        return {
            name: getattr(self, attribute)
            for name, attribute in self.METRIC_NAMES.items()
        }

    @classmethod
    def restore(cls, mapping: Dict[str, int]) -> "CacheStats":
        """Rebuild from :meth:`as_dict` output (or attribute names)."""
        stats = cls()
        for name, value in mapping.items():
            attribute = cls.METRIC_NAMES.get(name, name)
            if attribute in cls.__slots__:
                setattr(stats, attribute, int(value))
        return stats

    def __repr__(self) -> str:
        return (
            f"CacheStats(exact={self.exact_hits}, misses={self.misses},"
            f" stores={self.stores})"
        )


_MISS = object()


class SolverCache:
    """The exact-match cache described in the module docstring.

    ``lookup`` returns ``(hit, result)`` where ``result`` is a
    :class:`Model` for SAT and ``None`` for UNSAT.  At most
    ``MAX_ENTRIES`` keys are kept; the least recently used goes first.
    """

    MAX_ENTRIES = 65536

    def __init__(self) -> None:
        self._exact: "OrderedDict[Key, Optional[Model]]" = OrderedDict()
        self.stats = CacheStats()

    @staticmethod
    def key(constraints: Iterable[BoolExpr]) -> Key:
        """Order-independent cache key for one conjunct group."""
        return frozenset(constraints)

    def lookup(self, key: Key) -> Tuple[bool, Optional[Model]]:
        """Return ``(hit, result)``; result is a Model or None (unsat)."""
        result = self._exact.get(key, _MISS)
        if result is _MISS:
            self.stats.misses += 1
            return False, None
        self._exact.move_to_end(key)
        self.stats.exact_hits += 1
        return True, result  # type: ignore[return-value]

    def store(self, key: Key, result: Optional[Model]) -> None:
        self.stats.stores += 1
        self._exact[key] = result
        self._exact.move_to_end(key)
        while len(self._exact) > self.MAX_ENTRIES:
            self._exact.popitem(last=False)

    def clear(self) -> None:
        self._exact.clear()

    def __len__(self) -> int:
        return len(self._exact)
