"""A hash index over plain tuples, keyed by a subset of positions.

The engine does not use it (its stores keep their own indexes); it stays
only while ``bench/trace.py`` names ``RelationIndex.lookup`` as a trace
target.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple


class RelationIndex:
    """Hash index over one relation keyed by a subset of positions."""

    def __init__(self, rows: Iterable[Tuple], positions: Tuple[int, ...]):
        self.positions = positions
        self._buckets: Dict[Tuple, List[Tuple]] = {}
        self._count = 0
        for row in rows:
            self.add(row)

    def add(self, row: Tuple) -> None:
        """Add one row to the index (callers must not add duplicates)."""
        key = tuple(row[i] for i in self.positions)
        self._buckets.setdefault(key, []).append(row)
        self._count += 1

    def lookup(self, key: Tuple) -> List[Tuple]:
        """Rows whose indexed positions equal ``key``."""
        return self._buckets.get(tuple(key), [])

    def __len__(self) -> int:
        return self._count
