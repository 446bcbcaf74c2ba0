"""Clairvoyant next-use distances for farthest-next-use (Belady) eviction.

A *stream* is one known future access sequence: a rank's segment trace,
or the global read order.  :class:`NextUseIndex` keeps, per key, the
sorted positions at which each stream reads it, and answers "how far
from the streams' cursors is this key's next use?" — the soonest over
every stream that reads the key, counting a use *at* the cursor.  A key
no stream reads again is :data:`NEVER` away.  KnowAc, In-Memory Optimal
and the diagnosis oracle all evict by this distance.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from typing import Hashable, Iterable, Mapping

__all__ = ["NEVER", "NextUseIndex"]

NEVER = math.inf


class NextUseIndex:
    """Per-key sorted use positions over one or more named streams."""

    def __init__(self, streams: Mapping[Hashable, Iterable[Hashable]]):
        self._uses: dict[Hashable, list[tuple[Hashable, list[int]]]] = defaultdict(list)
        for stream, keys in streams.items():
            positions: dict[Hashable, list[int]] = defaultdict(list)
            for pos, key in enumerate(keys):
                positions[key].append(pos)
            for key, plist in positions.items():
                self._uses[key].append((stream, plist))

    def distance(self, key: Hashable, cursors: Mapping[Hashable, int]) -> float:
        """Positions from each stream's cursor to ``key``'s soonest next use."""
        soonest = NEVER
        for stream, positions in self._uses.get(key, ()):
            at = cursors[stream]
            i = bisect_left(positions, at)
            if i < len(positions) and positions[i] - at < soonest:
                soonest = positions[i] - at
        return soonest
