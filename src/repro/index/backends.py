"""The ordered map behind the SFC array.

The SFC array only needs a small ordered-map contract over integer keys:
insert, delete, exact lookup, "first key in a range" and an ordered range
scan.  :class:`FlatBackend` provides it as a flattened sorted array with a
bounded pending buffer for inserts and tombstoned deletes; probes are pure
``bisect``, and updates amortise their re-sorting cost across
``O(√n)``-sized merges.
"""

from __future__ import annotations

import bisect
from math import isqrt
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

__all__ = ["FlatBackend"]


class FlatBackend:
    """Flattened sorted-array ordered map with amortised updates.

    Three parallel structures hold the map:

    * ``_main`` — a sorted key array probed by ``bisect`` (may contain
      tombstoned keys awaiting compaction);
    * ``_pending`` — a small sorted insert buffer, merged into ``_main`` when
      it outgrows ``O(√n)`` (the classic logarithmic-method bound: total merge
      work stays ``O(n√n)`` element moves, all at C speed via ``list.sort``'s
      run detection);
    * ``_dead`` — tombstoned keys still physically present in ``_main``;
      compaction rewrites ``_main`` once tombstones exceed a quarter of it.

    Probes consult both sorted arrays with two binary searches, skipping
    tombstones, so queries never pay a Python-level linear scan.
    """

    def __init__(self) -> None:
        self._main: List[int] = []
        self._pending: List[int] = []
        self._values: Dict[int, Any] = {}
        self._dead: Set[int] = set()
        self.merges = 0

    def _pending_cap(self) -> int:
        return 64 + isqrt(len(self._main))

    def _merge(self) -> None:
        main = self._main
        if self._dead:
            dead = self._dead
            main = [key for key in main if key not in dead]
            dead.clear()
        main.extend(self._pending)
        # Timsort detects the two pre-sorted runs, so this is a C-speed merge.
        main.sort()
        self._main = main
        self._pending.clear()
        self.merges += 1

    def insert(self, key: int, value: Any) -> None:
        if key in self._values:
            self._values[key] = value
            return
        self._values[key] = value
        if key in self._dead:
            # The key is still physically in _main; resurrect it in place.
            self._dead.discard(key)
            return
        bisect.insort(self._pending, key)
        if len(self._pending) > self._pending_cap():
            self._merge()

    def delete(self, key: int) -> bool:
        if key not in self._values:
            return False
        del self._values[key]
        idx = bisect.bisect_left(self._pending, key)
        if idx < len(self._pending) and self._pending[idx] == key:
            self._pending.pop(idx)
            return True
        self._dead.add(key)
        if len(self._dead) * 4 > len(self._main):
            self._merge()
        return True

    def get(self, key: int, default: Any = None) -> Any:
        return self._values.get(key, default)

    def first_in_range(self, low: int, high: int) -> Optional[Tuple[int, Any]]:
        best: Optional[int] = None
        main, dead = self._main, self._dead
        idx = bisect.bisect_left(main, low)
        while idx < len(main):
            key = main[idx]
            if key > high:
                break
            if key not in dead:
                best = key
                break
            idx += 1
        pending = self._pending
        idx = bisect.bisect_left(pending, low)
        if idx < len(pending):
            key = pending[idx]
            if key <= high and (best is None or key < best):
                best = key
        if best is None:
            return None
        return (best, self._values[best])

    def items_in_range(self, low: int, high: int) -> Iterator[Tuple[int, Any]]:
        main, pending, dead = self._main, self._pending, self._dead
        i = bisect.bisect_left(main, low)
        j = bisect.bisect_left(pending, low)
        while True:
            while i < len(main) and main[i] in dead:
                i += 1
            a = main[i] if i < len(main) else None
            b = pending[j] if j < len(pending) else None
            if a is None and b is None:
                return
            if b is None or (a is not None and a < b):
                key = a
                i += 1
            else:
                key = b
                j += 1
            if key > high:
                return
            yield (key, self._values[key])

    def items(self) -> Iterator[Tuple[int, Any]]:
        if not self._values:
            return iter(())
        low = self._main[0] if self._main else self._pending[0]
        if self._pending and (not self._main or self._pending[0] < low):
            low = self._pending[0]
        return self.items_in_range(low, max(self._main[-1] if self._main else low,
                                            self._pending[-1] if self._pending else low))

    def __len__(self) -> int:
        return len(self._values)
