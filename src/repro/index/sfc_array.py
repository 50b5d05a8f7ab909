"""The SFC array: points stored in space-filling-curve key order.

The paper's only data structure (Section 2, Section 5): input points are
sorted by the key of the cell containing them and kept in a dynamic ordered
structure.  A *run* — a contiguous segment of keys — can then be examined for
emptiness with two binary searches, which is why the cost of a query is the
number of runs touched rather than the volume covered.

:class:`SFCArray` stores ``(item_id, point)`` pairs under their curve keys.
Multiple items may share a cell (identical subscriptions map to the same
point), so each key holds a small bucket.  The buckets live in the
flattened sorted-array map :class:`~repro.index.backends.FlatBackend`.

Instrumentation: the array counts range probes and items scanned so that
benchmarks can report the work done by approximate vs exhaustive queries in
units independent of the storage layout.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..obs.profiler import profiled
from ..sfc import vectorized
from ..sfc.base import KeyRange, SpaceFillingCurve
from ..sfc.runs import merge_key_ranges
from .backends import FlatBackend

__all__ = ["SFCArray", "SFCArrayStats", "StoredItem", "FlatSegmentStore"]


@dataclass(frozen=True)
class StoredItem:
    """An entry of the SFC array: an opaque identifier and its cell."""

    item_id: Hashable
    point: Tuple[int, ...]


@dataclass
class SFCArrayStats:
    """Operation counters used by benchmarks and tests."""

    inserts: int = 0
    deletes: int = 0
    range_probes: int = 0
    range_scans: int = 0
    items_scanned: int = 0

    def reset(self) -> None:
        self.inserts = 0
        self.deletes = 0
        self.range_probes = 0
        self.range_scans = 0
        self.items_scanned = 0


@dataclass
class _Bucket:
    """All items that map to the same cell (and therefore the same key)."""

    items: Dict[Hashable, StoredItem] = field(default_factory=dict)


class SFCArray:
    """Points indexed in SFC key order."""

    def __init__(self, curve: SpaceFillingCurve) -> None:
        self.curve = curve
        self.universe = curve.universe
        self._backend = FlatBackend()
        self._key_of_item: Dict[Hashable, int] = {}
        self.stats = SFCArrayStats()

    # ---------------------------------------------------------------- updates
    def __len__(self) -> int:
        return len(self._key_of_item)

    def __contains__(self, item_id: Hashable) -> bool:
        return item_id in self._key_of_item

    def add(self, item_id: Hashable, point: Sequence[int]) -> int:
        """Insert an item at ``point``; returns the curve key it was stored under.

        Re-adding an existing ``item_id`` moves it to the new point.
        """
        pt = self.universe.validate_point(point)
        if item_id in self._key_of_item:
            self.remove(item_id)
        key = self.curve.key(pt)
        bucket: Optional[_Bucket] = self._backend.get(key)
        if bucket is None:
            bucket = _Bucket()
            self._backend.insert(key, bucket)
        bucket.items[item_id] = StoredItem(item_id, pt)
        self._key_of_item[item_id] = key
        self.stats.inserts += 1
        return key

    def remove(self, item_id: Hashable) -> bool:
        """Remove an item by id; return True when it was present."""
        key = self._key_of_item.pop(item_id, None)
        if key is None:
            return False
        bucket: Optional[_Bucket] = self._backend.get(key)
        if bucket is not None:
            bucket.items.pop(item_id, None)
            if not bucket.items:
                self._backend.delete(key)
        self.stats.deletes += 1
        return True

    def point_of(self, item_id: Hashable) -> Optional[Tuple[int, ...]]:
        """Return the point at which ``item_id`` is stored, or ``None``."""
        key = self._key_of_item.get(item_id)
        if key is None:
            return None
        bucket: Optional[_Bucket] = self._backend.get(key)
        if bucket is None:
            return None
        stored = bucket.items.get(item_id)
        return stored.point if stored is not None else None

    # ---------------------------------------------------------------- queries
    def first_in_key_range(self, key_range: KeyRange) -> Optional[StoredItem]:
        """Return any one item whose key lies in the inclusive range, or ``None``.

        This is the run-emptiness probe of the paper: two binary searches in
        the ordered structure, independent of how many cells the run spans.
        """
        low, high = key_range
        self.stats.range_probes += 1
        hit = self._backend.first_in_range(low, high)
        if hit is None:
            return None
        _, bucket = hit
        # Buckets are never left empty, so next(iter(...)) is safe.
        return next(iter(bucket.items.values()))

    def items_in_key_range(self, key_range: KeyRange) -> Iterator[StoredItem]:
        """Yield every item whose key lies in the inclusive range, in key order."""
        low, high = key_range
        self.stats.range_scans += 1
        for _, bucket in self._backend.items_in_range(low, high):
            for stored in bucket.items.values():
                self.stats.items_scanned += 1
                yield stored

    def count_in_key_range(self, key_range: KeyRange) -> int:
        """Return the number of items stored in the inclusive key range."""
        return sum(1 for _ in self.items_in_key_range(key_range))

    def items(self) -> Iterator[StoredItem]:
        """Yield every stored item in curve-key order."""
        for _, bucket in self._backend.items():
            yield from bucket.items.values()

    def keys(self) -> Iterator[int]:
        """Yield the distinct occupied curve keys in ascending order."""
        for key, _ in self._backend.items():
            yield key

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SFCArray(curve={self.curve.name}, items={len(self)})"
        )


class FlatSegmentStore:
    """Disjoint key segments in parallel sorted arrays (the match-index hot path).

    The store maps integer *slots* (interned subscription ids) to sets of
    inclusive key runs and answers stabbing queries: "which slots have a run
    containing key ``k``?".  It keeps three parallel arrays — segment lower
    bounds, segment upper bounds, and per-segment member arrays
    (``array('l')`` of slots) — built in one boundary sweep over every live
    run.  A stab is then a single ``bisect`` on the upper-bound array.

    Updates are staged, LSM-style:

    * **inserts** append their runs to a pending buffer that stabs scan
      linearly; once the buffer holds more than ``64 + segments/8`` runs, a
      *merge-rebuild* re-sweeps all live runs into fresh arrays.  The cap
      follows the segment count, not the run count, so once precision
      snapping saturates the segments a rebuild fires every ~cap staged runs
      and per-insert rebuild work grows with the index size;
    * **removals** of flattened slots only tombstone the slot (stabs filter
      against the tombstone set); compaction rebuilds once tombstones exceed
      a quarter of the live population.  Removals of still-pending slots
      rewrite only the buffer.

    Bulk loading (:meth:`add_bulk`) stages every subscription and performs a
    single sweep, which is how a million-subscription index is built in one
    pass.
    """

    def __init__(self) -> None:
        self._runs: Dict[int, Tuple[KeyRange, ...]] = {}
        self._los: List[int] = []
        self._his: List[int] = []
        self._members: List[array] = []
        self._pending: List[Tuple[int, int, int]] = []
        self._pending_slots: set = set()
        self._dead: set = set()
        self.rebuilds = 0
        self.member_entries = 0

    # ---------------------------------------------------------------- updates
    def __len__(self) -> int:
        return len(self._runs)

    def __contains__(self, slot: int) -> bool:
        return slot in self._runs

    def runs_of(self, slot: int) -> Tuple[KeyRange, ...]:
        return self._runs[slot]

    def _pending_cap(self) -> int:
        return 64 + len(self._los) // 8

    @staticmethod
    def _normalize_runs(runs: Sequence[KeyRange]) -> Tuple[KeyRange, ...]:
        """Disjoint sorted runs: the boundary sweep and the pending-buffer scan
        both assume a slot's own runs never overlap (overlaps would drop the
        slot early / yield it twice).  The match index always hands over
        already-merged runs, so the common case is a cheap monotonicity check.
        """
        prev_hi = -1
        for lo, hi in runs:
            if lo > hi or (lo <= prev_hi and prev_hi >= 0):
                return tuple(merge_key_ranges(runs))
            prev_hi = hi
        return tuple(runs)

    def add(self, slot: int, runs: Sequence[KeyRange]) -> None:
        """Stage a slot's runs; the caller guarantees the slot is not present."""
        if slot in self._runs:
            raise ValueError(f"slot {slot} is already stored; remove it first")
        runs = self._normalize_runs(runs)
        self._runs[slot] = runs
        self._pending_slots.add(slot)
        for lo, hi in runs:
            self._pending.append((lo, hi, slot))
        if len(self._pending) > self._pending_cap():
            self.rebuild()

    def add_bulk(self, items: Iterable[Tuple[int, Sequence[KeyRange]]]) -> None:
        """Stage many slots and flatten them in a single sweep.

        The immediate rebuild makes the pending buffer redundant, so bulk
        loads skip it entirely — a million-subscription build pays one dict
        insert per slot plus the (vectorized where possible) sweep.
        """
        stored = self._runs
        normalize = self._normalize_runs
        last_runs = last_norm = None
        for slot, runs in items:
            if slot in stored:
                raise ValueError(f"slot {slot} is already stored; remove it first")
            # Bulk loaders hand the same runs object to every slot of a group
            # (subscriptions sharing a decomposition); normalise it once and
            # share the tuple across those slots.
            if runs is not last_runs:
                last_runs = runs
                last_norm = normalize(runs)
            stored[slot] = last_norm
        self.rebuild()

    def remove(self, slot: int) -> int:
        """Drop a slot; returns the number of runs it had (0 when absent)."""
        runs = self._runs.pop(slot, None)
        if runs is None:
            return 0
        if slot in self._pending_slots:
            self._pending_slots.discard(slot)
            self._pending = [run for run in self._pending if run[2] != slot]
        else:
            self._dead.add(slot)
            if len(self._dead) * 4 > len(self._runs):
                self.rebuild()
        return len(runs)

    def _rebuild_vectorized(self) -> bool:
        """Numpy sweep: segment boundaries via ``unique``/``searchsorted``.

        Each run covers the segments between its endpoints' positions in the
        sorted boundary array; expanding ``(run, span)`` pairs with ``repeat``
        and a stable sort by segment index groups members per segment without
        a Python-level event loop.  The stable sort keeps members in slot
        insertion order, so the result is deterministic.  Returns ``False``
        (caller falls back to the Python sweep) when numpy is unavailable,
        the store is small, or keys overflow 64 bits.
        """
        np = vectorized.np
        if np is None or len(self._runs) < 512:
            return False
        los_l: List[int] = []
        his_l: List[int] = []
        slots_l: List[int] = []
        for slot, runs in self._runs.items():
            for lo, hi in runs:
                los_l.append(lo)
                his_l.append(hi)
                slots_l.append(slot)
        try:
            lo_arr = np.asarray(los_l, dtype=np.uint64)
            hi_arr = np.asarray(his_l, dtype=np.uint64) + 1  # exclusive ends
        except OverflowError:
            return False
        slot_arr = np.asarray(slots_l, dtype=np.int64)
        bounds = np.unique(np.concatenate((lo_arr, hi_arr)))
        starts = np.searchsorted(bounds, lo_arr)
        spans = np.searchsorted(bounds, hi_arr) - starts
        total = int(spans.sum())
        offsets = np.cumsum(spans) - spans
        seg_idx = np.repeat(starts - offsets, spans) + np.arange(total, dtype=np.int64)
        order = np.argsort(seg_idx, kind="stable")
        member_slots = np.repeat(slot_arr, spans)[order].tolist()
        covered, first = np.unique(seg_idx[order], return_index=True)
        cuts = first.tolist() + [total]
        self._los = bounds[covered].tolist()
        self._his = (bounds[covered + 1] - 1).tolist()
        self._members = [
            array("l", member_slots[a:b]) for a, b in zip(cuts, cuts[1:])
        ]
        return True

    @profiled("flat_store.rebuild")
    def rebuild(self) -> None:
        """Flatten every live run into fresh parallel arrays (boundary sweep).

        Events are encoded as single integers
        ``(pos << (slot_bits+1)) | (flag << slot_bits) | slot`` so sorting is
        an int sort instead of a tuple sort.  ``flag`` is 0
        for run ends and 1 for run starts, making ends at a position apply
        before starts (a slot whose runs abut would otherwise flicker).  The
        active set is an insertion-ordered dict, so member order — and with it
        every downstream iteration — is deterministic under hash
        randomisation.
        """
        if not self._runs:
            self._los, self._his, self._members = [], [], []
        elif not self._rebuild_vectorized():
            slot_bits = max(1, max(self._runs).bit_length())
            pos_shift = slot_bits + 1
            slot_mask = (1 << slot_bits) - 1
            start_bit = 1 << slot_bits
            events: List[int] = []
            for slot, runs in self._runs.items():
                for lo, hi in runs:
                    events.append((lo << pos_shift) | start_bit | slot)
                    events.append((hi + 1) << pos_shift | slot)
            events.sort()
            los: List[int] = []
            his: List[int] = []
            members: List[array] = []
            active: Dict[int, None] = {}
            prev: Optional[int] = None
            i, n = 0, len(events)
            while i < n:
                pos = events[i] >> pos_shift
                if active and prev is not None and prev < pos:
                    los.append(prev)
                    his.append(pos - 1)
                    members.append(array("l", active))
                while i < n and (events[i] >> pos_shift) == pos:
                    event = events[i]
                    if event & start_bit:
                        active[event & slot_mask] = None
                    else:
                        active.pop(event & slot_mask, None)
                    i += 1
                prev = pos
            self._los, self._his, self._members = los, his, members
        self._pending = []
        self._pending_slots.clear()
        self._dead.clear()
        self.member_entries = sum(len(m) for m in self._members)
        self.rebuilds += 1

    # ---------------------------------------------------------------- queries
    def stab(self, key: int) -> Iterator[int]:
        """Yield the live slots whose stored runs contain ``key``.

        One ``bisect`` on the flattened arrays (tombstones filtered lazily)
        plus a linear pass over the bounded pending buffer.  Lazy so that
        early-exiting callers (``any_match``) stop paying per candidate as
        soon as they confirm a hit.
        """
        his = self._his
        idx = bisect.bisect_left(his, key)
        if idx < len(his) and self._los[idx] <= key:
            dead = self._dead
            if dead:
                for slot in self._members[idx]:
                    if slot not in dead:
                        yield slot
            else:
                yield from self._members[idx]
        for lo, hi, slot in self._pending:
            if lo <= key <= hi:
                yield slot

    def segment_count(self) -> int:
        """Structure size: flattened segments plus still-pending runs."""
        return len(self._his) + len(self._pending)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlatSegmentStore(slots={len(self._runs)}, segments={len(self._his)}, "
            f"pending={len(self._pending)}, rebuilds={self.rebuilds})"
        )
