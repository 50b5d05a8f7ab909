"""SFC-keyed forwarding-match index: event matching as a single segment-store probe.

Brokers answer "does any subscription stored on this interface match event
``p``?" for every event on every interface — the dominant cost of event
routing once an interface holds thousands of subscriptions.  The linear scan
in :class:`~repro.pubsub.routing_table.InterfaceTable` costs ``O(n)`` match
tests per event; this module brings the paper's SFC machinery to bear on that
hot path the same way Section 5 applies it to covering detection.

The idea: a subscription is a rectangle on the quantised attribute grid, and
by Fact 2.1 a rectangle decomposes into a bounded number of *runs* —
contiguous key segments under any recursive-partitioning curve (Z-order by
default; Hilbert and Gray plug in through the same interface).  An event is a
single cell, i.e. a single key.  "Event matches subscription" is exactly
"``key(p)`` lies inside one of the subscription's runs".  The index
therefore stores the runs of every
subscription, flattened into *disjoint* key segments each labelled with the
set of subscriptions whose runs cover it
(:class:`~repro.index.sfc_array.FlatSegmentStore`).  Because the segments are
disjoint, the segment containing ``key(p)`` — if any — is found by one
``bisect`` for the segment with the smallest upper endpoint ``>= key(p)``;
the point is inside it iff the segment's lower endpoint is ``<= key(p)``.

Three refinements keep the structure bounded and sound:

* **Precision-bounded decomposition.**  Before decomposing, the rectangle is
  snapped outward to a grid of side ``2^{order - precision_bits}``, so the
  quadtree recursion bottoms out after ``precision_bits`` levels instead of
  descending to unit cells whose runs the coarsening below would discard
  anyway.  Snapping outward only ever *adds* cells.
* **Run-budget coarsening.**  Thin rectangles can decompose into many runs
  (the aspect-ratio lower bound of Theorem 4.1), so per subscription the run
  list is over-approximated down to at most ``run_budget`` ranges by closing
  the smallest inter-run gaps.  Again, only ever adds keys, so no matching
  event can be missed.
* **Rectangle fallback check.**  A candidate produced by the segment probe may
  be a false positive of the coarsening (its over-approximated range contains
  ``key(p)`` but its rectangle does not contain ``p``).  Every candidate is
  therefore confirmed with a ``d``-comparison per-attribute range check before
  being reported, which restores exactness.

Together: no false negatives (exact runs cover every matching key and
coarsening only widens them), no false positives (the rectangle check rejects
them) — the index is behaviourally identical to the linear scan while the
per-event cost is one binary search plus the candidates of one segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

from ..core.decomposition import decompose_rectangle
from ..geometry.bits import spread_bits
from ..geometry.rect import Rectangle, StandardCube
from ..geometry.universe import Universe
from ..index.config import IndexConfig
from ..index.sfc_array import FlatSegmentStore
from ..obs.profiler import profiled
from ..sfc.base import KeyRange
from ..sfc.factory import make_curve
from ..sfc.runs import merge_key_ranges
from .schema import AttributeSchema

__all__ = [
    "MatchIndex",
    "MatchIndexStats",
    "spread_bits",
]


@dataclass
class MatchIndexStats:
    """Operation counters (work units for benchmarks)."""

    inserts: int = 0
    removals: int = 0
    runs_stored: int = 0
    coarsened_subscriptions: int = 0
    lookups: int = 0
    candidates_checked: int = 0
    false_positives: int = 0


class MatchIndex:
    """Point-stab index over the subscriptions of one interface.

    Parameters
    ----------
    schema:
        Attribute schema shared with the routing layer; fixes the grid
        (``d = num_attributes`` dimensions, ``2^order`` cells per side).
    config:
        The :class:`~repro.index.config.IndexConfig` this index reads three
        knobs from: ``run_budget`` (per-subscription cap on stored key
        ranges), ``precision_bits`` (grid resolution, in bits per dimension,
        that rectangles are snapped outward to before decomposing; derived
        from ``precision_bit_budget`` when unset) and ``curve`` (the
        space-filling curve keying the segments).  Curves differ in run
        counts — and therefore in segment counts and false-positive rates —
        never in match answers.
    """

    def __init__(self, schema: AttributeSchema, config: IndexConfig = IndexConfig()) -> None:
        self.config = config
        self.schema = schema
        self.universe = Universe(dims=schema.num_attributes, order=schema.order)
        self.curve = make_curve(config.curve, self.universe)
        self.run_budget = config.run_budget
        self.precision_bits = config.effective_precision_bits(self.universe.dims)
        precision_bits = self.precision_bits
        # Precision-snapped rectangles are unions of cells of a coarser grid;
        # decomposing on that coarse universe directly (and scaling the cubes
        # back up) skips the top ``order - precision`` recursion levels the
        # full-universe quadtree would walk for every subscription.
        effective = min(precision_bits, self.universe.order)
        self._snap = 1 << (self.universe.order - effective)
        self._coarse_universe = (
            Universe(dims=self.universe.dims, order=effective)
            if self._snap > 1
            else self.universe
        )
        self._flat = FlatSegmentStore()
        # Subscription-id interning: the flat store works on integer slots so
        # its member arrays are machine-word arrays rather than object tuples.
        # Slots are never reused.
        self._slot_of: Dict[Hashable, int] = {}
        self._id_of: Dict[int, Hashable] = {}
        self._rect_of_slot: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        self._next_slot = 0
        self.stats = MatchIndexStats()

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, sub_id: Hashable) -> bool:
        return sub_id in self._slot_of

    def segment_count(self) -> int:
        """Number of disjoint key segments currently stored (structure size)."""
        return self._flat.segment_count()

    def event_key(self, cells: Sequence[int]) -> int:
        """Curve key of an event's quantised cell vector."""
        return self.curve.key(cells)

    # ----------------------------------------------------------------- updates
    def _validate_ranges(
        self, ranges: Sequence[Tuple[int, int]]
    ) -> Tuple[Tuple[int, int], ...]:
        if len(ranges) != self.universe.dims:
            raise ValueError(
                f"subscription has {len(ranges)} ranges but the schema "
                f"has {self.universe.dims} attributes"
            )
        max_cell = self.universe.max_coordinate
        out = []
        for lo, hi in ranges:
            lo = int(lo)
            hi = int(hi)
            if lo > hi or lo < 0 or hi > max_cell:
                raise ValueError(
                    f"invalid subscription range [{lo}, {hi}]; expected "
                    f"0 <= lo <= hi <= {max_cell}"
                )
            out.append((lo, hi))
        return tuple(out)

    def _snap_signature(
        self, rect_ranges: Tuple[Tuple[int, int], ...]
    ) -> Tuple[Tuple[int, int], ...]:
        """The rectangle on the precision grid (outward snap, coarse coordinates).

        Snapping outward bounds the quadtree work regardless of the schema
        order and only ever *adds* cells (over-approximation, rejected later
        by the rectangle check).  Rectangles sharing a signature share their
        decomposition, which is what lets :meth:`add_batch` decompose each
        distinct shape once.
        """
        snap = self._snap
        if snap == 1:
            return rect_ranges
        return tuple([(lo // snap, hi // snap) for lo, hi in rect_ranges])

    def _decompose_signature(
        self, signature: Tuple[Tuple[int, int], ...]
    ) -> List[StandardCube]:
        """Standard-cube partition (in the full universe) of a snapped rectangle."""
        coarse_rect = Rectangle(
            tuple(lo for lo, _ in signature), tuple(hi for _, hi in signature)
        )
        cubes = decompose_rectangle(self._coarse_universe, coarse_rect)
        snap = self._snap
        if snap == 1:
            return cubes
        # A level-l cube of the coarse universe scales to the level-l cube of
        # the full universe covering the same region; any exact standard-cube
        # partition yields the same merged runs, so correctness is unaffected.
        return [
            StandardCube(
                self.universe,
                tuple(x * snap for x in cube.low),
                cube.side * snap,
            )
            for cube in cubes
        ]

    def _runs_for(self, rect_ranges: Tuple[Tuple[int, int], ...]) -> List[KeyRange]:
        cubes = self._decompose_signature(self._snap_signature(rect_ranges))
        runs = merge_key_ranges(self.curve.cube_key_ranges(cubes))
        return self._coarsen(runs)

    def add(self, sub_id: Hashable, ranges: Sequence[Tuple[int, int]]) -> None:
        """Index a subscription's quantised per-attribute ranges (replacing any previous).

        Validation happens before any mutation, so a rejected replace leaves
        the previously stored entry intact.
        """
        rect_ranges = self._validate_ranges(ranges)
        if sub_id in self._slot_of:
            self.remove(sub_id)
        runs = self._runs_for(rect_ranges)
        slot = self._next_slot
        self._next_slot = slot + 1
        self._slot_of[sub_id] = slot
        self._id_of[slot] = sub_id
        self._rect_of_slot[slot] = rect_ranges
        self.stats.inserts += 1
        self.stats.runs_stored += len(runs)
        self._flat.add(slot, runs)

    #: Distinct snapped rectangles decomposed per chunk of :meth:`add_batch`,
    #: bounding the number of standard cubes held in memory at once while
    #: still amortising the batched anchor keying.
    BATCH_CHUNK = 4096

    def add_batch(
        self, items: Sequence[Tuple[Hashable, Sequence[Tuple[int, int]]]]
    ) -> None:
        """Index many subscriptions in one pass (bulk subscribe).

        Semantics are identical to calling :meth:`add` per item in order
        (later duplicates replace earlier ones); the batch wins three times
        on cost: subscriptions sharing a snapped rectangle are decomposed
        once, each chunk keys all its decomposition cubes through one
        :meth:`SpaceFillingCurve.cube_key_ranges` call, and the whole batch
        is flattened by a single merge-rebuild instead of per-subscription
        pending-buffer staging.
        """
        # One fused validate + dedup pass (the body mirrors _validate_ranges;
        # a million-subscription batch cannot afford a function call per item).
        dims = self.universe.dims
        max_cell = self.universe.max_coordinate
        deduped: Dict[Hashable, Tuple[Tuple[int, int], ...]] = {}
        for sub_id, ranges in items:
            if len(ranges) != dims:
                raise ValueError(
                    f"subscription has {len(ranges)} ranges but the schema "
                    f"has {dims} attributes"
                )
            out = []
            for lo, hi in ranges:
                lo = int(lo)
                hi = int(hi)
                if lo > hi or lo < 0 or hi > max_cell:
                    raise ValueError(
                        f"invalid subscription range [{lo}, {hi}]; expected "
                        f"0 <= lo <= hi <= {max_cell}"
                    )
                out.append((lo, hi))
            deduped[sub_id] = tuple(out)
        for sub_id in deduped:
            if sub_id in self._slot_of:
                self.remove(sub_id)
        # Group subscriptions by snapped rectangle: each distinct signature is
        # decomposed once for the whole batch.
        groups: Dict[Tuple[Tuple[int, int], ...], List] = {}
        snap = self._snap
        for sub_id, rect_ranges in deduped.items():
            if snap == 1:
                signature = rect_ranges
            else:
                signature = tuple([(lo // snap, hi // snap) for lo, hi in rect_ranges])
            members = groups.get(signature)
            if members is None:
                groups[signature] = members = []
            members.append((sub_id, rect_ranges))
        signatures = list(groups)
        slot_of = self._slot_of
        id_of = self._id_of
        rect_of_slot = self._rect_of_slot
        next_slot = self._next_slot
        runs_stored = 0
        bulk: List[Tuple[int, List[KeyRange]]] = []
        for start in range(0, len(signatures), self.BATCH_CHUNK):
            chunk = signatures[start : start + self.BATCH_CHUNK]
            all_cubes: List[StandardCube] = []
            cube_counts: List[int] = []
            for signature in chunk:
                cubes = self._decompose_signature(signature)
                all_cubes.extend(cubes)
                cube_counts.append(len(cubes))
            key_ranges = self.curve.cube_key_ranges(all_cubes)
            pos = 0
            for signature, count in zip(chunk, cube_counts):
                runs = self._coarsen(merge_key_ranges(key_ranges[pos : pos + count]))
                pos += count
                num_runs = len(runs)
                # Inlined slot interning (as in add): a per-item call would
                # dominate a bulk load.
                for sub_id, rect_ranges in groups[signature]:
                    slot_of[sub_id] = next_slot
                    id_of[next_slot] = sub_id
                    rect_of_slot[next_slot] = rect_ranges
                    bulk.append((next_slot, runs))
                    next_slot += 1
                    runs_stored += num_runs
        self.stats.inserts += next_slot - self._next_slot
        self.stats.runs_stored += runs_stored
        self._next_slot = next_slot
        if bulk:
            self._flat.add_bulk(bulk)

    def remove(self, sub_id: Hashable) -> bool:
        """Drop a subscription from the index; return True when it was present."""
        slot = self._slot_of.pop(sub_id, None)
        if slot is None:
            return False
        del self._id_of[slot]
        del self._rect_of_slot[slot]
        removed_runs = self._flat.remove(slot)
        self.stats.removals += 1
        self.stats.runs_stored -= removed_runs
        return True

    def _coarsen(self, runs: List[KeyRange]) -> List[KeyRange]:
        """Over-approximate ``runs`` down to at most ``run_budget`` ranges.

        Closes the smallest gaps first, so the number of spurious keys added —
        and with it the false-positive rate the fallback check must absorb —
        is minimal for the chosen budget.
        """
        if len(runs) <= self.run_budget:
            return runs
        gaps = sorted(
            range(len(runs) - 1), key=lambda i: runs[i + 1][0] - runs[i][1]
        )
        close = set(gaps[: len(runs) - self.run_budget])
        coarsened: List[KeyRange] = []
        current_lo, current_hi = runs[0]
        for i in range(1, len(runs)):
            if i - 1 in close:
                current_hi = runs[i][1]
            else:
                coarsened.append((current_lo, current_hi))
                current_lo, current_hi = runs[i]
        coarsened.append((current_lo, current_hi))
        self.stats.coarsened_subscriptions += 1
        return coarsened

    # ----------------------------------------------------------------- queries
    def candidates(self, key: int) -> FrozenSet[Hashable]:
        """Subscriptions whose stored (possibly coarsened) runs contain ``key``."""
        self.stats.lookups += 1
        return frozenset(self._id_of[slot] for slot in self._flat.stab(key))

    @profiled("match_index.any_match")
    def any_match(self, cells: Sequence[int], key: Optional[int] = None) -> bool:
        """True when at least one indexed subscription matches the event cells."""
        if key is None:
            key = self.curve.key(cells)
        stats = self.stats
        rect_of_slot = self._rect_of_slot
        for slot in self._flat.stab(key):
            stats.candidates_checked += 1
            if all(
                lo <= cell <= hi
                for (lo, hi), cell in zip(rect_of_slot[slot], cells)
            ):
                stats.lookups += 1
                return True
            stats.false_positives += 1
        stats.lookups += 1
        return False

    @profiled("match_index.matching_ids")
    def matching_ids(self, cells: Sequence[int], key: Optional[int] = None) -> List[Hashable]:
        """All indexed subscriptions matching the event cells (order unspecified)."""
        if key is None:
            key = self.curve.key(cells)
        matched: List[Hashable] = []
        stats = self.stats
        rect_of_slot = self._rect_of_slot
        id_of = self._id_of
        for slot in self._flat.stab(key):
            stats.candidates_checked += 1
            if all(
                lo <= cell <= hi
                for (lo, hi), cell in zip(rect_of_slot[slot], cells)
            ):
                matched.append(id_of[slot])
            else:
                stats.false_positives += 1
        stats.lookups += 1
        return matched

    # ------------------------------------------------------------ batch queries
    def any_match_batch(
        self,
        cells_batch: Sequence[Sequence[int]],
        keys: Optional[Sequence[int]] = None,
    ) -> List[bool]:
        """Per-event :meth:`any_match` for a batch, keyed in one vectorized pass."""
        if keys is None:
            keys = self.curve.keys(cells_batch)
        return [
            self.any_match(cells, key) for cells, key in zip(cells_batch, keys)
        ]

    def matching_ids_batch(
        self,
        cells_batch: Sequence[Sequence[int]],
        keys: Optional[Sequence[int]] = None,
    ) -> List[List[Hashable]]:
        """Per-event :meth:`matching_ids` for a batch, keyed in one vectorized pass."""
        if keys is None:
            keys = self.curve.keys(cells_batch)
        return [
            self.matching_ids(cells, key) for cells, key in zip(cells_batch, keys)
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MatchIndex(subscriptions={len(self)}, segments={self.segment_count()}, "
            f"run_budget={self.run_budget})"
        )
