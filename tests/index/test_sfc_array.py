"""Tests for the SFC array (repro.index.sfc_array)."""

from __future__ import annotations

import random

import pytest

from repro.geometry.universe import Universe
from repro.index.backends import FlatBackend
from repro.index.sfc_array import SFCArray
from repro.sfc.factory import CURVE_KINDS, make_curve

# "buffered" leaves small maps in the flat store's pending buffer; "eager"
# merges on every insert, so probes run against the sorted main array and
# deletes go through tombstones and compaction.
STORE_MODES = ("buffered", "eager")


@pytest.fixture(params=[(c, m) for c in CURVE_KINDS for m in STORE_MODES],
                ids=lambda p: f"{p[0]}-{p[1]}")
def array(request, monkeypatch):
    curve_kind, mode = request.param
    if mode == "eager":
        monkeypatch.setattr(FlatBackend, "_pending_cap", lambda self: 0)
    universe = Universe(dims=2, order=5)
    return SFCArray(make_curve(curve_kind, universe))


class TestSFCArrayUpdates:
    def test_add_and_contains(self, array):
        key = array.add("a", (3, 4))
        assert "a" in array
        assert len(array) == 1
        assert array.point_of("a") == (3, 4)
        assert key == array.curve.key((3, 4))

    def test_add_validates_point(self, array):
        with pytest.raises(ValueError):
            array.add("a", (99, 0))

    def test_remove(self, array):
        array.add("a", (3, 4))
        assert array.remove("a")
        assert not array.remove("a")
        assert "a" not in array
        assert array.point_of("a") is None

    def test_re_add_moves_item(self, array):
        array.add("a", (1, 1))
        array.add("a", (9, 9))
        assert len(array) == 1
        assert array.point_of("a") == (9, 9)

    def test_duplicate_points_different_ids(self, array):
        array.add("a", (5, 5))
        array.add("b", (5, 5))
        assert len(array) == 2
        array.remove("a")
        assert "b" in array
        assert array.point_of("b") == (5, 5)

    def test_stats_counters(self, array):
        array.add("a", (1, 2))
        array.add("b", (3, 4))
        array.remove("a")
        array.first_in_key_range((0, array.universe.max_key))
        list(array.items_in_key_range((0, array.universe.max_key)))
        assert array.stats.inserts == 2
        assert array.stats.deletes == 1
        assert array.stats.range_probes == 1
        assert array.stats.range_scans == 1
        assert array.stats.items_scanned == 1
        array.stats.reset()
        assert array.stats.inserts == 0


class TestSFCArrayQueries:
    def test_first_in_key_range_hits_and_misses(self, array):
        array.add("a", (0, 0))
        array.add("b", (31, 31))
        key_a = array.curve.key((0, 0))
        key_b = array.curve.key((31, 31))
        hit = array.first_in_key_range((key_a, key_a))
        assert hit is not None and hit.item_id == "a"
        hit = array.first_in_key_range((key_b, key_b))
        assert hit is not None and hit.item_id == "b"
        assert array.first_in_key_range((key_a + 1, key_b - 1)) is None

    def test_items_in_key_range_returns_all(self, array):
        points = {(i, i) for i in range(10)}
        for i, p in enumerate(sorted(points)):
            array.add(f"item-{i}", p)
        found = {item.point for item in array.items_in_key_range((0, array.universe.max_key))}
        assert found == points

    def test_items_are_in_key_order(self, array):
        rng = random.Random(3)
        for i in range(50):
            array.add(i, (rng.randint(0, 31), rng.randint(0, 31)))
        keys = [array.curve.key(item.point) for item in array.items()]
        assert keys == sorted(keys)

    def test_count_in_key_range(self, array):
        for i in range(8):
            array.add(i, (i, 0))
        total = array.count_in_key_range((0, array.universe.max_key))
        assert total == 8

    def test_keys_distinct_and_sorted(self, array):
        array.add("a", (1, 1))
        array.add("b", (1, 1))
        array.add("c", (2, 2))
        keys = list(array.keys())
        assert keys == sorted(set(keys))
        assert len(keys) == 2


class TestSFCArrayAgainstOracle:
    @pytest.mark.parametrize("curve_kind", CURVE_KINDS)
    def test_range_scans_match_brute_force(self, curve_kind):
        universe = Universe(dims=2, order=6)
        curve = make_curve(curve_kind, universe)
        rng = random.Random(11)
        points = [(rng.randint(0, 63), rng.randint(0, 63)) for _ in range(200)]
        ranges = [
            tuple(sorted((rng.randint(0, universe.max_key), rng.randint(0, universe.max_key))))
            for _ in range(50)
        ]
        array = SFCArray(curve)
        for i, p in enumerate(points):
            array.add(i, p)
        for i in range(0, 200, 3):
            array.remove(i)
        live = {i: curve.key(p) for i, p in enumerate(points) if i % 3}
        for lo, hi in ranges:
            items = sorted(item.item_id for item in array.items_in_key_range((lo, hi)))
            assert items == sorted(i for i, key in live.items() if lo <= key <= hi)
            hit = array.first_in_key_range((lo, hi))
            assert (hit is None) == (not items)
