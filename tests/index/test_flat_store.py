"""Model-based tests for the flattened stores behind the SFC array and match index.

:class:`FlatBackend` is differential-tested against a dict + sorted list
model through random operation sequences, and :class:`FlatSegmentStore`
against a brute-force "scan every slot's runs" stab oracle — including the
paths that only open at scale (merges, tombstone compaction, bulk loads).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.index.backends import FlatBackend
from repro.index.sfc_array import FlatSegmentStore
from repro.sfc import vectorized
from repro.sfc.runs import merge_key_ranges

# ------------------------------------------------------------- FlatBackend

_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "get", "first", "scan"]),
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=0, max_value=120),
    ),
    max_size=120,
)


@given(_ops)
def test_flat_backend_matches_model(ops):
    backend = FlatBackend()
    model = {}
    for op, a, b in ops:
        lo, hi = min(a, b), max(a, b)
        if op == "insert":
            backend.insert(a, f"v{a}-{b}")
            model[a] = f"v{a}-{b}"
        elif op == "delete":
            assert backend.delete(a) == (a in model)
            model.pop(a, None)
        elif op == "get":
            assert backend.get(a) == model.get(a)
        elif op == "first":
            keys = sorted(k for k in model if lo <= k <= hi)
            expected = (keys[0], model[keys[0]]) if keys else None
            assert backend.first_in_range(lo, hi) == expected
        else:
            expected = [(k, model[k]) for k in sorted(model) if lo <= k <= hi]
            assert list(backend.items_in_range(lo, hi)) == expected
        assert len(backend) == len(model)
    assert list(backend.items()) == [(k, model[k]) for k in sorted(model)]


def test_flat_backend_merges_and_compacts():
    backend = FlatBackend()
    for k in range(500):
        backend.insert(k, k)
    assert backend.merges > 0
    for k in range(0, 500, 2):
        backend.delete(k)
    assert list(backend.items_in_range(0, 10)) == [(1, 1), (3, 3), (5, 5), (7, 7), (9, 9)]
    # Deleting then re-inserting a key still physically present resurrects it.
    backend.delete(1)
    backend.insert(1, "back")
    assert backend.get(1) == "back"
    assert backend.first_in_range(0, 2) == (1, "back")


@pytest.fixture(params=["buffered", "eager"])
def flat(request, monkeypatch):
    """A fresh FlatBackend; "eager" merges on every insert, so small maps live
    in the sorted main array and deletes tombstone instead of editing the
    pending buffer."""
    if request.param == "eager":
        monkeypatch.setattr(FlatBackend, "_pending_cap", lambda self: 0)
    return FlatBackend()


class TestFlatBackendContract:
    def test_empty(self, flat):
        assert len(flat) == 0
        assert flat.get(3) is None
        assert flat.get(3, "x") == "x"
        assert flat.first_in_range(0, 100) is None
        assert list(flat.items_in_range(0, 100)) == []
        assert list(flat.items()) == []

    def test_insert_and_get(self, flat):
        flat.insert(5, "five")
        flat.insert(1, "one")
        flat.insert(9, "nine")
        assert len(flat) == 3
        assert flat.get(5) == "five"
        assert flat.get(1) == "one"
        assert flat.get(9) == "nine"
        assert flat.get(2) is None

    def test_insert_replaces_value(self, flat):
        flat.insert(5, "a")
        flat.insert(5, "b")
        assert len(flat) == 1
        assert flat.get(5) == "b"
        assert list(flat.items()) == [(5, "b")]

    def test_delete(self, flat):
        flat.insert(5, "a")
        flat.insert(7, "b")
        assert flat.delete(5)
        assert not flat.delete(5)
        assert not flat.delete(6)
        assert len(flat) == 1
        assert flat.get(5) is None
        assert flat.get(7) == "b"

    def test_items_sorted(self, flat):
        for k in [9, 3, 7, 1, 5]:
            flat.insert(k, str(k))
        assert list(flat.items()) == [(k, str(k)) for k in [1, 3, 5, 7, 9]]

    def test_first_in_range(self, flat):
        for k in [10, 20, 30]:
            flat.insert(k, k)
        assert flat.first_in_range(0, 9) is None
        assert flat.first_in_range(0, 10) == (10, 10)
        assert flat.first_in_range(11, 19) is None
        assert flat.first_in_range(15, 100) == (20, 20)
        assert flat.first_in_range(30, 30) == (30, 30)
        assert flat.first_in_range(31, 100) is None

    def test_items_in_range(self, flat):
        for k in range(0, 50, 5):
            flat.insert(k, k)
        assert [k for k, _ in flat.items_in_range(12, 31)] == [15, 20, 25, 30]
        assert [k for k, _ in flat.items_in_range(16, 17)] == []
        assert [k for k, _ in flat.items_in_range(0, 100)] == list(range(0, 50, 5))

    def test_deleted_keys_are_skipped_by_probes(self, flat):
        for k in range(10):
            flat.insert(k, k)
        for k in (2, 3, 4):
            flat.delete(k)
        assert flat.first_in_range(2, 9) == (5, 5)
        assert flat.first_in_range(2, 4) is None
        assert [k for k, _ in flat.items_in_range(0, 6)] == [0, 1, 5, 6]

    def test_delete_then_reinsert(self, flat):
        for k in range(6):
            flat.insert(k, k)
        flat.delete(3)
        flat.insert(3, "back")
        assert len(flat) == 6
        assert flat.get(3) == "back"
        assert flat.first_in_range(3, 5) == (3, "back")
        assert [k for k, _ in flat.items()] == list(range(6))

    def test_delete_everything(self, flat):
        for k in range(40):
            flat.insert(k, k)
        for k in range(40):
            assert flat.delete(k)
        assert len(flat) == 0
        assert list(flat.items()) == []
        assert flat.first_in_range(0, 100) is None
        flat.insert(7, "again")
        assert list(flat.items()) == [(7, "again")]

    def test_main_and_pending_interleave(self, flat):
        # Even keys reach the main array through a forced merge; odd keys
        # are inserted afterwards and, in buffered mode, stay pending.
        for k in range(0, 40, 2):
            flat.insert(k, k)
        flat._merge()
        for k in range(1, 40, 2):
            flat.insert(k, k)
        assert [k for k, _ in flat.items_in_range(10, 15)] == [10, 11, 12, 13, 14, 15]
        assert flat.first_in_range(11, 11) == (11, 11)
        assert flat.first_in_range(12, 13) == (12, 12)
        assert [k for k, _ in flat.items()] == list(range(40))

    def test_large_random_model_check(self, flat):
        model = {}
        rng = random.Random(99)
        for step in range(2000):
            key = rng.randint(0, 300)
            if rng.random() < 0.6:
                flat.insert(key, step)
                model[key] = step
            else:
                assert flat.delete(key) == (key in model)
                model.pop(key, None)
        assert len(flat) == len(model)
        assert list(flat.items()) == sorted(model.items())
        for key, value in model.items():
            assert flat.get(key) == value
        lo, hi = 50, 200
        expected = sorted((k, v) for k, v in model.items() if lo <= k <= hi)
        assert list(flat.items_in_range(lo, hi)) == expected
        first = min((k for k in model if lo <= k <= hi), default=None)
        hit = flat.first_in_range(lo, hi)
        assert (hit[0] if hit else None) == first


# --------------------------------------------------------- FlatSegmentStore

def _oracle_stab(runs_of, key):
    return {slot for slot, runs in runs_of.items() if any(lo <= key <= hi for lo, hi in runs)}


_run_lists = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 30)).map(
        lambda t: (t[0], t[0] + t[1])
    ),
    min_size=1,
    max_size=4,
)

_store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 40), _run_lists),
        st.tuples(st.just("remove"), st.integers(0, 40), st.just(None)),
        st.tuples(st.just("rebuild"), st.just(0), st.just(None)),
    ),
    max_size=60,
)


@given(_store_ops, st.lists(st.integers(0, 240), max_size=30))
def test_flat_segment_store_matches_oracle(ops, probes):
    store = FlatSegmentStore()
    model = {}
    next_slot = 100  # distinct from the op slot space so re-adds get new slots
    alias = {}
    for op, slot, runs in ops:
        if op == "add":
            target = alias.get(slot)
            if target is None:
                target = next_slot
                next_slot += 1
                alias[slot] = target
                store.add(target, runs)
                model[target] = merge_key_ranges(runs)
        elif op == "remove":
            target = alias.pop(slot, None)
            removed = store.remove(target) if target is not None else store.remove(-1)
            if target is not None and target in model:
                assert removed == len(model.pop(target))
            else:
                assert removed == 0
        else:
            store.rebuild()
        assert len(store) == len(model)
    for key in probes:
        assert set(store.stab(key)) == _oracle_stab(model, key)


def test_flat_segment_store_bulk_equals_incremental():
    items = [(slot, [(slot * 3, slot * 3 + 10)]) for slot in range(200)]
    bulk = FlatSegmentStore()
    bulk.add_bulk(items)
    incremental = FlatSegmentStore()
    for slot, runs in items:
        incremental.add(slot, runs)
    incremental.rebuild()
    for key in range(0, 650, 7):
        assert set(bulk.stab(key)) == set(incremental.stab(key))
    assert bulk.rebuilds == 1
    assert bulk.member_entries == incremental.member_entries


def test_flat_segment_store_rejects_duplicate_slot():
    store = FlatSegmentStore()
    store.add(1, [(0, 5)])
    with pytest.raises(ValueError):
        store.add(1, [(6, 9)])
    store.rebuild()
    with pytest.raises(ValueError):
        store.add_bulk([(1, [(6, 9)])])


def test_flat_segment_store_tombstone_compaction():
    store = FlatSegmentStore()
    store.add_bulk([(slot, [(slot, slot + 2)]) for slot in range(100)])
    assert store.rebuilds == 1
    for slot in range(0, 100, 2):
        store.remove(slot)
    # Removing half the flattened slots crosses the quarter threshold.
    assert store.rebuilds > 1
    assert set(store.stab(5)) == {3, 5}  # covered by 3,4,5; 4 removed
    assert store.segment_count() > 0


def test_flat_segment_store_empty():
    store = FlatSegmentStore()
    assert list(store.stab(0)) == []
    assert store.segment_count() == 0
    assert store.remove(3) == 0
    store.rebuild()
    assert list(store.stab(0)) == []
    assert store.member_entries == 0


def test_flat_segment_store_normalises_overlapping_runs():
    store = FlatSegmentStore()
    store.add(1, [(5, 15), (0, 10)])
    assert store.runs_of(1) == ((0, 15),)
    assert list(store.stab(7)) == [1]
    store.rebuild()
    assert list(store.stab(7)) == [1]
    assert store.remove(1) == 1


def test_flat_segment_store_abutting_runs_stay_covered():
    store = FlatSegmentStore()
    store.add(4, [(0, 4), (5, 9)])
    store.add(6, [(5, 5)])
    store.rebuild()
    for key in range(10):
        expected = {4, 6} if key == 5 else {4}
        assert set(store.stab(key)) == expected
    assert list(store.stab(10)) == []


def test_flat_segment_store_pending_removal_skips_rebuild():
    store = FlatSegmentStore()
    store.add(1, [(0, 9)])
    store.add(2, [(5, 20)])
    assert store.remove(1) == 1
    assert store.rebuilds == 0
    assert set(store.stab(7)) == {2}
    assert list(store.stab(3)) == []


def test_flat_segment_store_vectorized_sweep_equals_python_sweep(monkeypatch):
    # Without numpy both stores take the Python sweep and trivially agree.
    rng = random.Random(8)
    items = []
    for slot in range(700):
        lo = rng.randint(0, 5000)
        items.append((slot, [(lo, lo + rng.randint(0, 80)), (lo + 200, lo + 210)]))
    vector = FlatSegmentStore()
    vector.add_bulk(items)
    monkeypatch.setattr(vectorized, "np", None)
    python = FlatSegmentStore()
    python.add_bulk(items)
    assert vector._his == python._his and vector._los == python._los
    # Member order differs (slot insertion vs. activation order); sets agree.
    assert [sorted(m) for m in vector._members] == [sorted(m) for m in python._members]
    assert vector.member_entries == python.member_entries
    for key in range(0, 5300, 13):
        assert sorted(vector.stab(key)) == sorted(python.stab(key))
