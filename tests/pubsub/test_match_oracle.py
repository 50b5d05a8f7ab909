"""The match index against a linear-scan oracle, under every curve.

A differential lifecycle test drives one :class:`MatchIndex` per curve
through the same random subscribe/replace/withdraw/publish history against a
linear-scan oracle; batch queries and bulk loads must answer exactly like
their scalar counterparts; and a whole-network run's ``routing_state()`` is
pinned to a recorded digest.
"""

from __future__ import annotations

import hashlib
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.config import IndexConfig
from repro.pubsub.match_index import MatchIndex
from repro.pubsub.network import BrokerNetwork, tree_topology
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.sfc.factory import CURVE_KINDS
from repro.workloads.dynamics import run_scripted_lockstep, subscription_churn_script
from repro.workloads.scenarios import stock_market_scenario


def _schema(order=5):
    return AttributeSchema(
        [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=order
    )


def _make_indexes(schema):
    return [MatchIndex(schema, config=IndexConfig(curve=curve)) for curve in CURVE_KINDS]


_lifecycle = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "query"]),
        st.integers(0, 12),  # subscription id pool
        st.tuples(st.integers(0, 31), st.integers(0, 31)),
        st.tuples(st.integers(0, 31), st.integers(0, 31)),
    ),
    max_size=60,
)


@given(_lifecycle, st.lists(st.tuples(st.integers(0, 31), st.integers(0, 31)), max_size=25))
def test_lifecycle_differential_all_curves(ops, probes):
    schema = _schema()
    indexes = _make_indexes(schema)
    oracle = {}
    for op, sid, (xa, xb), (ya, yb) in ops:
        if op == "add":
            ranges = ((min(xa, xb), max(xa, xb)), (min(ya, yb), max(ya, yb)))
            for index in indexes:
                index.add(sid, ranges)
            oracle[sid] = ranges
        elif op == "remove":
            expected = sid in oracle
            oracle.pop(sid, None)
            for index in indexes:
                assert index.remove(sid) == expected
        else:
            cells = (xa, ya)
            expected_ids = sorted(
                s
                for s, rect in oracle.items()
                if all(lo <= c <= hi for (lo, hi), c in zip(rect, cells))
            )
            for index in indexes:
                assert sorted(index.matching_ids(cells)) == expected_ids
                assert index.any_match(cells) == bool(expected_ids)
        for index in indexes:
            assert len(index) == len(oracle)
    for cells in probes:
        expected_ids = sorted(
            s
            for s, rect in oracle.items()
            if all(lo <= c <= hi for (lo, hi), c in zip(rect, cells))
        )
        for index in indexes:
            assert sorted(index.matching_ids(cells)) == expected_ids


@settings(max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_batch_queries_agree_with_scalar(seed):
    schema = _schema()
    rng = random.Random(seed)
    indexes = _make_indexes(schema)
    for sid in range(40):
        lo_x, lo_y = rng.randrange(32), rng.randrange(32)
        ranges = (
            (lo_x, min(31, lo_x + rng.randrange(12))),
            (lo_y, min(31, lo_y + rng.randrange(12))),
        )
        for index in indexes:
            index.add(sid, ranges)
    events = [(rng.randrange(32), rng.randrange(32)) for _ in range(60)]
    for index in indexes:
        scalar_ids = [sorted(index.matching_ids(e)) for e in events]
        scalar_any = [index.any_match(e) for e in events]
        assert [sorted(ids) for ids in index.matching_ids_batch(events)] == scalar_ids
        assert index.any_match_batch(events) == scalar_any


def test_add_batch_equals_sequential_adds():
    schema = _schema()
    rng = random.Random(99)
    items = []
    for sid in range(120):
        lo_x, lo_y = rng.randrange(32), rng.randrange(32)
        items.append(
            (
                sid,
                (
                    (lo_x, min(31, lo_x + rng.randrange(10))),
                    (lo_y, min(31, lo_y + rng.randrange(10))),
                ),
            )
        )
    sequential = MatchIndex(schema)
    for sid, ranges in items:
        sequential.add(sid, ranges)
    batched = MatchIndex(schema)
    batched.add_batch(items)
    for _ in range(200):
        cells = (rng.randrange(32), rng.randrange(32))
        expected = sorted(sequential.matching_ids(cells))
        assert sorted(batched.matching_ids(cells)) == expected


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def test_routing_state_pinned():
    """The routing state of a churned SFC-matching network is pinned.

    If the pin moves, routing behaviour changed (not just performance);
    re-pin only with an explanation in the same commit.
    """
    scenario = stock_market_scenario(num_subscriptions=25, num_events=10, order=7, seed=5)
    network = BrokerNetwork.from_topology(
        scenario.schema,
        tree_topology(7),
        covering="approximate",
        config=IndexConfig(cube_budget=500, epsilon=0.2),
        matching="sfc",
    )
    script = subscription_churn_script(scenario, list(range(7)), seed=3)
    run_scripted_lockstep(network, script)
    # Same digest as the Hilbert-curve pin in test_seed_determinism: routing
    # state depends on forwarding decisions only, not on the curve.
    assert _digest(network.routing_state()) == "2560e8cf4abaa55a"
