"""Tests of the benchmark harness's own logic (small inputs, a few seconds)."""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import List

import pytest

from perfbench import harness
from perfbench.harness import Instance, Publish, Subscribe, Unsubscribe
from perfbench.run import layer_diff
from perfbench.tracing import Tracer, attribute, install, layer_patches
from repro.pubsub.network import BrokerNetwork, tree_topology
from repro.sfc.zorder import ZOrderCurve
from repro.workloads.scenarios import auction_scenario


SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def declared(section: str) -> List[tuple]:
    return [(metric["name"], metric["unit"]) for metric in SPEC[section]]


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_spans_on_two_threads():
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    spans = {}

    def loop_thread():
        clock.now = 3.0
        spans["L1"] = tracer.begin("L1")
        clock.now = 3.5
        spans["L2"] = tracer.begin("L2")
        clock.now = 4.0
        tracer.end(spans["L2"])
        clock.now = 4.5
        tracer.end(spans["L1"])

    with tracer.request():
        clock.now = 1.0
        spans["A"] = tracer.begin("A")
        clock.now = 2.0
        spans["B"] = tracer.begin("B")
        worker = threading.Thread(target=loop_thread)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        clock.now = 5.0
        tracer.end(spans["B"])
        clock.now = 6.0
        with tracer.span("C"):
            clock.now = 7.0
        clock.now = 9.0
        tracer.end(spans["A"])
        clock.now = 10.0

    assert spans["B"].parent is spans["A"]
    assert spans["L2"].parent is spans["L1"]
    assert spans["L1"].parent is None  # the loop thread has its own stack
    assert {span.request for span in tracer.spans} == {0}
    seconds, unattributed, wall = attribute(tracer.spans, tracer.requests)
    # L1/L2 take the instants they overlap B; on each thread the innermost span wins.
    assert seconds == pytest.approx({"A": 4.0, "B": 1.5, "L1": 1.0, "L2": 0.5, "C": 1.0})
    assert unattributed == pytest.approx(2.0)
    assert wall == pytest.approx(10.0)
    assert sum(seconds.values()) + unattributed == pytest.approx(wall)


def test_spans_outside_a_request_are_not_recorded():
    tracer = Tracer()
    assert tracer.begin("idle") is None
    with tracer.span("idle"):
        pass
    assert tracer.spans == []


def test_install_restores_every_patched_attribute():
    before = {name: ZOrderCurve.__dict__.get(name) for name in ("key", "keys", "cube_key_ranges")}
    publish = BrokerNetwork.publish
    uninstall = install(Tracer(), layer_patches("zorder"))
    assert BrokerNetwork.publish is not publish
    assert "cube_key_ranges" in ZOrderCurve.__dict__
    uninstall()
    assert BrokerNetwork.publish is publish
    assert {name: ZOrderCurve.__dict__.get(name) for name in before} == before


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(x) for x in range(1, 41)]
    assert harness.tail(samples, per_instance=40) == (30.0, 75.0)
    # Two instances: the same percentile, now with 20 samples beyond it.
    assert harness.tail(samples, per_instance=20) == (20.0, 50.0)
    value, percentile = harness.tail([float(x) for x in range(11, 0, -1)], per_instance=11)
    assert value == 1.0 and percentile == pytest.approx(100.0 / 11)
    with pytest.raises(ValueError):
        harness.tail([1.0] * 10, per_instance=10)
    with pytest.raises(ValueError):
        harness.tail([1.0] * 30, per_instance=20)


def test_declared_workloads_are_the_harness_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in harness.WORKLOADS.values() if w.declared
    ]


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_same_seed_generates_identical_inputs(name):
    make_plan = harness.WORKLOADS[name].make_plan
    first, again, other = make_plan(5), make_plan(5), make_plan(6)
    assert len(again) == len(first)
    for instance, twin in zip(again, first):
        assert instance.ops == twin.ops
        assert instance.preload == twin.preload
        assert instance.teardown == twin.teardown
        assert instance.edges == twin.edges
        assert instance.schema.names == twin.schema.names
    assert [i.ops for i in other] != [i.ops for i in first]


def tiny_plan() -> List[Instance]:
    scenario = auction_scenario(num_subscriptions=24, num_events=12, seed=3)
    subscribes = [
        Subscribe(i % 7, f"c{i}", f"s{i}", constraints)
        for i, constraints in enumerate(scenario.subscriptions)
    ]
    ops = [
        *subscribes[20:],
        *[Publish(j % 7, f"e{j}", values) for j, values in enumerate(scenario.events)],
        Unsubscribe("c3", "s3"),
        Unsubscribe("c21", "s21"),
    ]
    return [harness._instance(scenario.schema, tree_topology(7), "sync", subscribes[:20], ops)]


def test_a_wrong_delivered_set_counts_as_failed(monkeypatch):
    plan = tiny_plan()
    assert harness.run_round(plan).failed == 0
    publish = BrokerNetwork.publish

    def drop_one(self, broker_id, event):
        delivered = publish(self, broker_id, event)
        return delivered - {min(delivered)} if delivered else {"nobody"}

    monkeypatch.setattr(BrokerNetwork, "publish", drop_one)
    result = harness.run_round(plan)
    assert result.failed == len(result.latencies["publish"]) == 12
    metrics, _ = harness.end_to_end([result] * 2, [1.0], 1.0)
    assert metrics["ok_ratio"][0] == pytest.approx(1 - 12 / result.attempted)
    assert [(name, unit) for name, (_, unit) in metrics.items()] == declared("end_to_end")


def test_traced_round_matches_untraced_and_adds_up():
    plan = tiny_plan()
    untraced = harness.run_round(plan)
    tracer = Tracer()
    traced = harness.run_round(plan, tracer)
    assert traced.counts == untraced.counts
    assert traced.failed == 0
    totals = harness.TracedTotals()
    totals.add(traced, untraced, tracer)
    assert abs(totals.attribution_gap()) < 1e-9
    assert totals.seconds["pubsub.broker.event"] > 0
    layers = harness.per_layer(totals)
    assert layers["pubsub.match_index.inserts"][0] > 0
    assert layers["pubsub.network.deliveries"][0] > 0
    assert [(name, unit) for name, (_, unit) in layers.items()] == declared("per_layer")


def test_layer_diff_reports_per_workload_deltas():
    base = {"w": {"per_layer": {"a.s": {"value": 2.0, "unit": "s"}}}}
    head = {"w": {"per_layer": {"a.s": {"value": 1.5, "unit": "s"}}}}
    (title, row) = layer_diff(base, head)
    assert title == "w:"
    assert "a.s" in row and "-0.5" in row and "-25.0%" in row
