"""Workloads, rounds and metrics of the end-to-end broker benchmark.

A workload turns a seed into instances.  An instance is one network: a
topology, the subscriptions preloaded during set-up, and a fixed list of user
calls (subscribe, unsubscribe, publish) made one at a time by one caller,
ending with the withdrawal of every subscription still live.  Each call
starts from the scenario's raw constraint or value dict, so quantisation is
part of what it pays, and returns only after the operation has propagated
(the caller flushes after subscribe and unsubscribe; ``publish`` flushes
itself).  Every network runs the paper's configuration: SFC matching,
approximate covering and the default ``IndexConfig``.

A *round* runs every instance of the workload on fresh networks.  A run
repeats rounds until their timed phases add up to the requested seconds.
Because every round does the same work, the count metrics must repeat exactly
from round to round and from run to run of the same seed, and per-round
figures (tails, per-layer times) stay comparable when the program gets faster.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.index.config import IndexConfig
from repro.net.net_transport import NetTransport
from repro.pubsub.network import BrokerNetwork, tree_topology
from repro.pubsub.schema import AttributeSchema
from repro.pubsub.subscription import Event, Subscription
from repro.workloads.scenarios import (
    auction_scenario,
    sensor_network_scenario,
    stock_market_scenario,
)
from repro.workloads.topologies import make_topology

from .tracing import Tracer, attribute, install, layer_patches

#: Seed of every network (the workload seed drives only the inputs).
NETWORK_SEED = 0

#: Set-up is measured at least this many times, and for at least this many
#: seconds in all, per run; ``setup_s`` is the median.  (Building an empty
#: overlay takes about a millisecond, so a few samples would be mostly noise.)
MIN_SETUPS = 3
MIN_SETUP_SECONDS = 0.5

#: A tail latency is the order statistic with this many samples above it.
TAIL_SAMPLES_BEYOND = 10

#: Operation kinds, in report order.
KINDS = ("subscribe", "unsubscribe", "publish")


# --------------------------------------------------------------------- plans
@dataclass(frozen=True)
class Subscribe:
    broker: Hashable
    client: Hashable
    sub_id: str
    constraints: Mapping[str, Tuple[float, float]]


@dataclass(frozen=True)
class Unsubscribe:
    client: Hashable
    sub_id: str


@dataclass(frozen=True)
class Publish:
    broker: Hashable
    event_id: str
    values: Mapping[str, float]


Op = Union[Subscribe, Unsubscribe, Publish]


@dataclass
class Instance:
    """One network's work, generated from the workload seed.

    Set-up builds the overlay and makes the ``preload`` calls; the timed
    phase makes the ``ops`` calls and then the ``teardown`` calls, which
    withdraw every subscription still live, newest first.
    """

    schema: AttributeSchema
    edges: List[Tuple[Hashable, Hashable]]
    transport: str  # "sync" or "net"
    preload: List[Subscribe]
    ops: List[Op]
    teardown: List[Unsubscribe] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: seed -> the instances one round runs, each on a fresh network.
    make_plan: Callable[[int], List[Instance]]
    #: Listed in ``BENCHMARK.json``; the others run only when named.
    declared: bool = True


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds hash with SHA-512, so the stream is the same in every process.
    return random.Random(f"perfbench:{workload}:{seed}")


def _rotation(rng: random.Random, brokers: Sequence[Hashable]) -> Callable[[int], Hashable]:
    """Round-robin over ``brokers`` from a seeded starting point."""
    offset = rng.randrange(len(brokers))
    return lambda i: brokers[(offset + i) % len(brokers)]


def _subscribes(scenario, home: Callable[[int], Hashable], prefix: str = "") -> List[Subscribe]:
    return [
        Subscribe(home(i), f"{prefix}c{i}", f"{prefix}s{i}", constraints)
        for i, constraints in enumerate(scenario.subscriptions)
    ]


def _publishes(scenario, origin: Callable[[int], Hashable], prefix: str = "") -> List[Publish]:
    return [
        Publish(origin(j), f"{prefix}e{j}", values) for j, values in enumerate(scenario.events)
    ]


def _instance(schema: AttributeSchema, edges, transport: str, preload: List[Subscribe],
              ops: List[Op]) -> Instance:
    """Complete an instance with the teardown of whatever the calls leave live.

    The teardown withdraws the newest subscription first, which undoes the
    covering relations in the order they were built: withdrawals then cost
    what a plain withdrawal costs, and promotions are left to the workload
    that withdraws at random (``churn-sensor``).
    """
    live: Dict[str, Subscribe] = {op.sub_id: op for op in preload}
    for op in ops:
        if type(op) is Subscribe:
            live[op.sub_id] = op
        elif type(op) is Unsubscribe:
            del live[op.sub_id]
    teardown = [Unsubscribe(op.client, op.sub_id) for op in reversed(live.values())]
    return Instance(schema, list(edges), transport, preload, ops, teardown)


# Sizes: a round of each workload takes 3 to 16 seconds on one core of a
# 2-core x86 VM.  Every operation kind gets enough calls per round for
# a tail, and few enough that the tail percentile stays below the share of
# calls a garbage-collection pass or a socket wait lands on.
STOCK_INSTANCES = 2
STOCK_SUBSCRIPTIONS = 100
STOCK_EVENTS_PER_SUBSCRIBE = 5
AUCTION_INSTANCES = 3
AUCTION_SUBSCRIPTIONS = 500
AUCTION_EVENTS = 400
SENSOR_INSTANCES = 3
SENSOR_POPULATION = 60
SENSOR_BLOCKS = 100
WIRE_PRELOAD = 200
WIRE_SUBSCRIPTIONS = 100
WIRE_EVENTS = 200


def plan_sub_stock(seed: int) -> List[Instance]:
    """Subscribe stock scenarios into empty trees, publishing as they grow.

    Each subscribe is followed by a few publishes, so lookups meet the flat
    stores at every size and fill level of the pending buffer rather than
    only the state the last insert left.  A round runs two seeded scenarios,
    because per-subscription cost varies widely with the rectangle's shape.
    """
    rng = _rng("sub-stock", seed)
    instances = []
    for n in range(STOCK_INSTANCES):
        prefix = f"n{n}-"
        scenario = stock_market_scenario(
            num_subscriptions=STOCK_SUBSCRIPTIONS,
            num_events=STOCK_SUBSCRIPTIONS * STOCK_EVENTS_PER_SUBSCRIBE,
            seed=rng.randrange(2**32),
        )
        brokers = list(range(15))
        subscribes = _subscribes(scenario, _rotation(rng, brokers), prefix)
        publishes = _publishes(scenario, _rotation(rng, brokers), prefix)
        step = STOCK_EVENTS_PER_SUBSCRIBE
        ops: List[Op] = []
        for i, subscribe in enumerate(subscribes):
            ops.append(subscribe)
            ops.extend(publishes[i * step : (i + 1) * step])
        instances.append(_instance(scenario.schema, tree_topology(15), "sync", [], ops))
    return instances


def _auction_plan(seed: int, name: str, transport: str, preload: int, subscribes: int,
                  events: int) -> List[Instance]:
    """Auction instances on trees: the preload, then timed subscribes and publishes.

    How many subscriptions get forwarded hangs on the few with the highest
    price ceilings, so one round runs several seeded scenarios.
    """
    rng = _rng(name, seed)
    instances = []
    for n in range(AUCTION_INSTANCES):
        prefix = f"n{n}-"
        scenario = auction_scenario(
            num_subscriptions=preload + subscribes, num_events=events, seed=rng.randrange(2**32)
        )
        brokers = list(range(15))
        everyone = _subscribes(scenario, _rotation(rng, brokers), prefix)
        ops: List[Op] = [*everyone[preload:], *_publishes(scenario, _rotation(rng, brokers), prefix)]
        instances.append(
            _instance(scenario.schema, tree_topology(15), transport, everyone[:preload], ops)
        )
    return instances


def plan_pub_auction(seed: int) -> List[Instance]:
    """Publish into trees preloaded with auction subscriptions."""
    return _auction_plan(seed, "pub-auction", "sync", AUCTION_SUBSCRIPTIONS, 0, AUCTION_EVENTS)


def plan_wire_auction(seed: int) -> List[Instance]:
    """The auction workload over loopback TCP: subscribe, then publish."""
    return _auction_plan(seed, "wire-auction", "net", WIRE_PRELOAD, WIRE_SUBSCRIPTIONS,
                         WIRE_EVENTS)


def plan_churn_sensor(seed: int) -> List[Instance]:
    """Steady-population churn, 1 sub : 1 unsub : 4 pubs, on scale-free overlays.

    The overlay's hub degree varies a lot from seed to seed, so one round
    runs several seeded overlays and scenarios and reports them together.
    """
    rng = _rng("churn-sensor", seed)
    instances = []
    for n in range(SENSOR_INSTANCES):
        prefix = f"n{n}-"
        topology = make_topology("scale-free", 16, seed=rng.randrange(2**32))
        scenario = sensor_network_scenario(
            num_subscriptions=SENSOR_POPULATION + SENSOR_BLOCKS,
            num_events=4 * SENSOR_BLOCKS,
            seed=rng.randrange(2**32),
        )
        brokers = topology.broker_ids
        everyone = _subscribes(scenario, _rotation(rng, brokers), prefix)
        publishes = _publishes(scenario, _rotation(rng, brokers), prefix)
        live = list(everyone[:SENSOR_POPULATION])
        ops: List[Op] = []
        for block in range(SENSOR_BLOCKS):
            arrival = everyone[SENSOR_POPULATION + block]
            ops.append(arrival)
            live.append(arrival)
            victim = live.pop(rng.randrange(len(live)))
            ops.append(Unsubscribe(victim.client, victim.sub_id))
            ops.extend(publishes[4 * block : 4 * block + 4])
        instances.append(
            _instance(scenario.schema, topology.overlay, "sync",
                      everyone[:SENSOR_POPULATION], ops)
        )
    return instances


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "sub-stock",
            "subscribe path: decomposition, covering checks, match-index inserts and "
            "flat-store rebuilds dominate",
            plan_sub_stock,
        ),
        Workload(
            "pub-auction",
            "publish path: ~470 of 500 subscribers match each event, so local delivery "
            "dominates; subscription layers idle",
            plan_pub_auction,
        ),
        Workload(
            "churn-sensor",
            "withdrawals: promotions, flat-store tombstones and pending-buffer lookups on "
            "scale-free overlays with a hub",
            plan_churn_sensor,
        ),
        # Not declared: on a 2-vCPU VM its publish median moved between
        # 2.2 and 3.7 ms across ten seeds (each hop is a thread handoff), a
        # quartile spread of 0.28.  It is the only workload that reaches the
        # net layer, so it stays runnable by name for traced runs.
        Workload(
            "wire-auction",
            "the TCP transport: frame encoding, JSON codec and socket waits on every hop",
            plan_wire_auction,
            declared=False,
        ),
    )
}


# -------------------------------------------------------------------- rounds
def build_network(instance: Instance) -> BrokerNetwork:
    return BrokerNetwork.from_topology(
        instance.schema,
        instance.edges,
        covering="approximate",
        matching="sfc",
        seed=NETWORK_SEED,
        transport=NetTransport() if instance.transport == "net" else None,
    )


def close_network(network: BrokerNetwork) -> None:
    close = getattr(network.transport, "close", None)
    if close is not None:
        close()


@dataclass
class RoundResult:
    """One round, summed over its instances."""

    instances: int = 0
    setups: List[float] = field(default_factory=list)
    latencies: Dict[str, List[float]] = field(default_factory=lambda: {k: [] for k in KINDS})
    phase_s: float = 0.0
    #: Seconds inside the timed phase's calls (set-up calls excluded).
    call_wall_s: float = 0.0
    timed_calls: int = 0
    attempted: int = 0
    failed: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    layer_counts: Dict[str, float] = field(default_factory=dict)


def _add(totals: Dict[str, float], counts: Mapping[str, float]) -> None:
    for key, value in counts.items():
        totals[key] = totals.get(key, 0) + value


class _Calls:
    """Makes user calls one at a time, timing each and checking it untimed."""

    def __init__(self, network: BrokerNetwork, schema: AttributeSchema,
                 result: RoundResult, tracer: Optional[Tracer]) -> None:
        self.network = network
        self.schema = schema
        self.result = result
        self.request = tracer.request if tracer is not None else nullcontext
        self.quantise = (lambda: tracer.span("pubsub.schema")) if tracer is not None else nullcontext
        self.checking = 0.0
        self.wall = 0.0

    def run(self, ops: Sequence[Op]) -> None:
        clock = time.perf_counter
        network, schema, result = self.network, self.schema, self.result
        request, quantise = self.request, self.quantise
        latencies = result.latencies
        for op in ops:
            outcome = message = None
            ok = True
            start = clock()
            try:
                with request():
                    if type(op) is Publish:
                        with quantise():
                            message = Event(schema, op.values, event_id=op.event_id)
                        outcome = network.publish(op.broker, message)
                    elif type(op) is Subscribe:
                        with quantise():
                            message = Subscription(schema, op.constraints, sub_id=op.sub_id)
                        network.subscribe(op.broker, op.client, message)
                        network.flush()
                    else:
                        outcome = network.unsubscribe(op.client, op.sub_id)
                        network.flush()
            except Exception:
                ok = False
                if not result.failed:
                    traceback.print_exc(file=sys.stderr)
            elapsed = clock() - start
            self.wall += elapsed
            check_start = clock()
            if type(op) is Publish:
                latencies["publish"].append(elapsed)
                ok = ok and outcome == network.expected_recipients(message, origin=op.broker)
            elif type(op) is Subscribe:
                latencies["subscribe"].append(elapsed)
            else:
                latencies["unsubscribe"].append(elapsed)
                ok = ok and outcome is True
            result.attempted += 1
            if not ok:
                result.failed += 1
            self.checking += clock() - check_start


def run_round(plan: Sequence[Instance], tracer: Optional[Tracer] = None) -> RoundResult:
    """Every instance of the plan on a fresh network: set-up, calls, teardown.

    Preload calls are timed like the others but belong to set-up.  With a
    tracer the layer wrappers are installed before the networks are built
    and removed afterwards; spans are recorded only inside the timed phase's
    calls.  Checks run outside the timed region: the linear-scan oracle after
    each publish, the found flag after each unsubscribe, and an empty routing
    state after the teardown.
    """
    result = RoundResult()
    uninstall = install(tracer, layer_patches(IndexConfig().curve)) if tracer else None
    try:
        for instance in plan:
            _run_instance(instance, tracer, result)
    finally:
        if uninstall is not None:
            uninstall()
    return result


def _run_instance(instance: Instance, tracer: Optional[Tracer], result: RoundResult) -> None:
    gc.collect()
    clock = time.perf_counter
    result.instances += 1
    start = clock()
    network = build_network(instance)
    try:
        _Calls(network, instance.schema, result, None).run(instance.preload)
        result.setups.append(clock() - start)
        calls = _Calls(network, instance.schema, result, tracer)
        before = layer_snapshot(network) if tracer is not None else None
        phase_start = clock()
        calls.run(instance.ops)
        _add(result.counts, {
            "routing_entries": network.routing_table_entries(),
            "subscription_messages": network.subscription_messages,
            "event_messages": network.event_messages,
            "subscribe_calls": len(instance.preload)
            + sum(type(op) is Subscribe for op in instance.ops),
            "publish_calls": sum(type(op) is Publish for op in instance.ops),
        })
        calls.run(instance.teardown)
        result.phase_s += clock() - phase_start - calls.checking
        result.call_wall_s += calls.wall
        result.timed_calls += len(instance.ops) + len(instance.teardown)
        if network.routing_table_entries():
            print("perfbench: routing state left after the teardown", file=sys.stderr)
            result.failed += 1
        if before is not None:
            after = layer_snapshot(network)
            _add(result.layer_counts, {key: after[key] - before[key] for key in after})
    finally:
        close_network(network)


def measure_setup(instance: Instance) -> float:
    """Seconds to build an overlay and preload it (the network is then closed)."""
    start = time.perf_counter()
    network = build_network(instance)
    try:
        _Calls(network, instance.schema, RoundResult(), None).run(instance.preload)
        return time.perf_counter() - start
    finally:
        close_network(network)


def layer_snapshot(network: BrokerNetwork) -> Dict[str, int]:
    """Counters the layers publish: ``collect_stats()`` and the interface tables."""
    stats = network.collect_stats()
    brokers = [broker_stats.as_dict() for broker_stats in stats.per_broker.values()]
    totals = {key: sum(row[key] for row in brokers) for key in brokers[0]}
    inserts = sum(
        table.match_stats().inserts
        for broker in network.brokers.values()
        for table in broker.routing_table.interface_tables().values()
    )
    return {
        "deliveries": len(network.deliveries),
        "match_tests": totals["match_tests"],
        "delivered_locally": totals["events_delivered_locally"],
        "promotions": totals["promotions"],
        "covering_checks": totals["covering_checks"],
        "covering_work_units": totals["covering_check_runs"],
        "suppressed": totals["subscriptions_suppressed"],
        "lookups": totals["match_index_lookups"],
        "candidates": totals["match_index_candidates"],
        "false_positives": totals["match_index_false_positives"],
        "profile_hits": stats.profile_cache_hits,
        "profile_misses": stats.profile_cache_misses,
        "messages.subscription": stats.subscription_messages,
        "messages.unsubscription": stats.unsubscription_messages,
        "messages.event": stats.event_messages,
        "inserts": inserts,
    }


def warm_up(plan: Sequence[Instance]) -> None:
    """Pay one-time costs (first calls, lazy imports) before anything is timed."""
    first = plan[0]
    head = [op for op in first.ops if type(op) is Subscribe][:3]
    head += [op for op in first.ops if type(op) is Publish][:3]
    run_round([_instance(first.schema, first.edges, first.transport, first.preload[:5], head)])


# ------------------------------------------------------------------- metrics
def tail(samples: Sequence[float], per_instance: int) -> Tuple[float, float]:
    """``(value, percentile)``: the highest percentile with 10 samples beyond it.

    The percentile is fixed by one instance (``per_instance`` calls of the
    kind, 10 of them beyond it), so it does not climb when a faster program
    fits more rounds into a run; over ``k`` instances' samples the value is
    the order statistic with ``10 * k`` samples above it.
    """
    if per_instance <= TAIL_SAMPLES_BEYOND or len(samples) % per_instance:
        raise ValueError(
            f"need whole instances of more than {TAIL_SAMPLES_BEYOND} samples, "
            f"got {len(samples)} samples of {per_instance} per instance"
        )
    beyond = TAIL_SAMPLES_BEYOND * (len(samples) // per_instance)
    ordered = sorted(samples)
    return ordered[-beyond - 1], 100.0 * (per_instance - TAIL_SAMPLES_BEYOND) / per_instance


#: Metrics printed with every run but not declared in ``BENCHMARK.json``.
#: In three passes of ten seeds each, on a 2-vCPU VM whose speed drifts
#: 1.0-1.6x over seconds to minutes, some workload's quartile spread exceeded
#: the largest bound the benchmark may set: publish p50 0.41 (pub-auction),
#: subscribe p50 0.34 and ops/s 0.28 (churn-sensor), the withdrawal rate 0.48
#: and the subscribe and withdrawal tails 0.27-0.35 (costs there are two-mode:
#: a call is cheap unless it propagates far or promotes covered
#: subscriptions, and the costly share depends on the scenario).
UNDECLARED = ("subscribe_p50_ms", "subscribe_tail_ms", "unsubscribe_per_s",
              "unsubscribe_p50_ms", "unsubscribe_tail_ms", "publish_p50_ms", "ops_per_s")


def end_to_end(rounds: Sequence[RoundResult], setups: Sequence[float],
               peak_rss_mb: float) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, object]]:
    """The user-facing metrics of a run, plus details: the tails' percentiles
    and sample counts, and the latencies in :data:`UNDECLARED`."""
    measured: Dict[str, Tuple[float, str]] = {"setup_s": (statistics.median(setups), "s")}
    details: Dict[str, object] = {"setup_samples_s": list(setups)}
    for kind in KINDS:
        pooled = [x for r in rounds for x in r.latencies[kind]]
        per_instance = len(rounds[0].latencies[kind]) // rounds[0].instances
        value, percentile = tail(pooled, per_instance)
        measured[f"{kind}_per_s"] = (len(pooled) / math.fsum(pooled), "1/s")
        measured[f"{kind}_p50_ms"] = (1e3 * statistics.median(pooled), "ms")
        measured[f"{kind}_tail_ms"] = (1e3 * value, "ms")
        details[f"{kind}_tail"] = {
            "percentile": percentile,
            "samples_per_instance": per_instance,
            "rounds": len(rounds),
            "samples": len(pooled),
        }
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    counts = rounds[0].counts
    measured.update(
        {
            "ops_per_s": (
                sum(r.timed_calls for r in rounds) / math.fsum(r.phase_s for r in rounds), "1/s"),
            "ok_ratio": (1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "routing_entries": (float(counts["routing_entries"]), "count"),
            "sub_msgs_per_subscribe": (
                counts["subscription_messages"] / counts["subscribe_calls"], "ratio"),
            "event_msgs_per_publish": (
                counts["event_messages"] / counts["publish_calls"], "ratio"),
        }
    )
    details["undeclared"] = {name: measured.pop(name) for name in UNDECLARED}
    return measured, details


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Span name -> per-layer time metric.  Every span name maps to one metric,
#: so the time metrics plus ``harness.unattributed_s`` add up to the wall.
SPAN_METRICS = {
    "pubsub.network": "pubsub.network.self_s",
    "pubsub.schema": "pubsub.schema.quantise_s",
    "pubsub.broker.event": "pubsub.broker.event_self_s",
    "pubsub.broker.subscription": "pubsub.broker.subscription_self_s",
    "pubsub.subscription_store": "pubsub.subscription_store.profile_s",
    "pubsub.routing_table.covering": "pubsub.routing_table.covering_s",
    "pubsub.routing_table.table": "pubsub.routing_table.table_self_s",
    "pubsub.match_index.insert": "pubsub.match_index.insert_self_s",
    "pubsub.match_index.remove": "pubsub.match_index.remove_s",
    "pubsub.match_index.probe": "pubsub.match_index.probe_s",
    "core.decomposition": "core.decomposition.s",
    "sfc.cube_keys": "sfc.cube_keys_s",
    "sfc.event_key": "sfc.event_key_s",
    "index.sfc_array.add": "index.sfc_array.add_s",
    "index.sfc_array.remove": "index.sfc_array.remove_s",
    "index.sfc_array.rebuild": "index.sfc_array.rebuild_s",
    "index.sfc_array.stab": "index.sfc_array.stab_s",
    "sim.transport": "sim.transport.self_s",
    "net.send": "net.send_s",
    "net.flush_wait": "net.flush_wait_s",
    "net.codec": "net.codec_s",
}


@dataclass
class TracedTotals:
    """Per-layer sums over the traced rounds of a run."""

    rounds: int = 0
    seconds: Dict[str, float] = field(default_factory=dict)
    unattributed_s: float = 0.0
    traced_wall_s: float = 0.0
    untraced_wall_s: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    def add(self, traced: RoundResult, untraced: RoundResult, tracer: Tracer) -> None:
        seconds, unattributed, wall = attribute(tracer.spans, tracer.requests)
        unknown = set(seconds) - set(SPAN_METRICS)
        if unknown:
            raise ValueError(f"spans without a layer metric: {sorted(unknown)}")
        self.rounds += 1
        for name, value in seconds.items():
            self.seconds[name] = self.seconds.get(name, 0.0) + value
        self.unattributed_s += unattributed
        self.traced_wall_s += wall
        self.untraced_wall_s += untraced.call_wall_s
        merged = dict(traced.layer_counts)
        merged.update(tracer.counts)
        for name, value in merged.items():
            self.counts[name] = self.counts.get(name, 0.0) + value

    def attribution_gap(self) -> float:
        """Layer seconds plus the remainder, minus the traced wall (should be ~0)."""
        return math.fsum(self.seconds.values()) + self.unattributed_s - self.traced_wall_s


def per_layer(totals: TracedTotals) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, per round (every round does the same work)."""
    n = totals.rounds
    c = {name: value / n for name, value in totals.counts.items()}
    get = lambda name: c.get(name, 0.0)  # noqa: E731
    metrics: Dict[str, Tuple[float, str]] = {
        metric: (totals.seconds.get(span, 0.0) / n, "s") for span, metric in SPAN_METRICS.items()
    }
    inserts = get("inserts")
    metrics.update(
        {
            "pubsub.network.deliveries": (get("deliveries"), "count"),
            "pubsub.broker.local_match_tests": (get("match_tests"), "count"),
            "pubsub.broker.local_hit_ratio": (
                _ratio(get("delivered_locally"), get("match_tests")), "ratio"),
            "pubsub.broker.promotions": (get("promotions"), "count"),
            "pubsub.subscription_store.hit_ratio": (
                _ratio(get("profile_hits"), get("profile_hits") + get("profile_misses")), "ratio"),
            "pubsub.routing_table.covering_checks": (get("covering_checks"), "count"),
            "pubsub.routing_table.covering_work_units": (get("covering_work_units"), "count"),
            "pubsub.routing_table.suppress_ratio": (
                _ratio(get("suppressed"), get("covering_checks")), "ratio"),
            "pubsub.match_index.inserts": (inserts, "count"),
            "pubsub.match_index.runs_per_insert": (
                _ratio(get("index.sfc_array.runs_added"), get("index.sfc_array.adds")), "ratio"),
            "pubsub.match_index.lookups": (get("lookups"), "count"),
            "pubsub.match_index.candidates_per_lookup": (
                _ratio(get("candidates"), get("lookups")), "ratio"),
            "pubsub.match_index.false_positive_ratio": (
                _ratio(get("false_positives"), get("candidates")), "ratio"),
            "core.decomposition.calls": (get("core.decomposition.calls"), "count"),
            "core.decomposition.cubes_per_call": (
                _ratio(get("core.decomposition.cubes"), get("core.decomposition.calls")), "ratio"),
            "core.decomposition.repeat_ratio": (
                _ratio(get("core.decomposition.repeats"), get("core.decomposition.calls")), "ratio"),
            "index.sfc_array.rebuilds": (get("index.sfc_array.rebuilds"), "count"),
            "index.sfc_array.rebuilds_per_insert": (
                _ratio(get("index.sfc_array.rebuilds"), inserts), "ratio"),
            "sim.transport.subscription_messages": (get("messages.subscription"), "count"),
            "sim.transport.unsubscription_messages": (get("messages.unsubscription"), "count"),
            "sim.transport.event_messages": (get("messages.event"), "count"),
            "net.frames": (get("net.frames_encoded"), "count"),
            "net.bytes_per_frame": (
                _ratio(get("net.frame_bytes"), get("net.frames_encoded")), "B"),
            "harness.unattributed_s": (totals.unattributed_s / n, "s"),
            "harness.traced_wall_s": (totals.traced_wall_s / n, "s"),
            "harness.untraced_wall_s": (totals.untraced_wall_s / n, "s"),
            "harness.trace_overhead": (
                _ratio(totals.traced_wall_s, totals.untraced_wall_s), "ratio"),
        }
    )
    return metrics
