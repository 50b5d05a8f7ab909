"""The online tuning loop: cost model, decisions, determinism, safety."""

from __future__ import annotations

import random

import pytest

from repro.index.config import IndexConfig
from repro.pubsub import BrokerNetwork, make_event, make_subscription, tree_topology
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.sfc.factory import CURVE_KINDS
from repro.tuning import AutoTuner, CostModel, default_candidates


@pytest.fixture(autouse=True)
def _no_ambient_autotune(monkeypatch):
    """These tests attach tuners explicitly; the ci.sh REPRO_AUTOTUNE pass
    must not bolt a second, implicit one onto every network they build."""
    monkeypatch.delenv("REPRO_AUTOTUNE", raising=False)


def _schema(order: int = 8) -> AttributeSchema:
    return AttributeSchema(
        [Attribute("x", 0.0, 100.0), Attribute("y", 0.0, 100.0)], order=order
    )


def _drive(network, seed=7, subs=50, events=120, brokers=4):
    """A deterministic subscribe-then-publish workload; returns delivery sets."""
    schema = network.schema
    rng = random.Random(seed)
    for i in range(subs):
        lo_x, lo_y = rng.uniform(0, 70), rng.uniform(0, 70)
        sub = make_subscription(
            schema,
            f"s{i}",
            x=(lo_x, lo_x + rng.uniform(1, 30)),
            y=(lo_y, lo_y + rng.uniform(1, 30)),
        )
        network.subscribe(i % brokers, f"c{i}", sub)
    out = []
    for j in range(events):
        event = make_event(
            schema, f"e{j}", x=rng.uniform(0, 100), y=rng.uniform(0, 100)
        )
        out.append(frozenset(network.publish(j % brokers, event)))
    return out


def _sfc_network(**kwargs):
    return BrokerNetwork.from_topology(
        _schema(), tree_topology(4), matching="sfc", seed=11, **kwargs
    )


class TestCostModel:
    def test_drift_gated_by_min_lookups(self):
        model = CostModel(min_lookups=10)
        assert model.drift(5, 9) is None
        assert model.drift(5, 10) == 0.5
        assert model.drift(0, 100) == 0.0

    def test_evaluate_is_deterministic(self):
        schema = _schema(order=6)
        rng = random.Random(3)
        subs = []
        for i in range(20):
            lo = (rng.randrange(0, 40), rng.randrange(0, 40))
            subs.append(
                (f"s{i}", tuple((l, l + rng.randrange(1, 20)) for l in lo))
            )
        probes = [
            (rng.randrange(0, 64), rng.randrange(0, 64)) for _ in range(30)
        ]
        model = CostModel()
        config = IndexConfig(run_budget=4)
        scores = {model.evaluate(schema, config, subs, probes) for _ in range(3)}
        assert len(scores) == 1


class TestCandidates:
    def test_default_candidates_cover_curves_and_budgets(self):
        config = IndexConfig(curve="zorder", run_budget=8)
        candidates = default_candidates(config)
        assert config not in candidates
        curves = {c.curve for c in candidates}
        assert curves >= set(CURVE_KINDS) - {"zorder"}
        budgets = {c.run_budget for c in candidates if c.curve == "zorder"}
        assert budgets == {4, 16}

    def test_run_budget_one_has_no_half_step(self):
        candidates = default_candidates(IndexConfig(run_budget=1))
        budgets = {c.run_budget for c in candidates}
        assert 0 not in budgets and 2 in budgets


class TestTunerWiring:
    def test_attach_requires_sfc_matching(self):
        network = BrokerNetwork.from_topology(_schema(), tree_topology(2))
        with pytest.raises(ValueError, match="matching='sfc'"):
            network.attach_tuner()

    def test_attach_returns_and_exposes_tuner(self):
        network = _sfc_network()
        assert network.tuner is None
        tuner = network.attach_tuner(drift_threshold=0.2)
        assert network.tuner is tuner
        assert tuner.drift_threshold == 0.2

    def test_prebuilt_tuner_with_kwargs_rejected(self):
        network = _sfc_network()
        tuner = AutoTuner(network)
        with pytest.raises(ValueError, match="not both"):
            network.attach_tuner(tuner, cooldown=2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drift_threshold": -0.1},
            {"cooldown": -1},
            {"min_gain": 1.0},
            {"sample_subscriptions": 0},
            {"probe_log_capacity": 0},
        ],
    )
    def test_constructor_validation(self, kwargs):
        with pytest.raises(ValueError):
            AutoTuner(_sfc_network(), **kwargs)

    def test_env_autotune_attaches_on_sfc_networks(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUTOTUNE", "1")
        assert _sfc_network().tuner is not None
        linear = BrokerNetwork.from_topology(_schema(), tree_topology(2))
        assert linear.tuner is None

    def test_env_autotune_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUTOTUNE", raising=False)
        assert _sfc_network().tuner is None


class TestTunerBehaviour:
    def test_tuned_equals_static_delivery(self):
        """The tuned ≡ static differential: tuning never changes semantics."""
        tuned = _sfc_network(run_budget=1)
        tuned.attach_tuner(drift_threshold=0.0, min_lookups=2, cooldown=0)
        static = _sfc_network(run_budget=1)
        assert _drive(tuned) == _drive(static)

    def test_tuner_actually_swaps_on_a_drifting_workload(self):
        network = _sfc_network(run_budget=1)
        tuner = network.attach_tuner(
            drift_threshold=0.05, min_lookups=4, cooldown=1
        )
        _drive(network)
        counters = tuner.counters()
        assert counters["swaps"] > 0
        assert counters["rebuilds"] >= counters["swaps"]
        assert counters["polls"] > 0

    def test_same_seed_runs_tune_identically(self):
        runs = []
        for _ in range(2):
            network = _sfc_network(run_budget=1)
            tuner = network.attach_tuner(
                drift_threshold=0.05, min_lookups=4, cooldown=1
            )
            deliveries = _drive(network)
            runs.append(
                (tuner.counters(), deliveries, network.routing_state())
            )
        assert runs[0] == runs[1]

    def test_tuned_does_less_work_than_drifted_static(self):
        tuned = _sfc_network(run_budget=1)
        tuned.attach_tuner(drift_threshold=0.05, min_lookups=4, cooldown=1)
        static = _sfc_network(run_budget=1)
        _drive(tuned)
        _drive(static)

        def work(network):
            return sum(
                broker.routing_table.match_work()[1]
                for broker in network.brokers.values()
            )

        assert work(tuned) < work(static)

    def test_counters_published_to_metrics(self):
        from repro.obs.registry import MetricsRegistry

        network = BrokerNetwork.from_topology(
            _schema(),
            tree_topology(4),
            matching="sfc",
            seed=11,
            metrics=MetricsRegistry(),
        )
        network.attach_tuner(drift_threshold=0.0, min_lookups=2, cooldown=0)
        _drive(network, events=40)
        scrape = network.scrape()
        assert "autotuner_total" in scrape
        assert 'counter="polls"' in scrape
