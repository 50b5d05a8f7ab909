"""IndexConfig: the single source of truth for every index knob."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.covering import CoveringProfiler
from repro.index.config import (
    DEFAULT_CUBE_BUDGET,
    DEFAULT_PRECISION_BITS,
    DEFAULT_RUN_BUDGET,
    PRECISION_BIT_BUDGET,
    IndexConfig,
)
from repro.pubsub.broker import Broker
from repro.pubsub.match_index import MatchIndex
from repro.pubsub.network import BrokerNetwork, chain_topology
from repro.pubsub.routing_table import (
    ApproximateCoveringStrategy,
    InterfaceTable,
    RoutingTable,
    make_covering_strategy,
)
from repro.pubsub.schema import Attribute, AttributeSchema


def _schema(num_attributes: int = 2, order: int = 6) -> AttributeSchema:
    return AttributeSchema(
        [Attribute(f"a{i}", 0.0, 100.0) for i in range(num_attributes)], order=order
    )


# Every routing-stack constructor takes its index knobs through ``config=``
# only; each entry builds one with extra keywords and names the keywords it
# no longer accepts.
_COVERING_KNOBS = ("epsilon", "cube_budget", "curve")
# Broker and BrokerNetwork have one promotion path and always share profiles,
# so they take no switch for either.
_NETWORK_KNOBS = (
    "epsilon",
    "cube_budget",
    "run_budget",
    "curve",
    "promotion",
    "profile_sharing",
)
_CONSTRUCTORS = {
    "MatchIndex": (
        lambda **kw: MatchIndex(_schema(), **kw),
        ("run_budget", "precision_bits", "curve"),
    ),
    "InterfaceTable": (
        lambda **kw: InterfaceTable("if", _schema(), matching="sfc", **kw),
        ("run_budget", "curve"),
    ),
    "RoutingTable": (
        lambda **kw: RoutingTable(_schema(), matching="sfc", **kw),
        ("run_budget", "curve"),
    ),
    "ApproximateCoveringStrategy": (
        lambda **kw: ApproximateCoveringStrategy(2, 6, **kw),
        _COVERING_KNOBS,
    ),
    "make_covering_strategy": (
        lambda **kw: make_covering_strategy("approximate", _schema(), **kw),
        _COVERING_KNOBS,
    ),
    "CoveringProfiler": (lambda **kw: CoveringProfiler(2, 6, **kw), _COVERING_KNOBS),
    "Broker": (lambda **kw: Broker(broker_id=0, schema=_schema(), **kw), _NETWORK_KNOBS),
    "BrokerNetwork": (lambda **kw: BrokerNetwork(_schema(), **kw), _NETWORK_KNOBS),
    "BrokerNetwork.from_topology": (
        lambda **kw: BrokerNetwork.from_topology(_schema(), chain_topology(2), **kw),
        _NETWORK_KNOBS,
    ),
}
_REMOVED_VALUES = {
    "epsilon": 0.1,
    "cube_budget": 10,
    "run_budget": 8,
    "precision_bits": 3,
    "curve": "hilbert",
    "promotion": "incremental",
    "profile_sharing": True,
}
_REMOVED_KEYWORDS = [
    pytest.param(name, keyword, id=f"{name}-{keyword}")
    for name, (_, keywords) in _CONSTRUCTORS.items()
    for keyword in keywords
]


class TestValidation:
    def test_defaults_are_valid(self):
        config = IndexConfig()
        assert config.curve == "zorder"
        assert config.run_budget == DEFAULT_RUN_BUDGET
        assert config.cube_budget == DEFAULT_CUBE_BUDGET

    def test_fields_are_the_six_knobs(self):
        assert [f.name for f in dataclasses.fields(IndexConfig)] == [
            "curve",
            "precision_bits",
            "precision_bit_budget",
            "run_budget",
            "cube_budget",
            "epsilon",
        ]

    @pytest.mark.parametrize("kwargs", [{"backend": "avl"}, {"shards": 2}])
    def test_removed_storage_knobs_are_rejected(self, kwargs):
        # There is one segment store, so no knob selects or splits it.
        with pytest.raises(TypeError):
            IndexConfig(**kwargs)

    @pytest.mark.parametrize("name, keyword", _REMOVED_KEYWORDS)
    def test_removed_constructor_keywords_are_rejected(self, name, keyword):
        build, _ = _CONSTRUCTORS[name]
        build()  # the constructor itself works without the keyword
        with pytest.raises(TypeError):
            build(**{keyword: _REMOVED_VALUES[keyword]})

    def test_unknown_curve_uses_canonical_message(self):
        with pytest.raises(ValueError, match="unknown curve kind"):
            IndexConfig(curve="peano")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"run_budget": 0},
            {"precision_bits": 0},
            {"precision_bit_budget": 0},
            {"cube_budget": 0},
            {"epsilon": -0.1},
            {"epsilon": 1.0},
        ],
    )
    def test_out_of_range_knobs_raise(self, kwargs):
        with pytest.raises(ValueError):
            IndexConfig(**kwargs)

    def test_frozen(self):
        config = IndexConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.curve = "hilbert"


class TestPrecisionBits:
    def test_explicit_wins_over_budget(self):
        assert IndexConfig(precision_bits=9).effective_precision_bits(4) == 9

    def test_derived_from_budget(self):
        config = IndexConfig()
        # budget // dims, capped at the default per-dimension precision
        assert config.effective_precision_bits(2) == min(
            DEFAULT_PRECISION_BITS, PRECISION_BIT_BUDGET // 2
        )
        assert config.effective_precision_bits(4) == PRECISION_BIT_BUDGET // 4

    def test_high_dimensional_budget_exhaustion_raises(self):
        config = IndexConfig()
        with pytest.raises(ValueError, match="precision bit budget"):
            config.effective_precision_bits(PRECISION_BIT_BUDGET + 1)

    def test_match_index_rejects_budget_exhaustion_loudly(self):
        """The old behaviour silently clamped to 0 bits; now it must raise."""
        dims = PRECISION_BIT_BUDGET + 1
        with pytest.raises(ValueError, match="precision bit budget"):
            MatchIndex(_schema(num_attributes=dims, order=4))

    def test_match_index_explicit_precision_escape_hatch(self):
        dims = PRECISION_BIT_BUDGET + 1
        index = MatchIndex(
            _schema(num_attributes=dims, order=4), config=IndexConfig(precision_bits=1)
        )
        assert index.precision_bits == 1

    def test_budget_exhaustion_error_names_the_config_fields(self):
        with pytest.raises(ValueError, match=r"IndexConfig\(precision_bits=\.\.\.\)"):
            IndexConfig().effective_precision_bits(PRECISION_BIT_BUDGET + 1)


class TestKeys:
    def test_cache_key_distinguishes_every_knob(self):
        base = IndexConfig()
        variants = [
            IndexConfig(curve="hilbert"),
            IndexConfig(precision_bits=3),
            IndexConfig(precision_bit_budget=24),
            IndexConfig(run_budget=8),
            IndexConfig(cube_budget=99),
            IndexConfig(epsilon=0.2),
        ]
        keys = {base.cache_key()} | {v.cache_key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_covering_key_ignores_storage_knobs(self):
        a = IndexConfig(precision_bits=3, run_budget=8)
        b = IndexConfig(precision_bits=5, run_budget=64)
        assert a.covering_key() == b.covering_key()
        assert (
            a.covering_key()
            != IndexConfig(epsilon=0.3).covering_key()
        )

    def test_as_dict_roundtrip(self):
        config = IndexConfig(curve="gray", run_budget=16, epsilon=0.1)
        assert IndexConfig(**config.as_dict()) == config

    def test_replace(self):
        config = IndexConfig()
        replaced = config.replace(curve="hilbert")
        assert replaced.curve == "hilbert"
        assert config.curve == "zorder"
        with pytest.raises(ValueError, match="unknown curve kind"):
            config.replace(curve="peano")


class TestExports:
    def test_package_level_exports(self):
        import repro.index as index_pkg
        import repro.pubsub as pubsub_pkg

        assert index_pkg.IndexConfig is IndexConfig
        assert pubsub_pkg.IndexConfig is IndexConfig
