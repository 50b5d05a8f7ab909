"""IndexConfig: the single source of truth for every index knob."""

from __future__ import annotations

import dataclasses

import pytest

from repro.index.config import (
    DEFAULT_CUBE_BUDGET,
    DEFAULT_PRECISION_BITS,
    DEFAULT_RUN_BUDGET,
    PRECISION_BIT_BUDGET,
    IndexConfig,
    resolve_index_config,
)
from repro.pubsub.schema import Attribute, AttributeSchema
from repro.pubsub.match_index import MatchIndex


def _schema(num_attributes: int = 2, order: int = 6) -> AttributeSchema:
    return AttributeSchema(
        [Attribute(f"a{i}", 0.0, 100.0) for i in range(num_attributes)], order=order
    )


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
        index = MatchIndex(_schema(num_attributes=dims, order=4), precision_bits=1)
        assert index.precision_bits == 1


class TestResolution:
    def test_none_overrides_are_skipped(self):
        base = IndexConfig(curve="hilbert", run_budget=8)
        assert resolve_index_config(base, curve=None, run_budget=None) == base

    def test_overrides_apply(self):
        resolved = resolve_index_config(None, curve="gray", epsilon=0.25)
        assert resolved.curve == "gray"
        assert resolved.epsilon == 0.25
        assert resolved.run_budget == DEFAULT_RUN_BUDGET

    def test_config_passthrough_identity(self):
        base = IndexConfig(curve="hilbert")
        assert resolve_index_config(base) is base

    def test_sugar_equivalent_to_explicit_config(self):
        schema = _schema()
        sugared = MatchIndex(schema, curve="hilbert", run_budget=8)
        explicit = MatchIndex(
            schema, config=IndexConfig(curve="hilbert", run_budget=8)
        )
        assert sugared.config == explicit.config
        assert sugared.config.cache_key() == explicit.config.cache_key()


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


class TestReExports:
    def test_match_index_module_reexports_the_same_objects(self):
        from repro.pubsub import match_index

        assert match_index.IndexConfig is IndexConfig
        assert match_index.DEFAULT_RUN_BUDGET == DEFAULT_RUN_BUDGET
        assert match_index.PRECISION_BIT_BUDGET == PRECISION_BIT_BUDGET

    def test_package_level_exports(self):
        import repro.index as index_pkg
        import repro.pubsub as pubsub_pkg

        assert index_pkg.IndexConfig is IndexConfig
        assert pubsub_pkg.IndexConfig is IndexConfig
        assert index_pkg.resolve_index_config is resolve_index_config

    def test_routing_reexports(self):
        from repro.pubsub.routing_table import DEFAULT_CUBE_BUDGET as rt_budget

        assert rt_budget == DEFAULT_CUBE_BUDGET
