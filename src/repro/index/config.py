"""One frozen configuration object for the whole approximate-matching stack.

The paper's matching machinery trades false positives for probe speed through
a handful of knobs: which space-filling curve keys the space, how many
precision bits the decomposition snaps to, how many key runs a subscription
may occupy, and how many ε-cubes a dominance plan may spend.
Historically those knobs travelled as loose keyword arguments and duplicated
module constants; :class:`IndexConfig` gathers them into one validated,
hashable value so any layer can describe, compare, cache-key, or atomically
swap a configuration — the capability the online self-tuner
(:mod:`repro.tuning`) is built on.

Only this module defines the knob defaults.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..sfc.factory import CURVE_KINDS, DEFAULT_CURVE, curve_class

__all__ = [
    "DEFAULT_CUBE_BUDGET",
    "DEFAULT_EPSILON",
    "DEFAULT_PRECISION_BITS",
    "DEFAULT_RUN_BUDGET",
    "PRECISION_BIT_BUDGET",
    "IndexConfig",
    "resolve_index_config",
]

#: Cap on key runs stored per subscription (Sec. 3.2 coarsening).
DEFAULT_RUN_BUDGET = 64

#: Per-dimension snap grid for the precision-bounded decomposition.
DEFAULT_PRECISION_BITS = 6

#: Total precision bits shared across dimensions: an index over ``d``
#: dimensions defaults to ``min(DEFAULT_PRECISION_BITS,
#: PRECISION_BIT_BUDGET // d)`` bits per dimension.
PRECISION_BIT_BUDGET = 2 * DEFAULT_PRECISION_BITS

#: ε-cube budget for routing-table covering detectors (the profiler's
#: offline default is far larger; see :class:`~repro.core.covering.CoveringProfiler`).
DEFAULT_CUBE_BUDGET = 2_000

#: Approximation slack ε of the covering detector (Sec. 4).
DEFAULT_EPSILON = 0.05


@dataclass(frozen=True)
class IndexConfig:
    """Validated, immutable description of one index configuration.

    ``precision_bits=None`` means "derive from the budget":
    :meth:`effective_precision_bits` resolves it per universe. All other
    fields are concrete. Being frozen and hashable, an ``IndexConfig`` can
    namespace profile caches and serve as a dictionary key directly.
    """

    curve: str = DEFAULT_CURVE
    precision_bits: Optional[int] = None
    precision_bit_budget: int = PRECISION_BIT_BUDGET
    run_budget: int = DEFAULT_RUN_BUDGET
    cube_budget: int = DEFAULT_CUBE_BUDGET
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        curve_class(self.curve)  # raises the canonical "unknown curve kind" error
        if self.run_budget < 1:
            raise ValueError(f"run_budget must be >= 1, got {self.run_budget}")
        if self.precision_bits is not None and self.precision_bits < 1:
            raise ValueError(
                f"precision_bits must be >= 1 (or None to derive from the "
                f"budget), got {self.precision_bits}"
            )
        if self.precision_bit_budget < 1:
            raise ValueError(
                f"precision_bit_budget must be >= 1, got {self.precision_bit_budget}"
            )
        if self.cube_budget < 1:
            raise ValueError(f"cube_budget must be >= 1, got {self.cube_budget}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")

    # ------------------------------------------------------------- derived
    def effective_precision_bits(self, dims: int) -> int:
        """Precision bits per dimension for a ``dims``-dimensional universe.

        Explicit ``precision_bits`` wins. Otherwise the shared
        ``precision_bit_budget`` is divided across dimensions; when that
        division yields zero bits (a high-dimensional universe), deriving a
        precision silently would snap every subscription to the whole
        universe, so this raises instead of clamping.
        """
        if self.precision_bits is not None:
            return self.precision_bits
        derived = self.precision_bit_budget // dims
        if derived < 1:
            raise ValueError(
                f"precision bit budget {self.precision_bit_budget} yields 0 "
                f"bits per dimension over a {dims}-dimensional universe; pass "
                f"an explicit precision_bits >= 1 (or raise the budget)"
            )
        return min(DEFAULT_PRECISION_BITS, derived)

    # -------------------------------------------------------------- keying
    def cache_key(self) -> Tuple[Any, ...]:
        """Canonical tuple identifying this configuration for cache namespacing."""
        return (
            "index-config",
            self.curve,
            self.precision_bits,
            self.precision_bit_budget,
            self.run_budget,
            self.cube_budget,
            self.epsilon,
        )

    def covering_key(self) -> Tuple[Any, ...]:
        """The subset of knobs that shape dominance plans / covering profiles.

        Two configs with equal covering keys produce interchangeable
        :class:`~repro.core.approx_dominance.DominancePlan` objects; precision
        and run budget only affect how match-index runs are *stored*.
        """
        return ("covering", self.curve, self.epsilon, self.cube_budget)

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-friendly) for benchmarks and exposition."""
        return dataclasses.asdict(self)

    def replace(self, **changes: Any) -> "IndexConfig":
        """Frozen-dataclass update: a new config with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fields = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in dataclasses.fields(self)
            if getattr(self, f.name) != f.default
        )
        return f"IndexConfig({fields})"


def resolve_index_config(
    config: Optional[IndexConfig] = None, **overrides: Any
) -> IndexConfig:
    """Merge keyword sugar into a base config.

    Every constructor in the stack keeps its historical keyword arguments
    (``curve=``, ``run_budget=`` …) as sugar over
    :class:`IndexConfig`; they funnel through here. ``None`` overrides mean
    "not specified" and leave the base value alone — except
    ``precision_bits``, where ``None`` is itself the meaningful
    derive-from-budget default and is therefore only applied when the caller
    passed the keyword at all (callers simply omit it from ``overrides``).
    """
    base = config if config is not None else IndexConfig()
    applied = {k: v for k, v in overrides.items() if v is not None}
    return base.replace(**applied) if applied else base
