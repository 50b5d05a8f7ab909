"""Approximate subscription covering: the subscription-facing API of the paper.

This module ties together the Edelsbrunner–Overmars transform and the
ε-approximate dominance index: subscriptions (conjunctions of per-attribute
ranges) are stored as dominance points in a ``2β``-dimensional universe, and
``find_covering`` answers "is this new subscription covered by one that is
already stored?" by issuing an ε-approximate dominance query anchored at the
new subscription's point.

Guarantees mirror Problem 2 of the paper:

* **Soundness** — any subscription returned really does cover the query
  (dominance in the transformed space is exactly covering, and witnesses come
  from inside the dominance region).
* **Approximate completeness** — at least a ``(1 − ε)`` volume fraction of the
  region where covering subscriptions can live is searched, so a covering
  subscription is missed only when every one of them hides in the remaining
  sliver.  Missed covers never break a publish/subscribe system; they only
  cost an extra forwarded subscription.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..geometry.transform import DominanceTransform, Range
from ..index.config import IndexConfig, resolve_index_config
from ..sfc.factory import make_curve
from .approx_dominance import (
    ApproximateDominanceIndex,
    DominanceQueryResult,
    DominancePlan,
    build_dominance_plan,
)

__all__ = [
    "ApproximateCoveringDetector",
    "CoveringProfile",
    "CoveringProfiler",
    "CoveringResult",
]


@dataclass
class CoveringResult:
    """Outcome of a covering query.

    Attributes
    ----------
    covering_id:
        Identifier of a stored subscription that covers the query, or ``None``
        when the (approximate) search found none.
    query:
        The dominance-query accounting behind this covering check.
    """

    covering_id: Optional[Hashable]
    query: DominanceQueryResult

    @property
    def covered(self) -> bool:
        """True when a covering subscription was found."""
        return self.covering_id is not None


@dataclass(frozen=True)
class CoveringProfile:
    """The per-subscription half of a covering check, computed once.

    A covering query for a subscription runs the same geometry no matter
    which link's detector answers it: validate the ranges, transform them to
    a dominance point, decompose the point's dominance region into a probe
    schedule.  A profile captures all three so that every neighbour strategy
    — and every later promotion re-check — shares one computation.
    """

    ranges: Tuple[Range, ...]
    point: Tuple[int, ...]
    plan: DominancePlan


class CoveringProfiler:
    """Builds :class:`CoveringProfile` objects compatible with a detector config.

    One profiler per broker: it mirrors the parameters every per-link
    :class:`ApproximateCoveringDetector` of that broker was built with
    (attribute count/order, ε, cube budget, curve), so its profiles can be
    handed to any of them.
    """

    #: Offline default ε-cube budget of a broker-level profiler; far larger
    #: than the routing default because the profiler runs once per stored
    #: subscription, not once per covering probe.
    DEFAULT_PROFILER_CUBE_BUDGET = 1_000_000

    def __init__(
        self,
        attributes: int,
        attribute_order: int,
        epsilon: Optional[float] = None,
        cube_budget: Optional[int] = None,
        curve: Optional[str] = None,
        config: Optional[IndexConfig] = None,
    ) -> None:
        if config is None and cube_budget is None:
            cube_budget = self.DEFAULT_PROFILER_CUBE_BUDGET
        config = resolve_index_config(
            config, epsilon=epsilon, cube_budget=cube_budget, curve=curve
        )
        self.config = config
        self.attributes = attributes
        self.attribute_order = attribute_order
        self.epsilon = config.epsilon
        self.cube_budget = config.cube_budget
        self.curve = config.curve
        self.transform = DominanceTransform(attributes, attribute_order)
        self._curve = make_curve(config.curve, self.transform.universe)

    @property
    def cache_key(self) -> Tuple:
        """Everything that affects the profiles this profiler builds.

        Two profilers with equal cache keys produce interchangeable profiles;
        :class:`~repro.pubsub.subscription_store.ProfileCache` namespaces its
        entries by this key so that (in particular) the same subscription
        profiled under two different curves never shares a cached plan.  The
        plan-shaping knobs come from the config's covering key, so profilers
        built from configs differing only in storage knobs (precision, run
        budget) share a namespace — their profiles are identical.
        """
        return (
            self.config.covering_key(),
            self.attributes,
            self.attribute_order,
        )

    def profile(self, ranges: Sequence[Range]) -> CoveringProfile:
        """Validate ``ranges`` and build their point + probe schedule."""
        validated = self.transform.validate_ranges(ranges)
        point = self.transform.to_point(validated)
        plan = build_dominance_plan(
            self.transform.universe,
            point,
            epsilon=self.epsilon,
            cube_budget=self.cube_budget,
            curve=self._curve,
            config=self.config,
        )
        return CoveringProfile(ranges=validated, point=point, plan=plan)


@dataclass
class ApproximateCoveringDetector:
    """Detects covering relationships among range subscriptions, approximately.

    Parameters
    ----------
    attributes:
        Number of numeric attributes β in every subscription.
    attribute_order:
        Bits per attribute; attribute values lie in ``[0, 2^k − 1]``.
    epsilon:
        Default approximation parameter (0 = exhaustive search).
    cube_budget:
        Per-query cap on examined standard cubes (passed to the dominance index).
    curve:
        Space-filling-curve kind keying the dominance index
        (:data:`~repro.sfc.factory.CURVE_KINDS`); any recursive-partitioning
        curve gives the same answers, only the probe key ranges differ.
    """

    attributes: int
    attribute_order: int
    epsilon: Optional[float] = None
    cube_budget: Optional[int] = None
    curve: Optional[str] = None
    config: Optional[IndexConfig] = None
    transform: DominanceTransform = field(init=False)
    index: ApproximateDominanceIndex = field(init=False)

    def __post_init__(self) -> None:
        if self.config is None and self.cube_budget is None:
            self.cube_budget = CoveringProfiler.DEFAULT_PROFILER_CUBE_BUDGET
        config = resolve_index_config(
            self.config,
            epsilon=self.epsilon,
            cube_budget=self.cube_budget,
            curve=self.curve,
        )
        self.config = config
        self.epsilon = config.epsilon
        self.cube_budget = config.cube_budget
        self.curve = config.curve
        self.transform = DominanceTransform(self.attributes, self.attribute_order)
        self.index = ApproximateDominanceIndex(
            universe=self.transform.universe,
            epsilon=self.epsilon,
            curve=make_curve(self.curve, self.transform.universe),
            cube_budget=self.cube_budget,
            config=config,
        )
        self._subscriptions: Dict[Hashable, Tuple[Range, ...]] = {}

    # ---------------------------------------------------------------- updates
    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, sub_id: Hashable) -> bool:
        return sub_id in self._subscriptions

    def add_subscription(self, sub_id: Hashable, ranges: Sequence[Range]) -> None:
        """Store a subscription under ``sub_id`` (replacing any previous one)."""
        validated = self.transform.validate_ranges(ranges)
        self._subscriptions[sub_id] = validated
        self.index.insert(sub_id, self.transform.to_point(validated))

    def remove_subscription(self, sub_id: Hashable) -> bool:
        """Remove a subscription; return True when it was present."""
        if sub_id not in self._subscriptions:
            return False
        del self._subscriptions[sub_id]
        self.index.remove(sub_id)
        return True

    def subscription(self, sub_id: Hashable) -> Optional[Tuple[Range, ...]]:
        """Return the stored ranges of ``sub_id``, or ``None``."""
        return self._subscriptions.get(sub_id)

    def subscriptions(self) -> Dict[Hashable, Tuple[Range, ...]]:
        """Return a copy of all stored subscriptions."""
        return dict(self._subscriptions)

    # ---------------------------------------------------------------- queries
    def find_covering(
        self,
        ranges: Sequence[Range],
        epsilon: Optional[float] = None,
        exclude: Optional[Hashable] = None,
    ) -> CoveringResult:
        """Search for a stored subscription covering ``ranges``.

        ``exclude`` allows a router to ask "is this subscription covered by a
        *different* one?" when the query subscription itself is already
        stored; the excluded entry is temporarily removed from the index for
        the duration of the query.
        """
        point = self.transform.to_point(ranges)
        removed_point = None
        if exclude is not None and exclude in self._subscriptions:
            removed_point = self.transform.to_point(self._subscriptions[exclude])
            self.index.remove(exclude)
        try:
            result = self.index.query(point, epsilon=epsilon)
        finally:
            if removed_point is not None:
                self.index.insert(exclude, removed_point)
        covering_id = result.item.item_id if result.item is not None else None
        return CoveringResult(covering_id=covering_id, query=result)

    def is_covered(self, ranges: Sequence[Range], epsilon: Optional[float] = None) -> bool:
        """Return True when the approximate search finds a covering subscription."""
        return self.find_covering(ranges, epsilon=epsilon).covered

    # ---------------------------------------------------------------- profiles
    def compatible_profile(self, profile: CoveringProfile) -> bool:
        """True when ``profile`` was built with this detector's parameters.

        All four answer-affecting parameters must match — universe, curve, ε
        and the cube budget (the plan bakes its key ranges and budget cut-off
        in at build time; ranges from a different curve do not apply).
        """
        assert self.index.curve is not None
        return (
            profile.plan.universe == self.transform.universe
            and profile.plan.curve_kind == self.index.curve.kind
            and profile.plan.epsilon == self.epsilon
            and profile.plan.cube_budget == self.cube_budget
        )

    def add_subscription_profile(self, sub_id: Hashable, profile: CoveringProfile) -> None:
        """Store a subscription from its precomputed profile (no re-validation)."""
        self._subscriptions[sub_id] = profile.ranges
        self.index.insert(sub_id, profile.point)

    def find_covering_profile(self, profile: CoveringProfile) -> CoveringResult:
        """Covering query along a precomputed probe schedule.

        Identical answer to :meth:`find_covering` on the profile's ranges at
        the detector's default ε — the plan replays the exact same search.  A
        profile built under different parameters (paranoia guard; brokers
        share one config) falls back to the classic interleaved search.
        """
        if not self.compatible_profile(profile):
            return self.find_covering(profile.ranges)
        result = self.index.execute_plan(profile.plan)
        covering_id = result.item.item_id if result.item is not None else None
        return CoveringResult(covering_id=covering_id, query=result)

    def find_covering_exhaustive(
        self, ranges: Sequence[Range], exclude: Optional[Hashable] = None
    ) -> CoveringResult:
        """Exhaustive (ε = 0) covering search through the same SFC machinery."""
        return self.find_covering(ranges, epsilon=0.0, exclude=exclude)

    # ----------------------------------------------------------- ground truth
    def all_covering(self, ranges: Sequence[Range]) -> List[Hashable]:
        """Return every stored subscription covering ``ranges`` (linear scan oracle).

        Used to measure the recall of the approximate search; not part of the
        performance-critical path.
        """
        query = self.transform.validate_ranges(ranges)
        return [
            sub_id
            for sub_id, stored in self._subscriptions.items()
            if self.transform.covers(stored, query)
        ]

    def verify_witness(self, result: CoveringResult, ranges: Sequence[Range]) -> bool:
        """Check that a returned witness really covers ``ranges`` (soundness check)."""
        if result.covering_id is None:
            return True
        stored = self._subscriptions.get(result.covering_id)
        if stored is None:
            return False
        return self.transform.covers(stored, ranges)
