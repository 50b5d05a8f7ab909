"""Per-interface routing tables with pluggable covering detection.

A broker keeps, for every interface (a neighbouring broker or a local client),
the set of subscriptions it has learnt through that interface.  Event
forwarding consults the table: an event is sent out of an interface exactly
when some subscription stored for that interface matches it.

Covering enters when deciding whether an incoming subscription needs to be
*forwarded* to a neighbour at all: if a subscription already forwarded to that
neighbour covers the new one, forwarding is redundant.  The covering check is
delegated to a :class:`CoveringStrategy`, of which three are provided —
``none`` (always forward), ``exact`` (linear scan), and ``approximate`` (the
paper's ε-approximate SFC detector).  The strategy factory keeps the broker
code independent of which detector is in use.
"""

from __future__ import annotations

from collections import deque
from dataclasses import astuple, dataclass
from dataclasses import fields as dataclass_fields
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .subscription_store import SubscriptionProfile

from ..baselines.linear_scan import LinearScanCoveringDetector
from ..baselines.probabilistic import ProbabilisticCoveringDetector
from ..core.covering import ApproximateCoveringDetector
from ..geometry.universe import Universe
from ..index.config import DEFAULT_CUBE_BUDGET, IndexConfig, resolve_index_config
from ..sfc.base import SpaceFillingCurve
from ..sfc.factory import make_curve
from .match_index import MatchIndex, MatchIndexStats
from .schema import AttributeSchema
from .subscription import Event, Subscription

__all__ = [
    "CoveringStrategy",
    "NoCoveringStrategy",
    "ExactCoveringStrategy",
    "ApproximateCoveringStrategy",
    "ProbabilisticCoveringStrategy",
    "make_covering_strategy",
    "InterfaceTable",
    "RoutingTable",
    "DEFAULT_CUBE_BUDGET",
    "MATCHING_KINDS",
]

# DEFAULT_CUBE_BUDGET — the per-check work bound of the approximate covering
# strategy — is defined in :mod:`repro.index.config` (one source of truth for
# index knobs) and re-exported here for backward compatibility.

#: Event-matching implementations an interface table can use.
MATCHING_KINDS = ("linear", "sfc")


class CoveringStrategy(Protocol):
    """Minimal covering-detector contract the routing layer needs.

    The ``*_profile`` variants accept a
    :class:`~repro.pubsub.subscription_store.SubscriptionProfile` so the
    per-subscription geometry (validation, dominance transform, probe plan)
    computed once by the broker's store is shared by every link; strategies
    without shareable precomputation simply fall back to the profile's plain
    ranges, and every strategy must give identical answers through both
    entry points.
    """

    #: Human-readable strategy name used in experiment reports.
    name: str

    def add(self, sub_id: Hashable, ranges: Tuple[Tuple[int, int], ...]) -> None:
        """Register a subscription that has been forwarded."""

    def add_profile(self, sub_id: Hashable, profile: "SubscriptionProfile") -> None:
        """Register a forwarded subscription from its precomputed profile."""

    def remove(self, sub_id: Hashable) -> bool:
        """Unregister a subscription."""

    def find_covering(self, ranges: Tuple[Tuple[int, int], ...]) -> Optional[Hashable]:
        """Return a registered subscription covering ``ranges``, or ``None``."""

    def find_covering_profile(self, profile: "SubscriptionProfile") -> Optional[Hashable]:
        """Covering check through a precomputed profile (same answer as above)."""

    def work_units(self) -> int:
        """Return an abstract work counter (comparisons or runs probed) for reporting."""


@dataclass
class NoCoveringStrategy:
    """Covering disabled: every subscription is always forwarded."""

    name: str = "none"

    def add(self, sub_id: Hashable, ranges: Tuple[Tuple[int, int], ...]) -> None:
        return None

    def add_profile(self, sub_id: Hashable, profile) -> None:
        return None

    def remove(self, sub_id: Hashable) -> bool:
        return False

    def find_covering(self, ranges: Tuple[Tuple[int, int], ...]) -> Optional[Hashable]:
        return None

    def find_covering_profile(self, profile) -> Optional[Hashable]:
        return None

    def work_units(self) -> int:
        return 0


class ExactCoveringStrategy:
    """Exact covering via linear scan over the registered subscriptions."""

    def __init__(self, attributes: int, attribute_order: int) -> None:
        self.name = "exact"
        self._detector = LinearScanCoveringDetector(attributes, attribute_order)

    def add(self, sub_id: Hashable, ranges: Tuple[Tuple[int, int], ...]) -> None:
        self._detector.add_subscription(sub_id, ranges)

    def add_profile(self, sub_id: Hashable, profile) -> None:
        self.add(sub_id, profile.ranges)

    def remove(self, sub_id: Hashable) -> bool:
        return self._detector.remove_subscription(sub_id)

    def find_covering(self, ranges: Tuple[Tuple[int, int], ...]) -> Optional[Hashable]:
        return self._detector.find_covering(ranges)

    def find_covering_profile(self, profile) -> Optional[Hashable]:
        return self.find_covering(profile.ranges)

    def work_units(self) -> int:
        return self._detector.stats.comparisons


class ApproximateCoveringStrategy:
    """The paper's ε-approximate covering detector backed by an SFC index."""

    def __init__(
        self,
        attributes: int,
        attribute_order: int,
        epsilon: Optional[float] = None,
        cube_budget: Optional[int] = None,
        curve: Optional[str] = None,
        config: Optional[IndexConfig] = None,
    ) -> None:
        config = resolve_index_config(
            config, epsilon=epsilon, cube_budget=cube_budget, curve=curve
        )
        self.config = config
        self.name = f"approx(ε={config.epsilon})"
        self.epsilon = config.epsilon
        self._detector = ApproximateCoveringDetector(
            attributes=attributes,
            attribute_order=attribute_order,
            config=config,
        )
        self._runs_probed = 0

    def add(self, sub_id: Hashable, ranges: Tuple[Tuple[int, int], ...]) -> None:
        self._detector.add_subscription(sub_id, ranges)

    def add_profile(self, sub_id: Hashable, profile) -> None:
        if profile.covering is not None:
            self._detector.add_subscription_profile(sub_id, profile.covering)
        else:
            self.add(sub_id, profile.ranges)

    def remove(self, sub_id: Hashable) -> bool:
        return self._detector.remove_subscription(sub_id)

    def find_covering(self, ranges: Tuple[Tuple[int, int], ...]) -> Optional[Hashable]:
        result = self._detector.find_covering(ranges)
        self._runs_probed += result.query.runs_probed
        return result.covering_id

    def find_covering_profile(self, profile) -> Optional[Hashable]:
        if profile.covering is None:
            return self.find_covering(profile.ranges)
        result = self._detector.find_covering_profile(profile.covering)
        self._runs_probed += result.query.runs_probed
        return result.covering_id

    def work_units(self) -> int:
        return self._runs_probed


class ProbabilisticCoveringStrategy:
    """Monte-Carlo covering (Ouksel et al. style); may produce unsound suppressions."""

    def __init__(
        self, attributes: int, attribute_order: int, samples: int = 8, seed: Optional[int] = None
    ) -> None:
        self.name = f"probabilistic(samples={samples})"
        self._detector = ProbabilisticCoveringDetector(
            attributes, attribute_order, samples=samples, seed=seed
        )

    def add(self, sub_id: Hashable, ranges: Tuple[Tuple[int, int], ...]) -> None:
        self._detector.add_subscription(sub_id, ranges)

    def add_profile(self, sub_id: Hashable, profile) -> None:
        self.add(sub_id, profile.ranges)

    def remove(self, sub_id: Hashable) -> bool:
        return self._detector.remove_subscription(sub_id)

    def find_covering(self, ranges: Tuple[Tuple[int, int], ...]) -> Optional[Hashable]:
        return self._detector.find_covering(ranges)

    def find_covering_profile(self, profile) -> Optional[Hashable]:
        return self.find_covering(profile.ranges)

    def work_units(self) -> int:
        return self._detector.stats.candidate_checks


def make_covering_strategy(
    kind: str,
    schema: AttributeSchema,
    epsilon: Optional[float] = None,
    samples: int = 8,
    seed: Optional[int] = None,
    cube_budget: Optional[int] = None,
    curve: Optional[str] = None,
    config: Optional[IndexConfig] = None,
) -> CoveringStrategy:
    """Build a covering strategy by name: ``none``, ``exact``, ``approximate`` or ``probabilistic``.

    ``cube_budget`` bounds the per-check work of the approximate strategy; a
    router would enforce such a bound in practice so a single subscription
    arrival cannot stall the forwarding path.  ``curve`` selects the
    space-filling curve of the approximate strategy's index (the other
    strategies do not use one).  ``config`` supplies all of the above at
    once; explicit keywords override its fields.
    """
    attributes = schema.num_attributes
    order = schema.order
    config = resolve_index_config(
        config, epsilon=epsilon, cube_budget=cube_budget, curve=curve
    )
    if kind == "none":
        return NoCoveringStrategy()
    if kind == "exact":
        return ExactCoveringStrategy(attributes, order)
    if kind == "approximate":
        return ApproximateCoveringStrategy(attributes, order, config=config)
    if kind == "probabilistic":
        return ProbabilisticCoveringStrategy(attributes, order, samples=samples, seed=seed)
    raise ValueError(
        f"unknown covering strategy {kind!r}; expected 'none', 'exact', 'approximate' "
        "or 'probabilistic'"
    )


class InterfaceTable:
    """Subscriptions learnt through a single interface.

    Event matching is pluggable: ``matching="linear"`` scans the stored
    subscriptions per event (the baseline), ``matching="sfc"`` maintains a
    :class:`~repro.pubsub.match_index.MatchIndex` so that "does anything here
    match?" is a single segment-store probe plus a handful of rectangle checks.
    Both give identical answers; the audit in :class:`BrokerNetwork` can be
    run under either to compare them.

    The table also owns the *rebuild-swap* machinery the online tuner
    (:mod:`repro.tuning`) drives: :meth:`begin_rebuild` stages a fresh index
    under a different :class:`~repro.index.config.IndexConfig` (bulk-loaded
    from the stored subscriptions in one merge-rebuild sweep), mutations
    write through to both live and staged index, and :meth:`commit_rebuild`
    atomically swaps the staged index in, bumping :attr:`generation`.  Any
    config gives identical match answers (the rectangle fallback check
    restores exactness), so a swap is invisible to delivery.
    """

    def __init__(
        self,
        interface_id: Hashable,
        schema: Optional[AttributeSchema] = None,
        matching: str = "linear",
        run_budget: Optional[int] = None,
        curve: Optional[str] = None,
        config: Optional[IndexConfig] = None,
        routing_curve_kind: Optional[str] = None,
    ) -> None:
        config = resolve_index_config(config, run_budget=run_budget, curve=curve)
        if matching not in MATCHING_KINDS:
            raise ValueError(
                f"unknown matching kind {matching!r}; expected one of {MATCHING_KINDS}"
            )
        if matching == "sfc" and schema is None:
            raise ValueError("matching='sfc' requires the attribute schema")
        self.interface_id = interface_id
        self.matching_kind = matching
        self.schema = schema
        self.config = config
        self._subscriptions: Dict[Hashable, Subscription] = {}
        #: Bumped on every committed rebuild swap.
        self.generation = 0
        self.rebuilds = 0
        self.swaps = 0
        self._retired_stats = MatchIndexStats()
        self._staged = None
        self._staged_config: Optional[IndexConfig] = None
        self._probe_log: Optional[Deque[Tuple[int, ...]]] = None
        # The curve the *routing table* precomputes event keys with.  A swap
        # may leave this table's index on a different curve; the key-compat
        # flag below makes the table recompute its own keys then, so a
        # precomputed foreign-curve key can never cause a false negative.
        self._routing_curve_kind = (
            routing_curve_kind if routing_curve_kind is not None else config.curve
        )
        if matching == "sfc" and schema is not None:
            self._index = MatchIndex(schema, config=config)
        else:
            self._index = None
        self._key_ok = (
            self._index is not None
            and self._index.curve.kind == self._routing_curve_kind
        )

    @property
    def match_index(self) -> Optional[MatchIndex]:
        """The SFC match index, or ``None`` under linear matching."""
        return self._index

    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, sub_id: Hashable) -> bool:
        return sub_id in self._subscriptions

    def add(self, subscription: Subscription) -> None:
        # Index first: MatchIndex.add validates before mutating, so a rejected
        # subscription leaves table and index consistent.
        if self._index is not None:
            self._index.add(subscription.sub_id, subscription.ranges)
            if self._staged is not None:
                self._staged.add(subscription.sub_id, subscription.ranges)
        self._subscriptions[subscription.sub_id] = subscription

    def remove(self, sub_id: Hashable) -> bool:
        removed = self._subscriptions.pop(sub_id, None) is not None
        if removed and self._index is not None:
            self._index.remove(sub_id)
            if self._staged is not None:
                self._staged.remove(sub_id)
        return removed

    def subscriptions(self) -> List[Subscription]:
        return list(self._subscriptions.values())

    # -------------------------------------------------------- rebuild / swap
    def begin_rebuild(self, config: IndexConfig):
        """Stage a fresh index under ``config``, bulk-loaded from this table.

        The staged index receives every subsequent mutation alongside the
        live one, so at :meth:`commit_rebuild` time it answers identically
        for the then-current subscription set.  One staged rebuild at a time.
        """
        if self._index is None:
            raise ValueError("rebuild requires matching='sfc'")
        if self._staged is not None:
            raise ValueError("a rebuild is already staged; commit or abort it first")
        staged = MatchIndex(self.schema, config=config)
        items = [
            (sub.sub_id, sub.ranges) for sub in self._subscriptions.values()
        ]
        if items:
            staged.add_batch(items)
        self._staged = staged
        self._staged_config = config
        self.rebuilds += 1
        return staged

    def commit_rebuild(self) -> None:
        """Atomically swap the staged index in for the live one.

        The outgoing generation's counters are folded into a retirement
        accumulator so :meth:`match_stats` stays monotone across swaps
        (``runs_stored`` is a structure gauge, not a counter, and is always
        reported from the live index).
        """
        if self._staged is None:
            raise ValueError("no staged rebuild to commit")
        old = self._index
        stats = old.stats
        retired = self._retired_stats
        retired.inserts += stats.inserts
        retired.removals += stats.removals
        retired.coarsened_subscriptions += stats.coarsened_subscriptions
        retired.lookups += stats.lookups
        retired.candidates_checked += stats.candidates_checked
        retired.false_positives += stats.false_positives
        self._index = self._staged
        self.config = self._staged_config
        self._staged = None
        self._staged_config = None
        self.generation += 1
        self.swaps += 1
        self._key_ok = self._index.curve.kind == self._routing_curve_kind

    def abort_rebuild(self) -> bool:
        """Discard a staged rebuild; return True when one was staged."""
        staged = self._staged
        self._staged = None
        self._staged_config = None
        return staged is not None

    @property
    def staged_config(self) -> Optional[IndexConfig]:
        """Config of the currently staged rebuild, or ``None``."""
        return self._staged_config

    def match_stats(self) -> MatchIndexStats:
        """Lifetime match counters: live index plus every retired generation.

        ``inserts`` counts insert *operations* across generations, so a
        rebuild's bulk reload counts again — it is real work performed.
        """
        totals = list(astuple(self._retired_stats))
        if self._index is not None:
            for i, value in enumerate(astuple(self._index.stats)):
                totals[i] += value
        return MatchIndexStats(
            **{
                f.name: v
                for f, v in zip(dataclass_fields(MatchIndexStats), totals)
            }
        )

    # ------------------------------------------------------------- probe log
    def enable_probe_log(self, capacity: int) -> None:
        """Record the most recent ``capacity`` probed event cells.

        The tuner's cost model replays this log against candidate configs;
        bounded so an idle network never accumulates unbounded history.
        """
        if self._probe_log is None or self._probe_log.maxlen != capacity:
            self._probe_log = deque(self._probe_log or (), maxlen=capacity)

    @property
    def probe_log(self) -> Optional[Deque[Tuple[int, ...]]]:
        return self._probe_log

    # --------------------------------------------------------------- queries
    def matching(self, event: Event, key: Optional[int] = None) -> List[Subscription]:
        """Return the stored subscriptions matching ``event``.

        ``key`` optionally supplies the event's precomputed SFC key (ignored
        under linear matching, and recomputed locally when this table's index
        was swapped onto a different curve).  Result order is insertion order
        for linear matching and unspecified for SFC matching.
        """
        if self._index is not None:
            if self._probe_log is not None:
                self._probe_log.append(tuple(event.cells))
            return [
                self._subscriptions[sub_id]
                for sub_id in self._index.matching_ids(
                    event.cells, key=key if self._key_ok else None
                )
            ]
        return [sub for sub in self._subscriptions.values() if sub.matches(event)]

    def any_match(self, event: Event, key: Optional[int] = None) -> bool:
        """Return True when at least one stored subscription matches ``event``."""
        if self._index is not None:
            if self._probe_log is not None:
                self._probe_log.append(tuple(event.cells))
            return self._index.any_match(
                event.cells, key=key if self._key_ok else None
            )
        return any(sub.matches(event) for sub in self._subscriptions.values())


class RoutingTable:
    """All interface tables of one broker.

    When built with ``matching="sfc"`` every interface table carries a
    :class:`MatchIndex` and event routing computes each event's curve key
    once, sharing it across all interface probes (and, via
    :meth:`event_keys`, across the events of a batch).
    """

    def __init__(
        self,
        schema: Optional[AttributeSchema] = None,
        matching: str = "linear",
        run_budget: Optional[int] = None,
        curve: Optional[str] = None,
        config: Optional[IndexConfig] = None,
    ) -> None:
        config = resolve_index_config(config, run_budget=run_budget, curve=curve)
        if matching not in MATCHING_KINDS:
            raise ValueError(
                f"unknown matching kind {matching!r}; expected one of {MATCHING_KINDS}"
            )
        if matching == "sfc" and schema is None:
            raise ValueError("matching='sfc' requires the attribute schema")
        self.schema = schema
        self.matching_kind = matching
        self.config = config
        self._curve_kind = config.curve
        self._tables: Dict[Hashable, InterfaceTable] = {}
        self._curve: Optional[SpaceFillingCurve] = (
            make_curve(
                config.curve,
                Universe(dims=schema.num_attributes, order=schema.order),
            )
            if matching == "sfc" and schema is not None
            else None
        )

    def table(self, interface_id: Hashable) -> InterfaceTable:
        """Return (creating on demand) the table for ``interface_id``."""
        if interface_id not in self._tables:
            self._tables[interface_id] = InterfaceTable(
                interface_id,
                schema=self.schema,
                matching=self.matching_kind,
                config=self.config,
                routing_curve_kind=self._curve_kind,
            )
        return self._tables[interface_id]

    def interfaces(self) -> Iterable[Hashable]:
        return self._tables.keys()

    def interface_tables(self) -> Dict[Hashable, InterfaceTable]:
        """Live view of the interface tables, in creation order (tuner hook)."""
        return self._tables

    def total_entries(self) -> int:
        """Total number of subscription entries across all interfaces."""
        return sum(len(table) for table in self._tables.values())

    def event_key(self, event: Event) -> Optional[int]:
        """SFC key of ``event`` under SFC matching, ``None`` under linear."""
        if self._curve is None:
            return None
        return self._curve.key(event.cells)

    def event_keys(self, events: Sequence[Event]) -> List[Optional[int]]:
        """SFC keys for a batch of events, amortising shared work where the curve can.

        Delegates to :meth:`SpaceFillingCurve.keys`; the Z curve spreads each
        distinct coordinate value at most once per dimension across the whole
        batch — batches with recurring attribute values (hot topics, repeated
        prices) pay far less than per-event key construction — while other
        curves fall back to per-event keying.
        """
        if self._curve is None:
            return [None] * len(events)
        return list(self._curve.keys([event.cells for event in events]))

    def matching_interfaces(
        self,
        event: Event,
        exclude: Optional[Hashable] = None,
        key: Optional[int] = None,
        among: Optional[Sequence[Hashable]] = None,
    ) -> List[Hashable]:
        """Interfaces (≠ ``exclude``) holding at least one subscription matching ``event``.

        ``among`` restricts the probe to the given interfaces (the broker
        passes its neighbour list so the local-client table is never probed —
        local delivery has its own path and the match work would be wasted).
        """
        if key is None and self._curve is not None:
            key = self._curve.key(event.cells)
        if among is None:
            candidates = self._tables.items()
        else:
            candidates = [
                (interface_id, self._tables[interface_id])
                for interface_id in among
                if interface_id in self._tables
            ]
        return [
            interface_id
            for interface_id, table in candidates
            if interface_id != exclude and table.any_match(event, key=key)
        ]

    def match_segments(self) -> int:
        """Total disjoint key segments stored across all match indexes (0 under linear).

        The structure-size counterpart of :meth:`match_work`: segment counts
        are where the choice of curve shows up (fewer runs per rectangle →
        fewer segments per interface), so the curve-ablation experiment
        aggregates them per network.
        """
        return sum(
            table.match_index.segment_count()
            for table in self._tables.values()
            if table.match_index is not None
        )

    def match_work(self) -> Tuple[int, int, int]:
        """Aggregate ``(lookups, candidates_checked, false_positives)`` over all match indexes.

        Reads :meth:`InterfaceTable.match_stats`, so totals include retired
        index generations and stay monotone across tuner swaps.
        """
        lookups = candidates = false_positives = 0
        for table in self._tables.values():
            if table.match_index is not None:
                stats = table.match_stats()
                lookups += stats.lookups
                candidates += stats.candidates_checked
                false_positives += stats.false_positives
        return lookups, candidates, false_positives
