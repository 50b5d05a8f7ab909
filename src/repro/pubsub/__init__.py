"""Content-based publish/subscribe substrate: schema, subscriptions, brokers, network."""

from .broker import LOCAL_INTERFACE, PROMOTION_KINDS, Broker, ForwardDecision
from .network import (
    BrokerNetwork,
    DeliveryRecord,
    PartitionAudit,
    chain_topology,
    star_topology,
    tree_topology,
)
from .match_index import DEFAULT_RUN_BUDGET, IndexConfig, MatchIndex, MatchIndexStats
from .routing_table import (
    DEFAULT_CUBE_BUDGET,
    MATCHING_KINDS,
    ApproximateCoveringStrategy,
    CoveringStrategy,
    ExactCoveringStrategy,
    InterfaceTable,
    NoCoveringStrategy,
    ProbabilisticCoveringStrategy,
    RoutingTable,
    make_covering_strategy,
)
from .schema import Attribute, AttributeSchema
from .stats import BrokerStats, NetworkStats, TransportStats
from .subscription import Event, Subscription, make_event, make_subscription
from .subscription_store import ProfileCache, SubscriptionProfile, SubscriptionStore

__all__ = [
    "LOCAL_INTERFACE",
    "PROMOTION_KINDS",
    "Broker",
    "ForwardDecision",
    "BrokerNetwork",
    "DeliveryRecord",
    "PartitionAudit",
    "chain_topology",
    "star_topology",
    "tree_topology",
    "DEFAULT_CUBE_BUDGET",
    "DEFAULT_RUN_BUDGET",
    "IndexConfig",
    "MATCHING_KINDS",
    "MatchIndex",
    "MatchIndexStats",
    "ApproximateCoveringStrategy",
    "CoveringStrategy",
    "ExactCoveringStrategy",
    "InterfaceTable",
    "NoCoveringStrategy",
    "ProbabilisticCoveringStrategy",
    "RoutingTable",
    "make_covering_strategy",
    "Attribute",
    "AttributeSchema",
    "BrokerStats",
    "NetworkStats",
    "TransportStats",
    "Event",
    "Subscription",
    "make_event",
    "make_subscription",
    "ProfileCache",
    "SubscriptionProfile",
    "SubscriptionStore",
]
