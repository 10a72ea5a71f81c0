"""BestPeer core: the node software and its self-configuration machinery.

``config``    node configuration and cost-model knobs
``routing``   pluggable routing strategies (selection + forwarding)
``peers``     the direct-peer table
``query``     query lifecycle: answers, observations, completion
``sharing``   static files, active objects, compute shipping
``node``      :class:`BestPeerNode` — everything wired together
``builder``   convenience construction of whole BestPeer networks
"""

from repro.core.builder import BestPeerNetwork, build_network
from repro.core.config import BestPeerConfig
from repro.core.discovery import (
    ContentReport,
    DiscoveryAgent,
    KnowledgeBase,
    KnowledgeStrategy,
)
from repro.core.node import BestPeerNode
from repro.core.peers import PeerInfo, PeerTable
from repro.core.query import QueryHandle
from repro.core.routing import (
    CostAwareStrategy,
    MaxCountStrategy,
    MinHopsStrategy,
    PeerObservation,
    QueryHistoryStrategy,
    RandomReplacementStrategy,
    RoutingStrategy,
    StaticStrategy,
    SuperPeerStrategy,
    make_routing_strategy,
    registered_strategies,
)
from repro.core.sharing import ActiveObject, ShareCatalog
from repro.core.shipping import (
    AdaptiveShippingPolicy,
    AlwaysCodePolicy,
    AlwaysDataPolicy,
    PeerEstimate,
    ShippingPolicy,
    make_shipping_policy,
)

__all__ = [
    "BestPeerConfig",
    "BestPeerNode",
    "BestPeerNetwork",
    "build_network",
    "PeerTable",
    "PeerInfo",
    "QueryHandle",
    "MaxCountStrategy",
    "MinHopsStrategy",
    "RandomReplacementStrategy",
    "StaticStrategy",
    "PeerObservation",
    "RoutingStrategy",
    "QueryHistoryStrategy",
    "SuperPeerStrategy",
    "CostAwareStrategy",
    "make_routing_strategy",
    "registered_strategies",
    "ActiveObject",
    "ShareCatalog",
    "ShippingPolicy",
    "AlwaysCodePolicy",
    "AlwaysDataPolicy",
    "AdaptiveShippingPolicy",
    "PeerEstimate",
    "make_shipping_policy",
    "DiscoveryAgent",
    "ContentReport",
    "KnowledgeBase",
    "KnowledgeStrategy",
]
