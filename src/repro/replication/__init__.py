"""Replication and hot-object caching for BestPeer nodes.

The paper's system serves every shared object from exactly one node;
this package adds owner-driven replica placement, versioned
invalidation with lazy read-repair, query-hit-driven hot promotion,
and an initiator-side result cache — turning churn *survival* into
actual resilience.  See ``docs/REPLICATION.md`` for the design.
"""

from repro.replication.agent import ReplicatedSearchAgent
from repro.replication.cache import ResultCache
from repro.replication.manager import (
    REPLICA_PAGE_BIT,
    ReplicationManager,
    is_replica_rid,
    replica_store_rid,
)
from repro.replication.messages import (
    PROTO_REPLICA_ACCEPT,
    PROTO_REPLICA_INVALIDATE,
    PROTO_REPLICA_OFFER,
    PROTO_REPLICA_PUSH,
    ReplicaAccept,
    ReplicaInvalidate,
    ReplicaOffer,
    ReplicaPush,
    ReplicaRecord,
)
from repro.replication.policy import ReplicationPolicy

__all__ = [
    "REPLICA_PAGE_BIT",
    "PROTO_REPLICA_ACCEPT",
    "PROTO_REPLICA_INVALIDATE",
    "PROTO_REPLICA_OFFER",
    "PROTO_REPLICA_PUSH",
    "ReplicaAccept",
    "ReplicaInvalidate",
    "ReplicaOffer",
    "ReplicaPush",
    "ReplicaRecord",
    "ReplicatedSearchAgent",
    "ReplicationManager",
    "ReplicationPolicy",
    "ResultCache",
    "is_replica_rid",
    "replica_store_rid",
]
