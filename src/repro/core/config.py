"""Node configuration.

Every knob the paper mentions is here: the per-node cap on direct peers
("Every BestPeer node has its own control over the maximum number of
direct peers it can have"), the reconfiguration strategy, agent TTL, the
result-return mode of Section 2, and the CPU/cost parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.costs import AgentCosts
from repro.agents.envelope import DEFAULT_TTL
from repro.agents.messages import MODE_DIRECT, MODE_METADATA
from repro.errors import BestPeerError
from repro.replication.policy import ReplicationPolicy
from repro.util.retry import RetryPolicy


@dataclass(frozen=True)
class BestPeerConfig:
    """Immutable per-node configuration."""

    #: k - the maximum number of directly connected peers
    max_direct_peers: int = 8
    #: agent lifetime in overlay hops
    ttl: int = DEFAULT_TTL
    #: "direct" ships payloads in answers; "metadata" defers to fetches
    result_mode: str = MODE_DIRECT
    #: routing strategy name (selection + forwarding; see
    #: repro.core.routing): maxcount | minhops | random | static |
    #: history | superpeer | costaware
    strategy: str = "maxcount"
    #: search with the inverted index instead of the paper's full scan
    use_index: bool = False
    #: also search this node's own store when it issues a query
    search_own_store: bool = True
    #: CPU threads on the node's host (the BestPeer prototype is threaded)
    cpu_threads: int = 8
    #: how long a fetch (out-of-network download) waits before giving up
    fetch_timeout: float = 5.0
    #: shipping decision for smart queries: always-code | always-data |
    #: adaptive (the paper's future-work runtime choice)
    shipping_policy: str = "always-code"
    #: agent install/execution cost model
    agent_costs: AgentCosts = field(default_factory=AgentCosts)
    #: retry/backoff for LIGLO exchanges, fetches, and rejoin; None keeps
    #: the legacy single-attempt behaviour (healthy networks unchanged)
    retry_policy: RetryPolicy | None = None
    #: consecutive request timeouts before a direct peer turns suspect
    suspect_after: int = 3
    #: seed scope for retry jitter (combined with the node name)
    retry_seed: int = 0
    #: flood fan-out cap honoured by ordering strategies such as
    #: query-history routing (None floods every live peer)
    routing_fanout: int | None = None
    #: publish per-keyword hint digests to this node's LIGLO on share;
    #: super-peer routing publishes regardless of this flag
    publish_hints: bool = False
    #: how long a super-peer hint fetch waits before falling back to a
    #: plain flood (kept well under any query quiet period)
    hint_timeout: float = 1.0
    #: in-network top-k: queries return only the k best-scored answers,
    #: with dominated answers terminated at the hop that finds them
    #: (see repro.agents.topk).  None keeps the paper's exhaustive
    #: floods bit-identical.
    top_k: int | None = None
    #: replication and hot-object caching knobs (see
    #: repro.replication).  The default ``rf=1`` policy keeps the
    #: paper's single-copy behaviour bit-identical.
    replication: ReplicationPolicy = field(default_factory=ReplicationPolicy)

    def __post_init__(self) -> None:
        if self.suspect_after < 1:
            raise BestPeerError(
                f"suspect_after must be >= 1, got {self.suspect_after}"
            )
        if self.max_direct_peers < 1:
            raise BestPeerError(
                f"max_direct_peers must be >= 1, got {self.max_direct_peers}"
            )
        if self.ttl < 1:
            raise BestPeerError(f"ttl must be >= 1, got {self.ttl}")
        if self.result_mode not in (MODE_DIRECT, MODE_METADATA):
            raise BestPeerError(f"unknown result mode {self.result_mode!r}")
        if self.cpu_threads < 1:
            raise BestPeerError(f"cpu_threads must be >= 1, got {self.cpu_threads}")
        if self.fetch_timeout <= 0:
            raise BestPeerError(f"fetch_timeout must be > 0, got {self.fetch_timeout}")
        if self.routing_fanout is not None and self.routing_fanout < 1:
            raise BestPeerError(
                f"routing_fanout must be >= 1, got {self.routing_fanout}"
            )
        if self.hint_timeout <= 0:
            raise BestPeerError(f"hint_timeout must be > 0, got {self.hint_timeout}")
        if self.top_k is not None and not 1 <= self.top_k <= 0xFFFF:
            raise BestPeerError(
                f"top_k must be in [1, 65535] or None, got {self.top_k}"
            )
