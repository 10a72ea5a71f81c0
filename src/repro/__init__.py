"""BestPeer reproduction: a self-configurable peer-to-peer system.

Reproduces Ng, Ooi & Tan, *BestPeer: A Self-Configurable Peer-to-Peer
System* (ICDE 2002): mobile agents over P2P, MaxCount/MinHops peer
reconfiguration, LIGLO name servers, and the StorM storage substrate —
plus the paper's comparison systems (single/multi-thread client-server
and Gnutella) and the full evaluation harness.

Quick start::

    from repro import BestPeerConfig, build_network, line

    net = build_network(4, config=BestPeerConfig(), topology=line(4))
    net.nodes[2].share(["jazz"], b"some payload")
    handle = net.base.issue_query("jazz")
    net.sim.run()
    print(handle.network_answer_count, "answers")
    net.base.finish_query(handle)      # triggers reconfiguration

See ``examples/`` for runnable walk-throughs and ``repro.eval.figures``
for the paper's experiments.
"""

from repro.agents import (
    Agent,
    AgentCosts,
    AnswerItem,
    AnswerMessage,
    StorMSearchAgent,
)
from repro.core import (
    ActiveObject,
    BestPeerConfig,
    BestPeerNetwork,
    BestPeerNode,
    MaxCountStrategy,
    MinHopsStrategy,
    PeerTable,
    QueryHandle,
    RoutingStrategy,
    build_network,
    make_routing_strategy,
)
from repro.errors import ReproError
from repro.ids import BPID
from repro.liglo import LigloClient, LigloServer
from repro.net import AddressPool, Host, IPAddress, LinkModel, Network
from repro.sim import Simulator
from repro.storm import StorM, StoredObject, make_strategy
from repro.topology import grid, line, random_graph, ring, star, tree
from repro.workloads import AnswerPlacement, KeywordCorpus, generate_objects

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "BestPeerConfig",
    "BestPeerNode",
    "BestPeerNetwork",
    "build_network",
    "QueryHandle",
    "PeerTable",
    "ActiveObject",
    "MaxCountStrategy",
    "MinHopsStrategy",
    "RoutingStrategy",
    "make_routing_strategy",
    # agents
    "Agent",
    "AgentCosts",
    "StorMSearchAgent",
    "AnswerMessage",
    "AnswerItem",
    # substrate
    "Simulator",
    "Network",
    "Host",
    "IPAddress",
    "AddressPool",
    "LinkModel",
    "StorM",
    "StoredObject",
    "make_strategy",
    "LigloServer",
    "LigloClient",
    "BPID",
    # topologies & workloads
    "star",
    "line",
    "tree",
    "ring",
    "grid",
    "random_graph",
    "KeywordCorpus",
    "generate_objects",
    "AnswerPlacement",
    # errors
    "ReproError",
]
