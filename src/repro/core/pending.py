"""One table for a node's timed request/reply exchanges.

Out-of-network fetches, active-object requests and smart-query data
requests share one shape: send a request under a fresh token, wait for
the reply that echoes it, and on silence charge the peer a timeout and
re-send per the node's retry policy — or give up.
:class:`PendingRequests` owns that shape: the token, the expiry timer
and the failure count.  Each kind supplies only its callbacks: how to
build the request for a token, what to do with the reply, and what
giving up means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.ids import BPID, SerialCounter
from repro.net.address import IPAddress

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (node -> pending)
    from repro.core.node import BestPeerNode
    from repro.core.query import QueryHandle
    from repro.net.message import Packet
    from repro.sim.kernel import Timer


@dataclass(slots=True)
class _Request:
    """One outstanding exchange, carried across its re-sends."""

    address: IPAddress
    build: Callable[[int], Any]
    on_reply: Callable[["Packet"], None]
    give_up: Callable[[], None]
    bpid: BPID | None
    query: "QueryHandle | None"
    failures: int = 0
    timer: "Timer | None" = None


class PendingRequests:
    """Outstanding requests of one kind, keyed by their wire token.

    Each send arms an expiry timer before the request leaves; the reply
    cancels it, so a settled exchange leaves nothing on the event heap.
    """

    def __init__(
        self,
        node: "BestPeerNode",
        kind: str,
        protocol: str,
        tokens: SerialCounter,
    ):
        self.node = node
        #: the ``request_timeouts`` key timeouts of this kind count under
        self.kind = kind
        self.protocol = protocol
        self._tokens = tokens
        self._open: dict[int, _Request] = {}

    def __len__(self) -> int:
        return len(self._open)

    def send(
        self,
        address: IPAddress,
        build: Callable[[int], Any],
        on_reply: Callable[["Packet"], None],
        give_up: Callable[[], None],
        *,
        bpid: BPID | None = None,
        query: "QueryHandle | None" = None,
    ) -> None:
        """Send ``build(token)`` to ``address`` and await its reply.

        ``bpid`` names the peer a timeout is charged to (looked up by
        address at expiry when omitted).  A request serving ``query``
        stops — no retry, no give-up — once that query has finished.
        """
        self._send(_Request(address, build, on_reply, give_up, bpid, query))

    def _send(self, request: _Request) -> None:
        node = self.node
        token = self._tokens.next()
        request.timer = node.sim.schedule(
            node.config.fetch_timeout, self._expire, token
        )
        self._open[token] = request
        node.host.send(request.address, self.protocol, request.build(token))

    def reply(self, packet: "Packet") -> None:
        """Host handler for this kind's replies; stale tokens are ignored."""
        request = self._open.pop(packet.payload.token, None)
        if request is None:
            return
        request.timer.cancel()
        bpid = self._peer(request, packet.src)
        if bpid is not None:
            self.node.peers.note_alive(bpid, self.node.sim.now)
        request.on_reply(packet)

    def _expire(self, token: int) -> None:
        request = self._open.pop(token, None)
        if request is None:
            return
        request.failures += 1
        node = self.node
        node._charge_timeout(self.kind, self._peer(request, request.address))
        if request.query is not None and request.query.finished:
            return
        policy = node.config.retry_policy
        if policy is not None and policy.should_retry(request.failures):
            node.request_retries += 1
            delay = policy.delay(request.failures, node._retry_rng)
            node.sim.schedule(delay, self._retry, request)
            return
        request.give_up()

    def _retry(self, request: _Request) -> None:
        if request.query is not None and request.query.finished:
            return
        if not self.node.host.online:
            request.give_up()
            return
        self._send(request)

    def _peer(self, request: _Request, address: IPAddress) -> BPID | None:
        """The request's named peer, else the direct peer at ``address``."""
        if request.bpid is not None:
            return request.bpid
        for peer in self.node.peers.entries():
            if peer.address == address:
                return peer.bpid
        return None
