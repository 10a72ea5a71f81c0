"""PendingRequests: one token, timer and retry table for every request kind.

Fetches, active-object requests and smart-query data requests all go
through :class:`~repro.core.pending.PendingRequests`.  For each kind, a
reply, a plain expiry and an exhausted retry ladder must each leave
zero tokens outstanding and no expiry or retry timer armed.
"""

import pytest

from repro.core.builder import build_network
from repro.core.config import BestPeerConfig
from repro.topology.builders import line
from repro.util.retry import RetryPolicy

POLICY = RetryPolicy(
    max_attempts=3, base_delay=0.25, multiplier=2.0, max_delay=1.0, jitter=0.0
)

KINDS = ("fetch", "active", "data")


def deploy(retry_policy=None):
    config = BestPeerConfig(
        max_direct_peers=2,
        retry_policy=retry_policy,
        shipping_policy="always-data",
    )
    net = build_network(2, config=config, topology=line(2))
    peer = net.nodes[1]
    rid = peer.share(["needle"], b"payload")
    peer.share_active("report", b"content", lambda requester, credential, data: data)
    return net, peer, rid


def start(kind, net, address, rid):
    """Issue one ``kind`` request from the base; return its table and a
    probe reporting ``"reply"``, ``"gave-up"`` or None so far."""
    base = net.base
    if kind == "data":
        handle = base.smart_query("needle")

        def probe():
            if handle.answers:
                return "reply"
            return "gave-up" if handle.drop_causes.get("data-timeout") else None

        return base._pending_data, probe
    outcomes = []
    if kind == "fetch":
        base.fetch(address, rid, outcomes.append)
        table = base._pending_fetches
    else:
        base.request_active(address, "report", "any", outcomes.append)
        table = base._pending_actives

    def probe():
        if not outcomes:
            return None
        assert len(outcomes) == 1
        return "gave-up" if outcomes[0] is None else "reply"

    return table, probe


def armed(table):
    """Live expiry or retry timers this table still has on the heap."""
    return [
        timer
        for _time, _seq, timer in table.node.sim._heap
        if not timer.cancelled and getattr(timer.callback, "__self__", None) is table
    ]


@pytest.mark.parametrize("kind", KINDS)
def test_reply_clears_token_and_timer(kind):
    net, peer, rid = deploy(POLICY)
    table, probe = start(kind, net, peer.host.address, rid)
    assert len(table) == 1 and len(armed(table)) == 1
    # Well before the timeout would fire: the reply alone must settle it.
    net.sim.run(until=net.sim.now + net.base.config.fetch_timeout / 2)
    assert probe() == "reply"
    assert len(table) == 0
    assert armed(table) == []
    assert net.base.request_timeouts.get(kind, 0) == 0


@pytest.mark.parametrize("kind", KINDS)
def test_expiry_without_retries_gives_up_once(kind):
    net, peer, rid = deploy()
    address = peer.host.address
    peer.host.disconnect()  # silent from now on
    table, probe = start(kind, net, address, rid)
    net.sim.run()
    assert probe() == "gave-up"
    assert len(table) == 0
    assert armed(table) == []
    assert net.base.request_timeouts[kind] == 1
    assert net.base.request_retries == 0


@pytest.mark.parametrize("kind", KINDS)
def test_exhausted_retries_give_up_once(kind):
    net, peer, rid = deploy(POLICY)
    address = peer.host.address
    peer.host.disconnect()
    table, probe = start(kind, net, address, rid)
    net.sim.run()
    assert probe() == "gave-up"
    assert len(table) == 0
    assert armed(table) == []
    assert net.base.request_timeouts[kind] == POLICY.max_attempts
    assert net.base.request_retries == POLICY.max_attempts - 1
