"""The benchmark's workloads: deployments, operation streams and ledgers.

Each workload is a closed loop run by one client at the base node: one
operation is issued, the simulator runs until it is quiescent, and only
then is the next operation issued.  Every input (overlay, placement,
operation stream, payloads) is drawn from the workload seed, except
share-churn's overlay (see ``CHURN_OVERLAY_SEED``); the program only
ever sees the generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate

from ledger import Ledger, QueryCheck
from repro.core.builder import build_network
from repro.core.config import BestPeerConfig
from repro.replication import ReplicationPolicy
from repro.topology.builders import random_graph
from repro.workloads.corpus import KeywordCorpus, generate_objects
from repro.workloads.provision import experiment_items, provision_store

#: Zipf exponent of every query stream (the classic content-popularity
#: model, as in the top-k traffic study the benchmark follows).
ZIPF_S = 1.0

#: share-churn runs on one fixed overlay.  Replica holders are picked in
#: BPID order among an owner's peers, so where copies pile up -- and with
#: it the scan that finishes last -- is a property of the overlay; over
#: seeded overlays its completion time spread by a fifth from seed to
#: seed.  The workload seed still draws the objects, writes and queries.
CHURN_OVERLAY_SEED = 0


class NoSpans:
    """Stand-in for the span recorder in an untraced run."""

    current_op = 0

    @staticmethod
    def call(_name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


@dataclass(frozen=True)
class Op:
    """One operation of a workload's stream."""

    kind: str  # query | share | reshare | unshare
    keyword: str = ""
    owner: int = 0
    rid: object = None
    payload: bytes = b""


class Workload:
    """Base class: the closed loop shared by every workload."""

    name = ""

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.rng = random.Random(f"perfbench:{self.name}:{seed}")
        self.params = self.scale(tiny)
        self.ledger = Ledger()
        self.deployment = None

    def scale(self, tiny: bool) -> dict:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work before set-up (building the ledger's inputs)."""

    def setup(self, spans) -> None:
        """Build, provision and settle the deployment (timed)."""
        raise NotImplementedError

    def next_op(self) -> Op:
        raise NotImplementedError

    def run_op(self, op: Op):
        """Issue ``op`` and run the simulator to quiescence (timed).

        Returns the finished query handle, or the new record id of a
        write (None for an unshare).
        """
        deployment = self.deployment
        if op.kind == "query":
            handle = deployment.base.issue_query(op.keyword)
            deployment.sim.run()
            deployment.base.finish_query(handle)
            return handle
        node = deployment.nodes[op.owner]
        if op.kind == "share":
            result = node.share([op.keyword], op.payload)
        elif op.kind == "reshare":
            result = node.reshare(op.rid, [op.keyword], op.payload)
        else:
            node.unshare(op.rid)
            result = None
        deployment.sim.run()
        return result

    def check(self, op: Op, result) -> QueryCheck | None:
        """Judge a query against the ledger, or record a write in it."""
        if op.kind == "query":
            return self.ledger.check(op.keyword, result.answers)
        self.record_write(op, result)
        return None

    def record_write(self, op: Op, result) -> None:
        raise NotImplementedError

    def _zipf_sampler(self, keywords: list[str]):
        weights = list(accumulate(1.0 / (rank + 1) ** ZIPF_S for rank in range(len(keywords))))
        rng = self.rng
        return lambda: rng.choices(keywords, cum_weights=weights)[0]


def _overlay_configs(topology, **overrides) -> list[BestPeerConfig]:
    """Per-node configs for the 32-node overlays, shaped like the figures'
    BPR runs: peer cap at least 8, a TTL that reaches every node, and
    the base never searching its own store."""
    return [
        BestPeerConfig(
            max_direct_peers=max(topology.degree(i), 8),
            ttl=topology.node_count,
            strategy="maxcount",
            search_own_store=False,
            result_mode="direct",
            **overrides,
        )
        for i in range(topology.node_count)
    ]


class PaperQuery(Workload):
    """The paper's deployment under a Zipf keyword-query stream."""

    name = "paper-query"

    def scale(self, tiny):
        return {
            "nodes": 8 if tiny else 32,
            "degree": 4,
            "objects_per_node": 40 if tiny else 1000,
            "rss_after_ops": 5 if tiny else 100,
            "object_size": 1024,
            "corpus_size": 10 if tiny else 100,
            "zipf_s": ZIPF_S,
            "strategy": "maxcount",
            "result_mode": "direct",
        }

    def prepare(self):
        p = self.params
        self.corpus = KeywordCorpus(p["corpus_size"])
        self.topology = random_graph(p["nodes"], p["degree"], seed=self.seed)
        # The base issues every query and never searches its own store,
        # so only the other nodes' objects can answer.
        for index in range(1, p["nodes"]):
            for keywords, payload in experiment_items(
                index,
                count=p["objects_per_node"],
                size=p["object_size"],
                corpus=self.corpus,
                seed=self.seed,
            ):
                self.ledger.add(keywords, payload)
        self.sample = self._zipf_sampler(self.corpus.keywords())

    def setup(self, spans):
        p = self.params

        def store(index):
            return spans.call(
                "workloads.provision",
                provision_store,
                index,
                count=p["objects_per_node"],
                size=p["object_size"],
                corpus=self.corpus,
                seed=self.seed,
            )

        self.deployment = spans.call(
            "core.build",
            build_network,
            p["nodes"],
            config=_overlay_configs(self.topology),
            topology=self.topology,
            storm_factory=store,
        )
        self.deployment.sim.run()

    def next_op(self):
        return Op("query", keyword=self.sample())


class Flood(Workload):
    """A 2000-node static flood that reaches every node.

    Each flood looks for one of ``keywords`` keywords, each held by two
    random nodes as one tiny object; the floods cycle through the
    keywords in a seeded order.  Rotating the pair averages completion
    time over many holder distances, so it does not hinge on where one
    pair happens to sit in the seed's overlay.
    """

    name = "flood-2k"

    def scale(self, tiny):
        return {
            "nodes": 60 if tiny else 2000,
            "rss_after_ops": 2 if tiny else 8,
            "degree": 4,
            "ttl": 24,
            "keywords": 32,
            "holders_per_keyword": 2,
            "object_size": 64,
            "strategy": "static",
            "result_mode": "direct",
        }

    def prepare(self):
        p = self.params
        self.topology = random_graph(p["nodes"], p["degree"], seed=self.seed)
        self.keywords = [f"needle{j:02d}" for j in range(p["keywords"])]
        self.objects = []
        for keyword in self.keywords:
            for holder in self.rng.sample(range(1, p["nodes"]), p["holders_per_keyword"]):
                payload = f"{keyword}:{self.seed}:{holder}:".encode()
                self.objects.append((holder, keyword, payload.ljust(p["object_size"], b".")))
        for _holder, keyword, payload in self.objects:
            self.ledger.add([keyword], payload)
        self.rng.shuffle(self.keywords)
        self.floods = 0

    def setup(self, spans):
        p = self.params
        max_degree = max(self.topology.degree(i) for i in range(p["nodes"]))
        config = BestPeerConfig(
            max_direct_peers=max(16, max_degree),
            strategy="static",
            ttl=p["ttl"],
            result_mode="direct",
        )
        self.deployment = spans.call(
            "core.build",
            build_network,
            p["nodes"],
            config=config,
            topology=self.topology,
        )
        for holder, keyword, payload in self.objects:
            self.deployment.nodes[holder].share([keyword], payload)
        self.deployment.sim.run()

    def next_op(self):
        keyword = self.keywords[self.floods % len(self.keywords)]
        self.floods += 1
        return Op("query", keyword=keyword)


class ShareChurn(Workload):
    """Writes at random owners mixed with Zipf queries, replication on."""

    name = "share-churn"

    def scale(self, tiny):
        return {
            "nodes": 8 if tiny else 32,
            "degree": 4,
            "objects_per_node": 20 if tiny else 300,
            "rss_after_ops": 10 if tiny else 250,
            "object_size": 256,
            "corpus_size": 10 if tiny else 100,
            "zipf_s": ZIPF_S,
            "write_share": 0.4,
            "rf": 2,
            "hot_rf": 3,
            "cache_capacity": 0,
            "strategy": "maxcount",
            "result_mode": "direct",
        }

    def prepare(self):
        p = self.params
        self.corpus = KeywordCorpus(p["corpus_size"])
        self.topology = random_graph(p["nodes"], p["degree"], seed=CHURN_OVERLAY_SEED)
        self.loads = {
            index: [
                (spec.keywords, spec.payload)
                for spec in generate_objects(
                    index,
                    count=p["objects_per_node"],
                    size=p["object_size"],
                    corpus=self.corpus,
                    seed=self.seed,
                )
            ]
            for index in range(1, p["nodes"])
        }
        for items in self.loads.values():
            for keywords, payload in items:
                self.ledger.add(keywords, payload)
        #: owner -> rid -> payload of that owner's live records
        self.owned: dict[int, dict] = {}
        self.serial = 0
        self.sample = self._zipf_sampler(self.corpus.keywords())

    def setup(self, spans):
        p = self.params
        policy = ReplicationPolicy(
            rf=p["rf"], hot_rf=p["hot_rf"], cache_capacity=p["cache_capacity"]
        )
        self.deployment = spans.call(
            "core.build",
            build_network,
            p["nodes"],
            config=_overlay_configs(self.topology, replication=policy),
            topology=self.topology,
        )
        for index, items in self.loads.items():
            rids = self.deployment.nodes[index].share_many(items)
            self.owned[index] = dict(zip(rids, (payload for _k, payload in items)))
        self.deployment.sim.run()

    def _fresh_payload(self) -> bytes:
        self.serial += 1
        header = f"churn:{self.seed}:{self.serial}:".encode()
        return header.ljust(self.params["object_size"], b".")

    def next_op(self):
        rng = self.rng
        if rng.random() >= self.params["write_share"]:
            return Op("query", keyword=self.sample())
        kind = rng.choice(("share", "reshare", "unshare"))
        owner = rng.randrange(1, self.params["nodes"])
        keyword = self.corpus.keyword(rng.randrange(self.corpus.size))
        if kind == "share":
            return Op(kind, keyword=keyword, owner=owner, payload=self._fresh_payload())
        records = self.owned[owner]
        if not records:
            return Op("share", keyword=keyword, owner=owner, payload=self._fresh_payload())
        rid = list(records)[rng.randrange(len(records))]
        if kind == "unshare":
            return Op(kind, owner=owner, rid=rid)
        return Op(kind, keyword=keyword, owner=owner, rid=rid, payload=self._fresh_payload())

    def record_write(self, op, result):
        records = self.owned[op.owner]
        if op.kind != "share":
            self.ledger.remove(records.pop(op.rid))
        if op.kind != "unshare":
            records[result] = op.payload
            self.ledger.add([op.keyword], op.payload)


WORKLOADS = {cls.name: cls for cls in (PaperQuery, Flood, ShareChurn)}
