"""Recall under churn with replication — resilience, not just survival.

The churn figure shows a reconfigurable network *degrading gracefully*:
recall falls as owners crash, because every object lives on exactly one
node.  This figure prices the fix.  A base node runs a Zipf(1.0)-skewed
query workload over per-node distinct objects while a seeded churn plan
crashes and restarts the owners; three schemes share the identical
workload and fault timeline:

* ``RF1`` — the paper's single-copy behaviour (baseline);
* ``RF2`` — every object materialises one extra replica at share time;
* ``RF2+cache`` — RF2 plus hotness promotion (``hot_rf=3``) and the
  initiator's invalidation-coherent result cache.

Recall is binary per query — did *any* copy of the queried object
answer? — with the :attr:`~repro.core.query.QueryHandle.distinct_answer_count`
dedup, so RF > 1 never double-counts.  Bytes per query (counted from
just before the first query) shows what the extra copies cost on the
wire and what the cache claws back on Zipf-hot repeats.

Unlike the churn figure's fault plan, churn here is sessions only (no
LIGLO outage, no partition): the claim under test is *owner death*, and
replicas on live holders cannot answer across a partition no scheme
could cross.

Every stochastic choice — topology, fault timeline, Zipf draw, retry
jitter — derives from the params seed, so every point replays
bit-identically, serial or parallel.
"""

from __future__ import annotations

from repro.eval.churn import (
    CHURN_HORIZON,
    _session_churn,
    recall_summary,
    run_fault_trial,
    sweep,
)
from repro.eval.experiment import ExperimentRunner, FigureResult
from repro.eval.figures import FigureParams
from repro.eval.report import format_counts, replication_stats
from repro.replication import ReplicationPolicy
from repro.workloads.corpus import KeywordCorpus
from repro.workloads.queries import QueryWorkload

SCHEME_RF1 = "RF1"
SCHEME_RF2 = "RF2"
SCHEME_RF2_CACHE = "RF2+cache"

DEFAULT_SCHEMES = (SCHEME_RF1, SCHEME_RF2, SCHEME_RF2_CACHE)
DEFAULT_CHURN_RATES = (0.0, 0.3, 0.5)

#: Zipf skew of the query stream — the classic content-popularity model;
#: repeats concentrate on low-index objects, which is what the hot
#: promotion and the result cache exist to exploit.
QUERY_SKEW = 1.0

#: Queries per trial: recall is binary per query, so the floor keeps the
#: mean meaningful even under quick smoke params.
MIN_QUERIES = 16

#: Payload bytes of every shared object.
OBJECT_BYTES = 256

#: The replication counters each trial dict carries, summed over nodes.
REPLICATION_KEYS = (
    "replicas_held",
    "replica_answers",
    "replicas_pushed",
    "invalidations",
    "stale_repairs",
    "cache_hits",
    "cache_misses",
)


def replication_policy_for(scheme: str) -> ReplicationPolicy:
    """The per-node policy each scheme runs under."""
    if scheme == SCHEME_RF1:
        return ReplicationPolicy()
    if scheme == SCHEME_RF2:
        return ReplicationPolicy(rf=2)
    if scheme == SCHEME_RF2_CACHE:
        return ReplicationPolicy(rf=2, hot_rf=3, cache_capacity=32)
    raise ValueError(f"unknown replication scheme {scheme!r}")


def replication_trial(task: tuple[str, float, int, FigureParams]) -> dict:
    """One (scheme, churn rate) point; module-level so it pickles to the
    parallel runner's workers."""
    scheme, rate, node_count, params = task
    corpus = KeywordCorpus(node_count - 1)

    def fill(deployment) -> None:
        # One distinct object per non-base node: object i (and only it)
        # matches keyword i, so per-query recall is a crisp 0/1.
        for index, node in enumerate(deployment.nodes[1:], 1):
            node.share_many(
                [([corpus.keyword(index - 1)], index.to_bytes(4, "big") * (OBJECT_BYTES // 4))]
            )
        deployment.sim.run()  # replica offer/accept/push handshakes settle

    keywords = QueryWorkload(corpus, skew=QUERY_SKEW, seed=params.seed).keywords(
        max(MIN_QUERIES, params.queries)
    )
    deployment, handles, traffic, observables = run_fault_trial(
        params,
        node_count,
        fill,
        # Sessions only — no LIGLO outage, no partition: owner death is
        # the failure mode replicas answer for.
        lambda names: _session_churn(names, rate, params.seed),
        keywords,
        ttl=max(7, node_count),
        strategy="maxcount",
        replication=replication_policy_for(scheme),
    )
    # Binary recall with replica dedup: any one copy answering counts
    # exactly once; extra copies never inflate the score.
    recalls = [
        1 if handle.distinct_answer_count >= 1 else 0 for handle in handles
    ]
    totals = replication_stats(deployment.nodes)
    return {
        "scheme": scheme,
        "rate": rate,
        **recall_summary(recalls),
        "queries": max(len(handles), 1),
        "cached_queries": sum(1 for handle in handles if handle.served_from_cache),
        **traffic,
        **observables,
        "replication": {key: totals[key] for key in REPLICATION_KEYS},
    }


def _cache_cell(trial: dict) -> str:
    rep = trial["replication"]
    return f"{rep['cache_hits']}/{rep['cache_hits'] + rep['cache_misses']}"


#: (header, trial key or cell function) columns of the per-trial table:
#: recall next to bytes per query, replica answers (queries a holder
#: saved after the owner died), cache hits, and the faults applied.
TRIAL_COLUMNS = (
    ("scheme", "scheme"),
    ("rate", "rate"),
    ("recall", "mean_recall"),
    ("bytes/query", "bytes_per_query"),
    ("replicas", lambda trial: trial["replication"]["replicas_held"]),
    ("replica answers", lambda trial: trial["replication"]["replica_answers"]),
    ("cache hits", _cache_cell),
    ("repairs", lambda trial: trial["replication"]["stale_repairs"]),
    ("faults", lambda trial: format_counts(trial["faults_applied"])),
)


def figure_replication(
    params: FigureParams,
    node_count: int = 12,
    schemes: tuple[str, ...] = DEFAULT_SCHEMES,
    churn_rates: tuple[float, ...] = DEFAULT_CHURN_RATES,
    runner: ExperimentRunner | None = None,
) -> FigureResult:
    """Mean recall vs churn rate, one series per replication scheme.

    The plotted series carry recall; bytes/messages per query, cache
    hit counts, repair counts, and fault counts are on ``result.trials``.
    """
    result = FigureResult(
        figure="replication",
        title=(
            f"Recall under churn with replication ({node_count} nodes, "
            f"Zipf({QUERY_SKEW}) queries)"
        ),
        x_label="churn rate",
        y_label="mean recall",
        notes=(
            "sessions-only seeded churn plan over "
            f"{CHURN_HORIZON}s; binary per-query recall with replica "
            "dedup; bytes per query in trial details"
        ),
    )
    return sweep(
        result,
        replication_trial,
        (schemes, churn_rates),
        node_count,
        (params,),
        lambda trial: (trial["scheme"], trial["rate"], trial["mean_recall"]),
        runner,
    )
