"""Recall vs. traffic across routing strategies — clean and under churn.

The routing-framework comparison the ROADMAP asks for: every registered
:mod:`repro.core.routing` strategy runs the same workload as the churn
figure (a base node queries while each other node holds exactly one
matching object), clean (`rate 0`) and under the PR 4 fault plan
(session churn + LIGLO outage + partition).  Per (strategy, rate) point
the trial records *recall* and the two traffic prices the strategies
trade against it: *messages per query* and *bytes per query*, counted
from just before the first query so store population and registration
don't pollute the comparison (setup traffic is reported separately).

This is where super-peer routing earns its keep: with the hint
directory populated, the search agent ships straight to the holders
with TTL 1 instead of flooding the overlay, cutting messages per query
well below MaxCount at equal recall.

Every stochastic choice — topology, link-cost tiers, fault timeline,
retry jitter — derives from the params seed, so every point replays
bit-identically, serial or parallel.
"""

from __future__ import annotations

from repro.core.routing import registered_strategies
from repro.eval.churn import (
    _fault_plan,
    recall_summary,
    run_fault_trial,
    share_one_each,
    sweep,
)
from repro.eval.experiment import ExperimentRunner, FigureResult
from repro.eval.figures import FigureParams
from repro.net.link import LinkModel
from repro.util.randomness import derive_rng
from repro.workloads.corpus import KeywordCorpus

#: Churn rates every strategy is measured at (clean + the stress point).
DEFAULT_ROUTING_RATES = (0.0, 0.3)

#: Latency of the "far" link tier (vs the 0.005 s default) — gives the
#: cost-aware strategy a real gradient to rank on, P4P-style.
FAR_LINK = LinkModel(latency=0.02)

#: Fraction of nodes placed behind far links.
FAR_FRACTION = 0.33


def _apply_link_tiers(deployment, seed: int) -> list[str]:
    """Deterministically place ~1/3 of the nodes behind expensive links.

    Links are per directed address pair, both directions, between every
    host pair that involves a far node.  (A churn rejoin leases a fresh
    address, which falls back to the default link — the tiers price the
    *initial* overlay, which is where selection decisions concentrate.)
    """
    rng = derive_rng(seed, "routing", "links")
    far_nodes = [
        node for node in deployment.nodes[1:] if rng.random() < FAR_FRACTION
    ]
    hosts = [node.host.address for node in deployment.nodes]
    for far in far_nodes:
        far_address = far.host.address
        for address in hosts:
            if address == far_address:
                continue
            deployment.network.set_link(address, far_address, FAR_LINK)
            deployment.network.set_link(far_address, address, FAR_LINK)
    return [node.name for node in far_nodes]


def routing_trial(task: tuple[str, float, int, FigureParams]) -> dict:
    """One (strategy, churn rate) point; module-level so it pickles to
    the parallel runner's workers."""
    strategy, rate, node_count, params = task
    keyword = KeywordCorpus(params.corpus_size).keyword(0)
    far_nodes: list[str] = []

    def fill(deployment) -> None:
        far_nodes.extend(_apply_link_tiers(deployment, params.seed))
        share_one_each(deployment, keyword)

    deployment, handles, traffic, observables = run_fault_trial(
        params,
        node_count,
        fill,
        lambda names: _fault_plan(names, rate, params.seed),
        [keyword] * params.queries,
        ttl=max(7, node_count),
        strategy=strategy,
    )
    expected = node_count - 1
    base = deployment.base
    return {
        "strategy": strategy,
        "rate": rate,
        **recall_summary(
            [round(handle.network_answer_count / expected, 6) for handle in handles]
        ),
        **traffic,
        **observables,
        "far_nodes": far_nodes,
        "hint_queries": base.hint_queries,
        "hint_hits": base.hint_hits,
        "hint_fallbacks": base.hint_fallbacks,
    }


#: (header, trial key or cell function) columns of the per-trial table:
#: recall next to traffic, plus the hint-directory counters that explain
#: *how* super-peer routing got its number (hits route TTL-1 to holders;
#: fallbacks flood like everyone else).
TRIAL_COLUMNS = (
    ("strategy", "strategy"),
    ("rate", "rate"),
    ("recall", "mean_recall"),
    ("msgs/query", "messages_per_query"),
    ("bytes/query", "bytes_per_query"),
    ("hint hits", lambda trial: f"{trial['hint_hits']}/{trial['hint_queries']}"),
    ("degraded", "degraded_queries"),
)


def figure_routing(
    params: FigureParams,
    node_count: int = 12,
    churn_rates: tuple[float, ...] = DEFAULT_ROUTING_RATES,
    strategies: tuple[str, ...] | None = None,
    runner: ExperimentRunner | None = None,
) -> FigureResult:
    """Recall vs. churn rate for every registered routing strategy.

    The plotted series carry mean recall; the full traffic observables
    (messages/bytes per query, hint-directory counters, drop and fault
    counts) are on ``result.trials``.
    """
    names = (
        strategies if strategies is not None else tuple(registered_strategies())
    )
    result = FigureResult(
        figure="routing",
        title=(
            f"Routing strategies: recall vs traffic ({node_count} nodes, "
            f"{params.queries} queries)"
        ),
        x_label="churn rate",
        y_label="mean recall",
        notes=(
            "per-strategy traffic (messages/bytes per query) in trial "
            "details; seeded fault plan as the churn figure; ~1/3 of the "
            "nodes sit behind 4x-latency links (cost-aware gradient)"
        ),
    )
    return sweep(
        result,
        routing_trial,
        (names, churn_rates),
        node_count,
        (params,),
        lambda trial: (trial["strategy"], trial["rate"], trial["mean_recall"]),
        runner,
    )
