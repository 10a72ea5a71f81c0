"""Recall under churn: the figure the paper could not run.

The paper *argues* that self-reconfiguration keeps a BestPeer network
useful while peers come and go; this experiment measures it.  A base
node issues repeated queries while a :class:`~repro.faults.FaultPlan`
crashes and restarts a ``rate`` fraction of the other nodes (plus, at
nonzero rates, a bounded LIGLO outage and a transient partition).  The
y-axis is *recall*: the fraction of the network's matching objects that
actually arrive.  BPR (MaxCount reconfiguration) is compared against
BPS (static peers) across churn rates 0–50%.

Every stochastic choice — topology, fault timeline, retry jitter —
derives from the params seed, so a (scheme, rate) point replays
bit-identically: same recall series, same bytes on the wire, same drop
counters, serial or parallel.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Sequence

from repro.core.builder import BestPeerNetwork, build_network
from repro.core.config import BestPeerConfig
from repro.errors import ExperimentError
from repro.eval.experiment import ExperimentRunner, FigureResult
from repro.eval.figures import FigureParams, _run_tasks
from repro.eval.report import format_counts
from repro.faults import FaultPlan, SimFaultInjector
from repro.replication import ReplicationPolicy
from repro.topology.builders import random_graph
from repro.util.retry import RetryPolicy
from repro.workloads.corpus import KeywordCorpus

SCHEME_BPS = "BPS"
SCHEME_BPR = "BPR"
#: Opt-in overlay series: BPR reconfiguration plus rf=2 replication.
SCHEME_BPR_RF2 = "BPR+RF2"

#: Simulated seconds of churn the query workload is spread across.
CHURN_HORIZON = 30.0
#: Quiet period after which a query self-finishes (and reconfigures).
QUERY_QUIET_PERIOD = 2.0
#: Retry policy active during churn trials (tighter than the default so
#: retries resolve inside the horizon).
CHURN_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_delay=0.25, multiplier=2.0, max_delay=2.0, jitter=0.1
)

DEFAULT_CHURN_RATES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


def _session_churn(node_names: list[str], rate: float, seed: int) -> FaultPlan:
    """Crash/restart sessions for a ``rate`` fraction of ``node_names``."""
    return FaultPlan.churn(
        node_names,
        rate,
        CHURN_HORIZON,
        seed=seed,
        min_downtime=2.0,
        max_downtime=8.0,
    )


def _fault_plan(node_names: list[str], rate: float, seed: int) -> FaultPlan:
    """Churn sessions plus — when anything churns at all — one LIGLO
    outage and one transient partition, all derived from ``seed``."""
    plan = _session_churn(node_names, rate, seed)
    if rate <= 0.0:
        return plan
    plan = plan.extended(
        FaultPlan.liglo_outage("liglo-0", CHURN_HORIZON * 0.3, 5.0)
    )
    half = len(node_names) // 2
    plan = plan.extended(
        FaultPlan.partition_window(
            [node_names[:half], node_names[half:]],
            CHURN_HORIZON * 0.6,
            4.0,
        )
    )
    return plan


def share_one_each(deployment: BestPeerNetwork, keyword: str) -> None:
    """One distinct matching object per non-base node: recall is simply
    answers-received over (node_count - 1)."""
    for index, node in enumerate(deployment.nodes[1:], 1):
        node.share_many([([keyword], index.to_bytes(4, "big") * 16)])


def run_fault_trial(
    params: FigureParams,
    node_count: int,
    fill: Callable[[BestPeerNetwork], None],
    fault_plan: Callable[[list[str]], FaultPlan],
    keywords: Sequence[str],
    **config,
) -> tuple[BestPeerNetwork, list, dict, dict]:
    """The trial body the churn, routing, top-k and replication figures share.

    Builds ``node_count`` nodes on a degree-3 random overlay seeded by
    ``params``, with eight direct peers, the churn retry policy and
    suspicion threshold, and the figure's own ``config`` fields (ttl,
    strategy, top_k, replication).  Runs ``fill(deployment)``, arms
    ``fault_plan(names)`` over the non-base nodes and issues one query
    per keyword from 2 s, evenly spaced over :data:`CHURN_HORIZON`.
    Returns ``(deployment, handles, traffic, observables)``: per-query
    traffic counted from the 1.9 s setup mark, and the drop and fault
    counters every figure reports.
    """
    config = BestPeerConfig(
        max_direct_peers=8,
        retry_policy=CHURN_RETRY_POLICY,
        suspect_after=2,
        retry_seed=params.seed,
        agent_costs=params.costs,
        **config,
    )
    topology = random_graph(node_count, degree=3, seed=params.seed)
    deployment = build_network(node_count, config=config, topology=topology)
    fill(deployment)
    churnable = [node.name for node in deployment.nodes[1:]]  # base never churns
    injector = SimFaultInjector(
        deployment, fault_plan(churnable), tracer=deployment.tracer
    )
    injector.arm()
    network = deployment.network
    handles: list = []
    setup = {"packets": 0, "bytes": 0}

    def mark_setup_done() -> None:
        # Everything delivered so far — registration, hint publishes,
        # replica pushes — is setup; per-query accounting starts here.
        setup["packets"] = network.packets_delivered
        setup["bytes"] = network.bytes_carried

    def issue(keyword: str) -> None:
        handles.append(
            deployment.base.issue_query(keyword, auto_finish_after=QUERY_QUIET_PERIOD)
        )

    step = CHURN_HORIZON / len(keywords)
    deployment.sim.schedule(1.9, mark_setup_done)
    for q, keyword in enumerate(keywords):
        deployment.sim.schedule(2.0 + q * step, issue, keyword)
    deployment.sim.run()
    queries = max(len(handles), 1)
    traffic = {
        "messages_per_query": round(
            (network.packets_delivered - setup["packets"]) / queries, 3
        ),
        "bytes_per_query": round((network.bytes_carried - setup["bytes"]) / queries, 1),
        "setup_packets": setup["packets"],
        "setup_bytes": setup["bytes"],
    }
    observables = {
        "packets_delivered": network.packets_delivered,
        "bytes_carried": network.bytes_carried,
        "packets_dropped": network.packets_dropped,
        "drops_by_reason": dict(sorted(network.drops_by_reason.items())),
        "degraded_queries": sum(1 for handle in handles if handle.degraded),
        "faults_applied": dict(sorted(injector.applied.items())),
    }
    return deployment, handles, traffic, observables


def recall_summary(recalls: list) -> dict:
    """The per-query recalls and their mean (0.0 when nothing ran)."""
    return {
        "recalls": recalls,
        "mean_recall": round(sum(recalls) / max(len(recalls), 1), 6),
    }


def sweep(
    result: FigureResult,
    trial: Callable[[tuple], dict],
    axes: Sequence[Sequence],
    node_count: int,
    context: tuple,
    point: Callable[[dict], tuple],
    runner: ExperimentRunner | None,
) -> FigureResult:
    """Run ``trial`` on each combination of ``axes`` + ``(node_count,
    *context)``; store the dicts on ``result.trials`` and plot each at
    ``point(trial) == (series, x, y)``."""
    if node_count < 3:
        raise ExperimentError(
            f"{result.figure} experiment needs >= 3 nodes, got {node_count}"
        )
    tasks = [combo + (node_count, *context) for combo in product(*axes)]
    result.trials = _run_tasks(runner, trial, tasks)
    for trial_dict in result.trials:
        result.add_point(*point(trial_dict))
    return result


def churn_trial(task: tuple[str, float, int, FigureParams]) -> dict:
    """One (scheme, churn rate) point; module-level so it pickles to the
    parallel runner's workers."""
    scheme, rate, node_count, params = task
    replication = (
        ReplicationPolicy(rf=2) if scheme == SCHEME_BPR_RF2 else ReplicationPolicy()
    )
    keyword = KeywordCorpus(params.corpus_size).keyword(0)
    deployment, handles, _traffic, observables = run_fault_trial(
        params,
        node_count,
        lambda deployment: share_one_each(deployment, keyword),
        lambda names: _fault_plan(names, rate, params.seed),
        [keyword] * params.queries,
        ttl=max(7, node_count),
        strategy="static" if scheme == SCHEME_BPS else "maxcount",
        replication=replication,
    )
    expected = node_count - 1
    # The replication overlay dedups by answer content: RF > 1 means two
    # live copies may both respond, and counting both would let recall
    # exceed what the network actually holds.
    if scheme == SCHEME_BPR_RF2:
        recalls = [
            round(min(handle.distinct_answer_count, expected) / expected, 6)
            for handle in handles
        ]
    else:
        recalls = [
            round(handle.network_answer_count / expected, 6) for handle in handles
        ]
    return {
        "scheme": scheme,
        "rate": rate,
        **recall_summary(recalls),
        "answer_hops": sorted(
            answer.hops for handle in handles for answer in handle.answers
        ),
        **observables,
        "suspect_peers": sum(
            len(node.peers.suspect_bpids()) for node in deployment.nodes
        ),
    }


#: (header, trial key or cell function) columns of the per-trial table.
TRIAL_COLUMNS = (
    ("scheme", "scheme"),
    ("rate", "rate"),
    ("recall", "mean_recall"),
    ("degraded", "degraded_queries"),
    ("suspects", "suspect_peers"),
    ("drops", lambda trial: format_counts(trial["drops_by_reason"])),
    ("faults", lambda trial: format_counts(trial["faults_applied"])),
)


def figure_churn(
    params: FigureParams,
    node_count: int = 12,
    churn_rates: tuple[float, ...] = DEFAULT_CHURN_RATES,
    runner: ExperimentRunner | None = None,
    replication_overlay: bool = False,
) -> FigureResult:
    """Recall vs. churn rate, BPR against BPS.

    The plotted series carry mean recall; every trial dict (answer hops,
    drop counters, fault counts, suspect peers) is on ``result.trials``.
    """
    schemes = (SCHEME_BPS, SCHEME_BPR)
    if replication_overlay:
        schemes = schemes + (SCHEME_BPR_RF2,)
    result = FigureResult(
        figure="churn",
        title=f"Recall under churn ({node_count} nodes, {params.queries} queries)",
        x_label="churn rate",
        y_label="mean recall",
        notes=(
            "seeded fault plan: session churn over "
            f"{CHURN_HORIZON}s; nonzero rates add a LIGLO outage and a "
            "transient partition"
        ),
    )
    return sweep(
        result,
        churn_trial,
        (schemes, churn_rates),
        node_count,
        (params,),
        lambda trial: (trial["scheme"], trial["rate"], trial["mean_recall"]),
        runner,
    )
