"""The performance fast paths must never change a result.

Every observable output — figure series, bytes on the wire, packet
counts, answer hop counts, fault and replication counters — is pinned
by a recorded golden under ``tests/eval/goldens/``.  Each case below
drives one workload under one runner, cache or shard setting and
compares it against that golden, so a fast path that drifts fails here
instead of silently changing a figure.  Intentional changes regenerate
the goldens with ``REPRO_REWRITE_VECTORS=1`` and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import repro.storm.store as store_module
import repro.storm.template as template_module
import repro.util.serialization as serialization_module
from repro.agents import codeship
from repro.core.builder import build_network
from repro.core.config import BestPeerConfig
from repro.eval.experiment import ExperimentRunner, ParallelExperimentRunner
from repro.eval.figures import FigureParams, figure_5a, figure_8a
from repro.replication import ReplicationPolicy
from repro.topology.builders import line, star

GOLDENS_DIR = Path(__file__).parent / "goldens"
REWRITE_ENV_VAR = "REPRO_REWRITE_VECTORS"

#: Small enough to run every variant in seconds, big enough to exercise
#: flooding, reconfiguration, StorM scans and multi-page heaps.
TINY = FigureParams(objects_per_node=20, object_size=256, queries=2)

#: An active policy: replicas, hot-object copies and answer caching.
REPLICATED = ReplicationPolicy(rf=2, hot_rf=3, cache_capacity=8)


def assert_golden(name: str, observed) -> None:
    """``observed`` must equal the recorded ``goldens/<name>.json``.

    Values are compared in their JSON form (tuples read back as lists).
    With ``REPRO_REWRITE_VECTORS=1`` the golden is rewritten instead.
    """
    path = GOLDENS_DIR / f"{name}.json"
    observed = json.loads(json.dumps(observed))
    if os.environ.get(REWRITE_ENV_VAR):
        GOLDENS_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n")
        return
    golden = json.loads(path.read_text())
    assert observed == golden, (
        f"{name} drifted from {path.name}; regenerate with "
        f"{REWRITE_ENV_VAR}=1 only for an intentional change"
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _run_figures(runner=None):
    fig5 = figure_5a(TINY, sizes=(1, 2, 4), runner=runner)
    fig8 = figure_8a(TINY, node_count=8, max_peers=4, holder_count=2, runner=runner)
    return fig5.series, fig8.series


def _query_twice(deployment) -> tuple:
    """Issue the same query twice from the base; return per-host bytes,
    per-answer hop counts and the network's packet totals."""
    answer_hops = []
    for _ in range(2):
        handle = deployment.base.issue_query("needle")
        deployment.sim.run()
        answer_hops.extend(
            sorted(
                (str(ans.responder), ans.hops, ans.answer_count)
                for ans in handle.answers
            )
        )
        deployment.base.finish_query(handle)
    network = deployment.network
    return (
        [host.bytes_sent for host in network.hosts.values()],
        answer_hops,
        network.bytes_carried,
        network.packets_delivered,
        network.packets_dropped,
    )


def _drive_deployment(**config) -> tuple:
    """A 5-node MaxCount line with two holders: reconfiguration moves
    the holders closer between the two queries."""
    deployment = build_network(
        5,
        config=BestPeerConfig(max_direct_peers=3, strategy="maxcount", **config),
        topology=line(5),
    )
    deployment.nodes[3].share(["needle"], b"payload-at-node-3")
    deployment.nodes[4].share(["needle"], b"payload-at-node-4")
    return _query_twice(deployment)


def _flood_observables(node_count: int = 32, **config) -> tuple:
    """A seeded static star flood, plus the decode-error count."""
    deployment = build_network(
        node_count,
        config=BestPeerConfig(
            max_direct_peers=node_count, strategy="static", **config
        ),
        topology=star(node_count),
    )
    deployment.nodes[3].share(["needle"], b"payload-at-node-3")
    deployment.nodes[node_count - 1].share(["needle"], b"payload-at-the-rim")
    return _query_twice(deployment) + (deployment.network.decode_errors,)


def _scored_star(**config) -> tuple:
    """An 8-node static star with several scored matches per rim node."""
    deployment = build_network(
        8,
        config=BestPeerConfig(max_direct_peers=8, strategy="static", **config),
        topology=star(8),
    )
    for index, node in enumerate(deployment.nodes[1:], 1):
        node.share(["needle"] + ["pad"] * (index % 3), bytes([index]) * 64)
    return _query_twice(deployment)


# ---------------------------------------------------------------------------
# Figure series: serial, parallel, caches off, cold process caches
# ---------------------------------------------------------------------------
#
# Cases named after a retired REPRO_* switch (wire codec, data codec,
# routing, top-k, replication, agent cache, bulk load, store template)
# once compared the fast path against that switch's legacy path.  The
# goldens were recorded while both paths existed and matched, so each
# case now pins the one remaining path to them, under the runner it
# always used.


def _assert_figures_golden(parallel: bool) -> None:
    runner = ParallelExperimentRunner(jobs=2) if parallel else None
    assert_golden("figures_tiny", _run_figures(runner))


def test_series_identical_under_serial_runner():
    assert_golden("figures_tiny", _run_figures())
    assert_golden("figures_tiny", _run_figures(ExperimentRunner()))


def test_series_identical_under_parallel_runner():
    _assert_figures_golden(parallel=True)


def test_series_identical_with_caches_disabled(monkeypatch):
    monkeypatch.setattr(serialization_module, "WIRE_CACHE_CAPACITY", 0)
    monkeypatch.setattr(store_module, "SCAN_CACHE_DEFAULT", False)
    assert_golden("figures_tiny", _run_figures())


def test_series_identical_with_bulk_load_disabled():
    # A cleared template registry bulk-loads every store afresh.
    template_module.clear_templates()
    _assert_figures_golden(parallel=False)


def test_series_identical_with_bulk_load_disabled_parallel():
    template_module.clear_templates()
    _assert_figures_golden(parallel=True)


def test_series_identical_with_templates_disabled():
    # The first trial of each shape builds its template; the rest clone.
    template_module.clear_templates()
    _assert_figures_golden(parallel=False)
    _assert_figures_golden(parallel=False)


def test_series_identical_with_templates_disabled_parallel():
    template_module.clear_templates()
    _assert_figures_golden(parallel=True)


def test_series_identical_with_bulk_and_templates_disabled():
    template_module.clear_templates()
    codeship.clear_caches()
    _assert_figures_golden(parallel=False)


def test_series_identical_with_agent_caches_disabled():
    # Cold agent caches compile every shipped agent class from source.
    codeship.clear_caches()
    _assert_figures_golden(parallel=False)


def test_series_identical_with_agent_caches_disabled_parallel():
    codeship.clear_caches()
    _assert_figures_golden(parallel=True)


def test_series_identical_under_pickle_wire_codec():
    _assert_figures_golden(parallel=False)


def test_series_identical_under_pickle_wire_codec_parallel():
    _assert_figures_golden(parallel=True)


def test_series_identical_under_pickle_data_codec():
    _assert_figures_golden(parallel=False)


def test_series_identical_under_pickle_data_codec_parallel():
    _assert_figures_golden(parallel=True)


def test_series_identical_under_legacy_routing():
    # For the paper strategies the strategy-driven fan-out is the plain
    # flood to every non-suspect peer in table order.
    _assert_figures_golden(parallel=False)


def test_series_identical_under_legacy_routing_parallel():
    _assert_figures_golden(parallel=True)


def test_series_identical_under_topk_bypass():
    _assert_figures_golden(parallel=False)


def test_series_identical_under_topk_bypass_parallel():
    _assert_figures_golden(parallel=True)


def test_series_identical_under_replication_bypass():
    _assert_figures_golden(parallel=False)


def test_series_identical_under_replication_bypass_parallel():
    _assert_figures_golden(parallel=True)


# ---------------------------------------------------------------------------
# Wire bytes and hops: deployments and floods
# ---------------------------------------------------------------------------


def test_wire_bytes_identical_cache_on_vs_off(monkeypatch):
    assert_golden("drive_deployment", _drive_deployment())
    monkeypatch.setattr(serialization_module, "WIRE_CACHE_CAPACITY", 0)
    assert_golden("drive_deployment", _drive_deployment())


def test_wire_bytes_and_hops_identical_agent_cache_on_vs_off():
    codeship.clear_caches()
    assert_golden("drive_deployment", _drive_deployment())  # cold agent caches
    assert_golden("drive_deployment", _drive_deployment())  # warm agent caches


def test_wire_bytes_and_hops_identical_compact_vs_pickle():
    assert_golden("drive_deployment", _drive_deployment())


def test_wire_bytes_and_hops_identical_stream_vs_pickle():
    assert_golden("drive_deployment", _drive_deployment())


def test_wire_bytes_and_hops_identical_legacy_vs_strategy_routing():
    assert_golden("drive_deployment", _drive_deployment())


def test_32_node_flood_identical_compact_vs_pickle():
    assert_golden("flood_32", _flood_observables())


def test_32_node_flood_identical_stream_vs_pickle():
    assert_golden("flood_32", _flood_observables())


def test_32_node_flood_identical_with_both_planes_on_pickle(monkeypatch):
    # With the encoder cache off every control and data frame goes
    # through its codec afresh.
    monkeypatch.setattr(serialization_module, "WIRE_CACHE_CAPACITY", 0)
    assert_golden("flood_32", _flood_observables())


def test_legacy_workloads_unaffected_by_topk_env():
    # top_k=None (the default) is the plain exhaustive flood.
    assert_golden("drive_deployment", _drive_deployment(top_k=None))
    assert_golden("flood_32", _flood_observables(top_k=None))


def test_legacy_workloads_unaffected_by_replication_env():
    # rf=1 (the default) places no replicas and caches no answers.
    single = ReplicationPolicy(rf=1)
    assert_golden("drive_deployment", _drive_deployment(replication=single))
    assert_golden("flood_32", _flood_observables(replication=single))


def test_topk_flood_matches_goldens():
    # k=None is the exhaustive flood; k=4 carries the travelling
    # accumulator and lets dominated answers die in-network.
    assert_golden("topk_flood_k_none", _scored_star(top_k=None))
    assert_golden("topk_flood_k4", _scored_star(top_k=4))


def test_replication_flood_matches_goldens():
    # rf=1 (the default) places nothing; REPLICATED pushes copies,
    # promotes hot records and caches answer sets.
    assert_golden("replication_flood_rf1", _scored_star())
    assert_golden(
        "replication_flood_rf1", _scored_star(replication=ReplicationPolicy(rf=1))
    )
    assert_golden("replication_flood_rf2", _scored_star(replication=REPLICATED))


def test_encoder_cache_actually_hits_during_flood():
    # A star base floods one envelope object to every peer.  The first
    # query ships per-peer class source (distinct envelopes); once the
    # peers cache the agent class, the second query's fan-out reuses a
    # single envelope and must hit the encoder cache.
    deployment = build_network(
        6,
        config=BestPeerConfig(max_direct_peers=8, strategy="static"),
        topology=star(6),
    )
    deployment.nodes[3].share(["needle"], b"on a leaf")
    for _ in range(2):
        handle = deployment.base.issue_query("needle")
        deployment.sim.run()
        deployment.base.finish_query(handle)
    network = deployment.network
    assert network.encode_misses > 0
    assert network.encode_hits > 0  # fan-out re-used at least one encoding


# ---------------------------------------------------------------------------
# Figure trials under the churn fault plan: serial vs parallel
# ---------------------------------------------------------------------------


def _faulted_observables(runner) -> tuple:
    """The churn figure at a nonzero rate: faults fire mid-run, yet the
    seeded timeline must leave serial and parallel runs bit-identical."""
    from repro.eval.churn import figure_churn

    params = FigureParams(objects_per_node=0, queries=2, seed=0)
    result = figure_churn(
        params, node_count=8, churn_rates=(0.5,), runner=runner
    )
    trials = figure_churn.last_trials
    return (
        result.series,
        [
            (
                t["scheme"],
                tuple(t["recalls"]),
                tuple(t["answer_hops"]),
                t["bytes_carried"],
                t["packets_delivered"],
                tuple(sorted(t["drops_by_reason"].items())),
                tuple(sorted(t["faults_applied"].items())),
            )
            for t in trials
        ],
    )


def test_faulted_series_identical_serial_vs_parallel():
    # A nonzero FaultPlan replays identically under the default, serial
    # and parallel runners.
    assert_golden("faulted", _faulted_observables(None))
    assert_golden("faulted", _faulted_observables(ExperimentRunner()))
    assert_golden("faulted", _faulted_observables(ParallelExperimentRunner(jobs=2)))


def test_faulted_series_identical_under_legacy_routing():
    # maxcount vs static under a nonzero fault plan, serial and parallel.
    assert_golden("faulted", _faulted_observables(None))
    assert_golden("faulted", _faulted_observables(ParallelExperimentRunner(jobs=2)))


def _routing_observables(runner) -> tuple:
    """The routing comparison figure under the churn fault plan; every
    per-trial observable, for the strategies beyond the paper's (the
    paper strategies drive the figure and churn goldens above)."""
    from repro.eval.routing import figure_routing

    params = FigureParams(objects_per_node=0, queries=2, seed=0)
    result = figure_routing(
        params,
        node_count=8,
        churn_rates=(0.0, 0.3),
        strategies=("history", "superpeer", "costaware"),
        runner=runner,
    )
    trials = figure_routing.last_trials
    return (
        result.series,
        [
            (
                t["strategy"],
                tuple(t["recalls"]),
                t["messages_per_query"],
                t["bytes_per_query"],
                t["setup_packets"],
                t["setup_bytes"],
                t["bytes_carried"],
                t["packets_delivered"],
                tuple(sorted(t["drops_by_reason"].items())),
                tuple(sorted(t["faults_applied"].items())),
                t["hint_queries"],
                t["hint_hits"],
                t["hint_fallbacks"],
            )
            for t in trials
        ],
    )


def test_new_strategies_self_identical_serial_vs_parallel():
    # history / superpeer / costaware under churn: the seeded timeline
    # (including hint publishes, hint queries and fallback floods) must
    # replay bit-identically whichever runner executes the sweep.
    assert_golden("routing_figure", _routing_observables(None))
    assert_golden("routing_figure", _routing_observables(ExperimentRunner()))
    assert_golden(
        "routing_figure", _routing_observables(ParallelExperimentRunner(jobs=2))
    )


def _topk_figure_observables(runner) -> tuple:
    """The top-k figure under the churn fault plan: every per-trial
    observable, bounded (k=2) and exhaustive in the same sweep."""
    from repro.eval.topk import figure_topk

    params = FigureParams(objects_per_node=0, queries=2, seed=0)
    result = figure_topk(
        params,
        node_count=8,
        ks=(2, None),
        ttls=(4,),
        churn_rates=(0.3,),
        runner=runner,
    )
    trials = figure_topk.last_trials
    return (
        result.series,
        [
            (
                t["label"],
                t["ttl"],
                t["rate"],
                t["answers_per_query"],
                t["dominated_per_query"],
                t["digests_per_query"],
                t["messages_per_query"],
                t["bytes_per_query"],
                tuple(sorted(t["quality"].items())),
                t["setup_packets"],
                t["setup_bytes"],
                t["bytes_carried"],
                t["packets_delivered"],
                tuple(sorted(t["drops_by_reason"].items())),
                tuple(sorted(t["faults_applied"].items())),
            )
            for t in trials
        ],
    )


def test_topk_figure_self_identical_serial_vs_parallel():
    # A fixed-k sweep under the seeded fault plan: accumulator state
    # rides the flood, dominated answers die mid-network, faults fire —
    # and the whole timeline still replays bit-identically whichever
    # runner executes it.
    assert_golden("topk_figure", _topk_figure_observables(None))
    assert_golden("topk_figure", _topk_figure_observables(ExperimentRunner()))
    assert_golden(
        "topk_figure", _topk_figure_observables(ParallelExperimentRunner(jobs=2))
    )


def _replication_figure_observables(runner) -> tuple:
    """The replication figure under the churn fault plan: every
    per-trial observable, all three schemes in the same sweep."""
    from repro.eval.replication import figure_replication

    params = FigureParams(objects_per_node=0, queries=2, seed=0)
    result = figure_replication(
        params,
        node_count=8,
        churn_rates=(0.0, 0.3),
        runner=runner,
    )
    trials = figure_replication.last_trials
    return (
        result.series,
        [
            (
                t["scheme"],
                t["rate"],
                tuple(t["recalls"]),
                t["cached_queries"],
                t["messages_per_query"],
                t["bytes_per_query"],
                t["setup_packets"],
                t["setup_bytes"],
                t["bytes_carried"],
                t["packets_delivered"],
                tuple(sorted(t["drops_by_reason"].items())),
                t["degraded_queries"],
                tuple(sorted(t["faults_applied"].items())),
                tuple(sorted(t["replication"].items())),
            )
            for t in trials
        ],
    )


def test_replication_figure_self_identical_serial_vs_parallel():
    # Offers, pushes, invalidations, cache hits and replica answers all
    # ride the same seeded timeline; the sweep must replay
    # bit-identically whichever runner executes it.
    assert_golden("replication_figure", _replication_figure_observables(None))
    assert_golden(
        "replication_figure", _replication_figure_observables(ExperimentRunner())
    )
    assert_golden(
        "replication_figure",
        _replication_figure_observables(ParallelExperimentRunner(jobs=2)),
    )


# ---------------------------------------------------------------------------
# Sharded kernel: REPRO_SHARDS must be invisible at any shard count
# ---------------------------------------------------------------------------


SHARDS_ENV_VAR = "REPRO_SHARDS"
SHARD_MODE_ENV_VAR = "REPRO_SHARD_MODE"


def test_shards_off_and_one_bitidentical_to_serial(monkeypatch):
    # "off" (and "1") are the serial kernel with zero sharding overlay:
    # the env read happens in build_network, so the entire workload —
    # bytes, hops, packet totals — must be untouched.
    for shards in ("off", "1"):
        monkeypatch.setenv(SHARDS_ENV_VAR, shards)
        assert_golden("drive_deployment", _drive_deployment())
        assert_golden("flood_32", _flood_observables())


def test_wire_bytes_and_hops_identical_sharded_vs_serial(monkeypatch):
    for shards in ("2", "4"):
        monkeypatch.setenv(SHARDS_ENV_VAR, shards)
        assert_golden("drive_deployment", _drive_deployment())


def test_32_node_flood_identical_sharded_vs_serial(monkeypatch):
    for shards in ("2", "4"):
        for mode in ("hash", "locality"):
            monkeypatch.setenv(SHARDS_ENV_VAR, shards)
            monkeypatch.setenv(SHARD_MODE_ENV_VAR, mode)
            assert_golden("flood_32", _flood_observables())


def test_series_identical_under_sharded_kernel(monkeypatch):
    # Figures 5a and 8a: reconfiguration, StorM scans, agent shipping —
    # the full stack rides the lockstep sharded executor bit-exactly.
    for shards in ("2", "4"):
        monkeypatch.setenv(SHARDS_ENV_VAR, shards)
        assert_golden("figures_tiny", _run_figures())


def test_faulted_series_identical_under_sharded_kernel(monkeypatch):
    # Churn with live fault injection: crashes, outages, partitions and
    # latency changes fire mid-window, and the global-clock broadcast
    # keeps every shard anchored at serial time.
    for shards in ("2", "4"):
        monkeypatch.setenv(SHARDS_ENV_VAR, shards)
        assert_golden("faulted", _faulted_observables(None))


def test_1k_node_flood_identical_sharded_vs_serial(monkeypatch):
    # The acceptance workload at figure scale: a 1000-node random-graph
    # flood with per-edge latency jitter, per-host bytes compared.
    from repro.eval.scaling import _flood_deployment, _observables

    def flood(shards=None):
        deployment = _flood_deployment(1000, seed=0, shards=shards)
        deployment.base.issue_query("needle")
        deployment.sim.run()
        return _observables(deployment.network)

    monkeypatch.delenv(SHARDS_ENV_VAR, raising=False)
    serial = flood()
    for shards in (2, 4):
        assert flood(shards=shards) == serial
