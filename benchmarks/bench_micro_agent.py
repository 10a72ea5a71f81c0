"""Microbenchmark: the agent execute-path caches on a flood workload.

A 32-node flood repeatedly dispatches one agent class: every dispatch
used to pay :func:`inspect.getsource` at the initiator, and every
first-contact hop used to ``compile``+``exec`` the shipped source at the
receiver.  With the process-wide source/compile caches
(:mod:`repro.agents.codeship`) both costs are paid once per process.

Two measurements, both over the identical flood pattern:

* **agent path** — the codeship work of the flood in isolation
  (per-dispatch source extraction at the initiator, per-node install at
  each receiver, across fresh per-lifetime registries, the way fresh
  engines meet a class).  This is where the caches live, and the
  measured speedup is asserted ≥ 2x.
* **full simulation** — the same flood driven end-to-end through
  engines, wire encoding, and the event kernel, so the JSON records how
  much of the total wall-clock the agent path was.

Both runs must agree on every simulated quantity — per-registry
``installs``, answer counts, completion times — and the result is
written to ``BENCH_agent.json`` with per-op profiler evidence
(:func:`repro.eval.report.agent_path_stats`).

``REPRO_BENCH_SCALE=smoke`` shrinks the workload for CI smoke runs.
"""

from __future__ import annotations

import json
import os
import time

from benchmarks.support import RESULTS_DIR
from repro.agents import codeship
from repro.agents.codeship import AgentCodeRegistry
from repro.agents.engine import PROTO_ANSWER, AgentEngine
from repro.agents.agent import Agent
from repro.agents.costs import AgentCosts
from repro.agents.profile import PROFILE_CATEGORY, PROFILE_OPS
from repro.ids import BPID
from repro.net import Network
from repro.sim import Simulator
from repro.storm import StorM
from repro.util.tracing import Tracer

SMOKE = os.environ.get("REPRO_BENCH_SCALE", "") == "smoke"

#: the flood's fan-out: one initiator shipping to this many receivers
NODES = 32
#: repeated dispatches of the same class per network lifetime
DISPATCHES = 2 if SMOKE else 8
#: fresh-registry generations (new engines meeting the class first-hand)
LIFETIMES = 2 if SMOKE else 10

FAST_COSTS = AgentCosts(
    class_install_time=0.01,
    state_install_time=0.001,
    execute_overhead=0.0,
    page_io_time=0.0,
    object_match_time=0.0,
)


class FloodBenchAgent(Agent):
    """The one repeatedly-dispatched class; sized like a real search
    agent so source extraction and compilation cost realistic time."""

    def __init__(self, keyword, limit=16):
        self.keyword = keyword
        self.limit = limit
        self.visited = []

    def _matches(self, store):
        found = []
        for rid, obj in store.scan():
            if self.keyword in obj.keywords:
                found.append((rid, obj))
            if len(found) >= self.limit:
                break
        return found

    def execute(self, context):
        from repro.agents.messages import AnswerItem

        result = context.storm.search_scan(self.keyword)
        context.charge_search(result)
        items = [
            AnswerItem(rid=rid, keywords=obj.keywords, size=obj.size)
            for rid, obj in result.matches
        ]
        if items:
            context.reply(items)


def _agent_path_flood() -> tuple[float, list[int]]:
    """The codeship work of the flood, isolated from the simulator.

    Per lifetime: one fresh initiator registry extracts the class source
    once per dispatch (``register_local``, exactly what ``dispatch``
    does) and ``NODES`` fresh receiver registries install the shipped
    source on first contact.  Returns elapsed seconds plus every
    ``installs`` counter, which the caches must not change.
    """
    installs = []
    start = time.perf_counter()
    for _ in range(LIFETIMES):
        initiator = AgentCodeRegistry()
        for _ in range(DISPATCHES):
            initiator.register_local(FloodBenchAgent)
        source = initiator.source_of("FloodBenchAgent")
        for _ in range(NODES):
            receiver = AgentCodeRegistry()
            for _ in range(DISPATCHES):
                receiver.install("FloodBenchAgent", source)
            installs.append(receiver.installs)
    return time.perf_counter() - start, installs


def _full_sim_flood() -> tuple[float, dict, Tracer]:
    """The same flood end-to-end: engines, wire, event kernel."""
    tracer = Tracer(categories=frozenset({PROFILE_CATEGORY}))
    observed: dict[str, object] = {"answers": 0, "installs": 0, "finish": []}
    start = time.perf_counter()
    for _ in range(LIFETIMES):
        sim = Simulator()
        network = Network(sim, tracer=tracer)
        hub_host = network.create_host("hub", dispatch_time=0.0)
        answers = []
        hub_host.bind(PROTO_ANSWER, lambda packet: answers.append(packet.payload))
        peers: list = []
        hub = AgentEngine(
            hub_host,
            local_bpid=BPID("bench", 0),
            costs=FAST_COSTS,
            get_peers=lambda: [h.address for h in peers],
            tracer=tracer,
        )
        engines = []
        for index in range(NODES - 1):
            host = network.create_host(f"n{index}", dispatch_time=0.0)
            storm = StorM()
            storm.put(["k"], bytes([index % 256]) * 16)
            engines.append(
                AgentEngine(
                    host,
                    local_bpid=BPID("bench", index + 1),
                    services={"storm": storm},
                    costs=FAST_COSTS,
                    get_peers=lambda: [],
                    tracer=tracer,
                )
            )
            peers.append(host)
        for _ in range(DISPATCHES):
            hub.dispatch(FloodBenchAgent("k"))
            sim.run()
        observed["answers"] += len(answers)
        observed["installs"] += sum(e.registry.installs for e in engines)
        observed["finish"].append(round(sim.now, 9))
    return time.perf_counter() - start, observed, tracer


def _profiler_evidence(tracer: Tracer) -> dict[str, object]:
    evidence: dict[str, object] = {}
    for op in PROFILE_OPS:
        evidence[f"{op}_count"] = tracer.counter(PROFILE_CATEGORY, op)
        evidence[f"{op}_seconds"] = round(tracer.timer(PROFILE_CATEGORY, op), 4)
    evidence.update(codeship.cache_stats())
    return evidence


class _NoCache(dict):
    """A cache that never keeps an entry: the uncached baseline."""

    def __setitem__(self, key, value) -> None:
        pass


def _with_caches(enabled: bool, fn):
    codeship.clear_caches()
    if enabled:
        return fn()
    saved = codeship._source_cache, codeship._compile_cache
    codeship._source_cache, codeship._compile_cache = _NoCache(), _NoCache()
    try:
        return fn()
    finally:
        codeship._source_cache, codeship._compile_cache = saved


def test_agent_path_flood_caches():
    cached_seconds, cached_installs = _with_caches(True, _agent_path_flood)
    uncached_seconds, uncached_installs = _with_caches(False, _agent_path_flood)

    # The caches may only change speed, never the install accounting.
    assert cached_installs == uncached_installs
    assert all(count == 1 for count in cached_installs)

    cached_sim, cached_observed, cached_tracer = _with_caches(
        True, _full_sim_flood
    )
    cached_evidence = _profiler_evidence(cached_tracer)
    uncached_sim, uncached_observed, uncached_tracer = _with_caches(
        False, _full_sim_flood
    )
    uncached_evidence = _profiler_evidence(uncached_tracer)

    # Simulated quantities are bit-identical cache-on vs cache-off.
    assert cached_observed == uncached_observed

    path_speedup = uncached_seconds / cached_seconds
    sim_speedup = uncached_sim / cached_sim
    payload = {
        "name": "agent",
        "nodes": NODES,
        "dispatches": DISPATCHES,
        "lifetimes": LIFETIMES,
        "agent_path_cached_seconds": round(cached_seconds, 4),
        "agent_path_uncached_seconds": round(uncached_seconds, 4),
        "agent_path_speedup": round(path_speedup, 2),
        "full_sim_cached_seconds": round(cached_sim, 4),
        "full_sim_uncached_seconds": round(uncached_sim, 4),
        "full_sim_speedup": round(sim_speedup, 2),
        "simulated_quantities_identical": cached_observed == uncached_observed,
        "profile_cached": cached_evidence,
        "profile_uncached": uncached_evidence,
    }
    if not SMOKE:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, "BENCH_agent.json"), "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(
        f"\nagent path: cached {cached_seconds:.4f}s vs uncached "
        f"{uncached_seconds:.4f}s ({path_speedup:.1f}x); full sim: "
        f"{cached_sim:.4f}s vs {uncached_sim:.4f}s ({sim_speedup:.2f}x)"
    )
    # Repeated dispatch + per-node install must be far beyond 2x cached.
    assert path_speedup > 2.0
