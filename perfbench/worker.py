"""One measured run of one workload, in a fresh single-threaded process.

``run.py`` starts this file once per sample; it is not meant to be run
by hand, though it can be::

    PYTHONPATH=src python3 perfbench/worker.py --workload paper-query --seed 1 --seconds 5

The process builds and settles the deployment (timed as set-up), then
runs the workload's closed loop until ``--seconds`` have passed or
``--ops`` operations are done, checks every answer against the ledger,
and prints one JSON object of raw results on its last stdout line.
With ``--trace 1`` every layer entry point is wrapped in a span first.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from scenarios import WORKLOADS, NoSpans
from spans import SpanRecorder, install_layer_spans


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_counters(deployment) -> dict:
    """Counters the program keeps itself, read once at the end of a run."""
    from repro.agents import codeship

    network = deployment.network
    logical = physical = 0
    pushed = invalidations = 0
    for node in deployment.nodes:
        stats = node.storm.stats
        logical += stats.logical_reads
        physical += stats.physical_reads
        replication = node.replication.statistics()
        pushed += replication["replicas_pushed"]
        invalidations += replication["invalidations"]
    code = codeship.cache_stats()
    installs = code["compile_cache_hits"] + code["compile_cache_misses"]
    encodes = network.encode_hits + network.encode_misses
    return {
        "storm.buffer.hit_ratio": (logical - physical) / logical if logical else 0.0,
        "net.encode.hit_ratio": network.encode_hits / encodes if encodes else 0.0,
        "agents.code_cache.hit_ratio": code["compile_cache_hits"] / installs if installs else 0.0,
        "replication.replicas_pushed": pushed,
        "replication.invalidations": invalidations,
    }


def run(args) -> dict:
    spans = SpanRecorder() if args.trace else NoSpans()
    if args.trace:
        install_layer_spans(spans)
    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    workload.prepare()
    # The ledger is the benchmark's state, not the program's: keep the
    # collector from walking it during the measured regions.
    gc.collect()
    gc.freeze()
    clock = time.perf_counter
    start = clock()
    spans.call("bench.setup", workload.setup, spans)
    setup_s = clock() - start
    out = {"params": workload.params, "setup_s": setup_s}
    if args.setup_only:
        return out

    network = workload.deployment.network
    bytes0, packets0 = network.bytes_carried, network.packets_delivered
    digest = hashlib.sha256()
    op_walls: list[float] = []
    completions: list[float] = []
    failed = found = expected = queries = 0
    rss_mb = None
    phase_start = clock()
    while True:
        op = workload.next_op()
        spans.current_op = len(op_walls) + 1
        began = clock()
        try:
            result = spans.call("bench.op", workload.run_op, op)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            op_walls.append(clock() - began)
            failed += 1
            digest.update(f"{op.kind}:raised;".encode())
        else:
            op_walls.append(clock() - began)
            verdict = workload.check(op, result)
            if verdict is None:
                digest.update(f"{op.kind}:{result!r};".encode())
            else:
                queries += 1
                failed += verdict.foreign > 0
                found += verdict.found
                expected += verdict.expected
                if result.completion_time is not None:
                    completions.append(result.completion_time)
                digest.update(
                    f"query:{result.completion_time!r}:{result.network_answer_count}:"
                    f"{result.distinct_answer_count};".encode()
                )
        if len(op_walls) == workload.params["rss_after_ops"]:
            rss_mb = peak_rss_mb()
        if args.ops and len(op_walls) >= args.ops:
            break
        if not args.ops and clock() - phase_start >= args.seconds:
            break
    digest.update(
        f"net:{network.bytes_carried}:{network.packets_delivered}:"
        f"{network.packets_dropped}".encode()
    )
    out.update(
        ops=len(op_walls),
        failed=failed,
        queries=queries,
        found=found,
        expected=expected,
        op_walls=op_walls,
        completions=completions,
        bytes=network.bytes_carried - bytes0,
        packets=network.packets_delivered - packets0,
        wall_s=setup_s + sum(op_walls),
        rss_mb=rss_mb if rss_mb is not None else peak_rss_mb(),
        digest=digest.hexdigest(),
    )
    if args.trace:
        out["trace"] = spans.summary()
        out["trace"]["events"] = spans.events
        out["trace"]["counters"] = layer_counters(workload.deployment)
        if args.spans_out:
            spans.write(Path(args.spans_out))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--ops", type=int, default=0, help="stop after this many operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="smoke-test scale")
    parser.add_argument("--spans-out", default="", help="file stem for the traced spans")
    print(json.dumps(run(parser.parse_args())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
