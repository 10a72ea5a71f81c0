"""The repo benchmark: one command, one workload, every metric by name.

Run from the root of the repository::

    python3 perfbench/run.py --workload paper-query --seed 1 --seconds 10 --trace 0

Workloads (see ``scenarios.py`` and ``BENCHMARK.json`` for why each was
chosen): ``paper-query``, ``flood-2k``, ``share-churn``.

Every sample runs in a fresh, single-threaded Python process, one after
the other, because the store-template registry, the agent-class caches
and the encode memo are process-global: a reused process would skip
work a user pays on a cold start.

``--trace 0`` reports the end-to-end metrics.  Set-up is timed in
``SETUP_SAMPLES`` processes (all but one stop after set-up) and reported
as the median; the last process also runs the measured phase.  Peak RSS
is read after set-up and a fixed number of operations (the workload's
``rss_after_ops``): the program keeps every finished query handle, so
memory read at the end would grow with how many operations fit in the
run, and a faster program would look fatter.

``--trace 1`` reports the per-layer metrics.  One process runs the
workload with every layer entry point wrapped in a span, then a second,
untraced process replays exactly as many operations; the two must agree
on every simulated observable (bytes carried, packets, each query's
completion and answer counts), and their wall times give the tracing
overhead.  Spans are written to ``perfbench/out/``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The full record,
stamped with the core count, Python version, git sha, seed and workload
parameters, goes to ``perfbench/out/`` and a summary to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("paper-query", "flood-2k", "share-churn")

#: Fresh processes whose set-up time is sampled per ``--trace 0`` run.
SETUP_SAMPLES = 9
#: Every child together must finish well inside the 180 s run limit.
RUN_BUDGET_S = 170.0

#: End-to-end metrics (``--trace 0``), name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "completion_p50_s": "sim_s",
    "completion_p95_s": "sim_s",
    "bytes_per_op": "B",
    "messages_per_op": "count",
    "recall": "ratio",
}

#: Per-layer metrics (``--trace 1``), name -> unit.  Self times cover the
#: whole traced run, set-up included; ``<layer>.self_s`` sums a layer's
#: entry points.  What each should move, and where:
#:
#: * ``storm.search.*``: ops_per_s and op_ms_p50 on paper-query (not flood-2k);
#: * ``storm.write.*``: ops_per_s on share-churn, setup_s on paper-query;
#: * ``storm.buffer.hit_ratio``: completion_* (simulated I/O cost), all;
#: * ``net.encode.*``, ``net.decode.*``, ``net.send.self_s``,
#:   ``net.deliver.self_s``, ``sim.*``: ops_per_s on flood-2k;
#: * ``agents.*``: ops_per_s on flood-2k and paper-query;
#: * ``core.reconfig.self_s``: op_ms_p50 on paper-query (about 0 on flood-2k);
#: * ``replication.*``: ops_per_s and bytes_per_op on share-churn only;
#: * ``workloads.provision.self_s``, ``core.build.self_s``: setup_s, all.
PER_LAYER = {
    "storm.self_s": "s",
    "storm.search.calls": "count",
    "storm.search.self_s": "s",
    "storm.write.calls": "count",
    "storm.write.self_s": "s",
    "storm.buffer.hit_ratio": "ratio",
    "net.self_s": "s",
    "net.encode.calls": "count",
    "net.encode.self_s": "s",
    "net.encode.hit_ratio": "ratio",
    "net.decode.calls": "count",
    "net.decode.self_s": "s",
    "net.send.calls": "count",
    "net.send.self_s": "s",
    "net.deliver.self_s": "s",
    "sim.events": "count",
    "sim.self_s": "s",
    "agents.self_s": "s",
    "agents.dispatch.calls": "count",
    "agents.dispatch.self_s": "s",
    "agents.install.calls": "count",
    "agents.install.self_s": "s",
    "agents.receive.calls": "count",
    "agents.receive.self_s": "s",
    "agents.code_cache.hit_ratio": "ratio",
    "core.self_s": "s",
    "core.build.self_s": "s",
    "core.query.self_s": "s",
    "core.reconfig.self_s": "s",
    "core.answer.self_s": "s",
    "core.share.self_s": "s",
    "replication.self_s": "s",
    "replication.replicas_pushed": "count",
    "replication.invalidations": "count",
    "workloads.provision.self_s": "s",
    "unattributed_s": "s",
    "traced_wall_s": "s",
    "trace_overhead": "ratio",
}


class ChildFailed(Exception):
    """A worker process exited badly or printed no result."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Runner:
    """Starts worker processes one at a time, within the run budget."""

    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        src = str(root / "src")
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + path if path else "")

    def child(self, *extra: str) -> dict:
        command = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds),
            *(["--tiny"] if self.args.tiny else []),
            *extra,
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed("run budget exhausted")
        try:
            done = subprocess.run(
                command,
                cwd=self.root,
                env=self.env,
                stdout=subprocess.PIPE,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"worker timed out: {' '.join(command)}") from exc
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise ChildFailed(f"worker exited {done.returncode}: {' '.join(command)}")
        return json.loads(lines[-1])


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    setups = [runner.child("--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    main = runner.child()
    setups.append(main["setup_s"])
    ops = main["ops"]
    completions = main["completions"]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops / sum(main["op_walls"]),
        "op_ms_p50": statistics.median(main["op_walls"]) * 1000.0,
        "peak_rss_mb": main["rss_mb"],
        "completion_p50_s": statistics.median(completions) if completions else float("nan"),
        "completion_p95_s": percentile(completions, 0.95) if completions else float("nan"),
        "bytes_per_op": main["bytes"] / ops,
        "messages_per_op": main["packets"] / ops,
        "recall": main["found"] / main["expected"] if main["expected"] else float("nan"),
    }
    detail = {
        "setup_samples": setups,
        "ops": ops,
        "queries": main["queries"],
        "completion_samples": len(completions),
        "error_rate": main["failed"] / ops,
        "params": main["params"],
        "digest": main["digest"],
    }
    correct = main["failed"] == 0 and all(math.isfinite(v) for v in metrics.values())
    return metrics, {"correct": correct, "attempted": ops, "failed": main["failed"], **detail}


def per_layer(runner: Runner, out_dir: Path) -> tuple[dict, dict]:
    stem = out_dir / f"spans-{runner.args.workload}{'-tiny' if runner.args.tiny else ''}"
    traced = runner.child("--trace", "1", "--spans-out", str(stem))
    replay = runner.child("--ops", str(traced["ops"]))
    trace = traced["trace"]
    names = trace["names"]

    def self_s(prefix: str) -> float:
        return sum(v["self_s"] for n, v in names.items() if n == prefix or n.startswith(prefix + "."))

    def calls(name: str) -> int:
        return names.get(name, {"calls": 0})["calls"]

    metrics: dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        if name.endswith(".calls"):
            metrics[name] = calls(name[: -len(".calls")])
        elif name.endswith(".self_s"):
            metrics[name] = self_s(name[: -len(".self_s")])
    metrics.update(trace["counters"])
    metrics["sim.events"] = trace["events"]
    metrics["unattributed_s"] = self_s("bench")
    metrics["traced_wall_s"] = trace["wall_s"]
    metrics["trace_overhead"] = trace["wall_s"] / replay["wall_s"] - 1.0
    layer_sum = sum(self_s(layer) for layer in LAYERS) + metrics["unattributed_s"]
    adds_up = trace["stray"] == 0 and abs(layer_sum - trace["wall_s"]) <= 1e-6 * max(1.0, trace["wall_s"])
    identical = traced["digest"] == replay["digest"]
    detail = {
        "ops": traced["ops"],
        "params": traced["params"],
        "spans": trace["spans"],
        "spans_file": str(stem.relative_to(runner.root)),
        "layer_sum_s": layer_sum,
        "breakdown_adds_up": adds_up,
        "simulated_outputs_identical": identical,
        "traced_digest": traced["digest"],
        "untraced_digest": replay["digest"],
    }
    failed = traced["failed"] + replay["failed"]
    correct = failed == 0 and adds_up and identical
    return metrics, {"correct": correct, "attempted": traced["ops"], "failed": traced["failed"], **detail}


def stamp(root: Path) -> dict:
    """Host and code identity for the result record."""
    sha = None
    if (root / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        if done.returncode == 0:
            sha = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="BestPeer reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test scale")
    args = parser.parse_args()
    root = Path.cwd().resolve()
    if not (root / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    runner = Runner(root, args)
    try:
        if args.trace:
            metrics, detail = per_layer(runner, out_dir)
            units = PER_LAYER
        else:
            metrics, detail = end_to_end(runner)
            units = END_TO_END
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        **stamp(root),
        **detail,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    name = f"{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    for metric, entry in record["metrics"].items():
        print(f"{metric:>28} {entry['value']:>16.6g} {entry['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
