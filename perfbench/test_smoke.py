"""Smoke test of the benchmark at tiny scale.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from ledger import Ledger
from scenarios import WORKLOADS, NoSpans
from spans import load_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_its_unit(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    if trace:
        record = json.loads((HERE / "out" / f"{workload}-tiny-seed7-trace1.json").read_text())
        assert record["simulated_outputs_identical"] and record["breakdown_adds_up"]
        summary = load_spans(ROOT / record["spans_file"]).summary()
        assert summary["stray"] == 0
        layers = sum(v["self_s"] for v in summary["names"].values())
        assert layers == pytest.approx(summary["wall_s"], rel=1e-9)


def _one_query(name: str):
    workload = WORKLOADS[name](seed=3, tiny=True)
    workload.prepare()
    workload.setup(NoSpans())
    op = workload.next_op()
    while op.kind != "query":
        workload.check(op, workload.run_op(op))
        op = workload.next_op()
    return workload, op, workload.run_op(op)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_oracle_passes_real_answers(name):
    workload, op, handle = _one_query(name)
    verdict = workload.check(op, handle)
    assert verdict.foreign == 0
    assert 0 < verdict.found <= verdict.expected


def test_injected_foreign_answer_is_a_failure():
    workload, op, handle = _one_query("paper-query")
    real = handle.answers[0]
    forged = replace(real.items[0], payload=b"never shared by anyone")
    handle.answers.append(replace(real, items=(forged,)))
    assert workload.check(op, handle).foreign == 1


def test_retired_record_is_not_live():
    ledger = Ledger()
    ledger.add(["kw0001"], b"v1")
    ledger.remove(b"v1")
    ledger.add(["kw0001"], b"v2")

    answer = SimpleNamespace(items=(SimpleNamespace(payload=b"v1"),))
    verdict = ledger.check("kw0001", [answer])
    assert (verdict.foreign, verdict.found, verdict.expected) == (1, 0, 1)
