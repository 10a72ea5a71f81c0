"""The fault-plan figures end to end through ``repro figure``.

Each golden ``goldens/cli_<name>.json`` holds the full stdout of
``repro figure <name> --queries 2`` (series table plus per-trial table)
and every key of every trial dict the figure returned.  Serial and
``--jobs 2`` runs must both reproduce it byte for byte.
"""

from __future__ import annotations

import pytest

from repro import cli
from tests.eval.test_fastpath_determinism import assert_golden

FAULT_PLAN_FIGURES = ("churn", "routing", "topk", "replication")


def _cli_observables(name: str, jobs: str, capsys, monkeypatch) -> dict:
    figure = cli.FIGURES[name]
    results = []

    def capture(params, runner=None):
        results.append(figure(params, runner=runner))
        return results[-1]

    monkeypatch.setitem(cli.FIGURES, name, capture)
    assert cli.main(["figure", name, "--queries", "2", "--jobs", jobs]) == 0
    (result,) = results
    return {"stdout": capsys.readouterr().out, "trials": result.trials}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", FAULT_PLAN_FIGURES)
def test_fault_plan_figure_cli_matches_golden(name, jobs, capsys, monkeypatch):
    assert_golden(f"cli_{name}", _cli_observables(name, jobs, capsys, monkeypatch))
