"""Table 1 — all attackers × all metrics under the GNNExplainer inspector.

Paper shape (per dataset):

* gradient-guided targeted attacks (FGA-T, Nettack, GEAttack) reach ~100%
  ASR-T, RNA is far behind;
* under inspection, GEAttack's detection metrics are the lowest of all
  non-random attackers (RNA evades well but cannot attack).
"""

import numpy as np
import pytest

from repro.api import Session
from repro.experiments import format_comparison_table


def run(dataset, config):
    comparison = Session(config).table(dataset, explainer="gnn")
    print()
    print(format_comparison_table(comparison))
    return comparison


def _assert_paper_shape(comparison):
    summary = comparison.mean_std()

    def mean(method, metric):
        return summary[method][metric][0]

    # Attack power: targeted gradient attacks near-perfect, RNA clearly worse.
    for method in ("FGA-T", "GEAttack"):
        assert mean(method, "ASR-T") > 0.85, f"{method} should attack reliably"
    assert mean("RNA", "ASR-T") < mean("GEAttack", "ASR-T")

    # Evasion.  The paper's per-metric margins are not uniform — on its own
    # ACM table GEAttack's F1 is *above* FGA-T&E's (14.03 vs 13.91) — and on
    # this substrate the NDCG means carry ±0.1-0.17 stds at 3 seeds × 12
    # victims.  What is stable, and what we assert: GEAttack's F1 is the
    # lowest of the non-random attackers, and its NDCG is never the *worst*
    # of them (per-metric tables with stds live in EXPERIMENTS.md).
    competitors = ("FGA-T", "Nettack", "IG-Attack", "FGA-T&E")
    joint_f1 = mean("GEAttack", "F1")
    for competitor in competitors:
        assert joint_f1 <= mean(competitor, "F1") + 0.02, (
            f"GEAttack F1 should undercut {competitor}"
        )
    worst_ndcg = max(mean(c, "NDCG") for c in competitors)
    assert mean("GEAttack", "NDCG") <= worst_ndcg + 0.02, (
        "GEAttack should not be the most NDCG-detectable gradient attack"
    )


@pytest.mark.parametrize("dataset", ["citeseer", "cora", "acm"])
def test_table1(benchmark, dataset, config, assert_shapes):
    comparison = benchmark.pedantic(
        run, args=(dataset, config), rounds=1, iterations=1
    )
    assert comparison.runs, "no successful runs"
    if assert_shapes:
        _assert_paper_shape(comparison)
