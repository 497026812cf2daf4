"""Table 2 — the same comparison with PGExplainer as the inspector (CITESEER).

Paper shape: GEAttack(-PG) keeps the highest ASR/ASR-T while being harder to
detect than all non-random baselines under PGExplainer's edge ranking.
"""

import numpy as np

from repro.api import Session
from repro.experiments import format_comparison_table


def run(config):
    comparison = Session(config).table("citeseer", explainer="pg")
    print()
    print(format_comparison_table(comparison))
    return comparison


def test_table2(benchmark, config, assert_shapes):
    comparison = benchmark.pedantic(run, args=(config,), rounds=1, iterations=1)
    assert comparison.runs, "no successful runs"
    if assert_shapes:
        summary = comparison.mean_std()
        assert summary["GEAttack"]["ASR-T"][0] > 0.7
        # PGExplainer is a weaker inspector overall (paper Table 2 values are
        # roughly half of Table 1); GEAttack should stay on the low side.
        joint_ndcg = summary["GEAttack"]["NDCG"][0]
        fgat_ndcg = summary["FGA-T"]["NDCG"][0]
        assert joint_ndcg <= fgat_ndcg + 0.05
