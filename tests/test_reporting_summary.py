"""The consolidated NaN-aware report aggregation helper."""

from __future__ import annotations

import numpy as np

from repro.experiments.reporting import (
    DETECTION_KEYS,
    mean_of_finite,
    summarize_reports,
)


class TestMeanOfFinite:
    def test_plain_mean(self):
        reports = [{"f1": 0.2}, {"f1": 0.4}, {"f1": 0.6}]
        assert mean_of_finite(reports, "f1") == np.mean([0.2, 0.4, 0.6])

    def test_nan_entries_are_excluded(self):
        reports = [{"ndcg": 0.5}, {"ndcg": float("nan")}, {"ndcg": 0.7}]
        assert mean_of_finite(reports, "ndcg") == np.mean([0.5, 0.7])

    def test_all_nan_yields_nan(self):
        reports = [{"precision": float("nan")}]
        assert np.isnan(mean_of_finite(reports, "precision"))

    def test_empty_reports_yield_nan(self):
        assert np.isnan(mean_of_finite([], "recall"))


class TestSummarizeReports:
    def test_covers_all_detection_keys(self):
        reports = [
            {"precision": 1.0, "recall": 0.5, "f1": 0.25, "ndcg": 0.75},
            {"precision": 0.0, "recall": 0.5, "f1": 0.75, "ndcg": float("nan")},
        ]
        summary = summarize_reports(reports)
        assert set(summary) == set(DETECTION_KEYS)
        assert summary["precision"] == 0.5
        assert summary["recall"] == 0.5
        assert summary["f1"] == 0.5
        assert summary["ndcg"] == 0.75

    def test_matches_pipeline_aggregation(self, tiny_graph, trained_model):
        """The helper is the single aggregation rule of MethodEvaluation."""
        from repro.api.session import evaluate_method
        from repro.attacks import RandomAttack
        from repro.experiments import ExperimentConfig
        from repro.experiments.pipeline import Victim
        from repro.explain import GNNExplainer

        class Case:
            graph = tiny_graph
            model = trained_model
            config = ExperimentConfig(budget_cap=2, explainer_epochs=5)

        victims = [Victim(node=0, degree=2, target_label=1)]
        evaluation = evaluate_method(
            Case(),
            RandomAttack(trained_model, seed=0),
            victims,
            lambda _graph: GNNExplainer(trained_model, epochs=5, seed=0),
        )
        reports = [
            {key: row[key] for key in DETECTION_KEYS}
            for row in evaluation.per_victim
        ]
        assert evaluation.f1 == mean_of_finite(reports, "f1") or (
            np.isnan(evaluation.f1) and np.isnan(mean_of_finite(reports, "f1"))
        )
