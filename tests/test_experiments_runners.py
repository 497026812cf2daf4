"""Table runners, sweeps and reporting at smoke scale."""

import numpy as np
import pytest

from repro.api import Session
from repro.api.session import sweep_points
from repro.experiments import (
    METHOD_ORDER,
    SCALE_PRESETS,
    SweepPoint,
    format_comparison_table,
    format_mean_std,
    format_series,
    format_table,
    prepare_case,
    preliminary_inspection_study,
    select_victims,
    derive_target_labels,
)
from repro.explain import GNNExplainer

SMOKE = SCALE_PRESETS["smoke"]


@pytest.fixture(scope="module")
def case():
    return prepare_case("citeseer", SMOKE)


@pytest.fixture(scope="module")
def victims(case):
    derived = derive_target_labels(case, select_victims(case))
    if not derived:
        pytest.skip("no flippable victims at smoke scale")
    return derived


class TestComparison:
    def test_subset_run(self, case):
        comparison = Session(SMOKE).table(
            "citeseer", explainer="gnn", methods=["RNA", "FGA-T"]
        )
        assert comparison.runs, "comparison produced no runs"
        run = comparison.runs[0]
        assert set(run) == {"RNA", "FGA-T"}
        summary = comparison.mean_std()
        mean, std = summary["FGA-T"]["ASR-T"]
        assert 0.0 <= mean <= 1.0
        rendered = format_comparison_table(comparison)
        assert "CITESEER" in rendered
        assert "FGA-T" in rendered

    def test_method_order_is_paper_columns(self):
        assert METHOD_ORDER == [
            "FGA",
            "RNA",
            "FGA-T",
            "Nettack",
            "IG-Attack",
            "FGA-T&E",
            "GEAttack",
        ]


class TestPreliminary:
    def test_degree_bins(self, case):
        results = preliminary_inspection_study(
            case,
            lambda graph: GNNExplainer(case.model, epochs=10, seed=0),
            degrees=range(1, 4),
            per_degree=2,
        )
        assert results, "no degree bins produced"
        for bin_result in results:
            assert 1 <= bin_result.degree <= 3
            assert bin_result.count >= 1
            if not np.isnan(bin_result.asr):
                assert 0.0 <= bin_result.asr <= 1.0


class TestSweeps:
    def test_lambda_sweep_points(self, case, victims):
        points = sweep_points(case, victims[:2], "lambda", values=(0.0, 50.0))
        assert len(points) == 2
        assert points[0].value == 0.0
        assert 0.0 <= points[0].asr_t <= 1.0

    def test_inner_steps_sweep(self, case, victims):
        points = sweep_points(case, victims[:2], "inner-steps", values=(1, 2))
        assert [p.value for p in points] == [1.0, 2.0]

    def test_subgraph_size_truncation_monotone(self, case, victims):
        points = sweep_points(
            case, victims[:2], "subgraph-size", values=(5, 20, 60)
        )
        recalls = [p.recall for p in points if not np.isnan(p.recall)]
        if len(recalls) == 3:
            # Larger explanation can only expose more adversarial edges.
            assert recalls[0] <= recalls[1] + 1e-9
            # Beyond K=15, top-15 is unchanged: L=20 and L=60 agree.
            assert recalls[1] == pytest.approx(recalls[2])


class TestReporting:
    def test_mean_std_formatting(self):
        assert format_mean_std(0.8679, 0.0008) == "86.79±0.08"
        assert format_mean_std(float("nan"), 0.0) == "-"
        assert format_mean_std(0.5, 0.1, percent=False) == "0.50±0.10"

    def test_table_alignment(self):
        rendered = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = rendered.splitlines()
        assert len({len(line) for line in lines}) == 1  # equal widths

    def test_series_formatting(self):
        points = [
            SweepPoint(1.0, 0.9, 0.1, 0.2, 0.15, 0.3),
            SweepPoint(10.0, float("nan"), 0.1, 0.2, 0.15, 0.3),
        ]
        rendered = format_series("lambda", points, title="Fig. 4")
        assert "Fig. 4" in rendered
        assert "ASR_T" in rendered
        assert "-" in rendered  # the NaN
