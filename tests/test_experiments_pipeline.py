"""Experiment pipeline: case preparation, victim protocol, evaluation."""

import numpy as np
import pytest

from repro.api.session import evaluate_method
from repro.experiments import (
    ExperimentConfig,
    SCALE_PRESETS,
    config_from_env,
    derive_target_labels,
    prepare_case,
    select_victims,
)


SMOKE = SCALE_PRESETS["smoke"]


@pytest.fixture(scope="module")
def case():
    return prepare_case("cora", SMOKE)


@pytest.fixture(scope="module")
def victims(case):
    selected = select_victims(case)
    derived = derive_target_labels(case, selected)
    if not derived:
        pytest.skip("no FGA-flippable victims at smoke scale")
    return derived


class TestConfig:
    def test_presets_exist(self):
        assert set(SCALE_PRESETS) == {"smoke", "small", "full"}

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert config_from_env() is SCALE_PRESETS["smoke"]

    def test_env_unknown_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(KeyError):
            config_from_env()

    def test_with_seed_copies(self):
        base = ExperimentConfig()
        other = base.with_seed(99)
        assert other.seed == 99
        assert base.seed == 0

    def test_full_preset_is_paper_protocol(self):
        full = SCALE_PRESETS["full"]
        assert full.num_victims == 40
        assert full.margin_group == 10
        assert full.dataset_scale == 1.0
        assert full.detection_k == 15
        assert full.explanation_size == 20


class TestPrepareCase:
    def test_model_is_trained(self, case):
        chance = 1.0 / case.graph.num_classes
        assert case.test_accuracy > chance

    def test_probabilities_normalized(self, case):
        assert np.allclose(case.probabilities.sum(axis=1), 1.0)

    def test_predictions_match_probabilities(self, case):
        assert np.array_equal(
            case.predictions, case.probabilities.argmax(axis=1)
        )

    def test_seed_changes_dataset(self):
        other = prepare_case("cora", SMOKE, seed=123)
        base = prepare_case("cora", SMOKE)
        assert (
            other.graph.num_nodes != base.graph.num_nodes
            or (other.graph.adjacency != base.graph.adjacency).nnz > 0
        )


class TestVictimSelection:
    def test_victims_are_correct_test_nodes(self, case):
        selected = select_victims(case)
        for node in selected:
            assert node in case.split.test
            assert case.predictions[node] == case.graph.labels[node]

    def test_degree_bounds_respected(self, case):
        degrees = case.graph.degrees()
        for node in select_victims(case):
            assert SMOKE.min_degree <= degrees[node] <= SMOKE.max_degree

    def test_count_bounded_by_config(self, case):
        selected = select_victims(case)
        # margin extremes may push slightly past num_victims
        assert len(selected) <= SMOKE.num_victims + 2 * SMOKE.margin_group

    def test_target_labels_differ_from_truth(self, case, victims):
        for victim in victims:
            assert victim.target_label != case.graph.labels[victim.node]

    def test_budget_positive(self, victims):
        assert all(v.budget >= 1 for v in victims)


class TestEvaluation:
    def test_structure_and_ranges(self, case, victims):
        from repro.attacks import RandomAttack
        from repro.explain import GNNExplainer

        attack = RandomAttack(case.model, seed=0)
        evaluation = evaluate_method(
            case,
            attack,
            victims,
            lambda graph: GNNExplainer(case.model, epochs=10, seed=0),
        )
        row = evaluation.row()
        assert set(row) == {"ASR", "ASR-T", "Precision", "Recall", "F1", "NDCG"}
        for key, value in row.items():
            if not np.isnan(value):
                assert 0.0 <= value <= 1.0
        assert len(evaluation.per_victim) == len(victims)

    def test_per_victim_records(self, case, victims):
        from repro.attacks import RandomAttack
        from repro.explain import GNNExplainer

        evaluation = evaluate_method(
            case,
            RandomAttack(case.model, seed=0),
            victims,
            lambda graph: GNNExplainer(case.model, epochs=5, seed=0),
        )
        record = evaluation.per_victim[0]
        assert {"node", "degree", "target_label", "hit_target", "f1"} <= set(
            record
        )
