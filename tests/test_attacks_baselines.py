"""Baseline attacks: RNA, FGA, FGA-T, FGA-T&E, IG-Attack."""

import numpy as np
import pytest

from repro.api.registry import attack_class
from repro.attacks import (
    FGA,
    FGATargeted,
    FGATExplainerEvasion,
    IGAttack,
    RandomAttack,
)


class TestRegistry:
    def test_attack_class_by_paper_name(self, trained_model):
        attack = attack_class("Nettack")(trained_model)
        assert attack.name == "Nettack"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown attack 'PGD'"):
            attack_class("PGD")


class TestRandomAttack:
    def test_budget_respected(self, tiny_graph, trained_model):
        result = RandomAttack(trained_model, seed=0).attack(tiny_graph, 10, 0, 3)
        assert len(result.added_edges) <= 3

    def test_edges_touch_victim_and_target_label(
        self, tiny_graph, trained_model
    ):
        result = RandomAttack(trained_model, seed=0).attack(tiny_graph, 10, 1, 3)
        for u, v in result.added_edges:
            assert 10 in (u, v)
            other = v if u == 10 else u
            assert tiny_graph.labels[other] == 1

    def test_deterministic_per_seed(self, tiny_graph, trained_model):
        a = RandomAttack(trained_model, seed=5).attack(tiny_graph, 10, 1, 3)
        b = RandomAttack(trained_model, seed=5).attack(tiny_graph, 10, 1, 3)
        assert a.added_edges == b.added_edges

    def test_no_duplicate_edges(self, tiny_graph, trained_model):
        result = RandomAttack(trained_model, seed=0).attack(tiny_graph, 10, 1, 5)
        assert len(set(result.added_edges)) == len(result.added_edges)


class TestFGA:
    def test_untargeted_increases_original_loss(
        self, tiny_graph, trained_model, clean_predictions
    ):
        from repro.attacks.base import DenseGCNForward
        from repro.attacks import targeted_loss
        from repro.autodiff.tensor import Tensor

        node = 10
        forward = DenseGCNForward(trained_model, tiny_graph.features)
        before = targeted_loss(
            forward,
            Tensor(tiny_graph.dense_adjacency()),
            node,
            int(clean_predictions[node]),
        ).item()
        result = FGA(trained_model, seed=0).attack(tiny_graph, node, None, 3)
        after = targeted_loss(
            forward,
            Tensor(result.perturbed_graph.dense_adjacency()),
            node,
            int(clean_predictions[node]),
        ).item()
        assert after > before

    def test_greedy_adds_distinct_edges(self, tiny_graph, trained_model):
        result = FGA(trained_model, seed=0).attack(tiny_graph, 10, None, 4)
        assert len(set(result.added_edges)) == len(result.added_edges)

    def test_edges_incident_to_victim(self, tiny_graph, trained_model):
        result = FGA(trained_model, seed=0).attack(tiny_graph, 10, None, 3)
        assert all(10 in edge for edge in result.added_edges)


class TestFGATargeted:
    def test_flips_flippable_victim(
        self, tiny_graph, trained_model, flippable_victim
    ):
        node, target_label, budget = flippable_victim
        result = FGATargeted(trained_model, seed=0).attack(
            tiny_graph, node, target_label, budget
        )
        assert result.hit_target

    def test_candidates_carry_target_label(
        self, tiny_graph, trained_model, flippable_victim
    ):
        node, target_label, budget = flippable_victim
        result = FGATargeted(trained_model, seed=0).attack(
            tiny_graph, node, target_label, budget
        )
        for u, v in result.added_edges:
            other = v if u == node else u
            assert tiny_graph.labels[other] == target_label

    def test_beats_random_on_average(
        self, tiny_graph, trained_model, clean_predictions
    ):
        degrees = tiny_graph.degrees()
        victims = np.flatnonzero(
            (clean_predictions == tiny_graph.labels) & (degrees >= 2)
        )[:6]
        wins_targeted = wins_random = 0
        for node in victims:
            node = int(node)
            target = (int(clean_predictions[node]) + 1) % tiny_graph.num_classes
            budget = int(degrees[node])
            t = FGATargeted(trained_model, seed=1).attack(
                tiny_graph, node, target, budget
            )
            r = RandomAttack(trained_model, seed=1).attack(
                tiny_graph, node, target, budget
            )
            wins_targeted += int(t.hit_target)
            wins_random += int(r.hit_target)
        assert wins_targeted >= wins_random


class TestFGATEvasion:
    def test_runs_and_respects_budget(
        self, tiny_graph, trained_model, flippable_victim
    ):
        node, target_label, budget = flippable_victim
        attack = FGATExplainerEvasion(
            trained_model, seed=0, explainer_epochs=10, explanation_size=10
        )
        result = attack.attack(tiny_graph, node, target_label, budget)
        assert len(result.added_edges) <= budget
        assert all(node in edge for edge in result.added_edges)


class TestIGAttack:
    def test_steps_validated(self, trained_model):
        with pytest.raises(ValueError):
            IGAttack(trained_model, steps=0)

    def test_flips_flippable_victim(
        self, tiny_graph, trained_model, flippable_victim
    ):
        node, target_label, budget = flippable_victim
        result = IGAttack(trained_model, seed=0, steps=5).attack(
            tiny_graph, node, target_label, budget
        )
        assert result.misclassified

    def test_integrated_gradient_reduces_to_mean_of_path(
        self, tiny_graph, trained_model
    ):
        """With steps=1 the IG score equals the endpoint gradient."""
        from repro.attacks.base import DenseGCNForward
        from repro.attacks import targeted_loss
        from repro.autodiff.tensor import Tensor, grad

        attack = IGAttack(trained_model, seed=0, steps=1)
        forward = DenseGCNForward(trained_model, tiny_graph.features)
        node, label = 10, 0
        candidates = attack._candidates(tiny_graph, node, label)
        scores = attack._integrated_gradients(
            forward, tiny_graph, node, label, candidates
        )
        base = tiny_graph.dense_adjacency()
        direction = np.zeros_like(base)
        direction[node, candidates] = 1.0
        direction[candidates, node] = 1.0
        endpoint = Tensor(base + direction, requires_grad=True)
        g = grad(
            targeted_loss(forward, endpoint, node, label), endpoint
        ).data
        assert np.allclose(scores, -(g + g.T), atol=1e-10)
