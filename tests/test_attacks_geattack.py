"""GEAttack: the bilevel objective, λ behaviour, end-to-end joint attack."""

import numpy as np
import pytest

from repro.attacks import FGATargeted, GEAttack, GEAttackPG, evasion_matrix
from repro.attacks.base import DenseGCNForward
from repro.autodiff.tensor import Tensor, grad


class TestEvasionMatrix:
    def test_zeroes_clean_edges_and_diagonal(self, tiny_graph):
        matrix = evasion_matrix(tiny_graph)
        assert np.all(np.diag(matrix) == 0.0)
        for u, v in list(tiny_graph.edge_set())[:20]:
            assert matrix[u, v] == 0.0
            assert matrix[v, u] == 0.0

    def test_ones_on_non_edges(self, tiny_graph):
        matrix = evasion_matrix(tiny_graph)
        dense = tiny_graph.dense_adjacency()
        off_diagonal = ~np.eye(tiny_graph.num_nodes, dtype=bool)
        non_edges = off_diagonal & (dense == 0.0)
        assert np.all(matrix[non_edges] == 1.0)

    def test_symmetric(self, tiny_graph):
        matrix = evasion_matrix(tiny_graph)
        assert np.array_equal(matrix, matrix.T)


class TestBilevelObjective:
    @pytest.fixture()
    def setup(self, tiny_graph, trained_model, flippable_victim):
        node, target_label, budget = flippable_victim
        forward = DenseGCNForward(trained_model, tiny_graph.features)
        attack = GEAttack(trained_model, seed=0, inner_steps=2, inner_lr=0.05)
        evasion = evasion_matrix(tiny_graph)
        rng = np.random.default_rng(0)
        mask_init = rng.normal(0.0, 0.1, (tiny_graph.num_nodes,) * 2)
        return tiny_graph, forward, attack, node, target_label, evasion, mask_init

    def test_penalty_differentiable_wrt_adjacency(self, setup):
        graph, forward, attack, node, label, evasion, mask_init = setup
        adjacency = Tensor(graph.dense_adjacency(), requires_grad=True)
        penalty = attack.explainer_penalty(
            forward, adjacency, node, label, evasion, mask_init
        )
        gradient = grad(penalty, adjacency)
        # The second-order path must produce signal on the victim's row.
        assert np.any(gradient.data[node] != 0)

    def test_penalty_gradient_targets_explaining_candidates(self, setup):
        """Candidates whose edge would explain ŷ get positive penalty grad."""
        graph, forward, attack, node, label, evasion, mask_init = setup
        adjacency = Tensor(graph.dense_adjacency(), requires_grad=True)
        penalty = attack.explainer_penalty(
            forward, adjacency, node, label, evasion, mask_init
        )
        penalty_grad = grad(penalty, adjacency).data
        attack_loss = Tensor(graph.dense_adjacency(), requires_grad=True)
        from repro.attacks import targeted_loss

        attack_grad = grad(
            targeted_loss(forward, attack_loss, node, label), attack_loss
        ).data
        candidates = attack._candidates(graph, node, label)
        pen = (penalty_grad + penalty_grad.T)[node, candidates]
        att = (attack_grad + attack_grad.T)[node, candidates]
        # The paper's contradiction: the strongest attack edges (most negative
        # attack gradient) are the most explaining (most positive penalty
        # gradient) — strong negative correlation between the two vectors.
        correlation = np.corrcoef(att, pen)[0, 1]
        assert correlation < -0.5

    def test_penalty_value_constant_on_clean_graph(self, setup, trained_model):
        """Non-edges get no inner mask gradient: the penalty over a clean
        victim row is pure M⁰ noise, independent of T (the evasion signal
        lives in ∇_Â, not in the value)."""
        graph, forward, _, node, label, evasion, mask_init = setup
        values = []
        for steps in (1, 4):
            atk = GEAttack(
                trained_model, seed=0, inner_steps=steps, inner_lr=0.05
            )
            adjacency = Tensor(graph.dense_adjacency(), requires_grad=True)
            penalty = atk.explainer_penalty(
                forward, adjacency, node, label, evasion, mask_init
            )
            values.append(penalty.item())
        assert values[0] == pytest.approx(values[1])

    def test_inner_steps_move_penalty_once_edge_added(
        self, setup, trained_model
    ):
        """With an adversarial edge in Â, the simulated explainer assigns it
        mask mass over the T inner steps, so the penalty value moves."""
        graph, forward, attack, node, label, evasion, mask_init = setup
        candidates = attack._candidates(graph, node, label)
        perturbed = graph.with_edges_added([(node, int(candidates[0]))])
        values = []
        for steps in (1, 6):
            atk = GEAttack(
                trained_model, seed=0, inner_steps=steps, inner_lr=0.05
            )
            adjacency = Tensor(perturbed.dense_adjacency(), requires_grad=True)
            penalty = atk.explainer_penalty(
                forward, adjacency, node, label, evasion, mask_init
            )
            values.append(penalty.item())
        assert values[0] != pytest.approx(values[1], abs=1e-12)


class TestLambdaBehaviour:
    def test_lambda_zero_matches_fga_t(
        self, tiny_graph, trained_model, flippable_victim
    ):
        node, target_label, budget = flippable_victim
        joint = GEAttack(trained_model, seed=0, lam=0.0).attack(
            tiny_graph, node, target_label, budget
        )
        pure = FGATargeted(trained_model, seed=0).attack(
            tiny_graph, node, target_label, budget
        )
        assert set(joint.added_edges) == set(pure.added_edges)

    def test_moderate_lambda_keeps_attack_success(
        self, tiny_graph, trained_model, flippable_victim
    ):
        node, target_label, budget = flippable_victim
        result = GEAttack(trained_model, seed=0).attack(
            tiny_graph, node, target_label, budget
        )
        assert result.misclassified

    def test_huge_lambda_changes_edge_selection(
        self, tiny_graph, trained_model, flippable_victim
    ):
        node, target_label, budget = flippable_victim
        small = GEAttack(trained_model, seed=0, lam=0.0).attack(
            tiny_graph, node, target_label, budget
        )
        huge = GEAttack(trained_model, seed=0, lam=1e5).attack(
            tiny_graph, node, target_label, budget
        )
        assert set(small.added_edges) != set(huge.added_edges)


class TestEndToEnd:
    def test_budget_and_incidence(
        self, tiny_graph, trained_model, flippable_victim
    ):
        node, target_label, budget = flippable_victim
        result = GEAttack(trained_model, seed=0).attack(
            tiny_graph, node, target_label, budget
        )
        assert len(result.added_edges) <= budget
        assert all(node in edge for edge in result.added_edges)
        assert all(
            not tiny_graph.has_edge(u, v) for u, v in result.added_edges
        )

    def test_added_edges_leave_penalty_support(
        self, tiny_graph, trained_model, flippable_victim
    ):
        node, target_label, budget = flippable_victim
        attack = GEAttack(trained_model, seed=0)
        result = attack.attack(tiny_graph, node, target_label, min(2, budget))
        # Re-derive the evasion matrix after the attack: added edges must be
        # zeroed the same way Algorithm 1 line 10 does.
        matrix = evasion_matrix(tiny_graph)
        for u, v in result.added_edges:
            matrix[u, v] = matrix[v, u] = 0.0
        assert np.all(matrix[node][[v for _, v in result.added_edges]] == 0)


class TestGEAttackPG:
    def test_requires_fitted_explainer(self, trained_model):
        from repro.explain import PGExplainer

        unfitted = PGExplainer(trained_model, seed=0)
        with pytest.raises(ValueError):
            GEAttackPG(trained_model, unfitted)

    def test_end_to_end(self, tiny_graph, trained_model, flippable_victim):
        from repro.explain import PGExplainer

        node, target_label, budget = flippable_victim
        pg = PGExplainer(trained_model, epochs=4, seed=0).fit(
            tiny_graph, instances=6
        )
        attack = GEAttackPG(trained_model, pg, seed=0, inner_steps=1)
        result = attack.attack(tiny_graph, node, target_label, min(2, budget))
        assert len(result.added_edges) <= min(2, budget)
        assert all(node in edge for edge in result.added_edges)
