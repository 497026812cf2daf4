"""Attack infrastructure: candidates, results, the fast dense forward."""

import numpy as np

from repro.attacks import DenseGCNForward, candidate_nodes
from repro.attacks.base import AttackResult
from repro.autodiff.tensor import Tensor, no_grad
from repro.graph import normalize_adjacency


class TestCandidatePolicies:
    def test_excludes_self_and_neighbors(self, tiny_graph):
        node = 10
        candidates = candidate_nodes(tiny_graph, node, target_label=None)
        assert node not in candidates
        assert not set(tiny_graph.neighbors(node).tolist()) & set(
            candidates.tolist()
        )

    def test_target_label_policy_filters(self, tiny_graph):
        label = int(tiny_graph.labels[0])
        candidates = candidate_nodes(tiny_graph, 10, target_label=label)
        assert np.all(tiny_graph.labels[candidates] == label)

    def test_default_policy_follows_label(self, tiny_graph):
        with_label = candidate_nodes(tiny_graph, 10, target_label=0)
        without = candidate_nodes(tiny_graph, 10, target_label=None)
        assert with_label.size <= without.size


class TestAttackResult:
    def test_flags(self, tiny_graph):
        result = AttackResult(
            perturbed_graph=tiny_graph,
            added_edges=[(0, 1)],
            target_node=0,
            target_label=2,
            original_prediction=1,
            final_prediction=2,
        )
        assert result.misclassified
        assert result.hit_target

    def test_untargeted_never_hits_target(self, tiny_graph):
        result = AttackResult(
            perturbed_graph=tiny_graph,
            added_edges=[],
            target_node=0,
            target_label=None,
            original_prediction=1,
            final_prediction=0,
        )
        assert result.misclassified
        assert not result.hit_target


class TestDenseGCNForward:
    def test_matches_model_on_clean_graph(self, tiny_graph, trained_model):
        forward = DenseGCNForward(trained_model, tiny_graph.features)
        adjacency = Tensor(tiny_graph.dense_adjacency())
        fast = forward.logits_from_raw(adjacency)
        normalized = normalize_adjacency(tiny_graph.adjacency)
        trained_model.eval()
        with no_grad():
            reference = trained_model(normalized, Tensor(tiny_graph.features))
        assert np.allclose(fast.data, reference.data, atol=1e-9)

    def test_matches_model_after_perturbation(
        self, tiny_graph, trained_model
    ):
        perturbed = tiny_graph.with_edges_added([(0, 50)])
        forward = DenseGCNForward(trained_model, perturbed.features)
        fast = forward.logits_from_raw(Tensor(perturbed.dense_adjacency()))
        trained_model.eval()
        with no_grad():
            reference = trained_model(
                normalize_adjacency(perturbed.adjacency),
                Tensor(perturbed.features),
            )
        assert np.allclose(fast.data, reference.data, atol=1e-9)

    def test_differentiable_in_adjacency(self, tiny_graph, trained_model):
        from repro.autodiff.tensor import grad

        forward = DenseGCNForward(trained_model, tiny_graph.features)
        adjacency = Tensor(tiny_graph.dense_adjacency(), requires_grad=True)
        out = forward.logits_from_raw(adjacency).sum()
        g = grad(out, adjacency)
        assert g.shape == adjacency.shape
        assert np.any(g.data != 0)
