"""FGA-T&E — the paper's straightforward joint-attack baseline.

FGA-T, plus a heuristic evasion step: before each greedy edge selection, run
GNNExplainer on the current graph and exclude every node that appears in the
explanation's top-L subgraph from the candidate set.  The intuition is that
edges to "explaining" nodes are the ones an inspector would look at; the
paper shows this heuristic barely helps (Table 1), motivating GEAttack's
principled bilevel formulation.

Locality: GNNExplainer's mask optimization lives entirely on the victim's
2-hop computation subgraph, and a locality view induces that subgraph
*identically* (same node set, same edges, same features, same mask-init RNG
— the view covers ``N_{hops+1}(victim)``), so the per-step explanation — and
hence the excluded candidate set — is byte-identical whether the attack runs
on the full graph or on the extracted scene.  The explained label is the
victim's prediction on the full perturbed graph, which the base class
memoizes per graph; only the FGA gradient step runs on the dense ``s × s``
slice.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import record_trace
from repro.attacks.fga import FGATargeted, select_best_candidate, targeted_loss
from repro.attacks.locality import IdentityScene
from repro.autodiff.tensor import Tensor, grad
from repro.explain.gnn_explainer import GNNExplainer
from repro.schema import ConfigParam

__all__ = ["FGATExplainerEvasion"]


class FGATExplainerEvasion(FGATargeted):
    """FGA-T with explanation-subgraph candidate exclusion."""

    name = "FGA-T&E"
    supports_locality = True
    config_params = (
        ConfigParam("explainer_epochs", "explainer_epochs"),
        ConfigParam("explanation_size", "explanation_size"),
    )

    def __init__(
        self, model, seed=0, explainer_epochs=100, explanation_size=20
    ):
        super().__init__(model, seed=seed)
        self.explainer_epochs = int(explainer_epochs)
        self.explanation_size = int(explanation_size)

    def attack(self, graph, target_node, target_label, budget, locality=None):
        target_node = int(target_node)
        scene = locality or IdentityScene(graph, target_node)
        perturbed = graph
        added = []
        trace = []
        for _ in range(int(budget)):
            view = scene.view(perturbed)
            candidates = self._filtered_candidates(view, perturbed, target_label)
            if candidates.size == 0:
                break
            forward = self._scene_forward(scene, view)
            adjacency = Tensor(view.graph.dense_adjacency(), requires_grad=True)
            loss = targeted_loss(forward, adjacency, view.node, target_label)
            gradient = grad(loss, adjacency).data
            scores = -(gradient + gradient.T)
            best_local, _ = select_best_candidate(scores, view.node, candidates)
            best = view.to_global(best_local)
            record_trace(trace, view, candidates, scores[view.node, candidates], best)
            edge = (target_node, best)
            added.append(edge)
            perturbed = perturbed.with_edges_added([edge])
        return self._finalize(
            graph, perturbed, added, target_node, target_label, score_trace=trace
        )

    def _filtered_candidates(self, view, perturbed, target_label):
        """Candidates minus the explanation's top-L nodes (view-local ids).

        The explanation runs on the view's graph: it only ever reads the
        victim's 2-hop computation subgraph, which the view induces exactly,
        so the optimized mask matches full-graph execution.  The explained
        label is the model's prediction on the full perturbed graph
        (memoized), exactly what ``explain_node`` would derive itself.
        """
        candidates = self._candidates(view.graph, view.node, target_label)
        if candidates.size == 0:
            return candidates
        explainer = GNNExplainer(
            self.model, epochs=self.explainer_epochs, seed=self.seed
        )
        label = self.predict(perturbed, view.to_global(view.node))
        explanation = explainer.explain_node(view.graph, view.node, label=label)
        excluded = explanation.top_nodes(self.explanation_size)
        keep = np.array([int(v) not in excluded for v in candidates], dtype=bool)
        filtered = candidates[keep]
        # If the explanation covers every candidate, fall back to the full
        # set rather than giving up the attack step entirely.
        return filtered if filtered.size else candidates
