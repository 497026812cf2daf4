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
memoizes per graph; only FGA-T's gradient step runs on the ``s × s``
slice.  That step is inherited unchanged, so it takes the sparse kernel
under ``REPRO_BACKEND=sparse``; the explainer filter stays dense.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.fga import FGATargeted
from repro.explain.gnn_explainer import GNNExplainer
from repro.schema import ConfigParam

__all__ = ["FGATExplainerEvasion"]


class FGATExplainerEvasion(FGATargeted):
    """FGA-T with explanation-subgraph candidate exclusion."""

    name = "FGA-T&E"
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

    def _step_candidates(self, view, perturbed, target_label):
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
