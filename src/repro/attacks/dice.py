"""DICE — "Delete Internally, Connect Externally" heuristic baseline.

A classic label-heuristic structure attack (Waniek et al., "Hiding
individuals and communities in a social network", 2018; the DICE name is
from the Metattack paper's baseline suite).  Each budget unit is spent, at
random, either

* **deleting** an edge between the victim and a same-label neighbor
  (weakening the evidence for the true class), or
* **connecting** the victim to a node of a different class — of the
  *target* class when a target label is given, matching the paper's
  targeted protocol.

DICE is an extension baseline here (the paper compares RNA, FGA, FGA-T,
Nettack, IG-Attack, FGA-T&E): it sits between RNA and the gradient attacks
— label-informed but gradient-free — and, like RNA, it never consults the
model, so its perturbations carry less prediction signal for the
explainer-inspector to rank.

Deleted edges are invisible to the inspector protocol (which ranks edges
*present* in the perturbed graph), so detection metrics consider the added
edges only — the same accounting as every other attack.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack
from repro.attacks.locality import IdentityScene
from repro.graph.utils import edge_tuple

__all__ = ["DICE"]


class DICE(Attack):
    """Random same-label deletions plus different/target-label insertions.

    Parameters
    ----------
    model:
        Kept for interface parity (DICE never queries it beyond the final
        success evaluation).
    add_probability:
        Chance that a budget unit buys an insertion instead of a deletion
        (0.5 in the classic formulation).  Deletions silently convert to
        insertions once the victim has no same-label neighbors left.
    """

    name = "DICE"
    supports_locality = True

    def __init__(self, model, seed=0, add_probability=0.5):
        super().__init__(model, seed=seed)
        if not 0.0 <= add_probability <= 1.0:
            raise ValueError("add_probability must lie in [0, 1]")
        self.add_probability = float(add_probability)

    def attack(self, graph, target_node, target_label, budget, locality=None):
        target_node = int(target_node)
        scene = locality or IdentityScene(graph, target_node)
        rng = np.random.default_rng(self.seed + scene.seed_node)
        true_label = int(graph.labels[target_node])

        perturbed = graph
        added = []
        removed = []
        for _ in range(int(budget)):
            view = scene.view(perturbed)
            # Local neighbor lists map to sorted global lists (view node ids
            # ascend), so the rng draws below match full-graph execution.
            same_label_neighbors = [
                view.to_global(v)
                for v in view.graph.neighbors(view.node)
                if int(view.graph.labels[v]) == true_label
                and edge_tuple(target_node, view.to_global(v)) not in added
            ]
            do_add = rng.random() < self.add_probability or not same_label_neighbors
            if do_add:
                candidates = self._insertion_candidates(
                    view.graph, view.node, target_label
                )
                if candidates.size == 0:
                    continue
                partner = view.to_global(int(rng.choice(candidates)))
                edge = edge_tuple(target_node, partner)
                added.append(edge)
                perturbed = perturbed.with_edges_added([edge])
            else:
                partner = int(rng.choice(same_label_neighbors))
                edge = edge_tuple(target_node, partner)
                removed.append(edge)
                perturbed = perturbed.with_edges_removed([edge])

        result = self._finalize(graph, perturbed, added, target_node, target_label)
        result.history = [("removed", edge) for edge in removed]
        return result

    def _insertion_candidates(self, graph, target_node, target_label):
        """Non-neighbors of a different class (or of the target class)."""
        candidates = self._candidates(graph, target_node, target_label)
        if target_label is None:
            true_label = int(graph.labels[target_node])
            candidates = candidates[graph.labels[candidates] != true_label]
        return candidates
