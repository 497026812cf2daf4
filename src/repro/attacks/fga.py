"""FGA and FGA-T — fast gradient attacks on the adjacency matrix.

FGA (Jin et al.) relaxes the adjacency to a continuous matrix, computes the
gradient of an attack loss at the victim with respect to every entry and
greedily adds the non-edge with the strongest useful gradient, one edge per
step.  FGA maximizes the loss of the *current* prediction (untargeted);
FGA-T minimizes the loss of a chosen *target* label (targeted), which makes
it the pure-graph-attack ancestor of GEAttack (λ = 0).
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, DenseGCNForward, record_trace
from repro.attacks.locality import IdentityScene
from repro.autodiff import functional as F
from repro.autodiff import ops
from repro.autodiff.sparse_ops import SparseAttackAdjacency
from repro.autodiff.tensor import Tensor, grad

__all__ = ["FGA", "FGATargeted", "targeted_loss", "select_best_candidate"]


def targeted_loss(forward, adjacency_tensor, node, label):
    """Cross-entropy of the victim's logits against ``label`` (Eq. 4)."""
    logits = forward.logits_from_raw(adjacency_tensor)
    row = ops.reshape(logits[int(node)], (1, logits.shape[1]))
    return F.cross_entropy(row, np.array([int(label)]))


def select_best_candidate(scores, target_node, candidates):
    """Pick the candidate endpoint with the highest score for the victim row."""
    row = scores[int(target_node), candidates]
    best = int(np.argmax(row))
    return int(candidates[best]), float(row[best])


class FGA(Attack):
    """Untargeted fast gradient attack (no specific target label)."""

    name = "FGA"
    targeted = False
    supports_locality = True

    def attack(self, graph, target_node, target_label, budget, locality=None):
        target_node = int(target_node)
        scene = locality or IdentityScene(graph, target_node)
        original = self.predict(graph, target_node)
        perturbed = graph
        added = []
        trace = []
        for _ in range(int(budget)):
            view = scene.view(perturbed)
            label, sign = self._attack_direction(target_label, original)
            candidates = self._step_candidates(view.graph, view.node, target_label)
            if candidates.size == 0:
                break
            forward = self._scene_forward(scene, view)
            if self.sparse:
                # One value per unordered pair: the gradient at a candidate
                # pair *is* the symmetrized (i, j) + (j, i) score.
                handle = SparseAttackAdjacency(view.graph, view.node, candidates)
                loss = targeted_loss(forward, handle, view.node, label)
                row = sign * handle.candidate_gradients(grad(loss, handle.values))
                best_local = int(candidates[int(np.argmax(row))])
            else:
                adjacency = Tensor(view.graph.dense_adjacency(), requires_grad=True)
                loss = targeted_loss(forward, adjacency, view.node, label)
                gradient = grad(loss, adjacency).data
                # Undirected edge: entry (i, j) and (j, i) both change.
                scores = sign * (gradient + gradient.T)
                best_local, _ = select_best_candidate(scores, view.node, candidates)
                row = scores[view.node, candidates]
            best = view.to_global(best_local)
            record_trace(trace, view, candidates, row, best)
            edge = (target_node, best)
            added.append(edge)
            perturbed = perturbed.with_edges_added([edge])
        return self._finalize(
            graph, perturbed, added, target_node, target_label, score_trace=trace
        )

    def _attack_direction(self, target_label, original_prediction):
        """(label to score against, gradient sign meaning 'useful')."""
        # Untargeted: increase the loss of the current prediction.
        return original_prediction, +1.0

    def _step_candidates(self, graph, target_node, target_label):
        if self.targeted:
            return self._candidates(graph, target_node, target_label)
        return self._candidates(graph, target_node, None)

    def _locality_endpoints(self, graph, target_node, target_label):
        # Untargeted FGA may connect to *any* node — no locality to exploit.
        if not self.targeted:
            return None
        return super()._locality_endpoints(graph, target_node, target_label)


class FGATargeted(FGA):
    """FGA-T: gradient attack toward a specific (incorrect) target label."""

    name = "FGA-T"
    targeted = True

    def _attack_direction(self, target_label, original_prediction):
        # Targeted: decrease the loss of the target label → most negative
        # gradient is the most useful edge to add.
        return target_label, -1.0
