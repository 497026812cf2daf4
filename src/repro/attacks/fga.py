"""FGA and FGA-T — fast gradient attacks on the adjacency matrix.

FGA (Jin et al.) relaxes the adjacency to a continuous matrix, computes the
gradient of an attack loss at the victim with respect to every entry and
greedily adds the non-edge with the strongest useful gradient, one edge per
step.  FGA maximizes the loss of the *current* prediction (untargeted);
FGA-T minimizes the loss of a chosen *target* label (targeted), which makes
it the pure-graph-attack ancestor of GEAttack (λ = 0).
"""

from __future__ import annotations

from repro.attacks.base import Attack, targeted_loss

__all__ = ["FGA", "FGATargeted"]


class FGA(Attack):
    """Untargeted fast gradient attack (no specific target label)."""

    name = "FGA"
    targeted = False
    supports_locality = True

    def _prepare(self, graph, scene, target_node, target_label):
        """(label to score against, gradient sign meaning 'useful')."""
        # Untargeted: increase the loss of the clean prediction.
        return self.predict(graph, target_node), +1.0

    def _step(self, scene, view, perturbed, target_label, direction):
        candidates = self._step_candidates(view, perturbed, target_label)
        if candidates.size == 0:
            return None
        label, sign = direction
        forward = self._scene_forward(scene, view)
        row = self._gradient_row(
            view,
            candidates,
            lambda adjacency: targeted_loss(forward, adjacency, view.node, label),
        )
        return candidates, sign * row

    def _step_candidates(self, view, perturbed, target_label):
        """Eligible endpoints of this step (view-local ids)."""
        label = target_label if self.targeted else None
        return self._candidates(view.graph, view.node, label)

    def _locality_endpoints(self, graph, target_node, target_label):
        # Untargeted FGA may connect to *any* node — no locality to exploit.
        if not self.targeted:
            return None
        return super()._locality_endpoints(graph, target_node, target_label)


class FGATargeted(FGA):
    """FGA-T: gradient attack toward a specific (incorrect) target label."""

    name = "FGA-T"
    targeted = True

    def _prepare(self, graph, scene, target_node, target_label):
        # Targeted: decrease the loss of the target label → most negative
        # gradient is the most useful edge to add.
        return target_label, -1.0
