"""IG-Attack (Wu et al., IJCAI 2019) — integrated-gradients edge attack.

Plain adjacency gradients are unreliable for discrete 0→1 edge flips; the
integrated-gradients attack instead averages the gradient along the path
from the current adjacency (candidate entries at 0) to the fully-connected
candidate direction (entries at 1), which better reflects the effect of the
*whole* flip.

Following common practice (and for tractability) the path interpolates all
candidate entries of the victim's row jointly; the per-edge IG score is the
path-averaged gradient at that entry times the flip magnitude (= 1).

Locality: the interpolation direction only touches the victim's candidate
row, and every candidate endpoint (with its degree-closed neighborhood) is
part of the locality scene's node set, so the whole path-integral runs
exactly on the ``s × s`` subgraph slice — the interpolated degrees of
in-subgraph nodes are the full-graph interpolated degrees once the view's
constant boundary ``degree_offset`` is restored.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, targeted_loss
from repro.autodiff.sparse_ops import SparseAttackAdjacency
from repro.autodiff.tensor import Tensor, grad

__all__ = ["IGAttack"]


class IGAttack(Attack):
    """Targeted integrated-gradients structure attack (additions only)."""

    name = "IG-Attack"
    supports_locality = True

    def __init__(self, model, seed=0, steps=10):
        super().__init__(model, seed=seed)
        if steps < 1:
            raise ValueError("integration needs at least one step")
        self.steps = int(steps)

    def _step(self, scene, view, perturbed, target_label, state):
        candidates = self._candidates(view.graph, view.node, target_label)
        if candidates.size == 0:
            return None
        forward = self._scene_forward(scene, view)
        if self.sparse:
            return candidates, self._sparse_integrated_gradients(
                forward, view.graph, view.node, target_label, candidates
            )
        scores = self._integrated_gradients(
            forward, view.graph, view.node, target_label, candidates
        )
        return candidates, scores[view.node, candidates]

    def _integrated_gradients(
        self, forward, graph, target_node, target_label, candidates
    ):
        """Path-averaged gradient of the targeted loss over candidate flips."""
        base = graph.dense_adjacency()
        direction = np.zeros_like(base)
        direction[target_node, candidates] = 1.0
        direction[candidates, target_node] = 1.0
        total = np.zeros_like(base)
        for step in range(1, self.steps + 1):
            fraction = step / self.steps
            adjacency = Tensor(base + fraction * direction, requires_grad=True)
            loss = targeted_loss(forward, adjacency, target_node, target_label)
            total += grad(loss, adjacency).data
        average = total / self.steps
        # Most negative path-gradient = flip that most reduces the targeted
        # loss; negate so callers pick the argmax.
        return -(average + average.T)

    def _sparse_integrated_gradients(
        self, forward, graph, target_node, target_label, candidates
    ):
        """The same path integral over the CSR pair parameterization.

        The interpolation point lives in the candidate *pair values*
        (both ordered directions move together, exactly like the dense
        ``direction`` matrix), and the pair gradient is already the
        symmetrized score, so the per-candidate row falls out directly.
        """
        handle = SparseAttackAdjacency(graph, target_node, candidates)
        total = np.zeros(int(candidates.size))
        for step in range(1, self.steps + 1):
            handle.values.data[handle.candidate_slice] = step / self.steps
            loss = targeted_loss(forward, handle, target_node, target_label)
            total += handle.candidate_gradients(grad(loss, handle.values))
        return -(total / self.steps)
