"""Feature-space attacks — the paper's named future work, made concrete.

The paper restricts its study to structure perturbations and explicitly
defers feature attacks ("we would like to extend the proposed model for
performing attacks via other types of adversarial perturbations").  This
module carries that extension out inside the same framework:

* :class:`FeatureFGA` — the FGA-T analogue in feature space: greedy
  gradient-guided bit flips on the *victim's own* feature row (direct
  attack on binary bag-of-words features), driving the prediction to a
  chosen target label.
* :class:`GEFAttack` — the GEAttack analogue: each outer step unrolls ``T``
  steps of GNNExplainer's joint mask optimization (structure mask *and*
  feature mask ``M_F``, the full Eq. 2) and adds a penalty

  ``λ · Σ_d M_F^T[d] · B_F[d]``

  where ``B_F`` gates out features already on in the clean graph — the
  exact feature-space mirror of Eq. 5's ``B`` matrix.  Flipped features
  therefore receive small mask values and stay out of the inspector's
  top-K feature ranking (measured by
  :func:`repro.metrics.feature_detection_report`).

Both attacks flip bits 0 → 1 only, mirroring the structure attacks'
add-only convention (planting words in a document is the analogue of
adding social-network edges; deleting content the defender may have
archived is the harder, noticeable direction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attacks.base import Attack, record_trace
from repro.attacks.locality import IdentityScene
from repro.autodiff import functional as F
from repro.autodiff import ops
from repro.autodiff.tensor import Tensor, grad
from repro.explain.gnn_explainer import MASK_INIT_SCALE, explainer_loss
from repro.graph import Graph
from repro.graph.utils import cached_model_operator, k_hop_subgraph

__all__ = ["FeatureAttackResult", "FeatureFGA", "GEFAttack"]

#: Off-bits per step that carry GEF-Attack's evasion penalty (see
#: :class:`GEFAttack`).
SUPPORT_SIZE = 12


@dataclass
class FeatureAttackResult:
    """Outcome of a (possibly failed) feature attack on one target node.

    Mirrors :class:`repro.attacks.AttackResult` with ``flipped_features``
    (indices of the victim's feature bits set 0 → 1) in place of edges.
    """

    perturbed_graph: object
    flipped_features: list
    target_node: int
    target_label: int | None
    original_prediction: int
    final_prediction: int
    history: list = field(default_factory=list)
    score_trace: list = field(default_factory=list)

    @property
    def misclassified(self):
        """Whether the prediction changed at all (the ASR event)."""
        return self.final_prediction != self.original_prediction

    @property
    def hit_target(self):
        """Whether the prediction equals the target label (the ASR-T event)."""
        return (
            self.target_label is not None
            and self.final_prediction == self.target_label
        )


def graph_with_features_flipped(graph, node, feature_indices, value=1.0):
    """New graph with the victim's listed feature bits set to ``value``."""
    features = graph.features.copy()
    for index in feature_indices:
        features[int(node), int(index)] = value
    return Graph(graph.adjacency, features, graph.labels, name=graph.name)


class FeatureAttackBase(Attack):
    """Shared machinery: candidate bits, victim-row gradient, finalize.

    Feature attacks flip bits on the victim's own row, so their locality
    subgraph is just the victim's (degree-closed) receptive field — no
    candidate endpoints.  Feature dimensions are untouched by the node
    re-indexing: flipped indices are global in either execution mode.
    """

    supports_locality = True

    def candidate_features(self, graph, target_node):
        """Indices of feature bits currently off at the victim (flippable)."""
        return np.flatnonzero(graph.features[int(target_node)] == 0.0)

    def _locality_endpoints(self, graph, target_node, target_label):
        return np.empty(0, dtype=np.int64), None

    def feature_gradient(self, graph, target_node, target_label, extra_loss=None):
        """∇_X ℓ at the victim's row (plus an optional differentiable term)."""
        normalized = cached_model_operator(graph, self.model)
        features = Tensor(graph.features, requires_grad=True)
        logits = self.model(normalized, features)
        loss = F.cross_entropy(
            ops.reshape(logits[int(target_node)], (1, logits.shape[1])),
            np.array([int(target_label)]),
        )
        if extra_loss is not None:
            loss = loss + extra_loss(features)
        return grad(loss, features).data[int(target_node)]

    def finalize(
        self, graph, perturbed, flipped, target_node, target_label, score_trace=None
    ):
        return FeatureAttackResult(
            perturbed_graph=perturbed,
            flipped_features=[int(d) for d in flipped],
            target_node=int(target_node),
            target_label=None if target_label is None else int(target_label),
            original_prediction=self.predict(graph, target_node),
            final_prediction=self.predict(perturbed, target_node),
            score_trace=score_trace or [],
        )


class FeatureFGA(FeatureAttackBase):
    """Targeted fast-gradient feature attack (FGA-T in feature space).

    Per step: compute ``∇_X ℓ(f(A, X̂)_vi, ŷ)`` at the victim's row and flip
    the off-bit whose relaxation gradient most decreases the loss (a 0 → 1
    flip changes the loss by ≈ +∂ℓ/∂X[vi,d], so the most negative entry
    wins).  Greedy, one bit per step, up to budget Δ.
    """

    name = "FeatureFGA"

    def attack(self, graph, target_node, target_label, budget, locality=None):
        target_node = int(target_node)
        target_label = int(target_label)
        self.model.eval()
        scene = locality or IdentityScene(graph, target_node)
        perturbed = graph
        flipped = []
        trace = []
        for _ in range(int(budget)):
            view = scene.view(perturbed)
            candidates = self.candidate_features(view.graph, view.node)
            if candidates.size == 0:
                break
            gradient = self.feature_gradient(view.graph, view.node, target_label)
            scores = -gradient[candidates]
            best = int(candidates[int(np.argmax(scores))])
            # Feature indices are global in either execution mode (node
            # re-indexing never touches the feature axis): no view mapping.
            record_trace(trace, None, candidates, scores, best)
            flipped.append(best)
            perturbed = graph_with_features_flipped(perturbed, target_node, [best])
        return self.finalize(
            graph, perturbed, flipped, target_node, target_label, score_trace=trace
        )


class GEFAttack(FeatureAttackBase):
    """Joint GNN + feature-mask attack (GEAttack transplanted to Eq. 2's M_F).

    Parameters
    ----------
    model:
        The attacked (frozen) GCN.
    lam:
        λ balancing the attack loss against the feature-mask evasion
        penalty (same role as Eq. 7's λ).  Unlike the structure attack,
        there is little detection signal to evade at realistic feature
        dimensionality (the M_F inspector's per-word weights sit at its
        initialization noise floor — see DESIGN.md), so the default is a
        mild 1.0 that keeps attack parity with :class:`FeatureFGA`; raise
        it to probe the trade-off curve.
    inner_steps, inner_lr:
        T and η of the unrolled joint mask optimization (Eq. 8 applied to
        both M_A and M_F, exactly what ``GNNExplainer(explain_features=True)``
        runs).

    The random mask initializations use GNNExplainer's
    ``MASK_INIT_SCALE``.  The evasion penalty is restricted to the
    ``SUPPORT_SIZE`` off-bits with the strongest attack gradient (the
    flips an attacker would plausibly make).  A word the attack would never
    plant needs no evasion pressure, and dropping it removes its
    cross-derivative noise from the penalty gradient — in feature space a
    single bit's self-effect on its own mask entry is much weaker than an
    edge's effect on message passing, so without this focusing the penalty
    signal drowns (see DESIGN.md, feature-attack extension).
    """

    name = "GEF-Attack"

    def __init__(self, model, seed=0, lam=1.0, inner_steps=5, inner_lr=0.1):
        super().__init__(model, seed=seed)
        self.lam = float(lam)
        self.inner_steps = int(inner_steps)
        self.inner_lr = float(inner_lr)

    def attack(self, graph, target_node, target_label, budget, locality=None):
        target_node = int(target_node)
        target_label = int(target_label)
        self.model.eval()
        scene = locality or IdentityScene(graph, target_node)
        rng = np.random.default_rng(self.seed + scene.seed_node)
        # B_F over the clean graph: candidate (currently-off) bits carry the
        # penalty; bits already on stay out so clean explanations are
        # unaffected — the feature mirror of Eq. 5's B matrix.
        feature_evasion = (graph.features[target_node] == 0.0).astype(np.float64)
        num_features = graph.num_features
        mask_feature_init = rng.normal(0.0, MASK_INIT_SCALE, size=num_features)

        perturbed = graph
        flipped = []
        trace = []
        for _ in range(int(budget)):
            view = scene.view(perturbed)
            candidates = self.candidate_features(view.graph, view.node)
            if candidates.size == 0:
                break
            # Focus the penalty on the attack-plausible flips: the off-bits
            # the pure attack gradient ranks highest this step.
            attack_gradient = self.feature_gradient(
                view.graph, view.node, target_label
            )
            order = np.argsort(attack_gradient[candidates])
            support = candidates[order[: min(SUPPORT_SIZE, candidates.size)]]
            step_evasion = np.zeros_like(feature_evasion)
            step_evasion[support] = feature_evasion[support]

            gradient = self._joint_gradient(
                view.graph,
                view.node,
                target_label,
                step_evasion,
                mask_feature_init,
                rng,
            )
            scores = -gradient[candidates]
            best = int(candidates[int(np.argmax(scores))])
            record_trace(trace, None, candidates, scores, best)
            flipped.append(best)
            perturbed = graph_with_features_flipped(perturbed, target_node, [best])
            # The chosen bit leaves the penalty support (Algorithm 1 line 10).
            feature_evasion[best] = 0.0
        return self.finalize(
            graph, perturbed, flipped, target_node, target_label, score_trace=trace
        )

    # -- the bilevel objective ----------------------------------------------
    def _joint_gradient(
        self,
        perturbed,
        target_node,
        target_label,
        feature_evasion,
        mask_feature_init,
        rng,
    ):
        """∇_X [ℓ_GNN + λ · Σ_d M_F^T[d]·B_F[d]] at the victim's row.

        The penalty is differentiated *through* the unrolled inner mask
        updates (``create_graph=True``), the same second-order trick as the
        structure GEAttack — here the gradient reaches X both directly via
        the attack loss and indirectly via the explainer's simulated
        feature-mask trajectory.
        """
        normalized = cached_model_operator(perturbed, self.model)
        features = Tensor(perturbed.features, requires_grad=True)
        logits = self.model(normalized, features)
        attack_term = F.cross_entropy(
            ops.reshape(logits[int(target_node)], (1, logits.shape[1])),
            np.array([int(target_label)]),
        )

        subgraph, sub_nodes, local = k_hop_subgraph(perturbed, target_node, 2)
        sub_adjacency = Tensor(subgraph.dense_adjacency())
        sub_features = features[sub_nodes]

        mask = Tensor(
            rng.normal(0.0, MASK_INIT_SCALE, size=(subgraph.num_nodes,) * 2),
            requires_grad=True,
        )
        feature_mask = Tensor(mask_feature_init.copy(), requires_grad=True)
        for _ in range(self.inner_steps):
            inner = explainer_loss(
                self.model,
                sub_adjacency,
                mask,
                sub_features,
                local,
                target_label,
                feature_mask=feature_mask,
            )
            mask_gradient, feature_gradient = grad(
                inner, [mask, feature_mask], create_graph=True
            )
            mask = mask - self.inner_lr * mask_gradient
            feature_mask = feature_mask - self.inner_lr * feature_gradient

        penalty = ops.tensor_sum(feature_mask * Tensor(feature_evasion))
        joint = attack_term + self.lam * penalty
        return grad(joint, features).data[int(target_node)]
