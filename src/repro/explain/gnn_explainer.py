"""GNNExplainer (Ying et al., NeurIPS 2019) — structure masks, Eq. (2)/(3).

Given a trained GCN and a node, learn a mask ``M`` over the node's
computation-subgraph adjacency so that ``A ⊙ σ(M)`` preserves the model's
prediction (maximum mutual information ≈ minimum cross-entropy on the
predicted label).  Edge importances are the optimized ``σ(M)`` values on the
existing edges; the paper's inspector ranks them to hunt adversarial edges.

The mask lives on the victim's 2-hop computation subgraph.  For a 2-layer
GCN this is exact: adjacency entries outside the receptive field have zero
influence on the explained prediction (and zero mask gradient), so omitting
them changes nothing — and it keeps optimization cheap.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff import ops
from repro.autodiff.tensor import Tensor, grad, no_grad
from repro.explain.base import BaseExplainer, Explanation, subgraph_edges
from repro.graph.utils import (
    cached_model_operator,
    k_hop_subgraph,
    normalize_adjacency_tensor,
)

__all__ = [
    "GNNExplainer",
    "MASK_INIT_SCALE",
    "explainer_loss",
    "symmetric_mask_probability",
]

#: Standard deviation of the random mask initialization — shared with the
#: attacks that simulate this explainer's optimization (GEAttack, GEF-Attack).
MASK_INIT_SCALE = 0.1


def symmetric_mask_probability(mask):
    """``σ((M + Mᵀ)/2)`` — the symmetrized edge-probability mask."""
    return ops.sigmoid((mask + ops.transpose(mask)) * 0.5)


def explainer_loss(
    model,
    adjacency,
    mask,
    features,
    node_index,
    label,
    size_coefficient=0.0,
    entropy_coefficient=0.0,
    feature_mask=None,
    degree_offset=None,
):
    """Paper Eq. (2)/(3): cross-entropy of the masked prediction.

    ``adjacency`` and ``mask`` are dense tensors over the computation
    subgraph; ``node_index`` and ``label`` identify the explained prediction.
    Optional size/entropy regularizers follow the reference GNNExplainer
    implementation (the paper's preliminary study uses the plain objective).
    When ``feature_mask`` is given (a length-d tensor of logits), features
    are gated by ``X ⊙ σ(M_F)`` as in the full Eq. (2).  ``degree_offset``
    is the constant masked-degree correction of a subgraph-locality view
    (see :mod:`repro.attacks.locality`).

    This function is shared verbatim by :class:`GNNExplainer` and by
    GEAttack's inner loop, which guarantees the attack is simulating exactly
    the inspection it is trying to evade.
    """
    probability = symmetric_mask_probability(mask)
    masked = adjacency * probability
    # Non-GCN victims (and their forward stand-ins) carry their own
    # differentiable operator; everything else keeps the symmetric GCN
    # normalization byte-for-byte.
    normalize = getattr(model, "normalize_tensor", normalize_adjacency_tensor)
    normalized = normalize(masked, degree_offset=degree_offset)
    if feature_mask is not None:
        if features is None:
            raise ValueError("feature_mask requires explicit features")
        features = features * ops.sigmoid(feature_mask)
    logits = model(normalized, features)
    loss = F.cross_entropy(
        ops.reshape(logits[int(node_index)], (1, logits.shape[1])),
        np.array([int(label)]),
    )
    if size_coefficient:
        loss = loss + size_coefficient * ops.tensor_sum(adjacency * probability)
    if entropy_coefficient:
        # Bernoulli entropy of the mask, pushing values toward 0/1.
        p = ops.clip(probability, 1e-6, 1.0 - 1e-6)
        bernoulli_entropy = ops.neg(
            p * ops.log(p) + (1.0 - p) * ops.log(1.0 - p)
        )
        loss = loss + entropy_coefficient * ops.mean(bernoulli_entropy)
    return loss


class GNNExplainer(BaseExplainer):
    """Mask-optimization explainer for a trained node classifier.

    Parameters
    ----------
    model:
        Trained :class:`repro.nn.GCN` (kept fixed; only the mask is learned).
    epochs, lr:
        Mask optimization schedule.  The reference implementation runs 100
        Adam steps at lr 0.01; these plain-gradient-descent updates need a
        larger step (0.05) to converge comparably.  Convergence matters:
        an under-optimized mask ranks edges by its random initialization,
        making the inspector protocol pure noise.
    size_coefficient, entropy_coefficient:
        Optional regularizers (see :func:`explainer_loss`).
    seed:
        Seed for the random mask initialization.
    """

    def __init__(
        self,
        model,
        epochs=100,
        lr=0.05,
        size_coefficient=0.005,
        entropy_coefficient=0.1,
        seed=0,
        explain_features=False,
    ):
        self.model = model
        self.epochs = int(epochs)
        self.lr = float(lr)
        self.size_coefficient = float(size_coefficient)
        self.entropy_coefficient = float(entropy_coefficient)
        self.seed = int(seed)
        self.explain_features = bool(explain_features)

    def explain_node(self, graph, node, label=None):
        """Optimize a mask for ``node`` and return the edge ranking.

        ``label`` defaults to the model's own prediction on ``graph``
        (explaining the prediction actually made, as in the paper).
        """
        model = self.model
        model.eval()
        if label is None:
            # Memoized per graph: repeated explanations of one perturbed
            # graph (and the attacks' own prediction queries) share the
            # normalization — identical floats to the direct computation.
            normalized = cached_model_operator(graph, model)
            with no_grad():
                logits = model(normalized, Tensor(graph.features))
            label = int(np.argmax(logits.data[int(node)]))

        subgraph, nodes, local = k_hop_subgraph(graph, int(node), self.hops)
        adjacency = Tensor(subgraph.dense_adjacency())
        features = Tensor(subgraph.features)

        rng = np.random.default_rng(self.seed)
        mask = Tensor(
            rng.normal(
                0.0,
                MASK_INIT_SCALE,
                size=(subgraph.num_nodes, subgraph.num_nodes),
            ),
            requires_grad=True,
        )
        feature_mask = (
            Tensor(
                rng.normal(
                    0.0, MASK_INIT_SCALE, size=(subgraph.num_features,)
                ),
                requires_grad=True,
            )
            if self.explain_features
            else None
        )
        for _ in range(self.epochs):
            loss = explainer_loss(
                model,
                adjacency,
                mask,
                features,
                local,
                label,
                self.size_coefficient,
                self.entropy_coefficient,
                feature_mask=feature_mask,
            )
            if feature_mask is None:
                gradient = grad(loss, mask)
            else:
                gradient, feature_gradient = grad(loss, [mask, feature_mask])
                feature_mask = Tensor(
                    feature_mask.data - self.lr * feature_gradient.data,
                    requires_grad=True,
                )
            mask = Tensor(mask.data - self.lr * gradient.data, requires_grad=True)

        with no_grad():
            probability = symmetric_mask_probability(mask).data
            feature_weights = (
                ops.sigmoid(feature_mask).data if feature_mask is not None else None
            )
        edges, rows, cols = subgraph_edges(subgraph, nodes)
        return Explanation(
            node=int(node),
            predicted_label=int(label),
            edges=edges,
            weights=probability[rows, cols],
            subgraph_nodes=nodes,
            feature_weights=feature_weights,
        )
