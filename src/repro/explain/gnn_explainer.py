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

Two implementations of one objective.  :func:`explainer_loss` builds an
autodiff tape; GEAttack's and GEF-Attack's unrolled inner loops need it,
because they differentiate through the mask updates (second order).
:func:`explainer_loss_and_grad` is the first-order loss and mask gradient
of a GCN victim on plain ndarrays, bit-identical to the tape's, and
:meth:`GNNExplainer.explain_node` descends with it.  Other victims (SAGE,
GIN, GAT) and ``explain_features=True`` keep the tape; each such call
counts ``explain.tape_fallback``.
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
from repro.nn.models import GCN
from repro.obs import metrics

__all__ = [
    "GNNExplainer",
    "MASK_INIT_SCALE",
    "explainer_loss",
    "explainer_loss_and_grad",
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

    GEAttack's inner loop and :class:`GNNExplainer`'s tape path share this
    function verbatim, and :func:`explainer_loss_and_grad` reproduces its
    mask gradient bit for bit, so the attack simulates exactly the
    inspection it is trying to evade.
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


def explainer_loss_and_grad(
    model,
    adjacency,
    features,
    node_index,
    label,
    size_coefficient=0.0,
    entropy_coefficient=0.0,
):
    """Tape-free :func:`explainer_loss` and its mask gradient, for a GCN.

    Returns ``loss_and_grad(mask) -> (loss, gradient)`` on plain ndarrays:
    :func:`explainer_loss` for ``type(model) is GCN`` with no feature mask
    or degree offset, and ``grad(loss, mask)``, both bit-identical to the
    tape's.  ``adjacency`` and ``features`` are the computation subgraph's
    dense arrays, and ``model`` is in eval mode (no dropout).

    Each epoch issues the numpy calls the tape issues, on the same shapes
    and in the same order: the forward ops, then each VJP.  A gradient
    with three or more contributions is summed in the tape's accumulation
    order (reverse topological, left to right); floating-point addition is
    not associative, so another order can miss by an ulp.  What nothing
    reads is skipped: the weight and bias gradients, a Tensor and closure
    per op, the topological sort.  What no epoch changes is computed once,
    here: ``X @ W1``, the self-loop identity, and the gradients that the
    cross-entropy, size and entropy terms send back before they meet the
    mask.
    """
    if model.training:
        raise ValueError("explainer_loss_and_grad needs the model in eval mode")
    adjacency = np.asarray(adjacency, dtype=np.float64)
    n = adjacency.shape[0]
    node_index, label = int(node_index), int(label)
    eye = np.eye(n)
    conv1, conv2 = model.conv1, model.conv2
    support1 = np.asarray(features, dtype=np.float64) @ conv1.weight.data
    weight2 = conv2.weight.data
    num_classes = weight2.shape[1]
    low, high = 1e-6, 1.0 - 1e-6
    size_coefficient = float(size_coefficient)
    entropy_coefficient = float(entropy_coefficient)
    # d loss / d log_softmax is -1 at the label (so 1 for the normalizer).
    log_probs_grad = np.zeros((1, num_classes))
    log_probs_grad[0, label] = -1.0
    # d loss / d P through the size term; d loss / d each entropy product.
    size_grad = size_coefficient * adjacency
    entropy_grad = np.full((n, n), -(entropy_coefficient / float(n * n)))

    def loss_and_grad(mask):
        # -- forward: explainer_loss's ops, in order -----------------------
        half = (mask + np.transpose(mask)) * 0.5
        probability = ops.logistic(half)
        adjacency_loops = adjacency * probability + eye
        degrees = adjacency_loops.sum(axis=(1,))
        inv_sqrt = degrees**-0.5
        row = inv_sqrt.reshape((n, 1))
        col = inv_sqrt.reshape((1, n))
        scaled_rows = adjacency_loops * row
        normalized = scaled_rows * col
        out1 = normalized @ support1 + conv1.bias.data
        active = (out1 > 0).astype(np.float64)
        support2 = (out1 * active) @ weight2
        logits = normalized @ support2 + conv2.bias.data
        picked = logits[node_index].reshape((1, num_classes))
        centered = picked - picked.max(axis=-1, keepdims=True)
        exps = np.exp(centered)
        exp_sum = exps.sum(axis=(1,), keepdims=True)
        log_probs = centered - np.log(exp_sum)
        loss = -log_probs[0, label]
        if size_coefficient:
            loss = loss + size_coefficient * (adjacency * probability).sum(
                axis=(0, 1)
            )
        if entropy_coefficient:
            inside = ((probability >= low) & (probability <= high)).astype(
                np.float64
            )
            p = np.clip(probability, low, high)
            log_p = np.log(p)
            complement = 1.0 - p
            log_complement = np.log(complement)
            entropy = -(p * log_p + complement * log_complement)
            loss = loss + entropy_coefficient * (
                entropy.sum(axis=(0, 1)) / float(n * n)
            )

        # -- backward: each VJP, contributions in the tape's order ---------
        centered_grad = log_probs_grad + (1.0 / exp_sum) * exps
        logits_grad = np.zeros((n, num_classes))
        np.add.at(logits_grad, node_index, centered_grad.reshape((num_classes,)))
        out1_grad = (
            (np.transpose(normalized) @ logits_grad) @ np.transpose(weight2)
        ) * active
        normalized_grad = logits_grad @ np.transpose(
            support2
        ) + out1_grad @ np.transpose(support1)
        scaled_rows_grad = normalized_grad * col
        col_grad = (normalized_grad * scaled_rows).sum(axis=(0,), keepdims=True)
        row_grad = (scaled_rows_grad * adjacency_loops).sum(
            axis=(1,), keepdims=True
        )
        inv_sqrt_grad = row_grad.reshape((n,)) + col_grad.reshape((n,))
        degrees_grad = inv_sqrt_grad * (np.float64(-0.5) * degrees**-1.5)
        adjacency_loops_grad = scaled_rows_grad * row + np.broadcast_to(
            degrees_grad.reshape((n, 1)), (n, n)
        )
        # P feeds the masked adjacency, then the size term, then the clip.
        probability_grad = adjacency_loops_grad * adjacency
        if size_coefficient:
            probability_grad = probability_grad + size_grad
        if entropy_coefficient:
            # p feeds p·log p, log p, then ``1.0 - p`` twice: the tape
            # builds that node once for the product and once for the log.
            p_grad = (
                entropy_grad * log_p
                + (entropy_grad * p) / p
                + -(entropy_grad * log_complement)
                + -((entropy_grad * complement) / complement)
            )
            probability_grad = probability_grad + p_grad * inside
        half_grad = probability_grad * (probability * (1.0 - probability))
        sum_grad = half_grad * 0.5
        return loss, sum_grad + np.transpose(sum_grad)

    return loss_and_grad


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

        A GCN victim without a feature mask descends on
        :func:`explainer_loss_and_grad`, with no tape; every other case
        runs :func:`explainer_loss` through :func:`grad` and counts
        ``explain.tape_fallback``.  Both give the same mask, bit for bit.
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
        adjacency = subgraph.dense_adjacency()
        rng = np.random.default_rng(self.seed)
        mask = rng.normal(
            0.0, MASK_INIT_SCALE, size=(subgraph.num_nodes, subgraph.num_nodes)
        )
        feature_mask = None
        if type(model) is GCN and not self.explain_features:
            loss_and_grad = explainer_loss_and_grad(
                model,
                adjacency,
                subgraph.features,
                local,
                label,
                self.size_coefficient,
                self.entropy_coefficient,
            )
            for _ in range(self.epochs):
                mask = mask - self.lr * loss_and_grad(mask)[1]
        else:
            metrics.incr("explain.tape_fallback")
            adjacency = Tensor(adjacency)
            features = Tensor(subgraph.features)
            mask = Tensor(mask, requires_grad=True)
            if self.explain_features:
                feature_mask = Tensor(
                    rng.normal(0.0, MASK_INIT_SCALE, size=(subgraph.num_features,)),
                    requires_grad=True,
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
                mask = Tensor(
                    mask.data - self.lr * gradient.data, requires_grad=True
                )
            mask = mask.data

        with no_grad():
            probability = symmetric_mask_probability(Tensor(mask)).data
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
