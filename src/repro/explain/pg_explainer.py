"""PGExplainer (Luo et al., NeurIPS 2020) — parameterized, inductive explainer.

A small MLP maps edge representations ``[z_u ; z_v ; z_target]`` (GCN hidden
embeddings) to an importance logit per edge.  The MLP is trained once over a
collection of instance nodes with a concrete (Gumbel-sigmoid) relaxation and
temperature annealing; explanation of any node is then a single forward pass
— the inductive property the paper exploits in Section 5.3.

The MLP weights are stored as an explicit list of tensors and applied by a
*functional* routine (:func:`apply_edge_mlp`), so GEAttack can unroll inner
fine-tuning steps over copies of these weights with full differentiability.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.autodiff import functional as F
from repro.autodiff import ops
from repro.autodiff.tensor import Tensor, grad, no_grad
from repro.explain.base import BaseExplainer, Explanation
from repro.graph.utils import (
    cached_model_operator,
    edge_tuple,
    k_hop_subgraph,
    normalize_adjacency_tensor,
)
from repro.nn import init
from repro.nn.optim import Adam
from repro.nn.module import Parameter

__all__ = ["PGExplainer", "apply_edge_mlp", "masked_adjacency_from_edge_weights"]

#: ``(start, end)`` temperature of the concrete-relaxation annealing.
TEMPERATURE = (5.0, 1.0)


def apply_edge_mlp(weights, inputs):
    """Apply the 2-layer edge MLP functionally: ``relu(x W1 + b1) W2 + b2``.

    ``weights`` is the 4-list ``[W1, b1, W2, b2]`` of tensors; keeping this
    functional (rather than a Module) lets GEAttack differentiate through
    unrolled updates of these weights.
    """
    w1, b1, w2, b2 = weights
    hidden = ops.relu(ops.matmul(inputs, w1) + b1)
    return ops.matmul(hidden, w2) + b2


def masked_adjacency_from_edge_weights(size, rows, cols, edge_weights):
    """Dense symmetric adjacency with ``edge_weights`` on given index pairs.

    Built with a differentiable scatter so gradients flow from the masked
    adjacency back to per-edge weights.
    """
    both_rows = np.concatenate([rows, cols])
    both_cols = np.concatenate([cols, rows])
    doubled = ops.concatenate([edge_weights, edge_weights], axis=0)
    return ops.scatter_add((size, size), (both_rows, both_cols), doubled)


class PGExplainer(BaseExplainer):
    """Parameterized explainer trained over instances, applied inductively.

    Parameters
    ----------
    model:
        Trained :class:`repro.nn.GCN`; its first-layer embeddings feed the
        edge MLP.
    hidden:
        Width of the edge-MLP hidden layer.
    epochs, lr:
        Training schedule for the MLP (the concrete relaxation anneals over
        ``TEMPERATURE``).
    size_coefficient, entropy_coefficient:
        Sparsity / binariness regularizers from the original paper.
    """

    def __init__(
        self,
        model,
        hidden=32,
        epochs=20,
        lr=0.01,
        size_coefficient=0.01,
        entropy_coefficient=0.1,
        seed=0,
    ):
        self.model = model
        self.hidden = int(hidden)
        self.epochs = int(epochs)
        self.lr = float(lr)
        self.size_coefficient = float(size_coefficient)
        self.entropy_coefficient = float(entropy_coefficient)
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)
        embed_dim = model.embedding_dim
        input_dim = 3 * embed_dim
        self.weights = [
            Parameter(init.glorot_uniform(self._rng, input_dim, self.hidden)),
            Parameter(init.zeros(self.hidden)),
            Parameter(init.glorot_uniform(self._rng, self.hidden, 1)),
            Parameter(init.zeros(1)),
        ]
        self.fitted = False

    # -- shared pieces -----------------------------------------------------
    def cloned_weights(self):
        """Fresh differentiable copies of the edge-MLP weights.

        GEAttack-PG unrolls fine-tuning steps over these copies with
        ``create_graph=True``; the explainer's own trained weights are never
        touched.
        """
        return [Tensor(w.data.copy(), requires_grad=True) for w in self.weights]

    def node_embeddings(self, graph):
        """Constant first-layer embeddings of every node of ``graph``."""
        normalized = cached_model_operator(graph, self.model)
        with no_grad():
            hidden = self.model.hidden_representation(
                normalized, Tensor(graph.features)
            )
        return hidden.data

    def edge_inputs(self, embeddings, rows, cols, target):
        """Stack ``[z_u ; z_v ; z_target]`` rows for each (row, col) edge."""
        z = np.asarray(embeddings)
        target_block = np.repeat(z[int(target)][None, :], len(rows), axis=0)
        return np.concatenate([z[rows], z[cols], target_block], axis=1)

    def _instance(self, graph, node):
        """Subgraph, local edge index arrays and local target for a node."""
        subgraph, nodes, local = k_hop_subgraph(graph, int(node), self.hops)
        coo = sp.triu(subgraph.adjacency, k=1).tocoo()
        return subgraph, nodes, local, coo.row.copy(), coo.col.copy()

    # -- training ------------------------------------------------------------
    def fit(self, graph, nodes=None, instances=24):
        """Train the edge MLP on ``graph`` over the given instance nodes.

        When ``nodes`` is omitted, a random sample of nodes with degree ≥ 2
        is used (nodes with informative computation subgraphs).
        """
        self.model.eval()
        if nodes is None:
            degrees = graph.degrees()
            eligible = np.flatnonzero(degrees >= 2)
            if eligible.size == 0:
                eligible = np.arange(graph.num_nodes)
            count = min(int(instances), eligible.size)
            nodes = self._rng.choice(eligible, size=count, replace=False)
        nodes = [int(v) for v in np.asarray(nodes).ravel()]

        normalized = cached_model_operator(graph, self.model)
        with no_grad():
            full_logits = self.model(normalized, Tensor(graph.features))
        predictions = full_logits.data.argmax(axis=1)
        embeddings = self.node_embeddings(graph)

        prepared = []
        for node in nodes:
            subgraph, sub_nodes, local, rows, cols = self._instance(graph, node)
            if rows.size == 0:
                continue
            inputs = Tensor(
                self.edge_inputs(embeddings, sub_nodes[rows], sub_nodes[cols], node)
            )
            prepared.append(
                (subgraph, local, rows, cols, inputs, int(predictions[node]))
            )
        if not prepared:
            raise ValueError("no usable instance nodes for PGExplainer training")

        optimizer = Adam(self.weights, lr=self.lr)
        start_temp, end_temp = TEMPERATURE
        for epoch in range(self.epochs):
            tau = start_temp * (end_temp / start_temp) ** (
                epoch / max(self.epochs - 1, 1)
            )
            total = None
            for subgraph, local, rows, cols, inputs, label in prepared:
                loss = self._instance_loss(
                    subgraph, local, rows, cols, inputs, label, tau
                )
                total = loss if total is None else total + loss
            gradients = grad(total, self.weights, allow_unused=True)
            optimizer.step(gradients)
        self.fitted = True
        return self

    def _instance_loss(self, subgraph, local, rows, cols, inputs, label, tau):
        logits = ops.reshape(apply_edge_mlp(self.weights, inputs), (len(rows),))
        noise = self._rng.uniform(1e-6, 1.0 - 1e-6, size=len(rows))
        gumbel = Tensor(np.log(noise) - np.log(1.0 - noise))
        mask = ops.sigmoid((logits + gumbel) * (1.0 / tau))
        masked = masked_adjacency_from_edge_weights(
            subgraph.num_nodes, rows, cols, mask
        )
        normalize = getattr(
            self.model, "normalize_tensor", normalize_adjacency_tensor
        )
        normalized = normalize(masked)
        model_logits = self.model(normalized, Tensor(subgraph.features))
        loss = F.cross_entropy(
            ops.reshape(model_logits[local], (1, model_logits.shape[1])),
            np.array([label]),
        )
        if self.size_coefficient:
            loss = loss + self.size_coefficient * ops.tensor_sum(mask)
        if self.entropy_coefficient:
            p = ops.clip(mask, 1e-6, 1.0 - 1e-6)
            loss = loss + self.entropy_coefficient * ops.mean(
                ops.neg(p * ops.log(p) + (1.0 - p) * ops.log(1.0 - p))
            )
        return loss

    # -- explanation -----------------------------------------------------------
    def explain_node(self, graph, node, label=None):
        """Score the edges of ``node``'s computation subgraph in ``graph``.

        Inductive: the trained MLP is applied to (possibly perturbed) graphs
        unseen during :meth:`fit` — this is how it acts as the paper's
        inspector on attacked graphs.
        """
        if not self.fitted:
            raise RuntimeError("call fit() before explain_node()")
        self.model.eval()
        if label is None:
            normalized = cached_model_operator(graph, self.model)
            with no_grad():
                logits = self.model(normalized, Tensor(graph.features))
            label = int(logits.data[int(node)].argmax())
        embeddings = self.node_embeddings(graph)
        subgraph, sub_nodes, _, rows, cols = self._instance(graph, node)
        if rows.size == 0:
            return Explanation(int(node), int(label), [], np.array([]), sub_nodes)
        inputs = Tensor(
            self.edge_inputs(embeddings, sub_nodes[rows], sub_nodes[cols], node)
        )
        with no_grad():
            weights = ops.sigmoid(
                ops.reshape(apply_edge_mlp(self.weights, inputs), (len(rows),))
            ).data
        edges = [edge_tuple(sub_nodes[r], sub_nodes[c]) for r, c in zip(rows, cols)]
        return Explanation(
            node=int(node),
            predicted_label=int(label),
            edges=edges,
            weights=weights,
            subgraph_nodes=sub_nodes,
        )
