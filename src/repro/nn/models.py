"""Model zoo: the paper's 2-layer GCN plus GAT/SAGE/GIN victims.

The GCN is exactly the architecture of Eq. (1) in the paper:
``f(A, X) = softmax(Ã σ(Ã X W1) W2)`` with symmetric normalization
``Ã = D̃^{-1/2}(A + I)D̃^{-1/2}``.  Models return *logits*; apply
:func:`repro.autodiff.log_softmax` (or ``predict_proba``) on top.

Every registered architecture implements the same victim interface:

* ``arch`` / ``exact_locality`` — registry name and the layer's declared
  locality contract (whether a degree-offset-corrected subgraph view
  reproduces full-graph logits exactly; adjudicated, not trusted, by the
  differential harness in ``tests/test_attack_locality.py``).
* ``normalize(adjacency)`` — the constant evaluation operator (scipy /
  ndarray) used for training and clean-graph prediction.
* ``normalize_tensor(adjacency, ...)`` — the differentiable counterpart
  the attacks apply to a perturbed adjacency leaf.
* ``hidden_representation`` / ``embedding_dim`` — first-layer embeddings
  (PGExplainer's edge inputs).
* ``linearized_weights()`` — an ``F × C`` linear distillation for
  Nettack's :class:`LinearizedGCN` surrogate.

``ARCHITECTURES`` maps registry names to classes; :func:`build_model` is
the one construction path (``prepare_case``, surrogates, tests).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.autodiff import functional as F
from repro.autodiff import ops
from repro.autodiff.tensor import Tensor, astensor, no_grad
from repro.graph.utils import (
    normalize_adjacency,
    normalize_adjacency_tensor,
    row_normalize_adjacency,
    row_normalize_adjacency_tensor,
)
from repro.nn.layers import Dropout, GATConv, GCNConv, Linear
from repro.nn.module import Module, Parameter
from repro.nn import init

__all__ = [
    "GCN",
    "GAT",
    "GIN",
    "MLP",
    "LinearizedGCN",
    "GraphSAGE",
    "ARCHITECTURES",
    "build_model",
]


class NodeClassifier(Module):
    """Shared victim-model surface: prediction helpers + operator hooks."""

    #: Registry name of the architecture (``ScenarioCell.arch`` values).
    arch = None
    #: Whether a degree-offset-corrected subgraph view reproduces
    #: full-graph logits exactly (the locality engine's contract).
    exact_locality = True

    def normalize(self, adjacency):
        """Constant evaluation operator for training / clean prediction."""
        raise NotImplementedError

    def normalize_tensor(self, adjacency, self_loops=True, degree_offset=None):
        """Differentiable operator applied to a perturbed adjacency leaf."""
        raise NotImplementedError

    def predict_proba(self, adjacency, features):
        """Softmax probabilities, computed without recording a graph."""
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                probs = F.softmax(self.forward(adjacency, features), axis=-1)
        finally:
            self.train(was_training)
        return probs.data

    def predict(self, adjacency, features):
        """Hard label predictions (argmax of logits)."""
        return self.predict_proba(adjacency, features).argmax(axis=-1)


class GCN(NodeClassifier):
    """Two-layer graph convolutional network (Kipf & Welling, ICLR 2017).

    Parameters
    ----------
    in_features, hidden, num_classes:
        Layer dimensions.
    rng:
        ``numpy.random.Generator`` for initialization and dropout.
    dropout:
        Dropout probability applied to the hidden representation.
    """

    arch = "gcn"
    exact_locality = True

    def __init__(self, in_features, hidden, num_classes, rng, dropout=0.5):
        super().__init__()
        self.conv1 = GCNConv(in_features, hidden, rng)
        self.conv2 = GCNConv(hidden, num_classes, rng)
        self.dropout = Dropout(dropout, rng)
        self.num_classes = num_classes

    def forward(self, adjacency, features):
        """Return logits ``(n, C)`` under the given *normalized* adjacency."""
        hidden = ops.relu(self.conv1(adjacency, features))
        hidden = self.dropout(hidden)
        return self.conv2(adjacency, hidden)

    def normalize(self, adjacency):
        return normalize_adjacency(adjacency)

    def normalize_tensor(self, adjacency, self_loops=True, degree_offset=None):
        return normalize_adjacency_tensor(
            adjacency, self_loops=self_loops, degree_offset=degree_offset
        )

    def hidden_representation(self, adjacency, features):
        """First-layer post-activation embeddings (used by PGExplainer)."""
        return ops.relu(self.conv1(adjacency, features))

    @property
    def embedding_dim(self):
        return self.conv1.weight.shape[1]

    def linearized_weights(self):
        """``W1 @ W2`` — Nettack's exact linearization of this GCN."""
        return self.conv1.weight.data @ self.conv2.weight.data


class MLP(Module):
    """Multi-layer perceptron with ReLU activations (PGExplainer's head)."""

    def __init__(self, layer_sizes, rng, dropout=0.0):
        super().__init__()
        if len(layer_sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        self.linears = [
            Linear(fan_in, fan_out, rng)
            for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:])
        ]
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None

    def forward(self, inputs):
        out = astensor(inputs)
        last = len(self.linears) - 1
        for index, layer in enumerate(self.linears):
            out = layer(out)
            if index != last:
                out = ops.relu(out)
                if self.dropout is not None:
                    out = self.dropout(out)
        return out


class GraphSAGE(NodeClassifier):
    """Two-layer GraphSAGE with the mean aggregator (Hamilton et al. 2017).

    ``h = relu([X ; Â_row X] W1)``, ``out = [h ; Â_row h] W2`` where
    ``Â_row`` is the row-stochastic adjacency
    (:func:`repro.graph.row_normalize_adjacency`).  Row normalization only
    reads each aggregated node's *own* degree, which the locality view's
    constant ``degree_offset`` restores — mean aggregation localizes
    exactly, and the differential harness holds it to that.
    """

    arch = "sage"
    exact_locality = True

    def __init__(self, in_features, hidden, num_classes, rng, dropout=0.5):
        super().__init__()
        self.lin1 = Linear(2 * in_features, hidden, rng)
        self.lin2 = Linear(2 * hidden, num_classes, rng)
        self.dropout = Dropout(dropout, rng)
        self.num_classes = num_classes

    def forward(self, adjacency, features):
        """Logits under a *row-normalized* adjacency operator."""
        from repro.autodiff.ops import concatenate
        from repro.nn.layers import adjacency_matmul

        features = astensor(features)
        aggregated = adjacency_matmul(adjacency, features)
        hidden = ops.relu(self.lin1(concatenate([features, aggregated], axis=1)))
        hidden = self.dropout(hidden)
        aggregated_hidden = adjacency_matmul(adjacency, hidden)
        return self.lin2(concatenate([hidden, aggregated_hidden], axis=1))

    def normalize(self, adjacency):
        return row_normalize_adjacency(adjacency)

    def normalize_tensor(self, adjacency, self_loops=True, degree_offset=None):
        return row_normalize_adjacency_tensor(
            adjacency, self_loops=self_loops, degree_offset=degree_offset
        )

    def hidden_representation(self, adjacency, features):
        """First-layer post-activation embeddings ``relu([X ; ÂX] W1)``."""
        from repro.autodiff.ops import concatenate
        from repro.nn.layers import adjacency_matmul

        features = astensor(features)
        aggregated = adjacency_matmul(adjacency, features)
        return ops.relu(self.lin1(concatenate([features, aggregated], axis=1)))

    @property
    def embedding_dim(self):
        return self.lin1.weight.shape[1]

    def linearized_weights(self):
        """Sum the self/aggregated row blocks of each layer, then chain."""
        hidden = self.lin1.weight.shape[1]
        in_features = self.lin1.weight.shape[0] // 2
        w1 = self.lin1.weight.data
        w2 = self.lin2.weight.data
        first = w1[:in_features] + w1[in_features:]
        second = w2[:hidden] + w2[hidden:]
        return first @ second


class GIN(NodeClassifier):
    """Two-layer graph isomorphism network (Xu et al., ICLR 2019), GIN-0.

    Each layer applies a 2-layer MLP to ``(1 + ε)·x + Σ_neighbors x``
    (sum aggregation over the *raw* adjacency; ε = 0).  Sum aggregation
    has no degree terms at all, so a locality view that covers the read
    rows' in-scene neighborhoods reproduces full-graph logits exactly.
    """

    arch = "gin"
    exact_locality = True

    def __init__(self, in_features, hidden, num_classes, rng, dropout=0.5, eps=0.0):
        super().__init__()
        self.mlp1 = MLP([in_features, hidden, hidden], rng)
        self.mlp2 = MLP([hidden, hidden, num_classes], rng)
        self.dropout = Dropout(dropout, rng)
        self.eps = float(eps)
        self.num_classes = num_classes

    def _conv(self, mlp, adjacency, x):
        from repro.nn.layers import adjacency_matmul

        return mlp((1.0 + self.eps) * x + adjacency_matmul(adjacency, x))

    def forward(self, adjacency, features):
        """Logits under the *raw* (unnormalized) adjacency operator."""
        features = astensor(features)
        hidden = ops.relu(self._conv(self.mlp1, adjacency, features))
        hidden = self.dropout(hidden)
        return self._conv(self.mlp2, adjacency, hidden)

    def normalize(self, adjacency):
        return sp.csr_matrix(adjacency, dtype=np.float64)

    def normalize_tensor(self, adjacency, self_loops=True, degree_offset=None):
        # Sum aggregation consumes the raw adjacency; self-loops come from
        # the (1 + ε)·x term and there are no degree terms to offset.
        return astensor(adjacency)

    def hidden_representation(self, adjacency, features):
        """First-layer post-activation embeddings."""
        return ops.relu(self._conv(self.mlp1, adjacency, astensor(features)))

    @property
    def embedding_dim(self):
        return self.mlp1.linears[-1].weight.shape[1]

    def linearized_weights(self):
        """Chain every MLP linear's weight (nonlinearities stripped)."""
        weights = None
        for layer in (*self.mlp1.linears, *self.mlp2.linears):
            weights = (
                layer.weight.data
                if weights is None
                else weights @ layer.weight.data
            )
        return weights


class GAT(NodeClassifier):
    """Two-layer single-head graph attention network (Veličković et al. 2018).

    Dense-only: attention is a full ``n × n`` masked softmax per layer
    (see :class:`repro.nn.layers.GATConv`).  The attention coefficients
    renormalize over each row's *entire* neighborhood, so they are not
    degree-offset constants — a subgraph view cannot reproduce them, and
    this class declares ``exact_locality = False``: locality-capable
    attacks fall back to full-graph execution on GAT victims (asserted,
    not assumed, by the locality test suite).
    """

    arch = "gat"
    exact_locality = False

    def __init__(self, in_features, hidden, num_classes, rng, dropout=0.5, slope=0.2):
        super().__init__()
        self.conv1 = GATConv(in_features, hidden, rng, slope=slope)
        self.conv2 = GATConv(hidden, num_classes, rng, slope=slope)
        self.dropout = Dropout(dropout, rng)
        self.num_classes = num_classes

    @staticmethod
    def _gate(adjacency):
        """Dense ``A + I`` attention gate from any adjacency representation."""
        if sp.issparse(adjacency):
            adjacency = adjacency.toarray()
        adjacency = astensor(adjacency)
        return adjacency + Tensor(np.eye(adjacency.shape[0]))

    def forward(self, adjacency, features):
        """Logits under the *raw* adjacency (the gate is built in here)."""
        gate = self._gate(adjacency)
        hidden = ops.relu(self.conv1(gate, astensor(features)))
        hidden = self.dropout(hidden)
        return self.conv2(gate, hidden)

    def normalize(self, adjacency):
        # Dense-only architecture: materialize the raw adjacency once so
        # training epochs don't re-densify a CSR every forward pass.
        if sp.issparse(adjacency):
            return np.asarray(adjacency.todense(), dtype=np.float64)
        return np.asarray(adjacency, dtype=np.float64)

    def normalize_tensor(self, adjacency, self_loops=True, degree_offset=None):
        # The raw adjacency is the operator; attention renormalizes inside
        # the layers (and is *not* exactly localizable — see class doc).
        return astensor(adjacency)

    def hidden_representation(self, adjacency, features):
        """First-layer post-activation embeddings."""
        return ops.relu(self.conv1(self._gate(adjacency), astensor(features)))

    @property
    def embedding_dim(self):
        return self.conv1.linear.weight.shape[1]

    def linearized_weights(self):
        """Chain the per-layer linear transforms (attention stripped)."""
        return self.conv1.linear.weight.data @ self.conv2.linear.weight.data


class LinearizedGCN(Module):
    """Nettack's surrogate: the GCN with non-linearities removed.

    ``logits = Ã² X W`` with a single weight matrix ``W``; Zügner et al.
    show attack scores on this surrogate transfer to the non-linear GCN.
    It can either be trained directly or distilled from a trained GCN by
    multiplying its two weight matrices (``from_gcn``).
    """

    def __init__(self, in_features, num_classes, rng):
        super().__init__()
        self.weight = Parameter(init.glorot_uniform(rng, in_features, num_classes))

    def forward(self, adjacency, features):
        from repro.nn.layers import adjacency_matmul

        support = ops.matmul(astensor(features), self.weight)
        once = adjacency_matmul(adjacency, support)
        return adjacency_matmul(adjacency, once)

    @classmethod
    def from_model(cls, model, rng=None):
        """Distill a linear surrogate from any registered victim model.

        Uses the model's declared ``linearized_weights()`` — exact for the
        GCN (``W1 @ W2``), a nonlinearity-stripped chain for the other
        architectures (a documented deviation: Nettack's scoring surrogate
        stays linear whatever the victim is).
        """
        rng = rng or np.random.default_rng(0)
        weights = np.asarray(model.linearized_weights())
        surrogate = cls(weights.shape[0], weights.shape[1], rng)
        with no_grad():
            surrogate.weight.data = weights
        return surrogate

    @classmethod
    def from_gcn(cls, gcn, rng=None):
        """Distill ``W = W1 @ W2`` from a trained :class:`GCN`."""
        return cls.from_model(gcn, rng=rng)


#: Registry of victim architectures (``ScenarioCell.arch`` / ``--archs``).
ARCHITECTURES = {
    "gcn": GCN,
    "gat": GAT,
    "sage": GraphSAGE,
    "gin": GIN,
}


def build_model(arch, in_features, hidden, num_classes, rng, dropout=0.5):
    """Construct a victim model by registry name.

    The single construction path for cases and surrogates; the ``gcn``
    branch consumes the RNG exactly as the historical direct construction
    did, so default-arch training stays byte-identical.
    """
    try:
        model_cls = ARCHITECTURES[arch]
    except KeyError:
        raise KeyError(
            f"unknown architecture {arch!r}; options: {sorted(ARCHITECTURES)}"
        ) from None
    return model_cls(in_features, hidden, num_classes, rng, dropout)
