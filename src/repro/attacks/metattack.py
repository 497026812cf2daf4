"""Metattack-style global poisoning via meta-gradients (extension).

Zügner & Günnemann (ICLR 2019) attack the *training* of a GNN: they unroll
the surrogate's gradient-descent training under the perturbed adjacency and
differentiate the post-training loss **through the training run** (a
meta-gradient), then greedily flip the highest-scoring edge.

The paper reproduced here cites Metattack as the global-attack counterpart
of its targeted setting (Section 2); this module implements it as an
extension on top of the same higher-order autodiff engine GEAttack uses —
the meta-gradient is exactly a ``create_graph=True`` unroll, like
GEAttack's inner explainer loop but over model weights.

Simplifications versus the reference implementation (documented per
DESIGN.md): a linear two-propagation surrogate (as in Nettack), vanilla
gradient-descent inner training from a fixed initialization, and the
"Meta-Self" attacker loss (cross-entropy of unlabeled nodes against
self-training labels).

Although its threat model is global (any edge flip, poisoning the training
run) rather than victim-centric, :class:`Metattack` conforms to the
:class:`repro.attacks.Attack` base interface: :meth:`attack` runs a
``budget``-flip poisoning pass seeded by ``base_seed + victim_node`` (the
engine's per-victim determinism convention) and reports the frozen model's
prediction change at the victim.  ``supports_locality`` stays ``False`` —
global flips have no victim-bounded computation subgraph — so the batched
engine transparently uses the full-graph fallback.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack
from repro.autodiff import functional as F
from repro.autodiff import ops
from repro.autodiff.tensor import Tensor, grad, no_grad
from repro.graph.utils import normalize_adjacency_tensor
from repro.nn import init

__all__ = ["Metattack"]

#: Step size of the surrogate's unrolled gradient-descent training.
TRAIN_LR = 0.5


class Metattack(Attack):
    """Global structure poisoning with meta-gradients (Meta-Self variant).

    Parameters
    ----------
    model:
        Optional frozen GCN used only to evaluate prediction flips in the
        :meth:`attack` interface; :meth:`poison` itself is model-free (the
        surrogate is trained from scratch inside the meta-gradient unroll).
    hidden:
        Width of the unrolled linear surrogate.
    train_steps:
        Inner training unroll at step size ``TRAIN_LR`` (kept short;
        meta-gradients of even a partial training run carry strong signal —
        same observation as the paper's Figure 6 for the explainer unroll).
    self_training:
        Use the surrogate's own predictions as labels for unlabeled nodes
        (the "Meta-Self" objective); otherwise attack the train loss only.
    train_fraction:
        Fraction of nodes treated as labeled when :meth:`attack` has to
        derive a training split itself (drawn from the per-victim RNG).
    """

    name = "Metattack"
    supports_locality = False

    def __init__(
        self,
        model=None,
        seed=0,
        hidden=16,
        train_steps=12,
        self_training=True,
        train_fraction=0.3,
    ):
        super().__init__(model, seed=seed)
        self.hidden = int(hidden)
        self.train_steps = int(train_steps)
        self.self_training = bool(self_training)
        if not 0.0 < train_fraction <= 1.0:
            raise ValueError("train_fraction must lie in (0, 1]")
        self.train_fraction = float(train_fraction)

    # -- base-interface entry point ----------------------------------------
    def attack(self, graph, target_node, target_label, budget):
        """Poison ``budget`` edge flips; report the victim's prediction flip.

        Follows the engine's seeding convention (``base_seed + victim``), so
        results are independent of victim order and batching.  Flips may
        remove edges too; removals are recorded in ``result.history`` as
        ``("removed", edge)`` entries, matching DICE.
        """
        if self.model is None:
            raise ValueError(
                "Metattack.attack needs the attacked model to evaluate "
                "prediction flips; use poison() for model-free poisoning"
            )
        target_node = int(target_node)
        rng = np.random.default_rng(self.seed + target_node)
        count = max(1, int(round(self.train_fraction * graph.num_nodes)))
        train_index = np.sort(
            rng.choice(graph.num_nodes, size=count, replace=False)
        )
        poisoned, _ = self._poison(graph, train_index, budget, rng)
        # Net accounting against the clean graph: a pair flipped twice
        # (added then removed, or vice versa) lands in neither list.
        clean_edges = graph.edge_set()
        poisoned_edges = poisoned.edge_set()
        added = sorted(poisoned_edges - clean_edges)
        result = self._finalize(graph, poisoned, added, target_node, target_label)
        result.history = [
            ("removed", edge) for edge in sorted(clean_edges - poisoned_edges)
        ]
        return result

    def poison(self, graph, train_index, budget):
        """Return ``(poisoned_graph, flipped_edges)`` after ``budget`` flips.

        Edge flips are global (any node pair) and may add or remove edges —
        the Metattack threat model, unlike the paper's victim-centric
        addition-only setting.
        """
        return self._poison(
            graph, train_index, budget, np.random.default_rng(self.seed)
        )

    # -- internals -----------------------------------------------------------
    def _poison(self, graph, train_index, budget, rng):
        train_index = np.asarray(train_index, dtype=np.int64)
        labels = graph.labels
        features = Tensor(graph.features)
        w1_init = init.glorot_uniform(rng, graph.num_features, self.hidden)
        w2_init = init.glorot_uniform(rng, self.hidden, graph.num_classes)

        pseudo_labels = self._self_training_labels(
            graph, features, labels, train_index, w1_init, w2_init
        )
        unlabeled = np.setdiff1d(np.arange(graph.num_nodes), train_index)

        perturbed = graph
        flipped = []
        for _ in range(int(budget)):
            adjacency = Tensor(perturbed.dense_adjacency(), requires_grad=True)
            meta_loss = self._meta_loss(
                adjacency,
                features,
                labels,
                pseudo_labels,
                train_index,
                unlabeled,
                w1_init,
                w2_init,
            )
            meta_gradient = grad(meta_loss, adjacency).data
            scores = self._flip_scores(meta_gradient, perturbed)
            u, v = np.unravel_index(int(np.argmax(scores)), scores.shape)
            u, v = int(min(u, v)), int(max(u, v))
            if scores[u, v] <= 0:
                break  # no flip increases the attacker objective
            if perturbed.has_edge(u, v):
                perturbed = perturbed.with_edges_removed([(u, v)])
            else:
                perturbed = perturbed.with_edges_added([(u, v)])
            flipped.append((u, v))
        return perturbed, flipped

    def _surrogate_logits(self, adjacency_tensor, features, w1, w2):
        normalized = normalize_adjacency_tensor(adjacency_tensor)
        hidden = ops.matmul(normalized, ops.matmul(features, w1))
        return ops.matmul(normalized, ops.matmul(hidden, w2))

    def _self_training_labels(
        self, graph, features, labels, train_index, w1_init, w2_init
    ):
        """Train once on the clean graph; predicted labels for the rest."""
        adjacency = Tensor(graph.dense_adjacency())
        w1 = Tensor(w1_init.copy(), requires_grad=True)
        w2 = Tensor(w2_init.copy(), requires_grad=True)
        for _ in range(self.train_steps * 2):
            logits = self._surrogate_logits(adjacency, features, w1, w2)
            loss = F.cross_entropy(logits[train_index], labels[train_index])
            g1, g2 = grad(loss, [w1, w2])
            w1 = Tensor(w1.data - TRAIN_LR * g1.data, requires_grad=True)
            w2 = Tensor(w2.data - TRAIN_LR * g2.data, requires_grad=True)
        with no_grad():
            final = self._surrogate_logits(adjacency, features, w1, w2)
        pseudo = final.data.argmax(axis=1)
        pseudo[train_index] = labels[train_index]
        return pseudo

    def _meta_loss(
        self,
        adjacency,
        features,
        labels,
        pseudo_labels,
        train_index,
        unlabeled,
        w1_init,
        w2_init,
    ):
        """Attacker loss after an unrolled training run (differentiable)."""
        w1 = Tensor(w1_init.copy(), requires_grad=True)
        w2 = Tensor(w2_init.copy(), requires_grad=True)
        for _ in range(self.train_steps):
            logits = self._surrogate_logits(adjacency, features, w1, w2)
            train_loss = F.cross_entropy(logits[train_index], labels[train_index])
            g1, g2 = grad(train_loss, [w1, w2], create_graph=True)
            w1 = w1 - TRAIN_LR * g1
            w2 = w2 - TRAIN_LR * g2
        logits = self._surrogate_logits(adjacency, features, w1, w2)
        if self.self_training and unlabeled.size:
            return F.cross_entropy(logits[unlabeled], pseudo_labels[unlabeled])
        return F.cross_entropy(logits[train_index], labels[train_index])

    @staticmethod
    def _flip_scores(meta_gradient, graph):
        """Per-pair gain of flipping: +grad for additions, −grad for removals."""
        symmetric = meta_gradient + meta_gradient.T
        dense = graph.dense_adjacency()
        scores = symmetric * (1.0 - 2.0 * dense)
        # Forbid self-flips and keep each undirected pair once.
        scores[np.diag_indices_from(scores)] = -np.inf
        scores[np.tril_indices_from(scores)] = -np.inf
        return scores
