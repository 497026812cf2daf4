"""Differential gate: the tape-free GNNExplainer descent equals the tape.

``GNNExplainer.explain_node`` runs GCN victims through
:func:`repro.explain.gnn_explainer.explainer_loss_and_grad`, which issues
the tape's numpy calls without building a tape.  Nothing here has a
tolerance: every epoch's mask gradient, the final ``σ(M)`` and the edge
ranking must be bit-equal (``np.array_equal``) to what
:func:`explainer_loss` + :func:`grad` produce, on

* every explanation the Table-1 and arena goldens compute;
* seeded random graphs with isolated nodes and a degree-1 chain, each
  explained for its prediction and for another label, with each
  regularizer coefficient zeroed in turn;
* saturated masks, whose probabilities hit the entropy term's clip.

Other victims keep the tape, and ``explain.tape_fallback`` counts them.
"""

from __future__ import annotations

import numpy as np
import pytest

from test_arena_golden import run_golden_arena
from test_table_golden import GOLDEN_CONFIG as TABLE_CONFIG
from test_table_golden import GOLDEN_METHODS as TABLE_METHODS

from repro.api import Session
from repro.autodiff.tensor import Tensor, grad
from repro.explain import Explanation, GNNExplainer
from repro.explain.base import subgraph_edges
from repro.explain.gnn_explainer import (
    MASK_INIT_SCALE,
    explainer_loss,
    explainer_loss_and_grad,
    symmetric_mask_probability,
)
from repro.graph import Graph, k_hop_subgraph, normalize_adjacency
from repro.nn import GCN, build_model
from repro.obs import metrics

#: (size_coefficient, entropy_coefficient): the defaults, then each zeroed.
COEFFICIENTS = [(0.005, 0.1), (0.0, 0.1), (0.005, 0.0), (0.0, 0.0)]


def descend(explainer, graph, node, label, tape):
    """Each epoch's mask gradient and the final σ(M), on one path."""
    subgraph, nodes, local = k_hop_subgraph(graph, int(node), explainer.hops)
    adjacency = subgraph.dense_adjacency()
    mask = np.random.default_rng(explainer.seed).normal(
        0.0, MASK_INIT_SCALE, size=adjacency.shape
    )
    coefficients = (explainer.size_coefficient, explainer.entropy_coefficient)
    loss_and_grad = explainer_loss_and_grad(
        explainer.model, adjacency, subgraph.features, local, label, *coefficients
    )
    gradients = []
    for _ in range(explainer.epochs):
        if tape:
            leaf = Tensor(mask, requires_grad=True)
            loss = explainer_loss(
                explainer.model,
                Tensor(adjacency),
                leaf,
                Tensor(subgraph.features),
                local,
                label,
                *coefficients,
            )
            gradient = grad(loss, leaf).data
        else:
            gradient = loss_and_grad(mask)[1]
        gradients.append(gradient)
        mask = mask - explainer.lr * gradient
    probability = symmetric_mask_probability(Tensor(mask)).data
    edges, rows, cols = subgraph_edges(subgraph, nodes)
    explanation = Explanation(node, label, edges, probability[rows, cols])
    return gradients, probability, explanation


def assert_bit_equal(explainer, graph, node, label, explanation=None):
    """Tape ≡ tape-free, epoch by epoch; and ``explain_node`` ≡ the tape."""
    tape_grads, tape_probability, tape_explanation = descend(
        explainer, graph, node, label, tape=True
    )
    free_grads, free_probability, free_explanation = descend(
        explainer, graph, node, label, tape=False
    )
    where = f"node {node}, label {label}"
    for epoch, (expected, got) in enumerate(zip(tape_grads, free_grads)):
        assert np.array_equal(expected, got), (
            f"{where}: epoch {epoch} gradients differ by "
            f"{np.max(np.abs(expected - got))}"
        )
    assert np.array_equal(tape_probability, free_probability), where
    ranking = tape_explanation.ranking()
    assert free_explanation.ranking() == ranking, where
    if explanation is None:
        explanation = explainer.explain_node(graph, node, label=label)
    assert np.array_equal(explanation.weights, tape_explanation.weights), where
    assert explanation.ranking() == ranking, where


@pytest.fixture(scope="module")
def golden_explanations(tmp_path_factory):
    """Every ``explain_node`` call the Table-1 and arena goldens make."""
    calls = []
    original = GNNExplainer.explain_node

    def recording(self, graph, node, label=None):
        explanation = original(self, graph, node, label=label)
        calls.append((self, graph, node, explanation))
        return explanation

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GNNExplainer, "explain_node", recording)
        Session(TABLE_CONFIG, jobs=1).table(
            "cora", explainer="gnn", methods=TABLE_METHODS
        )
        run_golden_arena(tmp_path_factory.mktemp("tape-free") / "store", jobs=1)
    return calls


def test_golden_explanations_bit_equal(golden_explanations):
    assert len(golden_explanations) >= 10
    for explainer, graph, node, explanation in golden_explanations:
        assert type(explainer.model) is GCN
        assert_bit_equal(
            explainer, graph, node, explanation.predicted_label, explanation
        )


def random_graph(seed, num_features=12, num_classes=3):
    """A random core, a degree-1 chain hanging off it, two isolated nodes."""
    rng = np.random.default_rng(seed)
    core = int(rng.integers(6, 16))
    n = core + 4
    adjacency = np.zeros((n, n))
    adjacency[:core, :core] = np.triu(rng.random((core, core)) < 0.3, 1)
    adjacency[core - 1, core] = adjacency[core, core + 1] = 1.0
    features = (rng.random((n, num_features)) < 0.3).astype(np.float64)
    labels = rng.integers(0, num_classes, size=n)
    return Graph(adjacency, features, labels, name=f"random-{seed}")


def random_model(graph, seed):
    """An untrained GCN with nonzero biases, so ReLU gates both ways."""
    rng = np.random.default_rng(seed)
    model = GCN(graph.num_features, 6, int(graph.labels.max()) + 1, rng)
    for layer in (model.conv1, model.conv2):
        layer.bias.data[:] = rng.normal(0.0, 0.3, size=layer.bias.shape)
    return model.eval()


@pytest.mark.parametrize("coefficients", COEFFICIENTS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_subgraphs_bit_equal(seed, coefficients):
    graph = random_graph(seed)
    model = random_model(graph, seed)
    size, entropy = coefficients
    explainer = GNNExplainer(
        model,
        epochs=25,
        size_coefficient=size,
        entropy_coefficient=entropy,
        seed=seed,
    )
    predictions = model.predict(normalize_adjacency(graph.adjacency), graph.features)
    n = graph.num_nodes
    # A core node, the chain's two nodes (the last has degree 1), and an
    # isolated node, whose computation subgraph is itself alone.
    for node in (0, n - 4, n - 3, n - 1):
        predicted = int(predictions[node])
        for label in (predicted, (predicted + 1) % model.num_classes):
            assert_bit_equal(explainer, graph, node, label)


@pytest.mark.parametrize("coefficients", COEFFICIENTS)
def test_saturated_mask_bit_equal(coefficients):
    # σ(M) reaches 0 and 1 in float64, so the entropy term's clip is
    # active on some entries and the sigmoid's gradient vanishes there.
    graph = random_graph(3)
    model = random_model(graph, 3)
    subgraph, _, local = k_hop_subgraph(graph, 0, 2)
    adjacency = subgraph.dense_adjacency()
    mask = np.random.default_rng(3).normal(0.0, 30.0, size=adjacency.shape)
    leaf = Tensor(mask, requires_grad=True)
    loss = explainer_loss(
        model,
        Tensor(adjacency),
        leaf,
        Tensor(subgraph.features),
        local,
        1,
        *coefficients,
    )
    expected = grad(loss, leaf).data
    free_loss, got = explainer_loss_and_grad(
        model, adjacency, subgraph.features, local, 1, *coefficients
    )(mask)
    assert np.array_equal(loss.data, free_loss)
    assert np.array_equal(expected, got)
    probability = symmetric_mask_probability(Tensor(mask)).data
    assert np.any(probability < 1e-6) and np.any(probability > 1.0 - 1e-6)


class TestTapeFallbackCounter:
    def fallbacks(self):
        return metrics.counters().get("explain.tape_fallback", 0)

    def test_gcn_victims_keep_no_tape(self):
        graph = random_graph(0)
        before = self.fallbacks()
        GNNExplainer(random_model(graph, 0), epochs=3).explain_node(graph, 0)
        assert self.fallbacks() == before

    def test_sage_victim_counts_each_call(self):
        graph = random_graph(0)
        model = build_model(
            "sage", graph.num_features, 6, 3, np.random.default_rng(0)
        )
        explainer = GNNExplainer(model, epochs=3)
        before = self.fallbacks()
        explainer.explain_node(graph, 0)
        explainer.explain_node(graph, 1)
        assert self.fallbacks() == before + 2

    def test_feature_mask_counts_each_call(self):
        graph = random_graph(0)
        explainer = GNNExplainer(
            random_model(graph, 0), epochs=3, explain_features=True
        )
        before = self.fallbacks()
        explanation = explainer.explain_node(graph, 0)
        assert explanation.feature_weights is not None
        assert self.fallbacks() == before + 1
