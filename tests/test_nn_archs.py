"""Unit contracts of the victim model zoo (GCN / GAT / GraphSAGE / GIN).

Three per-layer guarantees back the arena's architecture axis:

* **Gradients are real** — finite-difference ``gradcheck`` through each
  architecture's message passing (GAT's masked attention softmax, SAGE's
  mean aggregation, GIN's sum-MLP) with respect to *both* the adjacency
  and the features, since the attacks differentiate through the operator.
* **Aggregation is permutation-equivariant** — relabeling nodes permutes
  logits and nothing else (``f(PAPᵀ, PX) = P f(A, X)``).
* **Backend honesty** — the sparse CSR kernels hard-code the symmetric
  GCN normalization, so ``REPRO_BACKEND=sparse`` for any other
  architecture must *visibly* downgrade the attack to dense
  (``backend.arch_dense_fallback``), never silently mis-normalize.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api.registry import build_attack
from repro.autodiff import ops
from repro.autodiff.gradcheck import gradcheck
from repro.autodiff.tensor import Tensor, astensor, no_grad
from repro.experiments import SCALE_PRESETS
from repro.graph import normalize_adjacency
from repro.nn import ARCHITECTURES, GCN, build_model, train_node_classifier
from repro.obs import metrics

ARCH_NAMES = sorted(ARCHITECTURES)

#: A deterministic 7-node graph, small enough for finite differences.
_RNG = np.random.default_rng(12)
_N, _F, _H, _C = 7, 5, 4, 3
_DENSE = np.zeros((_N, _N))
for _i, _j in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]:
    _DENSE[_i, _j] = _DENSE[_j, _i] = 1.0
#: Features biased away from zero so ReLU kinks don't sit on the
#: finite-difference step.
_FEATURES = _RNG.normal(loc=0.6, scale=0.8, size=(_N, _F))


def fresh_model(arch, seed=3, dropout=0.0):
    model = build_model(
        arch, _F, _H, _C, np.random.default_rng(seed), dropout=dropout
    )
    model.eval()
    return model


class TestForwardContracts:
    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_logits_hidden_and_linearization_shapes(self, arch):
        model = fresh_model(arch)
        operator = model.normalize(sp.csr_matrix(_DENSE))
        with no_grad():
            logits = model(operator, _FEATURES)
            hidden = model.hidden_representation(operator, Tensor(_FEATURES))
        assert logits.shape == (_N, _C)
        assert hidden.shape == (_N, model.embedding_dim)
        assert model.linearized_weights().shape == (_F, _C)

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_normalize_tensor_matches_constant_operator(self, arch):
        """The differentiable operator reproduces the training operator."""
        model = fresh_model(arch)
        constant = model.normalize(sp.csr_matrix(_DENSE))
        with no_grad():
            expected = model(constant, _FEATURES).data
            actual = model(model.normalize_tensor(Tensor(_DENSE)), _FEATURES).data
        assert np.allclose(actual, expected, atol=1e-10)

    def test_build_model_gcn_matches_direct_construction(self):
        """The registry path consumes the RNG exactly like the historical
        direct construction — default-arch training stays byte-identical."""
        built = build_model(
            "gcn", _F, _H, _C, np.random.default_rng(9), dropout=0.3
        )
        direct = GCN(_F, _H, _C, np.random.default_rng(9), dropout=0.3)
        for ours, theirs in zip(built.parameters(), direct.parameters()):
            assert np.array_equal(ours.data, theirs.data)

    def test_unknown_arch_lists_options(self):
        with pytest.raises(KeyError, match="unknown architecture"):
            build_model("resnet", _F, _H, _C, np.random.default_rng(0))


class TestGradcheck:
    """Finite differences through each architecture's message passing."""

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_gradcheck_adjacency_and_features(self, arch):
        model = fresh_model(arch)
        adjacency = Tensor(_DENSE.copy(), requires_grad=True)
        features = Tensor(_FEATURES.copy(), requires_grad=True)

        def loss(adj, feats):
            logits = model(model.normalize_tensor(adj), feats)
            return ops.tensor_sum(logits * logits)

        gradcheck(loss, [adjacency, features], atol=5e-4, rtol=5e-3)

    def test_gat_attention_rows_are_stochastic(self):
        """The masked softmax normalizes each gated row to probability mass
        (the detached row-max shift must cancel exactly)."""
        model = fresh_model("gat")
        gate = model._gate(astensor(_DENSE))
        conv = model.conv1
        with no_grad():
            support = conv.linear(Tensor(_FEATURES))
            src = ops.matmul(support, conv.att_src)
            dst = ops.matmul(support, conv.att_dst)
            from repro.nn.layers import leaky_relu

            scores = leaky_relu(src + ops.transpose(dst), conv.slope)
            weights = gate * ops.exp(
                scores - Tensor(scores.data.max(axis=1, keepdims=True))
            )
            attention = weights.data / weights.data.sum(axis=1, keepdims=True)
        assert np.allclose(attention.sum(axis=1), 1.0)
        # Attention only lives on gated (edge or self-loop) entries.
        assert np.all((attention > 0) == (gate.data > 0))


class TestPermutationEquivariance:
    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_logits_permute_with_nodes(self, arch):
        model = fresh_model(arch)
        permutation = np.random.default_rng(5).permutation(_N)
        permuted_dense = _DENSE[np.ix_(permutation, permutation)]
        with no_grad():
            base = model(
                model.normalize(sp.csr_matrix(_DENSE)), _FEATURES
            ).data
            shuffled = model(
                model.normalize(sp.csr_matrix(permuted_dense)),
                _FEATURES[permutation],
            ).data
        assert np.allclose(shuffled, base[permutation], atol=1e-10)


def sparse_attack_for(arch):
    """``build_attack`` of FGA-T against a fresh ``arch`` victim."""
    config = SCALE_PRESETS["smoke"]
    case = SimpleNamespace(model=fresh_model(arch), seed=0, config=config)
    return build_attack("FGA-T", case, config)


class TestBackendContract:
    def test_sparse_selection_downgrades_to_dense_for_non_gcn(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sparse")
        for arch in ("gat", "sage", "gin"):
            before = metrics.counters().get("backend.arch_dense_fallback", 0)
            assert not sparse_attack_for(arch).sparse, arch
            after = metrics.counters()["backend.arch_dense_fallback"]
            assert after == before + 1, arch

    def test_defense_and_reanchor_predictions_build_no_attack(
        self, monkeypatch
    ):
        """Only building an attack counts a fallback, never a prediction."""
        from repro.attacks import AttackResult
        from repro.defense import NoDefense
        from repro.graph import Graph
        from repro.threat import reanchor_result

        monkeypatch.setenv("REPRO_BACKEND", "sparse")
        model = fresh_model("sage")
        graph = Graph(_DENSE, _FEATURES, np.arange(_N) % _C)
        perturbed = graph.with_edges_added([(0, 4)])
        inner = AttackResult(
            perturbed_graph=perturbed,
            added_edges=[(0, 4)],
            target_node=0,
            target_label=1,
            original_prediction=0,
            final_prediction=0,
        )
        before = metrics.counters().get("backend.arch_dense_fallback", 0)
        for node in range(5):
            NoDefense(model).predict(graph, node)
        reanchor_result(inner, graph, model)
        assert (
            metrics.counters().get("backend.arch_dense_fallback", 0) == before
        )

    def test_gcn_keeps_the_sparse_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sparse")
        before = metrics.counters().get("backend.arch_dense_fallback", 0)
        assert sparse_attack_for("gcn").sparse
        assert (
            metrics.counters().get("backend.arch_dense_fallback", 0) == before
        )


class TestTraining:
    @pytest.mark.parametrize("arch", ["gat", "sage", "gin"])
    def test_each_arch_trains_above_chance(self, arch, tiny_graph, tiny_split):
        model = build_model(
            arch,
            tiny_graph.num_features,
            12,
            tiny_graph.num_classes,
            np.random.default_rng(7),
            dropout=0.3,
        )
        result = train_node_classifier(
            model,
            model.normalize(tiny_graph.adjacency),
            tiny_graph.features,
            tiny_graph.labels,
            tiny_split.train,
            tiny_split.val,
            tiny_split.test,
            epochs=80,
            patience=30,
        )
        assert result.test_accuracy > 1.0 / tiny_graph.num_classes, arch
