"""Differential harness for the compute backends: sparse ≡ dense.

The sparse CSR backend must change *how* the hot paths are computed and
nothing else.  Three layers of contract, mirroring the locality suite:

* **kernels** — ``csr_matmat`` survives first- and second-order numeric
  gradcheck (the property GEAttack's bilevel unroll depends on), and the
  guarded inverse sqrt reproduces the scipy ``non-finite → 0`` convention
  so isolated nodes can never leak ``inf``/``nan``;
* **operators** — the sparse normalized adjacency equals the scipy/dense
  one entrywise (including isolated and degree-1 nodes, with and without
  ``degree_offset``), GCN predictions agree exactly, and the candidate
  pair gradient equals the dense symmetrized score row;
* **attacks** — every sparse-enabled attack in the registry produces the
  same edge sets, predictions and (to float tolerance) score traces as
  the dense path, under both full-graph and locality execution.

Backend selection (``REPRO_BACKEND``, read once per attack into its
``sparse`` flag, including through ``build_attack``) is covered at the end.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.attacks import ATTACKS, VictimSpec
from repro.attacks.base import backend_from_env
from repro.autodiff import (
    CSRStructure,
    SparseAttackAdjacency,
    csr_matmat,
    masked_inverse_sqrt,
)
from repro.autodiff.gradcheck import gradcheck, gradgradcheck
from repro.autodiff.tensor import Tensor, grad
from repro.graph import Graph, normalize_adjacency

#: Registry attacks with sparse kernels (FGA-T&E through FGA-T's step, its
#: explainer filter stays dense; GEAttack-PG stays dense — its penalty reads
#: dense embeddings — and RNA/DICE/Metattack have no adjacency-gradient hot
#: path, so the backend is a no-op there).
SPARSE_ATTACKS = ("FGA", "FGA-T", "FGA-T&E", "Nettack", "IG-Attack", "GEAttack")

FAST_KWARGS = {"IG-Attack": {"steps": 4}, "FGA-T&E": {"explainer_epochs": 20}}

#: Non-default GEAttack constructions exercising its distinct sparse
#: scoring paths (one-shot gradient, raw Eq.-7 mixing, zero lam).
VARIANT_KWARGS = {
    "GEAttack[one-shot]": ("GEAttack", {"greedy": False}),
    "GEAttack[raw-lam]": ("GEAttack", {"normalize_penalty": False, "lam": 20.0}),
    "GEAttack[lam-0]": ("GEAttack", {"lam": 0.0}),
}

MATRIX = list(SPARSE_ATTACKS) + sorted(VARIANT_KWARGS)


def build_pair(name, model, seed=0):
    """(dense attack, sparse attack) of the same registry construction."""
    if name in VARIANT_KWARGS:
        base, kwargs = VARIANT_KWARGS[name]
    else:
        base, kwargs = name, FAST_KWARGS.get(name, {})
    dense = ATTACKS[base](model, seed=seed, **kwargs)
    sparse = ATTACKS[base](model, seed=seed, **kwargs)
    # Both sides are pinned after construction so the harness itself is
    # immune to REPRO_BACKEND (the tier1-sparse CI job runs this very
    # suite with the env var set).
    dense.sparse = False
    sparse.sparse = True
    return dense, sparse


def assert_results_match(dense, sparse, context):
    """Edge sets and predictions exact; traces equal to float tolerance."""
    assert dense.added_edges == sparse.added_edges, context
    assert dense.final_prediction == sparse.final_prediction, context
    assert dense.original_prediction == sparse.original_prediction, context
    assert len(dense.score_trace) == len(sparse.score_trace), context
    for step, (one, two) in enumerate(zip(dense.score_trace, sparse.score_trace)):
        note = f"{context} step {step}"
        assert one["choice"] == two["choice"], note
        assert np.array_equal(one["candidates"], two["candidates"]), note
        assert np.all(np.isfinite(two["scores"])), note
        np.testing.assert_allclose(
            two["scores"], one["scores"], rtol=1e-6, atol=1e-10, err_msg=note
        )


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def star_structure():
    """A small fixed CSR pattern (4×4, mixed row sizes, one empty row)."""
    matrix = sp.csr_matrix(
        np.array(
            [
                [0.0, 1.0, 1.0, 0.0],
                [1.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 1.0],
            ]
        )
    )
    return CSRStructure(matrix.shape, matrix.indptr, matrix.indices), matrix


class TestCSRMatmat:
    def test_forward_matches_scipy(self, rng):
        structure, matrix = star_structure()
        values = Tensor(rng.standard_normal(structure.nnz))
        dense = Tensor(rng.standard_normal((4, 3)))
        reference = (
            sp.csr_matrix(
                (values.data, structure.indices, structure.indptr), shape=(4, 4)
            )
            @ dense.data
        )
        np.testing.assert_array_equal(
            csr_matmat(structure, values, dense).data, reference
        )

    def test_gradcheck_both_operands(self, rng):
        structure, _ = star_structure()
        values = Tensor(rng.standard_normal(structure.nnz), requires_grad=True)
        dense = Tensor(rng.standard_normal((4, 3)), requires_grad=True)

        def loss(values, dense):
            out = csr_matmat(structure, values, dense)
            return (out * out).sum()

        assert gradcheck(loss, (values, dense))

    def test_gradgradcheck_both_operands(self, rng):
        """Second order — what GEAttack's unrolled explainer differentiates."""
        structure, _ = star_structure()
        values = Tensor(rng.standard_normal(structure.nnz), requires_grad=True)
        dense = Tensor(rng.standard_normal((4, 2)), requires_grad=True)

        def loss(values, dense):
            out = csr_matmat(structure, values, dense)
            return (out * out * out).sum()

        assert gradgradcheck(loss, (values, dense))


class TestMaskedInverseSqrt:
    def test_zero_degree_maps_to_exact_zero(self):
        degrees = Tensor(np.array([4.0, 1.0, 0.0, 9.0]))
        result = masked_inverse_sqrt(degrees)
        np.testing.assert_array_equal(result.data, [0.5, 1.0, 0.0, 1.0 / 3.0])
        assert np.all(np.isfinite(result.data))

    def test_gradient_is_zero_at_masked_entries(self):
        degrees = Tensor(np.array([4.0, 0.0, 1.0]), requires_grad=True)
        gradient = grad(masked_inverse_sqrt(degrees).sum(), degrees).data
        assert gradient[1] == 0.0
        assert np.all(np.isfinite(gradient))
        np.testing.assert_allclose(gradient[0], -0.5 * 4.0 ** -1.5)


# ---------------------------------------------------------------------------
# Operators — normalization with isolated / degree-1 nodes (satellite of the
# sparse hardening: 1/sqrt(0) must never reach the scores)
# ---------------------------------------------------------------------------


def boundary_graph():
    """7 nodes: a path+triangle core, degree-1 node 5, isolated node 6."""
    adjacency = np.zeros((7, 7))
    for u, v in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]:
        adjacency[u, v] = adjacency[v, u] = 1.0
    rng = np.random.default_rng(9)
    return Graph(adjacency, rng.random((7, 5)), [0, 1, 0, 1, 0, 1, 0])


class TestSparseNormalization:
    def test_matches_scipy_with_candidates_closed(self):
        graph = boundary_graph()
        handle = SparseAttackAdjacency(graph, 0, np.array([4, 6], dtype=np.int64))
        normalized = handle.normalized()
        rebuilt = sp.csr_matrix(
            (
                normalized.values.data,
                handle.structure.indices,
                handle.structure.indptr,
            ),
            shape=(7, 7),
        ).toarray()
        reference = normalize_adjacency(graph.adjacency).toarray()
        assert np.all(np.isfinite(rebuilt))
        np.testing.assert_allclose(rebuilt, reference, atol=1e-12)

    def test_matches_scipy_with_candidate_open_to_isolated_node(self):
        """Opening an edge to the isolated node re-derives both degrees."""
        graph = boundary_graph()
        handle = SparseAttackAdjacency(graph, 0, np.array([4, 6], dtype=np.int64))
        handle.values.data[handle.candidate_slice] = np.array([0.0, 1.0])
        rebuilt = sp.csr_matrix(
            (
                handle.normalized().values.data,
                handle.structure.indices,
                handle.structure.indptr,
            ),
            shape=(7, 7),
        ).toarray()
        perturbed = graph.adjacency.toarray().copy()
        perturbed[0, 6] = perturbed[6, 0] = 1.0
        reference = normalize_adjacency(perturbed).toarray()
        assert np.all(np.isfinite(rebuilt))
        np.testing.assert_allclose(rebuilt, reference, atol=1e-12)

    def test_degree_offset_matches_scipy(self):
        graph = boundary_graph()
        offset = np.array([1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0])
        handle = SparseAttackAdjacency(graph, 1, np.array([3], dtype=np.int64))
        rebuilt = sp.csr_matrix(
            (
                handle.normalized(degree_offset=offset).values.data,
                handle.structure.indices,
                handle.structure.indptr,
            ),
            shape=(7, 7),
        ).toarray()
        reference = normalize_adjacency(
            graph.adjacency, degree_offset=offset
        ).toarray()
        np.testing.assert_allclose(rebuilt, reference, atol=1e-12)

    def test_candidate_gradient_equals_dense_symmetrized_row(self):
        """∂L/∂pair == (g + gᵀ)[victim, candidate] — the scoring identity."""
        from repro.graph import normalize_adjacency_tensor

        graph = boundary_graph()
        victim, candidates = 0, np.array([3, 4, 6], dtype=np.int64)
        weight = np.random.default_rng(3).standard_normal((7, 7))

        handle = SparseAttackAdjacency(graph, victim, candidates)
        sparse_loss = (
            handle.normalized().matmul(Tensor(weight)) * Tensor(weight)
        ).sum()
        sparse_row = handle.candidate_gradients(grad(sparse_loss, handle.values))

        leaf = Tensor(graph.dense_adjacency(), requires_grad=True)
        dense_loss = (
            (normalize_adjacency_tensor(leaf) @ Tensor(weight)) * Tensor(weight)
        ).sum()
        g = grad(dense_loss, leaf).data
        dense_row = (g + g.T)[victim, candidates]

        np.testing.assert_allclose(sparse_row, dense_row, rtol=1e-9, atol=1e-12)


class TestModelForward:
    def test_gcn_predictions_agree(self, tiny_graph, trained_model):
        handle = SparseAttackAdjacency(
            tiny_graph, 0, np.array([], dtype=np.int64)
        )
        dense_logits = trained_model(
            normalize_adjacency(tiny_graph.adjacency),
            Tensor(tiny_graph.features),
        ).data
        sparse_logits = trained_model(
            handle.normalized(), Tensor(tiny_graph.features)
        ).data
        np.testing.assert_allclose(
            sparse_logits, dense_logits, rtol=1e-9, atol=1e-12
        )
        np.testing.assert_array_equal(
            sparse_logits.argmax(axis=1), dense_logits.argmax(axis=1)
        )


# ---------------------------------------------------------------------------
# Attacks — registry-wide dense ≡ sparse
# ---------------------------------------------------------------------------


class TestAttackDifferential:
    @pytest.mark.parametrize("name", MATRIX)
    def test_full_graph_equivalence(
        self, name, tiny_graph, trained_model, flippable_victim
    ):
        node, target_label, budget = flippable_victim
        budget = min(budget, 3)
        label = None if name == "FGA" else target_label
        dense, sparse = build_pair(name, trained_model, seed=23)
        assert not dense.sparse and sparse.sparse
        assert_results_match(
            dense.attack(tiny_graph, node, label, budget),
            sparse.attack(tiny_graph, node, label, budget),
            f"{name} full-graph",
        )

    @pytest.mark.parametrize("name", ("FGA-T", "Nettack", "GEAttack"))
    def test_locality_equivalence(
        self, name, tiny_graph, trained_model, flippable_victim
    ):
        """Sparse kernels compose with subgraph execution and its offsets."""
        node, target_label, budget = flippable_victim
        budget = min(budget, 2)
        dense, sparse = build_pair(name, trained_model, seed=29)
        results = []
        for attack in (dense, sparse):
            scene = attack.build_locality_scene(
                tiny_graph, node, target_label, max_subgraph_fraction=1.01
            )
            assert scene is not None
            results.append(
                attack.attack(tiny_graph, node, target_label, budget, locality=scene)
            )
        assert_results_match(results[0], results[1], f"{name} locality")

    def test_attack_many_equivalence(
        self, tiny_graph, trained_model, flippable_victim
    ):
        """The batched engine path (what Session/arena actually call)."""
        node, target_label, _ = flippable_victim
        dense, sparse = build_pair("FGA-T", trained_model, seed=31)
        spec = VictimSpec(node, target_label, 2)
        one = dense.attack_many(tiny_graph, [spec])[0]
        two = sparse.attack_many(tiny_graph, [spec])[0]
        assert_results_match(one, two, "FGA-T attack_many")


# ---------------------------------------------------------------------------
# Selection: REPRO_BACKEND -> Attack.sparse
# ---------------------------------------------------------------------------


class TestBackendSelection:
    def test_default_is_dense(self, trained_model, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert backend_from_env() == "dense"
        assert not ATTACKS["FGA-T"](trained_model).sparse

    def test_env_var_selects_sparse(self, trained_model, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sparse")
        assert backend_from_env() == "sparse"
        assert ATTACKS["FGA-T"](trained_model).sparse

    @pytest.mark.parametrize(
        "value, expected",
        [("", "dense"), ("SPARSE", "sparse"), (" Sparse ", "sparse")],
    )
    def test_env_value_is_stripped_and_lowercased(
        self, value, expected, trained_model, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BACKEND", value)
        assert backend_from_env() == expected
        assert ATTACKS["FGA-T"](trained_model).sparse == (expected == "sparse")

    def test_unknown_name_raises(self, trained_model, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "gpu")
        with pytest.raises(ValueError, match="unknown compute backend 'gpu'"):
            backend_from_env()
        with pytest.raises(ValueError, match="unknown compute backend 'gpu'"):
            ATTACKS["FGA-T"](trained_model)

    def test_flag_is_read_once_at_construction(self, trained_model, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sparse")
        attack = ATTACKS["FGA-T"](trained_model)
        monkeypatch.setenv("REPRO_BACKEND", "dense")
        assert attack.sparse
        assert not ATTACKS["FGA-T"](trained_model).sparse

    def test_build_attack_reads_env(
        self, tiny_graph, trained_model, clean_predictions, monkeypatch
    ):
        from repro.api.registry import build_attack
        from repro.experiments import SCALE_PRESETS
        from repro.experiments.pipeline import PreparedCase

        config = SCALE_PRESETS["smoke"]
        case = PreparedCase(
            graph=tiny_graph,
            split=None,
            model=trained_model,
            probabilities=np.eye(tiny_graph.num_classes)[clean_predictions],
            predictions=clean_predictions,
            test_accuracy=1.0,
            config=config,
            seed=0,
        )
        monkeypatch.setenv("REPRO_BACKEND", "sparse")
        assert build_attack("FGA-T", case, config).sparse
        monkeypatch.setenv("REPRO_BACKEND", "dense")
        assert not build_attack("FGA-T", case, config).sparse
