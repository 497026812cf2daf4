"""GEAttack — jointly attacking a GNN and its explanations (Algorithm 1).

The paper's core contribution.  Per outer step the attack:

1. runs ``T`` steps of GNNExplainer's own mask-gradient-descent on the
   *relaxed* perturbed adjacency ``Â`` while retaining the computation graph
   (the inner loop, Eq. 6/8);
2. forms the joint loss (Eq. 7)

   ``L = L_GNN(f(Â, X)_vi, ŷ) + λ · Σ_j M_A^T[i, j] · B[i, j]``

   where the penalty accumulates the mask values that the explainer would
   assign to *non-clean* edges of the victim's row (``B = 𝟙𝟙ᵀ − I − A``
   gates out clean edges, so an un-attacked explainer is unaffected);
3. differentiates ``L`` through the unrolled inner updates — second-order
   autodiff — with respect to ``Â`` and greedily adds the candidate edge
   whose relaxation-gradient most *decreases* ``L`` (one edge per step,
   Algorithm 1 line 10; a decrease in ``L`` corresponds to a negative entry
   of ``Q = ∇_Â L``, so we select the most negative symmetrized entry).

The GNNExplainer penalty reuses
:func:`repro.explain.gnn_explainer.explainer_loss` verbatim — the paper's
plain Eq. (3) cross-entropy, from GNNExplainer's own mask initialization
scale — so the attack simulates exactly the inspection it evades.

:class:`GEAttackPG` is the Section 5.3 variant against PGExplainer: the
inner loop fine-tunes a copy of the trained PGExplainer edge-MLP on the
victim's explanation objective (differentiable unroll over MLP weights),
then penalizes the edge probabilities the tuned MLP assigns to the victim's
non-clean edges.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.attacks.base import Attack, record_trace, targeted_loss
from repro.attacks.locality import IdentityScene
from repro.autodiff import functional as F
from repro.autodiff import ops
from repro.autodiff.tensor import Tensor, grad
from repro.explain.gnn_explainer import MASK_INIT_SCALE, explainer_loss
from repro.explain.pg_explainer import apply_edge_mlp
from repro.graph.utils import k_hop_subgraph
from repro.schema import ConfigParam

__all__ = ["GEAttack", "GEAttackPG", "evasion_matrix", "mix_scores"]

#: Weight of the sparsity regularizer in GEAttack-PG's simulated
#: PGExplainer instance objective.
PG_SIZE_COEFFICIENT = 0.01


def evasion_matrix(clean_graph):
    """``B = 𝟙𝟙ᵀ − I − A`` over the clean graph (Eq. 5).

    ``B[i, j] = 0`` for clean edges and the diagonal, 1 elsewhere: the
    explainer-evasion penalty only acts on potential adversarial edges, so
    explanations of un-attacked predictions are untouched.
    """
    n = clean_graph.num_nodes
    return np.ones((n, n)) - np.eye(n) - clean_graph.dense_adjacency()


def mix_scores(attack_row, penalty_row, lam):
    """Candidate scores from separately differentiated loss terms.

    The penalty row is rescaled to the attack row's mean magnitude before
    the λ-weighted sum, which makes λ dimensionless (λ = 1 gives both
    objectives equal say; see :class:`GEAttack`).  The most negative
    gradient decreases the joint loss most, so it scores highest.
    """
    scale = np.abs(attack_row).mean() / (np.abs(penalty_row).mean() + 1e-12)
    return -(attack_row + lam * scale * penalty_row)


class GEAttack(Attack):
    """Joint GNN + GNNExplainer attack (the paper's Algorithm 1).

    Parameters
    ----------
    model:
        The attacked (frozen) GCN.
    lam:
        λ of Eq. (7): balance between attacking the GNN and evading the
        explainer.  With the default ``normalize_penalty`` the value is
        dimensionless (λ = 1 gives both gradients equal say) and the
        harness's calibrated operating point is λ = 0.7; without
        normalization λ lives on the paper's raw axis, where its scale
        couples with the inner schedule η·T and with the instance (the
        paper's sweet spot is λ ≈ 20 on its data — use that order of
        magnitude when running the ``normalize_penalty=False`` ablation).
    inner_steps:
        T — unrolled explainer gradient-descent steps (paper: small T ≤ 3
        already suffices, Figure 6; the calibrated harness point uses 5).
    inner_lr:
        η — step size of the inner mask updates (Eq. 8).
    greedy:
        Algorithm 1's per-step greedy coordinate descent (default).  With
        ``greedy=False`` all Δ edges come from a single gradient evaluation
        on the clean graph — the ablation of design decision 2 in DESIGN.md.
    normalize_penalty:
        Rescale the penalty gradient to the attack gradient's magnitude
        over the candidate entries before mixing (default).  The raw
        magnitudes of the two terms differ by an instance-dependent factor
        (they depend on the victim's confidence and on the unrolled mask
        trajectory), so a fixed λ on the raw scale sits on a knife edge
        that moves between graphs; after normalization λ is dimensionless
        — λ = 1 gives both objectives equal say — and one operating point
        transfers across datasets and seeds.  ``False`` recovers the
        literal Eq. (7) mixing for the ablation.
    """

    name = "GEAttack"
    supports_locality = True
    config_params = (
        ConfigParam("lam", "geattack_lam"),
        ConfigParam("inner_steps", "geattack_inner_steps"),
        ConfigParam("inner_lr", "geattack_inner_lr"),
    )

    def __init__(
        self,
        model,
        seed=0,
        lam=0.7,
        inner_steps=5,
        inner_lr=0.1,
        greedy=True,
        normalize_penalty=True,
    ):
        super().__init__(model, seed=seed)
        self.lam = float(lam)
        self.inner_steps = int(inner_steps)
        self.inner_lr = float(inner_lr)
        self.greedy = bool(greedy)
        self.normalize_penalty = bool(normalize_penalty)

    def attack(self, graph, target_node, target_label, budget, locality=None):
        if self.greedy:
            return super().attack(
                graph, target_node, target_label, budget, locality=locality
            )
        scene = locality or IdentityScene(graph, int(target_node))
        mask_full = self._prepare(graph, scene, target_node, target_label)
        return self._one_shot(graph, scene, target_label, mask_full, int(budget))

    def _prepare(self, graph, scene, target_node, target_label):
        # Algorithm 1 line 3: M⁰ drawn once, sized by the *global* node
        # count so subgraph execution slices the identical initialization.
        rng = np.random.default_rng(self.seed + scene.seed_node)
        return rng.normal(0.0, MASK_INIT_SCALE, size=(scene.num_global,) * 2)

    def _step(self, scene, view, perturbed, target_label, mask_full):
        candidates = self._candidates(view.graph, view.node, target_label)
        if candidates.size == 0:
            return None
        scores = self._candidate_scores(
            self._scene_forward(scene, view),
            view,
            target_label,
            # B over the current graph: clean edges, the diagonal and
            # every already-added edge are zero (Algorithm 1 line 10).
            evasion_matrix(view.graph),
            view.slice_square(mask_full),
            candidates,
            degree_offset=view.masked_degree_offset(mask_full),
        )
        # The unrolled penalty tape is large: held into the next step it
        # would sit next to that step's own (Table 1 peak RSS 130 -> 150 MB).
        self._tape = None
        return candidates, scores

    def _one_shot(self, graph, scene, target_label, mask_full, budget):
        """Ablation: pick the top-Δ candidates from one joint gradient."""
        view = scene.view(graph)
        step = self._step(scene, view, graph, target_label, mask_full)
        added = []
        trace = []
        if step is not None:
            candidates, scores = step
            order = np.argsort(-scores)[: min(budget, candidates.size)]
            added = [
                (scene.seed_node, view.to_global(int(candidates[i])))
                for i in order
            ]
            record_trace(trace, view, candidates, scores, added[0][1])
        perturbed = graph.with_edges_added(added) if added else graph
        return self._finalize(
            graph, perturbed, added, scene.seed_node, target_label,
            score_trace=trace,
        )

    def _candidate_scores(
        self, forward, view, target_label, evasion, mask_init, candidates,
        degree_offset=None,
    ):
        """Per-candidate desirability of adding edge (victim, candidate).

        The most negative symmetrized gradient entry decreases the joint
        loss the most and yields the highest score.  With
        ``normalize_penalty`` the two loss terms are differentiated
        separately and combined by :func:`mix_scores`, making λ
        dimensionless (see the class docstring).  Each term is one
        :meth:`_gradient_row`, so the same code serves both backends; the
        penalty's unroll is :meth:`explainer_penalty` on the dense leaf and
        :meth:`_sparse_explainer_penalty` on the CSR pair values.
        """
        node = view.node
        unroll = (
            self._sparse_explainer_penalty
            if self.sparse
            else self.explainer_penalty
        )

        def attack_loss(adjacency):
            return targeted_loss(forward, adjacency, node, target_label)

        def penalty(adjacency):
            return unroll(
                forward, adjacency, node, target_label, evasion, mask_init,
                degree_offset=degree_offset,
            )

        if not self.lam:
            return -self._gradient_row(view, candidates, attack_loss)
        if not self.normalize_penalty:
            return -self._gradient_row(
                view,
                candidates,
                lambda adjacency: attack_loss(adjacency)
                + self.lam * penalty(adjacency),
            )
        return mix_scores(
            self._gradient_row(view, candidates, attack_loss),
            self._gradient_row(view, candidates, penalty),
            self.lam,
        )

    # -- the bilevel objective ------------------------------------------------
    def joint_loss(
        self, forward, adjacency, target_node, target_label, evasion, mask_init,
        degree_offset=None,
    ):
        """Eq. (7): attack loss + λ · explainer-mask penalty (differentiable)."""
        attack_term = targeted_loss(forward, adjacency, target_node, target_label)
        penalty = self.explainer_penalty(
            forward, adjacency, target_node, target_label, evasion, mask_init,
            degree_offset=degree_offset,
        )
        return attack_term + self.lam * penalty

    def explainer_penalty(
        self, forward, adjacency, target_node, target_label, evasion, mask_init,
        degree_offset=None,
    ):
        """Unroll T explainer steps; penalize victim-row mask mass on B.

        The inner updates (Eq. 8) are built with ``create_graph=True`` so the
        returned penalty is differentiable w.r.t. ``adjacency`` *through* the
        optimization path M⁰ → M¹ → … → M^T — the high-order-gradient trick
        at the heart of GEAttack.  ``degree_offset`` is a locality view's
        constant masked-degree correction (None on the full graph).
        """
        mask = Tensor(mask_init.copy(), requires_grad=True)
        for _ in range(self.inner_steps):
            inner = explainer_loss(
                forward,
                adjacency,
                mask,
                None,
                target_node,
                target_label,
                degree_offset=degree_offset,
            )
            step_gradient = grad(inner, mask, create_graph=True)
            mask = mask - self.inner_lr * step_gradient
        symmetric = (mask + ops.transpose(mask)) * 0.5
        row = symmetric[int(target_node)]
        return ops.tensor_sum(row * Tensor(evasion[int(target_node)]))

    # -- sparse backend ------------------------------------------------------
    def _sparse_explainer_penalty(
        self, forward, handle, target_node, target_label, evasion, mask_init,
        degree_offset=None,
    ):
        """The explainer unroll over *unordered symmetric* mask values.

        The dense inner loop only ever reads the mask through
        ``σ((M + Mᵀ)/2)``, so reparameterizing by the symmetric pair
        values ``u = sym(M)`` on the adjacency support is exact — with
        one correction: a dense step moves ``sym(M)`` by
        ``−η · ½(∂f/∂s_ij + ∂f/∂s_ji)`` while ``grad(f, u)`` already
        *is* the full symmetrized derivative, hence the ``½ η`` step
        size below.  Mask entries off the adjacency support receive an
        exactly-zero gradient (they are gated by a zero ``Â`` value), so
        they stay at M⁰ through the unroll and contribute a constant.
        """
        sym0 = 0.5 * (mask_init + mask_init.T)
        u = Tensor(
            sym0[handle.pair_rows, handle.pair_cols].copy(), requires_grad=True
        )
        half_lr = 0.5 * self.inner_lr
        for _ in range(self.inner_steps):
            inner = self._sparse_explainer_loss(
                forward, handle, u, target_node, target_label, degree_offset
            )
            step_gradient = grad(inner, u, create_graph=True)
            u = u - half_lr * step_gradient
        in_support = ops.tensor_sum(u[handle.candidate_slice])
        # Off-support victim-row pairs: frozen at M⁰, a true constant in
        # both value and gradient (kept so the penalty *value* matches
        # the dense path, not just its gradient).
        victim_gate = evasion[int(target_node)]
        off_support = float(sym0[int(target_node)] @ victim_gate) - float(
            sym0[int(target_node), handle.candidates].sum()
        )
        return in_support + off_support

    def _sparse_explainer_loss(
        self, forward, handle, u, target_node, target_label, degree_offset
    ):
        """GNNExplainer's objective on the CSR support (Eq. 3)."""
        probability = ops.sigmoid(u)
        masked_values = handle.ordered_values() * probability[handle.expand_index]
        normalized = handle.assemble_normalized(
            masked_values, degree_offset=degree_offset
        )
        logits = forward(normalized)
        return F.cross_entropy(
            ops.reshape(logits[int(target_node)], (1, logits.shape[1])),
            np.array([int(target_label)]),
        )


class GEAttackPG(Attack):
    """Joint GNN + PGExplainer attack (Section 5.3).

    Per outer step: node embeddings are recomputed differentiably from the
    relaxed ``Â``; a copy of the fitted PGExplainer MLP is fine-tuned for
    ``T`` unrolled steps on the victim's explanation objective (prediction
    cross-entropy under the MLP's edge mask, plus the sparsity regularizer);
    the penalty is the tuned MLP's total edge probability on the victim's
    non-clean row entries.  Gradients reach ``Â`` through both the
    embeddings and the unrolled fine-tuning.

    Locality: every embedding row the penalty reads belongs to the victim's
    2-hop subgraph, to a candidate endpoint, or to the victim itself — all
    nodes whose *entire* 1-hop neighborhood the locality scene induces (the
    node set closes candidates under ``hops-1`` reach), so first-layer
    embeddings computed on the ``s × s`` slice with the view's constant
    ``degree_offset`` equal the full-graph embeddings on those rows.  The
    MLP fine-tuning unroll reads only subgraph quantities (sliced
    ``X W₁`` support, in-subgraph adjacency entries), so the whole penalty
    — and its second-order gradient to ``Â`` — is exact on the view.
    """

    name = "GEAttack-PG"
    supports_locality = True
    #: The runners cap the unroll at 2 inner steps, and results depend on
    #: the PGExplainer's training schedule (a dependency, not a constructor
    #: kwarg) — both facts are part of the declared operating point so the
    #: content keys hash what actually runs.
    config_params = (
        ConfigParam("lam", "geattack_lam"),
        ConfigParam("inner_steps", "geattack_inner_steps", cap=2),
        ConfigParam("pg_epochs", "pg_epochs", constructor=False),
        ConfigParam("pg_instances", "pg_instances", constructor=False),
    )
    requires = ("pg_explainer",)

    def __init__(
        self,
        model,
        pg_explainer,
        seed=0,
        lam=0.7,
        inner_steps=2,
        inner_lr=0.05,
        normalize_penalty=True,
    ):
        super().__init__(model, seed=seed)
        if not pg_explainer.fitted:
            raise ValueError("GEAttackPG needs a fitted PGExplainer")
        self.pg_explainer = pg_explainer
        # The penalty reads dense first-layer embeddings, so the leaf stays
        # dense on every backend.
        self.sparse = False
        self.lam = float(lam)
        self.inner_steps = int(inner_steps)
        self.inner_lr = float(inner_lr)
        self.normalize_penalty = bool(normalize_penalty)

    def _step(self, scene, view, perturbed, target_label, state):
        candidates = self._candidates(view.graph, view.node, target_label)
        if candidates.size == 0:
            return None
        forward = self._scene_forward(scene, view)
        # B over the current graph: clean edges, the diagonal and every
        # already-added edge are zero — recomputing per step equals the
        # clean-graph matrix with added entries zeroed out.
        evasion = evasion_matrix(view.graph)

        def attack_loss(adjacency):
            return targeted_loss(forward, adjacency, view.node, target_label)

        def penalty(adjacency):
            return self._pg_penalty(
                forward, adjacency, view.graph, view.node, target_label,
                evasion, candidates,
            )

        if self.normalize_penalty and self.lam:
            # Same dimensionless mixing as GEAttack.
            return candidates, mix_scores(
                self._gradient_row(view, candidates, attack_loss),
                self._gradient_row(view, candidates, penalty),
                self.lam,
            )
        return candidates, -self._gradient_row(
            view,
            candidates,
            lambda adjacency: attack_loss(adjacency) + self.lam * penalty(adjacency),
        )

    # -- internals ---------------------------------------------------------
    def _embeddings(self, forward, adjacency):
        """First-layer embeddings, differentiable w.r.t. ``adjacency``.

        ``forward.degree_offset`` restores boundary degrees on a locality
        view, so rows whose neighborhoods the view induces are exact.
        Delegates to the forward object's ``hidden_from_raw`` — the
        specialized precomputed-support path on GCN victims, the model's
        own layers elsewhere.
        """
        return forward.hidden_from_raw(adjacency)

    def _edge_inputs(self, embeddings, rows, cols, target_node):
        """``[z_u ; z_v ; z_target]`` rows with canonical u < v ordering."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        low = np.minimum(rows, cols)
        high = np.maximum(rows, cols)
        width = embeddings.shape[1]
        center = ops.broadcast_to(
            ops.reshape(embeddings[int(target_node)], (1, width)),
            (int(low.size), width),
        )
        return ops.concatenate(
            [embeddings[low], embeddings[high], center], axis=1
        )

    def _pg_penalty(
        self,
        forward,
        adjacency,
        perturbed,
        target_node,
        target_label,
        evasion,
        candidates,
    ):
        """Tuned-MLP edge probability mass on the victim's non-clean pairs.

        ``perturbed``/``target_node``/``evasion``/``candidates`` all live in
        one coordinate system — the full graph on the classic path, the
        locality view's graph on the subgraph path; the computation below is
        identical either way (see the class docstring for why the view rows
        it reads are exact).
        """
        embeddings = self._embeddings(forward, adjacency)

        # The victim's computation subgraph: index structure is constant for
        # this outer step; the mask values stay fully differentiable.
        subgraph, sub_nodes, local = k_hop_subgraph(perturbed, target_node, 2)
        coo = sp.triu(subgraph.adjacency, k=1).tocoo()
        rows_local, cols_local = coo.row.copy(), coo.col.copy()
        if rows_local.size == 0:
            return Tensor(0.0)
        rows_global = sub_nodes[rows_local]
        cols_global = sub_nodes[cols_local]

        sub_inputs = self._edge_inputs(
            embeddings, rows_global, cols_global, target_node
        )
        weights = self.pg_explainer.cloned_weights()
        for _ in range(self.inner_steps):
            logits = ops.reshape(
                apply_edge_mlp(weights, sub_inputs), (int(rows_local.size),)
            )
            mask = ops.sigmoid(logits)
            inner = self._instance_loss(
                forward,
                adjacency,
                sub_nodes,
                local,
                rows_local,
                cols_local,
                rows_global,
                cols_global,
                mask,
                target_label,
            )
            step_gradients = grad(inner, weights, create_graph=True)
            weights = [
                w - self.inner_lr * g for w, g in zip(weights, step_gradients)
            ]

        # Penalty: tuned edge probabilities on the victim's non-clean pairs
        # (candidate endpoints plus already-added adversarial edges).
        partners = np.asarray(candidates, dtype=np.int64)
        victim_row = np.asarray(
            perturbed.adjacency[target_node].todense()
        ).ravel()
        adversarial = np.flatnonzero(victim_row * evasion[target_node])
        pair_nodes = np.unique(np.concatenate([partners, adversarial]))
        pair_inputs = self._edge_inputs(
            embeddings,
            np.full(pair_nodes.size, target_node),
            pair_nodes,
            target_node,
        )
        pair_logits = ops.reshape(
            apply_edge_mlp(weights, pair_inputs), (int(pair_nodes.size),)
        )
        probabilities = ops.sigmoid(pair_logits)
        gate = Tensor(evasion[int(target_node)][pair_nodes])
        return ops.tensor_sum(probabilities * gate)

    def _instance_loss(
        self,
        forward,
        adjacency,
        sub_nodes,
        local,
        rows_local,
        cols_local,
        rows_global,
        cols_global,
        mask,
        target_label,
    ):
        """PGExplainer's instance objective at the victim (differentiable).

        A subgraph-local model forward under the masked adjacency via the
        forward object's ``local_logits`` (on GCN victims the precomputed
        first-layer support is sliced to the subgraph rows, so no
        full-feature product is repeated inside the unroll).
        """
        size = int(sub_nodes.size)
        edge_values = adjacency[(rows_global, cols_global)] * mask
        both_rows = np.concatenate([rows_local, cols_local])
        both_cols = np.concatenate([cols_local, rows_local])
        doubled = ops.concatenate([edge_values, edge_values], axis=0)
        masked = ops.scatter_add((size, size), (both_rows, both_cols), doubled)
        out = forward.local_logits(masked, sub_nodes)

        loss = F.cross_entropy(
            ops.reshape(out[int(local)], (1, out.shape[1])),
            np.array([int(target_label)]),
        )
        return loss + PG_SIZE_COEFFICIENT * ops.tensor_sum(mask)
