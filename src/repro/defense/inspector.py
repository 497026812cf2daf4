"""Explainer-based defense: inspect suspicious predictions, prune edges.

The paper's Section 3 argues that an explainer lets inspectors *locate*
adversarial edges.  This module operationalizes that story as an automated
defense and makes the paper's threat model quantitative:

1. a prediction on the (possibly corrupted) graph is flagged for inspection;
2. the explainer ranks the victim's subgraph edges; the top-``k`` become
   prune candidates — but edges the defender can vouch for (a trusted clean
   edge list, e.g. a snapshot) are exempt;
3. the pruned graph is re-evaluated: if the prediction changes, the pruned
   edges were load-bearing for the (suspicious) prediction.

Against Nettack/FGA-T the pruning restores many victims' predictions;
against GEAttack it should not — the attack's entire point is keeping its
edges *out* of the pruned top-``k``.  The ablation benchmark
``benchmarks/test_ablation_defense.py`` measures exactly this gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.defense.base import Defense
from repro.graph.utils import edge_tuple, graph_cached
from repro.schema import ConfigParam

__all__ = ["InspectionOutcome", "ExplainerDefense"]


@dataclass
class InspectionOutcome:
    """Result of inspecting (and pruning around) one node."""

    node: int
    prediction_before: int
    prediction_after: int
    pruned_edges: list = field(default_factory=list)
    pruned_adversarial: list = field(default_factory=list)

    @property
    def prediction_changed(self):
        return self.prediction_before != self.prediction_after


class ExplainerDefense(Defense):
    """Prune the explainer's top-ranked *untrusted* edges around a node.

    Parameters
    ----------
    model:
        The (frozen) GCN whose predictions are being defended.
    explainer_factory:
        ``callable(graph) -> explainer`` building the inspector.
    prune_k:
        Edges to prune (the top-k of the explanation after exemptions).
    trusted_edges:
        Optional iterable of edges known to be legitimate (e.g. a pre-attack
        snapshot); those are never pruned.
    inspection_window:
        When set, the inspector only examines the explanation's top-``L``
        edges (the paper's explanation size): untrusted edges ranked below
        the window are *invisible* to the defense.  This is exactly the
        blind spot GEAttack aims for — its edges evade the window while
        gradient attacks' edges rank inside it.  ``None`` (default)
        inspects the full ranking.
    """

    name = "explainer"
    requires_explainer = True
    config_params = (ConfigParam("inspection_window", "explanation_size"),)

    def __init__(
        self,
        model,
        explainer_factory,
        prune_k=3,
        trusted_edges=None,
        inspection_window=None,
    ):
        super().__init__(model)
        self.explainer_factory = explainer_factory
        self.prune_k = int(prune_k)
        self.inspection_window = (
            None if inspection_window is None else int(inspection_window)
        )
        self.trusted = (
            {edge_tuple(u, v) for u, v in trusted_edges}
            if trusted_edges is not None
            else None
        )

    def inspect(self, graph, node, adversarial_edges=()):
        """Inspect ``node`` on ``graph`` and prune suspicious edges.

        ``adversarial_edges`` (when known, e.g. in evaluation) is only used
        to report how many pruned edges were truly adversarial — it does not
        influence the pruning decision.
        """
        from repro.attacks.base import predict

        node = int(node)
        before = predict(self.model, graph, node)
        if self.trusted is not None and graph.edge_set() <= self.trusted:
            # Every edge is vouched for — no candidate could survive the
            # exemption, so skip the (expensive) explainer run entirely.
            # This is the clean-graph fast path of the arena's flag scan.
            return InspectionOutcome(
                node=node, prediction_before=before, prediction_after=before
            )
        explainer = self.explainer_factory(graph)
        explanation = explainer.explain_node(graph, node)
        ranked = explanation.ranking()
        if self.inspection_window is not None:
            ranked = ranked[: self.inspection_window]
        candidates = [
            edge
            for edge in ranked
            if self.trusted is None or edge_tuple(*edge) not in self.trusted
        ]
        to_prune = candidates[: self.prune_k]
        pruned_graph = graph.with_edges_removed(to_prune) if to_prune else graph
        after = predict(self.model, pruned_graph, node)
        adversarial = {edge_tuple(u, v) for u, v in adversarial_edges}
        return InspectionOutcome(
            node=node,
            prediction_before=before,
            prediction_after=after,
            pruned_edges=to_prune,
            pruned_adversarial=[
                edge for edge in to_prune if edge_tuple(*edge) in adversarial
            ],
        )

    # -- Defense protocol ---------------------------------------------------
    def predict(self, graph, node=None):
        """Per-node defended prediction: the post-pruning one.

        Without a node this defense has no graph-level pass, so it falls
        back to the undefended model (identity :meth:`preprocess`).
        """
        if node is None:
            return super().predict(graph)
        return self._cached_inspect(graph, node).prediction_after

    def flag(self, graph, node):
        """1.0 when pruning the top-``k`` flips the prediction, else 0.0.

        A load-bearing untrusted top-``k`` is the paper's Section-3 signal
        that the prediction was manufactured; explainer-evading attacks
        keep their edges out of the top-``k``, so their victims score 0.
        """
        return float(self._cached_inspect(graph, node).prediction_changed)

    def _cached_inspect(self, graph, node):
        """One :meth:`inspect` per (graph, node) — predict/flag share it."""
        _, outcome = graph_cached(
            graph,
            ("explainer-inspect", id(self), int(node)),
            lambda: (self, self.inspect(graph, node)),  # pin the instance
        )
        return outcome

    def attacker_view(self, graph, node=None):
        """The victim's neighborhood as the defender will leave it.

        A preprocess-aware attacker anticipates the inspect-and-prune
        response: the defender will examine the explanation's top-``L``
        window around ``node`` and prune up to ``prune_k`` untrusted
        edges.  The view is therefore the *post-pruning* graph — exactly
        what :meth:`inspect` computes (and the per-(graph, node) cache it
        already shares with :meth:`predict`/:meth:`flag`).  Edges the
        attacker commits on this view are chosen to flip the prediction
        *after* the anticipated prune, so they survive the real defense
        whenever the simulation matches the defender.
        """
        if node is None:
            return graph
        outcome = self._cached_inspect(graph, int(node))
        if not outcome.pruned_edges:
            return graph
        return graph.with_edges_removed(outcome.pruned_edges)

    def recovery_rate(self, graph, attack_results, true_labels):
        """Fraction of attacked victims whose true label is restored.

        For each :class:`repro.attacks.AttackResult`, prune around the
        victim on its perturbed graph and check the post-pruning prediction
        against the true label.
        """
        true_labels = np.asarray(true_labels)
        recovered = []
        for result in attack_results:
            outcome = self.inspect(
                result.perturbed_graph, result.target_node, result.added_edges
            )
            recovered.append(
                outcome.prediction_after == true_labels[result.target_node]
            )
        return float(np.mean(recovered)) if recovered else float("nan")
