"""Nettack (Zügner et al., KDD 2018) — surrogate-based targeted structure attack.

The attack scores candidate edges on a *linearized* GCN surrogate
(``Ã² X W``, non-linearities stripped) and only admits perturbations that
preserve the graph's degree distribution, via the power-law likelihood-ratio
test from the original paper (§4.2, "unnoticeable perturbations").

Faithful pieces:

* linearized surrogate with weights distilled from the attacked GCN,
* exact surrogate margin score for every evaluated candidate (sparse
  renormalization + recompute — no linearization of the score itself),
* the degree-distribution χ²-style likelihood-ratio filter with the
  reference threshold 0.004 and ``d_min = 2``.

One documented deviation: instead of scoring *every* candidate exactly, a
gradient pre-screening keeps the top ``SCREEN_SIZE`` candidates and only
those are scored exactly (identical selections in practice, much cheaper).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.attacks.base import Attack, targeted_loss
from repro.autodiff.sparse_ops import SparseAttackAdjacency
from repro.autodiff.tensor import Tensor
from repro.graph.utils import normalize_adjacency, normalize_adjacency_tensor
from repro.nn.models import LinearizedGCN

__all__ = [
    "Nettack",
    "estimate_powerlaw_alpha",
    "powerlaw_log_likelihood",
    "degree_test_statistic",
    "degree_preserving_candidates",
]

#: Likelihood-ratio acceptance threshold from the Nettack reference code.
DEGREE_TEST_THRESHOLD = 0.004
#: Minimum degree considered part of the power-law tail.
D_MIN = 2
#: Number of gradient-screened candidates scored exactly per greedy step.
SCREEN_SIZE = 32


def estimate_powerlaw_alpha(degrees, d_min=D_MIN):
    """MLE power-law exponent of the degree tail (Clauset et al. estimator)."""
    degrees = np.asarray(degrees, dtype=np.float64)
    tail = degrees[degrees >= d_min]
    if tail.size == 0:
        return 1.0
    log_sum = np.sum(np.log(tail))
    return float(tail.size / (log_sum - tail.size * np.log(d_min - 0.5)) + 1.0)


def powerlaw_log_likelihood(degrees, alpha, d_min=D_MIN):
    """Log-likelihood of the degree tail under a power law with ``alpha``."""
    degrees = np.asarray(degrees, dtype=np.float64)
    tail = degrees[degrees >= d_min]
    if tail.size == 0:
        return 0.0
    log_sum = np.sum(np.log(tail))
    return float(
        tail.size * np.log(alpha)
        + tail.size * alpha * np.log(d_min - 0.5)
        - (alpha + 1.0) * log_sum
    )


def degree_test_statistic(original_degrees, modified_degrees, d_min=D_MIN):
    """Likelihood-ratio statistic between separate and pooled power laws.

    Small values mean the modified degree sequence is statistically
    indistinguishable from the original (the perturbation is unnoticeable).
    """
    combined = np.concatenate([original_degrees, modified_degrees])
    alpha_orig = estimate_powerlaw_alpha(original_degrees, d_min)
    alpha_new = estimate_powerlaw_alpha(modified_degrees, d_min)
    alpha_comb = estimate_powerlaw_alpha(combined, d_min)
    ll_orig = powerlaw_log_likelihood(original_degrees, alpha_orig, d_min)
    ll_new = powerlaw_log_likelihood(modified_degrees, alpha_new, d_min)
    ll_comb = powerlaw_log_likelihood(combined, alpha_comb, d_min)
    return float(-2.0 * ll_comb + 2.0 * (ll_orig + ll_new))


def degree_preserving_candidates(
    degrees, target_node, candidates, threshold=DEGREE_TEST_THRESHOLD, d_min=D_MIN
):
    """Filter candidate endpoints by the degree-distribution test.

    Returns the subset of ``candidates`` for which adding the edge
    ``(target_node, candidate)`` keeps the likelihood-ratio statistic below
    ``threshold``.
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    keep = []
    for candidate in candidates:
        modified = degrees.copy()
        modified[int(target_node)] += 1
        modified[int(candidate)] += 1
        statistic = degree_test_statistic(degrees, modified, d_min)
        if statistic < threshold:
            keep.append(int(candidate))
    return np.array(keep, dtype=np.int64)


class Nettack(Attack):
    """Targeted Nettack restricted to edge additions (the paper's setting).

    Parameters
    ----------
    model:
        The attacked (frozen) GCN; the surrogate is distilled from it unless
        ``surrogate`` is supplied.
    enforce_degree_test:
        Toggle the power-law likelihood-ratio filter (on, as in the paper).
    """

    name = "Nettack"
    supports_locality = True

    def __init__(
        self,
        model,
        seed=0,
        surrogate=None,
        enforce_degree_test=True,
    ):
        super().__init__(model, seed=seed)
        self.surrogate = surrogate or LinearizedGCN.from_model(model)
        self.enforce_degree_test = bool(enforce_degree_test)

    def _step(self, scene, view, perturbed, target_label, state):
        candidates = self._candidates(view.graph, view.node, target_label)
        if self.enforce_degree_test and candidates.size:
            # The power-law likelihood-ratio test is a statement about the
            # *global* degree sequence, so it always runs on the full
            # perturbed graph's degrees regardless of locality.
            filtered = degree_preserving_candidates(
                scene.global_degrees(perturbed),
                scene.seed_node,
                view.to_global_array(candidates),
            )
            if filtered.size:
                candidates = view.to_local_array(filtered)
        if candidates.size == 0:
            return None
        feature_logits = self._feature_logits(scene, view)
        screened = self._screen(view, target_label, candidates)
        # Only the screened candidates are scored exactly (and traced) —
        # the screening set is itself deterministic per step.
        margins = np.array(
            [
                self._exact_margin(
                    view, target_label, int(candidate), feature_logits
                )
                for candidate in screened
            ]
        )
        return screened, margins

    # -- internals ------------------------------------------------------------
    def _feature_logits(self, scene, view):
        """``X W`` rows for the view (constant per feature slice)."""
        features, logits = scene.memo(
            ("feature-logits", id(view.graph.features)),
            lambda: (
                view.graph.features,
                view.graph.features @ self.surrogate.weight.data,
            ),
        )
        return logits

    def _screen(self, view, target_label, candidates):
        """Keep the candidates with the strongest surrogate gradient signal."""
        if candidates.size <= SCREEN_SIZE:
            return candidates
        forward = _SurrogateForward(
            self.surrogate,
            view.graph.features,
            degree_offset=view.raw_degree_offset,
        )
        scores = -self._gradient_row(
            view,
            candidates,
            lambda adjacency: targeted_loss(
                forward, adjacency, view.node, target_label
            ),
        )
        order = np.argsort(-scores)[:SCREEN_SIZE]
        return candidates[order]

    def _exact_margin(self, view, target_label, candidate, feature_logits):
        """Exact surrogate margin of the target label after adding the edge.

        Renormalizes the (sparse) modified adjacency and recomputes the
        victim's logits ``[Ã² X W]_i`` exactly.  On the sparse backend the
        two-hop propagation is restricted to the victim's row — only the
        rows ``Ã[victim]`` touches are propagated, which drops the
        per-candidate cost from ``O(nnz · C)`` to the victim's
        neighborhood and (skipping exact zero terms) is bit-identical.
        """
        if self.sparse:
            base = view.graph.adjacency.tocoo()
            node = int(view.node)
            rows = np.concatenate([base.row, [node, candidate]])
            cols = np.concatenate([base.col, [candidate, node]])
            data = np.concatenate([base.data.astype(np.float64), [1.0, 1.0]])
            modified = sp.csr_matrix(
                (data, (rows, cols)), shape=base.shape
            )
            normalized = normalize_adjacency(
                modified, degree_offset=view.raw_degree_offset
            )
            victim_row = normalized[node]
            propagated = normalized[victim_row.indices] @ feature_logits
            logits = victim_row.data @ propagated
        else:
            adjacency = view.graph.adjacency.tolil(copy=True)
            adjacency[view.node, candidate] = 1
            adjacency[candidate, view.node] = 1
            normalized = normalize_adjacency(
                adjacency.tocsr(), degree_offset=view.raw_degree_offset
            )
            propagated = normalized @ feature_logits
            logits = normalized[view.node].toarray().ravel() @ propagated
        margin = logits[int(target_label)] - np.max(
            np.delete(logits, int(target_label))
        )
        return float(margin)


class _SurrogateForward:
    """Adapter: surrogate logits from a raw adjacency leaf (dense or CSR)."""

    def __init__(self, surrogate, features, degree_offset=None):
        self.surrogate = surrogate
        self.features = Tensor(np.asarray(features, dtype=np.float64))
        self.degree_offset = degree_offset

    def logits_from_raw(self, adjacency):
        if isinstance(adjacency, SparseAttackAdjacency):
            normalized = adjacency.normalized(degree_offset=self.degree_offset)
        else:
            normalized = normalize_adjacency_tensor(
                adjacency, degree_offset=self.degree_offset
            )
        return self.surrogate(normalized, self.features)
