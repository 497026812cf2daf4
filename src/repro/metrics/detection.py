"""Detection-rate metrics: Precision@K, Recall@K, F1@K, NDCG@K.

The inspector protocol (paper Section 3 / Appendix A.2): rank the edges of
the victim's explanation by importance; adversarial edges appearing high in
the top-K list are "detected".  Higher values = more detectable attack;
GEAttack aims to *minimize* these while keeping ASR-T high.

The same four metrics apply verbatim to ranked *feature* lists (the M_F
part of the paper's Eq. 2), used by the feature-attack extension: there the
relevant items are the attacker's flipped feature indices instead of edges.
"""

from __future__ import annotations

import numpy as np

from repro.graph.utils import edge_tuple

__all__ = [
    "precision_at_k",
    "recall_at_k",
    "f1_at_k",
    "ndcg_at_k",
    "binary_auc",
    "detection_report",
    "ranked_precision_at_k",
    "ranked_recall_at_k",
    "ranked_f1_at_k",
    "ranked_ndcg_at_k",
    "feature_detection_report",
]


def _canonical(edges):
    return [edge_tuple(u, v) for u, v in edges]


# -- generic ranked-list metrics (items must be hashable) -------------------
def ranked_precision_at_k(ranked_items, relevant_items, k):
    """|relevant ∩ top-K| / K."""
    if k <= 0:
        raise ValueError("k must be positive")
    top = set(ranked_items[: int(k)])
    return len(top & set(relevant_items)) / float(k)


def ranked_recall_at_k(ranked_items, relevant_items, k):
    """|relevant ∩ top-K| / |relevant| (``nan`` with nothing to find)."""
    relevant = set(relevant_items)
    if not relevant:
        return float("nan")
    top = set(ranked_items[: int(k)])
    return len(top & relevant) / float(len(relevant))


def ranked_f1_at_k(ranked_items, relevant_items, k):
    """Harmonic mean of Precision@K and Recall@K."""
    precision = ranked_precision_at_k(ranked_items, relevant_items, k)
    recall = ranked_recall_at_k(ranked_items, relevant_items, k)
    if np.isnan(recall) or precision + recall == 0.0:
        return 0.0 if not np.isnan(recall) else float("nan")
    return 2.0 * precision * recall / (precision + recall)


def ranked_ndcg_at_k(ranked_items, relevant_items, k):
    """Binary-relevance NDCG@K over a ranked item list.

    Relevance 1 for relevant items, 0 otherwise;
    ``DCG = Σ_r rel_r / log2(r + 1)`` with the ideal DCG placing every
    relevant item at the top.
    """
    relevant = set(relevant_items)
    if not relevant:
        return float("nan")
    k = int(k)
    ranked = ranked_items[:k]
    gains = np.array([1.0 if item in relevant else 0.0 for item in ranked])
    discounts = 1.0 / np.log2(np.arange(2, gains.size + 2))
    dcg = float(np.sum(gains * discounts))
    ideal_hits = min(len(relevant), k)
    ideal = float(np.sum(1.0 / np.log2(np.arange(2, ideal_hits + 2))))
    return dcg / ideal if ideal > 0 else float("nan")


# -- score-based detection (the arena's defense-flag protocol) ---------------
def binary_auc(scores, labels):
    """ROC AUC of suspicion scores against binary attacked/clean labels.

    Mann-Whitney formulation with average ranks, so ties are handled
    exactly (a constant scorer — e.g. ``NoDefense`` flagging everything
    0.0 — gets the chance level 0.5, not an error).

    Degenerate inputs return *defined* values instead of raising, matching
    the library's "undefined cell" convention (``mean_of_finite`` drops
    them): an empty flag set, or labels containing a single class, yield
    ``nan``.
    """
    scores = np.asarray(list(scores), dtype=np.float64)
    labels = np.asarray(list(labels), dtype=bool)
    if scores.shape[0] != labels.shape[0]:
        raise ValueError("scores and labels must align")
    positives = int(labels.sum())
    negatives = int(labels.size - positives)
    if positives == 0 or negatives == 0:
        return float("nan")
    rank_sum = float(average_ranks(scores)[labels].sum())
    return (rank_sum - positives * (positives + 1) / 2.0) / (
        positives * negatives
    )


def average_ranks(values):
    """1-based ranks, ties sharing their mean rank; all ``nan`` on any ``nan``.

    The same floats as ``scipy.stats.rankdata(values)``, without importing
    ``scipy.stats`` (about a second, most of a warm CLI resume).
    """
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any():
        return np.full(values.shape, np.nan)
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    bounds = np.r_[starts, values.size]
    tie_group = np.repeat(np.arange(starts.size), np.diff(bounds))
    ranks = np.empty(values.size)
    ranks[order] = 0.5 * (bounds[tie_group] + bounds[tie_group + 1] + 1)
    return ranks


# -- edge-ranking wrappers (the paper's inspector protocol) ------------------
def precision_at_k(ranked_edges, adversarial_edges, k):
    """|adversarial ∩ top-K| / K."""
    return ranked_precision_at_k(
        _canonical(ranked_edges), _canonical(adversarial_edges), k
    )


def recall_at_k(ranked_edges, adversarial_edges, k):
    """|adversarial ∩ top-K| / |adversarial|."""
    return ranked_recall_at_k(
        _canonical(ranked_edges), _canonical(adversarial_edges), k
    )


def f1_at_k(ranked_edges, adversarial_edges, k):
    """Harmonic mean of Precision@K and Recall@K."""
    return ranked_f1_at_k(_canonical(ranked_edges), _canonical(adversarial_edges), k)


def ndcg_at_k(ranked_edges, adversarial_edges, k):
    """Binary-relevance NDCG@K over the ranked edge list."""
    return ranked_ndcg_at_k(
        _canonical(ranked_edges), _canonical(adversarial_edges), k
    )


def detection_report(explanation, adversarial_edges, k=15):
    """All four detection metrics for one explanation.

    Parameters
    ----------
    explanation:
        A :class:`repro.explain.Explanation` of the victim on the perturbed
        graph.
    adversarial_edges:
        Edges the attacker added (global tuples).
    k:
        Cut-off; the paper uses K = 15 throughout.

    Returns
    -------
    dict with keys ``precision``, ``recall``, ``f1``, ``ndcg``.
    """
    ranked = explanation.ranking()
    return {
        "precision": precision_at_k(ranked, adversarial_edges, k),
        "recall": recall_at_k(ranked, adversarial_edges, k),
        "f1": f1_at_k(ranked, adversarial_edges, k),
        "ndcg": ndcg_at_k(ranked, adversarial_edges, k),
    }


def feature_detection_report(explanation, flipped_features, k=15):
    """Detection metrics over the explanation's *feature* ranking.

    The feature-space analogue of :func:`detection_report`: the explanation
    must carry feature weights (``GNNExplainer(explain_features=True)``);
    features the attacker flipped that rank in the top-K are "detected".
    """
    if explanation.feature_weights is None:
        raise ValueError("explanation has no feature mask to inspect")
    order = np.argsort(-explanation.feature_weights, kind="stable")
    ranked = [int(d) for d in order]
    relevant = [int(d) for d in flipped_features]
    return {
        "precision": ranked_precision_at_k(ranked, relevant, k),
        "recall": ranked_recall_at_k(ranked, relevant, k),
        "f1": ranked_f1_at_k(ranked, relevant, k),
        "ndcg": ranked_ndcg_at_k(ranked, relevant, k),
    }
