"""GCN-Jaccard preprocessing defense (Wu et al., IJCAI 2019).

The IG-Attack paper — one of the baselines reproduced here — also proposes
the standard *structural* counter-measure: adversarially inserted edges tend
to connect feature-dissimilar nodes, so dropping every edge whose endpoint
features have Jaccard similarity below a threshold removes most injected
edges at little cost to clean accuracy.

Including it lets the benchmarks contrast the two defense philosophies the
literature offers against GEAttack: explanation-based inspection
(:mod:`repro.defense.inspector`) versus feature-similarity filtering (this
module).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.defense.base import Defense
from repro.graph.utils import edge_tuple, graph_cached

__all__ = ["jaccard_similarity", "JaccardDefense"]


def jaccard_similarity(features_u, features_v, eps=1e-12):
    """Jaccard similarity of two binary feature vectors."""
    features_u = np.asarray(features_u, dtype=bool)
    features_v = np.asarray(features_v, dtype=bool)
    intersection = np.logical_and(features_u, features_v).sum()
    union = np.logical_or(features_u, features_v).sum()
    return float(intersection) / float(union + eps)


class JaccardDefense(Defense):
    """Drop edges between feature-dissimilar endpoints before training.

    Parameters
    ----------
    model:
        Optional frozen GCN; only needed for defended :meth:`predict`.
    threshold:
        Edges with Jaccard similarity strictly below this are removed
        (reference default 0.01 — only near-zero-overlap pairs go).
    """

    name = "jaccard"

    def __init__(self, model=None, threshold=0.01):
        super().__init__(model)
        self.threshold = float(threshold)

    def edge_scores(self, graph):
        """Jaccard similarity per undirected edge, aligned with the list.

        Features are treated as sets via ``> 0`` (bag-of-words datasets are
        already binary; continuous features are thresholded).
        """
        features = graph.features > 0
        coo = sp.triu(graph.adjacency, k=1).tocoo()
        edges = list(zip(coo.row.tolist(), coo.col.tolist()))
        scores = np.array(
            [jaccard_similarity(features[u], features[v]) for u, v in edges]
        )
        return edges, scores

    def sanitize(self, graph):
        """Return ``(cleaned_graph, dropped_edges)``, memoized per graph.

        One sanitization pass serves every protocol entry point: the
        cleaned graph backs :meth:`preprocess`/:meth:`predict` and the
        dropped set backs :meth:`flag`.
        """
        _, cleaned, dropped = graph_cached(
            graph,
            ("jaccard-sanitize", id(self)),
            # Pin the instance so the id key stays unique while cached.
            lambda: (self, *self._sanitize(graph)),
        )
        return cleaned, dropped

    def _sanitize(self, graph):
        edges, scores = self.edge_scores(graph)
        dropped = [
            (int(u), int(v))
            for (u, v), score in zip(edges, scores)
            if score < self.threshold
        ]
        cleaned = graph.with_edges_removed(dropped) if dropped else graph
        return cleaned, dropped

    # -- Defense protocol ---------------------------------------------------
    def preprocess(self, graph):
        """Sanitization as the protocol's graph-level pass."""
        return self.sanitize(graph)[0]

    def flag(self, graph, node):
        """Fraction of ``node``'s incident edges sanitization would drop."""
        dropped = {edge_tuple(u, v) for u, v in self.sanitize(graph)[1]}
        node = int(node)
        neighbors = graph.neighbors(node)
        if neighbors.size == 0:
            return 0.0
        hits = sum(
            1 for other in neighbors if edge_tuple(node, other) in dropped
        )
        return hits / float(neighbors.size)

    def filtered_fraction(self, graph, suspicious_edges):
        """Fraction of the given edges that sanitization would remove."""
        suspicious = {edge_tuple(u, v) for u, v in suspicious_edges}
        if not suspicious:
            return float("nan")
        _, dropped = self.sanitize(graph)
        removed = {edge_tuple(u, v) for u, v in dropped}
        return len(suspicious & removed) / len(suspicious)
