"""The shared :class:`Defense` protocol and the identity :class:`NoDefense`.

Every defense in this package answers the same two questions the arena's
attack × defense matrix asks:

* ``preprocess(graph)`` — a graph-level sanitization pass: return the graph
  the defended model should actually evaluate (identity when the defense
  does not rewrite structure).
* ``flag(graph, node)`` — a per-node suspicion score in ``[0, 1]``: how
  strongly this defense believes the node's neighborhood has been tampered
  with.  Scores feed the detection-AUC metric (attacked vs clean victims).

``predict(graph, node)`` ties the two together as the *defended
prediction*: the frozen model evaluated on the preprocessed graph (per-node
defenses like :class:`~repro.defense.inspector.ExplainerDefense` override
it with their own inspect-and-prune protocol).  An attack *evades* a
defense when the defended prediction is still wrong.

Defenses mirror the attacks' registration contract
(:data:`repro.attacks.ATTACKS`): subclass :class:`Defense`, declare
``config_params``, register in :data:`repro.defense.DEFENSES`, and the
arena — like the differential harness for attacks — enumerates the new
defense automatically.  The registry builds it as ``cls(model,
**kwargs)``, the kwargs being the spec's declared params plus any
case-level wiring (an explainer factory, trusted edges, a prune budget).
"""

from __future__ import annotations

from repro.graph.utils import graph_cached

__all__ = ["Defense", "NoDefense"]


class Defense:
    """Base class: a (frozen) model plus the preprocess/flag protocol.

    Parameters
    ----------
    model:
        The trained GCN whose predictions are being defended.  Optional for
        defenses whose sanitization needs no model (e.g. Jaccard filtering),
        but required for :meth:`predict`.
    """

    name = "base"
    #: Whether the constructor takes an ``explainer_factory`` (the
    #: registry passes its GNNExplainer recipe).
    requires_explainer = False
    #: Declared config-fed knobs (:class:`repro.schema.ConfigParam`), the
    #: same self-describing contract as :attr:`repro.attacks.Attack
    #: .config_params`: ``repro.api`` generates construction kwargs and the
    #: ``describe`` schema from this tuple, and a spec may set nothing
    #: else.
    config_params = ()

    def __init__(self, model=None):
        self.model = model

    # -- protocol -----------------------------------------------------------
    def preprocess(self, graph):
        """Sanitized graph the defended model evaluates (default: identity)."""
        return graph

    def flag(self, graph, node):
        """Suspicion score in ``[0, 1]`` for ``node``'s neighborhood."""
        return 0.0

    def attacker_view(self, graph, node=None):
        """The graph a defense-aware (adaptive) attacker optimizes through.

        The preprocess-aware threat model (:mod:`repro.threat`) runs each
        attack's inner optimization on this view instead of the raw graph,
        so the defense's sanitization becomes part of the attacked
        objective.  The default is the graph-level :meth:`preprocess` pass
        (memoized); per-node defenses override with the neighborhood the
        defender will actually act on around ``node``.  Identity-
        preprocessing defenses make adaptivity degenerate to oblivious —
        honestly: there is nothing to optimize through.
        """
        return self.preprocessed(graph)

    # -- derived ------------------------------------------------------------
    def predict(self, graph, node=None):
        """Defended prediction: the model on the preprocessed graph.

        Memoized per graph (immutable by convention), so flagging and
        predicting over a victim set preprocesses each graph once.
        """
        from repro.attacks.base import predict

        return predict(self.model, self.preprocessed(graph), node)

    def preprocessed(self, graph):
        """Graph-cached :meth:`preprocess` (one sanitization per graph)."""
        # Pin self in the cached value so the id key can never be reused by
        # a different defense instance while this entry is alive.
        _, cleaned = graph_cached(
            graph,
            ("defense-preprocess", id(self)),
            lambda: (self, self.preprocess(graph)),
        )
        return cleaned


class NoDefense(Defense):
    """The identity defense: the undefended model, suspicious of nothing.

    The arena's control column — every attack's evasion rate against
    ``NoDefense`` is its plain ASR, and its detection AUC is 0.5 by
    construction (all flags tie at zero).
    """

    name = "none"
