"""Attack infrastructure: result objects, candidate endpoints, fast forward.

All attacks in this package are *evasion* attacks in the paper's threat
model: the GCN is trained on the clean graph and frozen; the attacker adds
fake edges incident to the target node (direct structure attack) within a
budget Δ, aiming to flip the prediction to a chosen target label.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff import ops
from repro.autodiff.sparse_ops import SparseAttackAdjacency
from repro.autodiff.tensor import Tensor, grad, no_grad
from repro.attacks.locality import IdentityScene, build_locality_scene
from repro.nn.layers import adjacency_matmul
from repro.graph.utils import (
    cached_model_operator,
    edge_tuple,
    graph_cached,
    normalize_adjacency_tensor,
)
from repro.obs import metrics
from repro.obs.tracer import get_tracer

__all__ = [
    "AttackResult",
    "Attack",
    "backend_from_env",
    "DenseGCNForward",
    "DenseModelForward",
    "VictimSpec",
    "candidate_nodes",
    "coerce_victim",
    "predict",
    "record_trace",
    "targeted_loss",
]


def backend_from_env():
    """The compute backend ``REPRO_BACKEND`` selects (dense or sparse).

    Read at call time (tests monkeypatch the environment); the value is
    stripped and lowercased, and unset or empty means dense.  Anything
    else raises ``ValueError``.
    """
    value = os.environ.get("REPRO_BACKEND", "")
    name = value.strip().lower() or "dense"
    if name not in ("dense", "sparse"):
        raise ValueError(
            f"unknown compute backend {value!r} (expected one of: dense, sparse)"
        )
    return name


@dataclass
class AttackResult:
    """Outcome of a (possibly failed) attack on one target node.

    Attributes
    ----------
    perturbed_graph:
        The corrupted graph ``Ĝ`` with adversarial edges added.
    added_edges:
        Canonical global edge tuples inserted by the attacker.
    target_node, target_label:
        The victim and the attacker's desired label (None if untargeted).
    original_prediction:
        The clean-graph prediction for the victim.
    final_prediction:
        The model's prediction for the victim on the perturbed graph.
    score_trace:
        One record per greedy step (see :func:`record_trace`): the global
        candidate ids, their scores, and the chosen endpoint.  Attacks with
        no per-candidate scoring (e.g. random baselines) leave it empty.
        The differential harness compares these traces between full-graph
        and subgraph-locality execution.
    """

    perturbed_graph: object
    added_edges: list
    target_node: int
    target_label: int | None
    original_prediction: int
    final_prediction: int
    history: list = field(default_factory=list)
    score_trace: list = field(default_factory=list)

    @property
    def misclassified(self):
        """Whether the prediction changed at all (the ASR event)."""
        return self.final_prediction != self.original_prediction

    @property
    def hit_target(self):
        """Whether the prediction equals the target label (the ASR-T event)."""
        return (
            self.target_label is not None
            and self.final_prediction == self.target_label
        )

    # -- serialization ------------------------------------------------------
    def to_dict(self):
        """JSON-safe dict with an *exact* round-trip through ``from_dict``.

        Exactness is load-bearing for the arena's content-addressed store:
        a matrix rendered from stored results must be byte-identical to one
        rendered from live results.  Edge tuples become 2-lists (JSON has
        no tuples), ``score_trace`` arrays become plain lists — ``float``
        on an IEEE-754 double serializes via shortest-round-trip ``repr``,
        so every bit survives ``json.dumps``/``loads`` — and ``history``
        keeps the ``(tag, edge)`` convention of DICE/Metattack.  The
        perturbed graph itself is *not* stored: it is reproducible from the
        base graph plus the recorded edge operations (see ``from_dict``).
        """
        return {
            "target_node": int(self.target_node),
            "target_label": (
                None if self.target_label is None else int(self.target_label)
            ),
            "original_prediction": int(self.original_prediction),
            "final_prediction": int(self.final_prediction),
            "added_edges": [[int(u), int(v)] for u, v in self.added_edges],
            "history": [
                [str(tag), [int(u), int(v)]] for tag, (u, v) in self.history
            ],
            "score_trace": [
                {
                    "choice": int(step["choice"]),
                    "candidates": [int(c) for c in step["candidates"]],
                    "scores": [float(s) for s in step["scores"]],
                }
                for step in self.score_trace
            ],
        }

    @classmethod
    def from_dict(cls, data, graph=None):
        """Rebuild an :class:`AttackResult` from :meth:`to_dict` output.

        When ``graph`` (the clean base graph) is given, the perturbed graph
        is reconstructed by replaying the recorded operations: ``history``
        removals first (DICE/Metattack drop edges), then the added edges —
        yielding a graph with exactly the stored edge set.  The record
        carries no graph identity of its own, so replay is guarded: the
        victim and every recorded endpoint must be valid node ids of
        ``graph``, otherwise the stored edges would silently land on the
        wrong graph.  Without a ``graph`` the perturbed graph is ``None``
        (metrics-only use).
        """
        added = [edge_tuple(u, v) for u, v in data["added_edges"]]
        history = [
            (tag, edge_tuple(u, v)) for tag, (u, v) in data.get("history", [])
        ]
        perturbed = None
        if graph is not None:
            num_nodes = int(graph.num_nodes)
            victim = int(data["target_node"])
            if not 0 <= victim < num_nodes:
                raise ValueError(
                    f"stored result targets node {victim}, but the supplied "
                    f"base graph has only {num_nodes} nodes — this record "
                    "belongs to a different graph"
                )
            endpoints = {e for edge in added for e in edge}
            endpoints.update(e for _, edge in history for e in edge)
            out_of_range = sorted(
                e for e in endpoints if not 0 <= e < num_nodes
            )
            if out_of_range:
                raise ValueError(
                    f"stored result references node(s) {out_of_range} beyond "
                    f"the supplied base graph's {num_nodes} nodes — refusing "
                    "to replay edges on the wrong graph"
                )
            removed = [edge for tag, edge in history if tag == "removed"]
            perturbed = graph
            if removed:
                perturbed = perturbed.with_edges_removed(removed)
            if added:
                perturbed = perturbed.with_edges_added(added)
        return cls(
            perturbed_graph=perturbed,
            added_edges=added,
            target_node=int(data["target_node"]),
            target_label=(
                None
                if data["target_label"] is None
                else int(data["target_label"])
            ),
            original_prediction=int(data["original_prediction"]),
            final_prediction=int(data["final_prediction"]),
            history=history,
            score_trace=[
                {
                    "choice": int(step["choice"]),
                    "candidates": np.asarray(step["candidates"], dtype=np.int64),
                    "scores": np.asarray(step["scores"], dtype=np.float64),
                }
                for step in data.get("score_trace", [])
            ],
        )


@dataclass(frozen=True)
class VictimSpec:
    """One victim of a batched attack: node, desired label, edge budget."""

    node: int
    target_label: int | None
    budget: int


def coerce_victim(victim):
    """Accept a :class:`VictimSpec`, a pipeline ``Victim`` or a tuple."""
    if isinstance(victim, VictimSpec):
        return victim
    if hasattr(victim, "node") and hasattr(victim, "budget"):
        return VictimSpec(
            node=int(victim.node),
            target_label=(
                None
                if getattr(victim, "target_label", None) is None
                else int(victim.target_label)
            ),
            budget=int(victim.budget),
        )
    node, target_label, budget = victim
    return VictimSpec(
        node=int(node),
        target_label=None if target_label is None else int(target_label),
        budget=int(budget),
    )


def record_trace(trace, view, candidates, scores, choice):
    """Append one greedy step's per-candidate scores to ``trace``.

    ``candidates``/``scores`` are the aligned candidate array and score
    array of the step; when ``view`` is given, candidates are local ids and
    are mapped to global ids.  Entries are stored sorted by global id, so a
    subgraph-locality run and a full-graph run of the same step produce
    directly comparable records regardless of internal candidate order.
    ``choice`` identifies the selected candidate (global endpoint id, or a
    feature index for feature attacks).
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    if view is not None:
        candidates = view.to_global_array(candidates)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(candidates)
    trace.append(
        {
            "choice": int(choice),
            "candidates": candidates[order],
            "scores": scores[order],
        }
    )


def targeted_loss(forward, adjacency_tensor, node, label):
    """Cross-entropy of the victim's logits against ``label`` (Eq. 4)."""
    logits = forward.logits_from_raw(adjacency_tensor)
    row = ops.reshape(logits[int(node)], (1, logits.shape[1]))
    return F.cross_entropy(row, np.array([int(label)]))


def predict(model, graph, node=None):
    """``model``'s predictions on ``graph`` (all nodes, or one node).

    Memoized per (graph, model): the clean graph is predicted once per
    victim set instead of once per victim, and repeated queries on a
    perturbed graph are free.  Safe because graphs are immutable and the
    attacked model is frozen.
    """

    def compute():
        normalized = cached_model_operator(graph, model)
        with no_grad():
            logits = model(normalized, Tensor(graph.features))
        # Pin the model in the cached value so its id key can never be
        # reused by a different model while this entry is alive.
        return model, logits.data.argmax(axis=1)

    _, predictions = graph_cached(graph, ("predictions", id(model)), compute)
    return int(predictions[int(node)]) if node is not None else predictions


def candidate_nodes(graph, target_node, target_label=None):
    """Endpoints eligible for a fake edge from ``target_node``.

    Excludes the victim itself and its current neighbors (we only *add*
    edges).  With a target label — the paper's attacker setting — only
    nodes whose label equals the desired target label are eligible;
    without one every other node is.
    """
    banned = set(graph.neighbors(int(target_node)).tolist())
    banned.add(int(target_node))
    nodes = np.arange(graph.num_nodes)
    keep = np.array([v not in banned for v in nodes], dtype=bool)
    if target_label is not None:
        keep &= graph.labels == int(target_label)
    return nodes[keep]


class DenseGCNForward:
    """Differentiable GCN forward under a dense (attackable) adjacency.

    The feature-side product ``X @ W1`` is constant during an evasion attack
    (weights and features are frozen), so it is precomputed once; each call
    then costs two sparse-sized dense products instead of touching the full
    feature matrix.  Call signature matches ``model(adjacency, features)``
    so this object can stand in for the model inside
    :func:`repro.explain.gnn_explainer.explainer_loss`.
    """

    def __init__(self, model, features, degree_offset=None):
        model.eval()
        features = np.asarray(features, dtype=np.float64)
        self.first_support = Tensor(features @ model.conv1.weight.data)
        self.first_bias = (
            Tensor(model.conv1.bias.data) if model.conv1.bias is not None else None
        )
        self.second_weight = Tensor(model.conv2.weight.data)
        self.second_bias = (
            Tensor(model.conv2.bias.data) if model.conv2.bias is not None else None
        )
        self.num_classes = model.conv2.weight.shape[1]
        #: Constant per-node degree correction for subgraph execution (the
        #: boundary deficit of a locality view); ``None`` on the full graph.
        self.degree_offset = degree_offset

    def __call__(self, normalized_adjacency, features=None):
        """Logits under an already *normalized* adjacency operator.

        Accepts a dense tensor or a sparse-backend
        :class:`~repro.autodiff.SparseNormalized` — both route through
        :func:`repro.nn.layers.adjacency_matmul` (a no-op change for the
        dense path, which still hits ``ops.matmul``).
        """
        hidden = adjacency_matmul(normalized_adjacency, self.first_support)
        if self.first_bias is not None:
            hidden = hidden + self.first_bias
        hidden = ops.relu(hidden)
        out = adjacency_matmul(
            normalized_adjacency, ops.matmul(hidden, self.second_weight)
        )
        if self.second_bias is not None:
            out = out + self.second_bias
        return out

    def logits_from_raw(self, adjacency):
        """Logits from a raw (unnormalized) adjacency leaf.

        ``adjacency`` is either a dense tensor or a
        :class:`~repro.autodiff.SparseAttackAdjacency`; both are
        normalized under this forward's ``degree_offset`` convention.
        """
        if isinstance(adjacency, SparseAttackAdjacency):
            return self(adjacency.normalized(degree_offset=self.degree_offset))
        return self(
            normalize_adjacency_tensor(adjacency, degree_offset=self.degree_offset)
        )

    def hidden_from_raw(self, adjacency):
        """First-layer embeddings from a raw dense adjacency leaf.

        Normalizes under this forward's ``degree_offset`` convention and
        stops after the first layer's ReLU — GEAttack's embedding input.
        """
        normalized = normalize_adjacency_tensor(
            adjacency, degree_offset=self.degree_offset
        )
        hidden = ops.matmul(normalized, self.first_support)
        if self.first_bias is not None:
            hidden = hidden + self.first_bias
        return ops.relu(hidden)

    def local_logits(self, adjacency, sub_nodes):
        """Logits on a raw *local* adjacency over ``sub_nodes`` of the view.

        The inner-explainer path: ``adjacency`` is a small masked k-hop
        slice (its own closed world — normalized fresh, no boundary
        offset) and ``sub_nodes`` selects the matching rows of the
        precomputed first support.
        """
        normalized = normalize_adjacency_tensor(adjacency)
        support = self.first_support[sub_nodes]
        hidden = ops.matmul(normalized, support)
        if self.first_bias is not None:
            hidden = hidden + self.first_bias
        hidden = ops.relu(hidden)
        out = ops.matmul(normalized, ops.matmul(hidden, self.second_weight))
        if self.second_bias is not None:
            out = out + self.second_bias
        return out


class DenseModelForward:
    """Architecture-generic differentiable forward under a dense adjacency.

    The model-zoo counterpart of :class:`DenseGCNForward`: no precomputed
    feature support (non-GCN layers mix features nonlinearly with the
    operator), just the model's own ``normalize_tensor`` + forward pass.
    Call signature matches ``model(adjacency, features)`` so it stands in
    for the model inside ``explainer_loss`` the same way.
    """

    def __init__(self, model, features, degree_offset=None):
        model.eval()
        self.model = model
        self.features = Tensor(np.asarray(features, dtype=np.float64))
        self.num_classes = int(model.num_classes)
        #: Constant per-node degree correction for subgraph execution.
        self.degree_offset = degree_offset

    def __call__(self, operator, features=None):
        """Logits under an already-prepared (model-specific) operator."""
        features = self.features if features is None else features
        return self.model(operator, features)

    def normalize_tensor(self, adjacency, self_loops=True, degree_offset=None):
        """The wrapped model's differentiable operator (explainer dispatch)."""
        return self.model.normalize_tensor(
            adjacency, self_loops=self_loops, degree_offset=degree_offset
        )

    def logits_from_raw(self, adjacency):
        """Logits from a raw adjacency leaf via the model's own operator."""
        normalized = self.model.normalize_tensor(
            adjacency, degree_offset=self.degree_offset
        )
        return self(normalized)

    def hidden_from_raw(self, adjacency):
        """First-layer embeddings from a raw dense adjacency leaf."""
        normalized = self.model.normalize_tensor(
            adjacency, degree_offset=self.degree_offset
        )
        return self.model.hidden_representation(normalized, self.features)

    def local_logits(self, adjacency, sub_nodes):
        """Logits on a raw *local* adjacency over ``sub_nodes`` of the view."""
        normalized = self.model.normalize_tensor(adjacency)
        return self.model(normalized, self.features[sub_nodes])


class Attack:
    """Base class: the frozen model, the greedy loop and evaluation helpers.

    :meth:`attack` is the one greedy edge-insertion loop (Algorithm 1's
    outer procedure, shared by every Table-1 gradient baseline): per
    victim it calls :meth:`_prepare` once, then per step :meth:`_step`
    scores the candidate endpoints of the current view, the loop adds the
    edge to the best one and re-scores, Δ times.  A greedy attack writes
    only ``_step`` — usually one :meth:`_gradient_row` call, which serves
    the dense and the sparse backend alike.  Attacks that are not greedy
    insertion (RNA, DICE, Metattack, the feature attacks) override
    :meth:`attack` instead.

    Attacks that support subgraph-locality execution (see
    :mod:`repro.attacks.locality`) set ``supports_locality``; :meth:`attack`
    then accepts an optional ``locality`` scene.  :meth:`attack_many` is
    the batched multi-victim entry point: it builds one locality scene per
    victim, so the dense inner math runs on the victim's computation
    subgraph instead of the full graph.  Attacks never fork: the engine
    loops that call them own the process pool.
    """

    name = "base"
    #: Whether :meth:`attack` accepts a ``locality`` scene.
    supports_locality = False
    #: Receptive-field depth of the attacked model (2-layer GCN).
    locality_hops = 2
    #: Declared config-fed knobs (:class:`repro.schema.ConfigParam`).  The
    #: content-addressed store keys, the ``repro.api`` construction
    #: factories and ``python -m repro describe`` are all generated from
    #: this tuple — registering an attack with a declaration is enough to
    #: expose it everywhere.
    config_params = ()
    #: Named constructor dependencies beyond the model (e.g.
    #: ``"pg_explainer"``); :func:`repro.api.build_attack` supplies them.
    requires = ()

    def __init__(self, model, seed=0):
        self.model = model
        self.seed = int(seed)
        #: Whether the adjacency-gradient hot paths build a
        #: :class:`SparseAttackAdjacency` instead of a dense leaf.  Set by
        #: ``REPRO_BACKEND=sparse`` (:func:`backend_from_env`), and only
        #: for GCN victims: the CSR handles hard-code the symmetric GCN
        #: normalization, so any other architecture stays dense — counted
        #: as ``backend.arch_dense_fallback`` — instead of silently
        #: producing wrong operators.  Attacks without a sparse kernel
        #: ignore the flag.
        self.sparse = backend_from_env() == "sparse"
        if self.sparse and getattr(model, "arch", "gcn") != "gcn":
            metrics.incr("backend.arch_dense_fallback")
            self.sparse = False
        #: The last :meth:`_gradient_row` loss, held until the next one is
        #: built and dropped when :meth:`attack` returns: freeing each
        #: step's tape before the next is allocated hands the heap top back
        #: to the OS, and every greedy step then page-faults it in again
        #: (+45% wall on FGA victim derivation).
        self._tape = None

    # -- api ----------------------------------------------------------------
    def attack(self, graph, target_node, target_label, budget, locality=None):
        """Add up to ``budget`` edges at the victim, greedily, one per step.

        Each step takes the argmax of :meth:`_step`'s scores, records the
        step (:func:`record_trace`) and adds ``(victim, best)``; a step
        that returns ``None`` ends the attack early.  Returns an
        :class:`AttackResult`.
        """
        target_node = int(target_node)
        scene = locality or IdentityScene(graph, target_node)
        state = self._prepare(graph, scene, target_node, target_label)
        perturbed = graph
        added = []
        trace = []
        for _ in range(int(budget)):
            view = scene.view(perturbed)
            step = self._step(scene, view, perturbed, target_label, state)
            if step is None:
                break
            candidates, scores = step
            best = view.to_global(int(candidates[int(np.argmax(scores))]))
            record_trace(trace, view, candidates, scores, best)
            edge = (target_node, best)
            added.append(edge)
            perturbed = perturbed.with_edges_added([edge])
        self._tape = None
        return self._finalize(
            graph, perturbed, added, target_node, target_label, score_trace=trace
        )

    def _prepare(self, graph, scene, target_node, target_label):
        """Per-victim state handed to every :meth:`_step` (default none)."""
        return None

    def _step(self, scene, view, perturbed, target_label, state):
        """``(candidates, scores)`` in view-local ids, or ``None`` to stop."""
        raise NotImplementedError

    def _gradient_row(self, view, candidates, loss_of):
        """Symmetrized gradient of ``loss_of(adjacency)`` on the candidate row.

        Adding edge (i, j) raises both A[i, j] and A[j, i], so a candidate's
        score is ``(g + gᵀ)[victim, candidate]``.  On the dense backend
        ``adjacency`` is a dense leaf over the view's graph; on the sparse
        backend it is a :class:`SparseAttackAdjacency`, whose one value per
        unordered pair makes the pair gradient that symmetrized entry.
        """
        if self.sparse:
            handle = SparseAttackAdjacency(view.graph, view.node, candidates)
            self._tape = loss_of(handle)
            return handle.candidate_gradients(grad(self._tape, handle.values))
        adjacency = Tensor(view.graph.dense_adjacency(), requires_grad=True)
        self._tape = loss_of(adjacency)
        gradient = grad(self._tape, adjacency).data
        return (gradient + gradient.T)[view.node, candidates]

    def attack_many(self, graph, victims):
        """Attack every victim; returns results in victim order.

        ``victims`` is an iterable of :class:`VictimSpec`, pipeline
        ``Victim`` objects or ``(node, target_label, budget)`` tuples.
        Each victim runs through :meth:`attack_one`, seeded by its global
        node id, so results are independent of how callers batch or
        shard victims.
        """
        return [self.attack_one(graph, victim) for victim in victims]

    def attack_one(self, graph, victim):
        """Attack one victim, on its locality subgraph when possible.

        Falls back to the full graph whenever the attack does not support
        locality or a scene cannot be built or would not pay.
        """
        spec = coerce_victim(victim)
        with get_tracer().span("attack", attack=self.name, victim=spec.node):
            scene = None
            if self.supports_locality:
                scene = self.build_locality_scene(
                    graph, spec.node, spec.target_label
                )
            if scene is None:
                return self.attack(
                    graph, spec.node, spec.target_label, spec.budget
                )
            return self.attack(
                graph, spec.node, spec.target_label, spec.budget, locality=scene
            )

    def build_locality_scene(
        self, graph, target_node, target_label, max_subgraph_fraction=0.9
    ):
        """Locality scene for one victim, or ``None`` (full-graph path).

        Architectures whose layers declare ``exact_locality = False``
        (GAT: attention coefficients are not degree-offset constants) take
        the declared fallback — full-graph execution, counted as
        ``locality.arch_fallback`` so tests can assert the path is taken
        rather than silently approximated.
        """
        if not getattr(self.model, "exact_locality", True):
            metrics.incr("locality.arch_fallback")
            return None
        endpoints = self._locality_endpoints(graph, target_node, target_label)
        if endpoints is None:
            return None
        nodes, frontier_key = endpoints
        return build_locality_scene(
            graph,
            target_node,
            nodes,
            hops=self.locality_hops,
            max_fraction=max_subgraph_fraction,
            frontier_key=frontier_key,
        )

    def _locality_endpoints(self, graph, target_node, target_label):
        """``(endpoint ids, frontier cache key)`` or ``None`` if unbounded.

        The default covers the paper's attacker setting: with a target
        label the only admissible endpoints are the target-label nodes, a
        set shared by every victim with the same target label (hence the
        cacheable frontier key).  Untargeted victims, whose candidate set
        spans the whole graph, return ``None`` and run on the full graph.
        """
        if target_label is None:
            return None
        label = int(target_label)
        return np.flatnonzero(graph.labels == label), ("label", label)

    # -- helpers --------------------------------------------------------------
    def predict(self, graph, node=None):
        """Model predictions on ``graph`` (see :func:`predict`)."""
        return predict(self.model, graph, node)

    def _candidates(self, graph, target_node, target_label):
        return candidate_nodes(graph, target_node, target_label)

    def _scene_forward(self, scene, view):
        """Per-view dense forward, memoized on the feature slice.

        On the full graph the features never change, so the precomputed
        ``X @ W₁`` is shared across all greedy steps; a locality view slices
        fresh features per step and carries its own boundary degree deficit.
        GCN victims get the specialized :class:`DenseGCNForward`; other
        architectures the generic :class:`DenseModelForward`.
        """
        forward_cls = (
            DenseGCNForward
            if getattr(self.model, "arch", "gcn") == "gcn"
            else DenseModelForward
        )
        features, forward = scene.memo(
            ("dense-forward", id(view.graph.features)),
            lambda: (
                view.graph.features,  # pin the array so the id key stays unique
                forward_cls(
                    self.model,
                    view.graph.features,
                    degree_offset=view.raw_degree_offset,
                ),
            ),
        )
        return forward

    def _finalize(
        self, graph, perturbed, added, target_node, target_label, score_trace=None
    ):
        return AttackResult(
            perturbed_graph=perturbed,
            added_edges=[edge_tuple(u, v) for u, v in added],
            target_node=int(target_node),
            target_label=None if target_label is None else int(target_label),
            original_prediction=self.predict(graph, target_node),
            final_prediction=self.predict(perturbed, target_node),
            score_trace=score_trace or [],
        )
