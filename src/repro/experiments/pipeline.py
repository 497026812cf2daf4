"""The per-run experiment pipeline: train → pick victims → attack → inspect.

Implements the paper's protocol (Section 5.1):

1. train a 2-layer GCN on the clean graph (10/10/80 split);
2. select victims: ``margin_group`` most-confident + ``margin_group``
   least-confident correctly-classified test nodes, rest random;
3. derive each victim's *specific target label* by running plain FGA and
   keeping the label it flips to (victims FGA cannot flip are dropped —
   "we use these successfully attacked nodes to evaluate");
4. run an attack per victim with budget Δ = degree (evasion setting);
5. explain the victim's prediction on the perturbed graph and compute the
   detection metrics over the adversarial edges.

Steps 1–3 live here.  Steps 4–5 run in the façade's shared engine,
:func:`repro.api.session.iter_method_events` (drained by
:func:`repro.api.session.evaluate_method` and :meth:`repro.api.Session.run`);
only the feature-space mirror, :func:`evaluate_feature_attack_method`,
keeps its own loop here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attacks import FGA, VictimSpec
from repro.autodiff.tensor import Tensor, no_grad
from repro.datasets import load_dataset, random_split
from repro.experiments.reporting import summarize_reports
from repro.metrics import (
    attack_success_rate,
    attack_success_rate_targeted,
    prediction_margin,
)
from repro.nn import build_model, train_node_classifier
from repro.obs.tracer import get_tracer
from repro.parallel import parallel_map

__all__ = [
    "PreparedCase",
    "Victim",
    "MethodEvaluation",
    "prepare_case",
    "select_victims",
    "derive_target_labels",
    "evaluate_feature_attack_method",
]


@dataclass
class PreparedCase:
    """A trained model on a dataset instance, ready to be attacked."""

    graph: object
    split: object
    model: object
    probabilities: np.ndarray
    predictions: np.ndarray
    test_accuracy: float
    config: object
    seed: int
    #: Victim architecture (:data:`repro.nn.ARCHITECTURES` name).  The
    #: default ``"gcn"`` is the historical setting and stays invisible in
    #: store keys (see :func:`repro.arena.grid.cell_config`).
    arch: str = "gcn"


@dataclass(frozen=True)
class Victim:
    """A target node with its attack budget and derived target label."""

    node: int
    degree: int
    target_label: int

    @property
    def budget(self):
        return max(1, self.degree)


@dataclass
class MethodEvaluation:
    """Aggregated metrics of one attack method over a victim set."""

    method: str
    asr: float
    asr_t: float
    precision: float
    recall: float
    f1: float
    ndcg: float
    per_victim: list = field(default_factory=list)

    def row(self):
        """Metric dict in paper order (values in [0, 1])."""
        return {
            "ASR": self.asr,
            "ASR-T": self.asr_t,
            "Precision": self.precision,
            "Recall": self.recall,
            "F1": self.f1,
            "NDCG": self.ndcg,
        }


def prepare_case(dataset_name, config, seed=None, arch="gcn"):
    """Generate the dataset, train the victim, cache clean predictions.

    ``arch`` selects the victim architecture (:func:`repro.nn.build_model`);
    the default ``"gcn"`` reproduces the historical pipeline byte-for-byte
    (same RNG consumption, same operator).
    """
    seed = config.seed if seed is None else int(seed)
    arch = "gcn" if arch is None else str(arch)
    with get_tracer().span("case-prep", dataset=dataset_name):
        graph = load_dataset(dataset_name, scale=config.dataset_scale, seed=seed)
        return train_case(graph, config, seed, arch)


def train_case(graph, config, seed, arch):
    """Train an ``arch`` model on ``graph``; the :class:`PreparedCase`.

    The case conventions shared by victims and surrogates: split seeded
    ``seed + 1``, init/dropout RNG seeded ``seed + 2``, ``config.hidden``
    and the config's training knobs, clean predictions cached from one
    no-grad forward pass.
    """
    split = random_split(graph.num_nodes, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    model = build_model(
        arch,
        graph.num_features,
        config.hidden,
        graph.num_classes,
        rng,
        config.dropout,
    )
    normalized = model.normalize(graph.adjacency)
    result = train_node_classifier(
        model,
        normalized,
        graph.features,
        graph.labels,
        split.train,
        split.val,
        split.test,
        epochs=config.epochs,
        lr=config.learning_rate,
        weight_decay=config.weight_decay,
    )
    with no_grad():
        logits = model(normalized, Tensor(graph.features))
    exp = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    probabilities = exp / exp.sum(axis=1, keepdims=True)
    return PreparedCase(
        graph=graph,
        split=split,
        model=model,
        probabilities=probabilities,
        predictions=probabilities.argmax(axis=1),
        test_accuracy=result.test_accuracy,
        config=config,
        seed=seed,
        arch=arch,
    )


def select_victims(case, rng=None):
    """The paper's victim protocol: margin extremes + random remainder.

    Only correctly-classified test nodes within the configured degree range
    are eligible (an attack on an already-wrong prediction is meaningless).
    """
    config = case.config
    rng = rng or np.random.default_rng(case.seed + 3)
    graph = case.graph
    degrees = graph.degrees()
    eligible = np.array(
        [
            node
            for node in case.split.test
            if case.predictions[node] == graph.labels[node]
            and config.min_degree <= degrees[node] <= config.max_degree
        ],
        dtype=np.int64,
    )
    if eligible.size == 0:
        return np.array([], dtype=np.int64)
    margins = np.array(
        [
            prediction_margin(case.probabilities[node], case.predictions[node])
            for node in eligible
        ]
    )
    order = np.argsort(margins)
    group = min(config.margin_group, eligible.size // 3 + 1)
    lowest = eligible[order[:group]]
    highest = eligible[order[-group:]] if group else np.array([], dtype=np.int64)
    chosen = set(lowest.tolist()) | set(highest.tolist())
    remainder = np.array(
        [node for node in eligible if node not in chosen], dtype=np.int64
    )
    extra_needed = max(0, config.num_victims - len(chosen))
    if remainder.size and extra_needed:
        extra = rng.choice(
            remainder, size=min(extra_needed, remainder.size), replace=False
        )
        chosen |= set(int(v) for v in extra)
    return np.array(sorted(chosen), dtype=np.int64)


def derive_target_labels(case, victim_nodes):
    """Run plain FGA per victim; keep flips as the specific target labels."""
    config = case.config
    degrees = case.graph.degrees()
    fga = FGA(case.model, seed=case.seed + 4)
    victims = []
    for node in victim_nodes:
        node = int(node)
        budget = min(max(1, int(degrees[node])), config.budget_cap)
        result = fga.attack(case.graph, node, None, budget)
        if result.misclassified:
            victims.append(
                Victim(
                    node=node,
                    degree=int(degrees[node]),
                    target_label=int(result.final_prediction),
                )
            )
    return victims


class _TruncatedExplanation:
    """Adapter: a pre-truncated ranked edge list with the Explanation API."""

    def __init__(self, ranked_edges):
        self._ranked = list(ranked_edges)

    def ranking(self):
        return self._ranked


def evaluate_feature_attack_method(
    case, attack, victims, explainer_factory, flip_budget=None, jobs=1
):
    """Feature-space mirror of :func:`repro.api.session.evaluate_method`.

    The attack flips victim feature bits instead of adding edges; the
    inspector is an explainer with a feature mask
    (``GNNExplainer(explain_features=True)``) and detection is measured on
    the ranked *feature* list via
    :func:`repro.metrics.feature_detection_report`.

    ``flip_budget`` decouples the word-flip budget from the edge protocol's
    Δ = degree: one planted word moves a prediction far less than one edge,
    so feature attacks get a fixed budget (default: the config's
    ``budget_cap``) rather than the victim's degree.  ``jobs`` behaves as
    in :func:`repro.api.session.evaluate_method`, and the detection
    cut-off is the config's ``detection_k``.
    """
    from repro.metrics import feature_detection_report

    config = case.config
    k = int(config.detection_k)
    budget = int(config.budget_cap if flip_budget is None else flip_budget)

    def evaluate_one(victim):
        result = attack.attack_one(
            case.graph, VictimSpec(victim.node, victim.target_label, budget)
        )
        if result.flipped_features:
            explainer = explainer_factory(result.perturbed_graph)
            explanation = explainer.explain_node(
                result.perturbed_graph, victim.node
            )
            report = feature_detection_report(
                explanation, result.flipped_features, k=k
            )
        else:
            report = {"precision": 0.0, "recall": 0.0, "f1": 0.0, "ndcg": 0.0}
        row = {
            "node": victim.node,
            "degree": victim.degree,
            "target_label": victim.target_label,
            "hit_target": result.hit_target,
            "misclassified": result.misclassified,
            **report,
        }
        # As in the edge engine: keep pool transfers graph-free.
        result.perturbed_graph = None
        return result, report, row

    outcomes = parallel_map(evaluate_one, victims, jobs=jobs)
    results = [result for result, _, _ in outcomes]
    reports = [report for _, report, _ in outcomes]
    per_victim = [row for _, _, row in outcomes]

    return MethodEvaluation(
        method=attack.name,
        asr=attack_success_rate(results),
        asr_t=attack_success_rate_targeted(results),
        per_victim=per_victim,
        **summarize_reports(reports),
    )
