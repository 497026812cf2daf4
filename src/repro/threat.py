"""Threat-model execution: surrogate-transfer and defense-aware attacks.

Every attack in :mod:`repro.attacks` historically ran in one setting —
white-box (the attacker holds the victim model) and oblivious (it
optimizes against the raw graph; defenses are applied only afterwards).
This module adds the two axes the adaptive-attack literature ("GNN
Explanations are Fragile", "Explainable GNNs Under Fire") shows actually
matter, without touching any attack's inner math:

* **surrogate knowledge** — :func:`surrogate_case` trains an independent
  GCN (its own hidden width, its own init/split/training seed) on the
  *same observed graph*; attacks are built against the surrogate and the
  resulting perturbations are re-evaluated on the true victim model, so
  every cell measures a real transfer gap.  A surrogate trained with the
  victim's own seed and hidden width reproduces the victim's weights
  bit-for-bit (the training pipeline is deterministic), so the surrogate
  axis *provably degenerates* to white-box — the differential tests lean
  on this.
* **preprocess-aware adaptivity** — :func:`adaptive_attack_one` plays the
  defense-in-the-loop game: one perturbation is committed at a time, each
  chosen by running the attack (budget 1) on the defense's
  :meth:`~repro.defense.Defense.attacker_view` of the *current* graph —
  Jaccard/SVD sanitization, or the explainer inspector's anticipated
  prune around the victim — and the loop stops as soon as the simulated
  defended prediction flips.  Purification is thereby part of the
  attacked objective: an edge the sanitizer would drop, or the inspector
  would prune, is visibly useless to the next step, and the attacker
  routes around it instead of wasting budget on it.

:func:`execute_with_threat` is the single entry point; under the default
:class:`~repro.api.specs.ThreatModel` it forwards to
``attack.attack_many`` and is *byte-identical* to the historical path
(asserted by ``tests/test_threat_models.py``).  It runs its victims in
the calling process: the arena's per-cell pool map calls it once per
victim, inside that victim's unit of work.
"""

from __future__ import annotations

from dataclasses import replace

from repro.api.specs import ThreatModel
from repro.attacks.base import AttackResult, VictimSpec, coerce_victim, predict
from repro.obs.tracer import get_tracer

__all__ = [
    "SURROGATE_SEED_OFFSET",
    "resolve_threat",
    "surrogate_case",
    "reanchor_result",
    "adaptive_attack_one",
    "execute_with_threat",
]

#: Seed offset of a default surrogate's training pipeline relative to the
#: cell seed — far from every other convention (attack +21, PG +31,
#: inspector +41, sweeps +51..53), so a default surrogate never shares a
#: random stream with anything the victim side does.
SURROGATE_SEED_OFFSET = 61


def resolve_threat(threat, config, seed, arch="gcn"):
    """Fill a threat model's open fields to concrete, hashable values.

    ``surrogate_hidden`` defaults to the config's hidden width and
    ``surrogate_seed`` to ``seed + SURROGATE_SEED_OFFSET`` (``seed`` is
    the cell seed, i.e. the victim's training seed); an adaptive threat's
    ``defense_params`` default to the defense's declared config-fed
    operating point.  ``surrogate_arch`` is normalized against the
    *victim* architecture ``arch``: an explicit same-arch surrogate
    collapses to ``None`` (the "victim's own architecture" default), so
    it stays invisible in store keys exactly like every other default.
    Store keys always hash the *resolved* threat, so a grid that spells
    the defaults out and one that leaves them open share every key.
    """
    threat = ThreatModel.parse(threat)
    if threat.is_surrogate:
        surrogate_arch = threat.surrogate_arch
        if surrogate_arch is not None and str(surrogate_arch) == str(arch):
            surrogate_arch = None
        threat = replace(
            threat,
            surrogate_hidden=(
                int(config.hidden)
                if threat.surrogate_hidden is None
                else int(threat.surrogate_hidden)
            ),
            surrogate_seed=(
                int(seed) + SURROGATE_SEED_OFFSET
                if threat.surrogate_seed is None
                else int(threat.surrogate_seed)
            ),
            surrogate_arch=surrogate_arch,
        )
    if threat.is_adaptive and not threat.defense_params:
        from repro.api.registry import defense_spec

        threat = replace(
            threat, defense_params=defense_spec(threat.defense, config).params
        )
    return threat


def surrogate_case(case, hidden=None, seed=None, arch=None, memo=None):
    """An attacker-side :class:`~repro.experiments.PreparedCase`.

    Trains an independent model on the *observed* graph (``case.graph``)
    through the victim's own training code,
    :func:`repro.experiments.pipeline.train_case` — split seeded
    ``seed + 1``, init/dropout RNG seeded ``seed + 2``, the config's
    training knobs — so a surrogate with the
    victim's own ``seed``, ``hidden`` and ``arch`` reproduces the victim
    model bit-for-bit, and any other setting gives a genuinely
    independent estimator of the same decision surface.  ``arch``
    defaults to the victim case's architecture; naming a different one
    yields the cross-architecture transfer setting (e.g. a GCN surrogate
    attacking a GAT victim).

    ``memo`` (a mutable dict, e.g. a Session's cache) holds one surrogate
    per ``(case, hidden, seed, arch)``; the victim case is pinned in the
    value so its ``id`` key cannot be recycled while the entry is alive.
    """
    from repro.experiments.pipeline import train_case

    config = case.config
    hidden = config.hidden if hidden is None else int(hidden)
    seed = case.seed + SURROGATE_SEED_OFFSET if seed is None else int(seed)
    arch = getattr(case, "arch", "gcn") if arch is None else str(arch)
    key = ("surrogate-case", id(case), hidden, seed, arch)
    if memo is not None and key in memo:
        return memo[key][1]

    with get_tracer().span("surrogate-training", arch=arch):
        surrogate = train_case(
            case.graph, replace(config, hidden=hidden), seed, arch
        )
    if memo is not None:
        memo[key] = (case, surrogate)
    return surrogate


def reanchor_result(inner, graph, victim_model):
    """Map an attack result computed on an attacker view onto reality.

    ``inner`` was produced on a surrogate model and/or a sanitized view of
    ``graph``; the deployed perturbation is the recorded edge operations
    replayed on the raw graph, and the outcome is the *victim* model's
    prediction flip.  Operations that are no-ops on the raw graph
    (removing an edge the sanitizer had already dropped, re-adding an edge
    that really exists) are discarded, so the recorded ``history`` /
    ``added_edges`` replay through :meth:`AttackResult.from_dict` to
    exactly the perturbed graph evaluated here — the store round-trip
    stays bit-exact.
    """
    true_edges = graph.edge_set()
    history = [
        (tag, edge)
        for tag, edge in inner.history
        if tag != "removed" or edge in true_edges
    ]
    removed = [edge for tag, edge in history if tag == "removed"]
    base = graph.with_edges_removed(removed) if removed else graph
    base_edges = base.edge_set()
    added = [edge for edge in inner.added_edges if edge not in base_edges]
    perturbed = base.with_edges_added(added) if added else base
    return AttackResult(
        perturbed_graph=perturbed,
        added_edges=added,
        target_node=inner.target_node,
        target_label=inner.target_label,
        original_prediction=predict(victim_model, graph, inner.target_node),
        final_prediction=predict(victim_model, perturbed, inner.target_node),
        history=history,
        score_trace=inner.score_trace,
    )


def adaptive_attack_one(attack, graph, spec, defense, victim_model):
    """Defense-in-the-loop greedy attack on one victim.

    The preprocess-aware game, played receding-horizon: at every step the
    attacker simulates the defense on the current graph — stopping as soon
    as the *defended* prediction has flipped (the adaptive objective; an
    oblivious attacker keeps spending budget on edges the defense then
    neutralizes) — and otherwise re-plans a full-budget campaign on the
    defense's :meth:`~repro.defense.Defense.attacker_view` of the current
    graph and commits the plan's first *fresh* move.  Freshness is judged
    against reality, not the view: a committed edge the sanitizer hides
    from the view gets re-planned by the inner attack, filtered out as a
    no-op here, and the plan's next move is committed instead — the
    attacker routes around the defense rather than re-buying edges it
    already owns.  Every committed move costs one unit of the real
    budget, neutralized or not.

    The returned result is anchored on the raw ``graph`` and scored by
    ``victim_model``, like every threat-model execution.
    """
    spec = coerce_victim(spec)
    clean_prediction = attack.predict(graph, spec.node)
    base = graph
    journal = []  # chronological ("added" | "removed", edge) commits
    trace = []
    for _ in range(int(spec.budget)):
        if journal and defense.predict(base, spec.node) != clean_prediction:
            break  # the simulated defended prediction is already flipped
        view = defense.attacker_view(base, spec.node)
        inner = attack.attack_one(
            view, VictimSpec(spec.node, spec.target_label, spec.budget)
        )
        base_edges = base.edge_set()
        fresh = [
            (tag, edge)
            for tag, edge in inner.history
            if tag == "removed" and edge in base_edges
        ]
        fresh += [
            ("added", edge)
            for edge in inner.added_edges
            if edge not in base_edges
        ]
        if not fresh:
            break  # nothing new to commit: the attacker is out of moves
        tag, edge = fresh[0]
        base = (
            base.with_edges_removed([edge])
            if tag == "removed"
            else base.with_edges_added([edge])
        )
        journal.append((tag, edge))
        trace.extend(inner.score_trace)

    final_edges = base.edge_set()
    original_edges = graph.edge_set()
    added, removed, seen = [], [], set()
    for tag, edge in journal:
        if edge in seen:
            continue
        if tag == "added" and edge in final_edges and edge not in original_edges:
            added.append(edge)
            seen.add(edge)
        elif (
            tag == "removed"
            and edge in original_edges
            and edge not in final_edges
        ):
            removed.append(edge)
            seen.add(edge)
    return AttackResult(
        perturbed_graph=base,
        added_edges=added,
        target_node=int(spec.node),
        target_label=(
            None if spec.target_label is None else int(spec.target_label)
        ),
        original_prediction=predict(victim_model, graph, spec.node),
        final_prediction=predict(victim_model, base, spec.node),
        history=[("removed", edge) for edge in removed],
        score_trace=trace,
    )


def execute_with_threat(attack, case, victims, threat=None, defense=None):
    """Attack every victim, in this process, under a threat model.

    Returns results in victim order.

    Parameters
    ----------
    attack:
        The attack instance, already built against the attacker's model —
        the victim model for white-box threats, a :func:`surrogate_case`
        model for surrogate threats.
    case:
        The *victim* :class:`~repro.experiments.PreparedCase`: its graph
        is the raw reality every perturbation lands on, and its model is
        the oracle that scores the outcome.
    threat:
        A (resolved or not) :class:`~repro.api.specs.ThreatModel`; the
        default forwards to ``attack.attack_many`` unchanged — byte-
        identical to the historical execution path.
    defense:
        The adaptive attacker's *simulation* of the adapted defense
        (required for ``preprocess_aware`` threats); see
        :func:`adaptive_attack_one` for the defense-in-the-loop game it
        drives.  For surrogate knowledge this simulation is built over
        the surrogate model — the attacker cannot simulate a defense
        around weights it does not have.
    """
    threat = ThreatModel() if threat is None else ThreatModel.parse(threat)
    specs = [coerce_victim(victim) for victim in victims]
    graph = case.graph
    if threat.is_default:
        return attack.attack_many(graph, specs)
    if threat.is_adaptive and defense is None:
        raise ValueError(
            "preprocess_aware execution needs the adapted defense instance"
        )
    victim_model = case.model
    if threat.is_adaptive:
        return [
            adaptive_attack_one(attack, graph, spec, defense, victim_model)
            for spec in specs
        ]
    return [
        reanchor_result(attack.attack_one(graph, spec), graph, victim_model)
        for spec in specs
    ]
