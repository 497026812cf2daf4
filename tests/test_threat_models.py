"""Differential harness for threat-model execution (mirrors the locality
suite): the new axis must change *only* what it claims to change.

Three contracts, enumerated over the full attack registry so a newly
registered attack is covered with no test edits:

* **default ≡ legacy** — ``execute_with_threat`` under the default
  (white-box oblivious) threat model is byte-identical to
  ``attack.attack_many``: same edge sets, same ASR events, same score
  traces, same serialized records.
* **degenerate surrogate ≡ white-box** — a surrogate trained with the
  victim's own seed and hidden width reproduces the victim model
  bit-for-bit (the training pipeline is deterministic), so surrogate
  execution with ``surrogate_seed == victim_seed`` collapses to the
  white-box path exactly.
* **adaptive execution is sound** — budget respected, perturbations
  anchored on the raw graph, store round-trip replay exact, and the
  defense-in-the-loop game actually changes the attacker's behavior
  against a sanitizing defense.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.api.registry import build_attack, build_defense
from repro.api.session import Session
from repro.api.specs import ThreatModel
from repro.arena.grid import ScenarioGrid, validate_grid
from repro.attacks import ATTACKS, EXTENSION_ATTACKS, AttackResult, VictimSpec
from repro.defense import DEFENSES
from repro.nn import ARCHITECTURES
from repro.threat import (
    SURROGATE_SEED_OFFSET,
    adaptive_attack_one,
    execute_with_threat,
    resolve_threat,
    surrogate_case,
)

REGISTRY = sorted({**ATTACKS, **EXTENSION_ATTACKS})

#: Trimmed to seconds per attack; every knob pinned so drift cannot
#: silently change what the differentials compare.
CONFIG = replace(
    Session().config,
    epochs=60,
    num_victims=3,
    margin_group=1,
    explainer_epochs=20,
    geattack_inner_steps=2,
    budget_cap=3,
)


@pytest.fixture(scope="module")
def session():
    return Session(config=CONFIG)


@pytest.fixture(scope="module")
def case(session):
    prepared, victims = session.prepared("cora")
    if not victims:
        pytest.skip("no flippable victims at this scale")
    return prepared


@pytest.fixture(scope="module")
def victims(session):
    derived = session.prepared("cora")[1]
    return [
        VictimSpec(v.node, v.target_label, min(v.budget, CONFIG.budget_cap))
        for v in derived
    ]


def assert_results_byte_identical(expected, actual, context):
    assert len(expected) == len(actual), context
    for one, two in zip(expected, actual):
        assert one.to_dict() == two.to_dict(), context
        assert (
            one.perturbed_graph.edge_set() == two.perturbed_graph.edge_set()
        ), context


@pytest.mark.parametrize("name", REGISTRY)
class TestDefaultThreatIsLegacyPath:
    def test_byte_identical_to_attack_many(self, name, session, case, victims):
        attack = build_attack(name, case, CONFIG, context=session)
        legacy = attack.attack_many(case.graph, victims)
        for threat in (None, ThreatModel(), "white_box+oblivious"):
            routed = execute_with_threat(
                attack, case, victims, threat=threat
            )
            assert_results_byte_identical(
                legacy, routed, f"{name} threat={threat!r}"
            )


@pytest.mark.parametrize("name", REGISTRY)
class TestSurrogateDegeneracy:
    def test_victim_seed_surrogate_is_white_box(
        self, name, session, case, victims
    ):
        """surrogate_seed == victim seed, same hidden → byte-identical."""
        degenerate = ThreatModel(
            knowledge="surrogate",
            surrogate_hidden=CONFIG.hidden,
            surrogate_seed=case.seed,
        )
        white_box = build_attack(name, case, CONFIG, context=session)
        legacy = white_box.attack_many(case.graph, victims)
        attack = build_attack(
            name, case, CONFIG, context=session, threat=degenerate
        )
        routed = execute_with_threat(attack, case, victims, threat=degenerate)
        assert_results_byte_identical(legacy, routed, name)


class TestSurrogateTraining:
    def test_degenerate_twin_reproduces_victim_weights(self, session, case):
        twin = session.surrogate_case(case, hidden=CONFIG.hidden, seed=case.seed)
        for (name, ours), (_, theirs) in zip(
            case.model.state_dict().items(), twin.model.state_dict().items()
        ):
            assert np.array_equal(ours, theirs), name

    def test_independent_seed_gives_independent_model(self, session, case):
        surrogate = session.surrogate_case(case)
        assert surrogate.seed == case.seed + SURROGATE_SEED_OFFSET
        assert surrogate.graph is case.graph, "surrogate observes the graph"
        different = any(
            not np.array_equal(ours, theirs)
            for (_, ours), (_, theirs) in zip(
                case.model.state_dict().items(),
                surrogate.model.state_dict().items(),
            )
        )
        assert different, "an offset-seeded surrogate must not be the victim"

    def test_surrogate_is_memoized(self, session, case):
        assert session.surrogate_case(case) is session.surrogate_case(case)

    def test_surrogate_results_reanchor_on_victim_model(
        self, session, case, victims
    ):
        """Predictions in surrogate results come from the victim oracle."""
        threat = resolve_threat(ThreatModel.parse("surrogate"), CONFIG, case.seed)
        attack = build_attack(
            "FGA-T", case, CONFIG, context=session, threat=threat
        )
        results = execute_with_threat(attack, case, victims, threat=threat)
        from repro.attacks.base import Attack

        oracle = Attack(case.model)
        for spec, result in zip(victims, results):
            assert result.original_prediction == oracle.predict(
                case.graph, spec.node
            )
            assert result.final_prediction == oracle.predict(
                result.perturbed_graph, spec.node
            )
            assert all(
                edge not in case.graph.edge_set() for edge in result.added_edges
            )


class TestSurrogateDegeneracyPerArch:
    """The degeneracy contract holds for every registered architecture."""

    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    def test_degenerate_twin_reproduces_victim_weights(self, session, arch):
        """A surrogate with the victim's own arch/seed/hidden *is* the
        victim, bit for bit — the training pipeline is deterministic."""
        prepared, _ = session.prepared("cora", arch=arch)
        twin = session.surrogate_case(
            prepared, hidden=CONFIG.hidden, seed=prepared.seed
        )
        assert twin.model.arch == arch
        for (name, ours), (_, theirs) in zip(
            prepared.model.state_dict().items(),
            twin.model.state_dict().items(),
        ):
            assert np.array_equal(ours, theirs), f"{arch}:{name}"

    def test_cross_arch_surrogate_is_a_different_model(self, session, case):
        surrogate = session.surrogate_case(case, arch="gat")
        assert case.model.arch == "gcn"
        assert surrogate.model.arch == "gat"
        assert surrogate.graph is case.graph, "surrogate observes the graph"

    def test_cross_arch_transfer_cell_round_trips_exactly(
        self, session, case, victims
    ):
        """A GAT-surrogate attack on the GCN victim: results re-anchor on
        the true victim oracle and replay from their records exactly."""
        threat = resolve_threat(
            ThreatModel.parse("surrogate:gat"), CONFIG, case.seed
        )
        assert threat.surrogate_arch == "gat"
        attack = build_attack(
            "FGA-T", case, CONFIG, context=session, threat=threat
        )
        results = execute_with_threat(attack, case, victims, threat=threat)
        from repro.attacks.base import Attack

        oracle = Attack(case.model)
        for spec, result in zip(victims, results):
            replayed = AttackResult.from_dict(
                result.to_dict(), graph=case.graph
            )
            assert replayed.to_dict() == result.to_dict()
            assert (
                replayed.perturbed_graph.edge_set()
                == result.perturbed_graph.edge_set()
            )
            assert result.original_prediction == oracle.predict(
                case.graph, spec.node
            )
            assert result.final_prediction == oracle.predict(
                result.perturbed_graph, spec.node
            )


@pytest.fixture(scope="module")
def jaccard_sim(case):
    return build_defense("jaccard", case, config=CONFIG)


@pytest.fixture(scope="module")
def explainer_sim(session, case):
    return build_defense(
        "explainer",
        case,
        config=CONFIG,
        context=session,
        prune_k=CONFIG.budget_cap,
        trusted_edges=case.graph.edge_set(),
    )


class TestAdaptiveExecution:
    def test_requires_the_defense_simulation(self, session, case, victims):
        attack = build_attack("FGA-T", case, CONFIG, context=session)
        with pytest.raises(ValueError, match="defense"):
            execute_with_threat(
                attack, case, victims, threat="adaptive:jaccard"
            )

    @pytest.mark.parametrize("name", ["FGA-T", "GEAttack", "DICE"])
    def test_budget_and_anchoring(
        self, name, session, case, victims, jaccard_sim
    ):
        attack = build_attack(name, case, CONFIG, context=session)
        clean_edges = case.graph.edge_set()
        for spec in victims:
            result = adaptive_attack_one(
                attack, case.graph, spec, jaccard_sim, case.model
            )
            spent = len(result.added_edges) + len(result.history)
            assert spent <= spec.budget, name
            assert all(e not in clean_edges for e in result.added_edges)
            assert all(
                edge in clean_edges for tag, edge in result.history
            ), "recorded removals must exist on the raw graph"
            assert (
                result.perturbed_graph.edge_set()
                == (clean_edges - {e for _, e in result.history})
                | set(result.added_edges)
            )

    @pytest.mark.parametrize("sim", ["jaccard_sim", "explainer_sim"])
    def test_store_round_trip_is_exact(
        self, sim, request, session, case, victims
    ):
        """Adaptive results replay from their records bit-for-bit."""
        defense = request.getfixturevalue(sim)
        attack = build_attack("FGA-T", case, CONFIG, context=session)
        for spec in victims:
            result = adaptive_attack_one(
                attack, case.graph, spec, defense, case.model
            )
            replayed = AttackResult.from_dict(result.to_dict(), graph=case.graph)
            assert replayed.to_dict() == result.to_dict()
            assert (
                replayed.perturbed_graph.edge_set()
                == result.perturbed_graph.edge_set()
            )

    def test_defense_in_the_loop_changes_behavior(
        self, session, case, victims, jaccard_sim
    ):
        """Adapting to a sanitizer must alter at least one victim's attack."""
        attack = build_attack("FGA-T", case, CONFIG, context=session)
        oblivious = attack.attack_many(case.graph, victims)
        adapted = [
            adaptive_attack_one(attack, case.graph, spec, jaccard_sim, case.model)
            for spec in victims
        ]
        assert any(
            one.added_edges != two.added_edges
            or one.history != two.history
            for one, two in zip(oblivious, adapted)
        ), "the adaptive attacker never deviated from the oblivious path"

    def test_explainer_view_anticipates_the_prune(
        self, case, victims, explainer_sim
    ):
        """After committing an edge, the attacker's view shows it pruned."""
        spec = victims[0]
        assert explainer_sim.attacker_view(case.graph, spec.node) is case.graph
        endpoint = next(
            node
            for node in range(case.graph.num_nodes)
            if node != spec.node
            and (min(node, spec.node), max(node, spec.node))
            not in case.graph.edge_set()
        )
        edge = (min(endpoint, spec.node), max(endpoint, spec.node))
        perturbed = case.graph.with_edges_added([edge])
        view = explainer_sim.attacker_view(perturbed, spec.node)
        outcome = explainer_sim.inspect(perturbed, spec.node)
        assert view.edge_set() == perturbed.edge_set() - set(
            outcome.pruned_edges
        )


class TestResolveThreat:
    def test_default_passes_through(self):
        assert resolve_threat(ThreatModel(), CONFIG, 0).is_default

    def test_surrogate_defaults_resolve(self):
        resolved = resolve_threat("surrogate", CONFIG, 5)
        assert resolved.surrogate_hidden == CONFIG.hidden
        assert resolved.surrogate_seed == 5 + SURROGATE_SEED_OFFSET

    def test_adaptive_defense_params_resolve(self):
        resolved = resolve_threat("adaptive:explainer", CONFIG, 0)
        assert dict(resolved.defense_params) == {
            "inspection_window": CONFIG.explanation_size
        }

    def test_explicit_fields_are_preserved(self):
        resolved = resolve_threat("surrogate:h8,s3", CONFIG, 5)
        assert resolved.surrogate_hidden == 8
        assert resolved.surrogate_seed == 3


class TestParseErrors:
    """Malformed --threat tokens must raise clean ValueErrors."""

    def test_unknown_part_is_rejected(self):
        with pytest.raises(ValueError, match="bad threat part 'blackbox'"):
            ThreatModel.parse("blackbox")

    def test_adaptive_without_defense_is_rejected(self):
        with pytest.raises(ValueError, match="bad threat part 'adaptive'"):
            ThreatModel.parse("adaptive")

    def test_malformed_surrogate_suffix_is_rejected(self):
        # 'x8' is a well-formed arch token since the architecture axis;
        # '8x' is neither h<int>, s<int> nor an identifier.
        with pytest.raises(ValueError, match="bad surrogate token '8x'"):
            ThreatModel.parse("surrogate:8x")
        with pytest.raises(ValueError, match="bad surrogate token 'h'"):
            ThreatModel.parse("surrogate:h,s3")
        with pytest.raises(ValueError, match="duplicate surrogate arch"):
            ThreatModel.parse("surrogate:gat,gin")

    def test_duplicate_knowledge_axis_is_rejected(self):
        with pytest.raises(ValueError, match="duplicate knowledge axis"):
            ThreatModel.parse("surrogate+surrogate:h8")
        with pytest.raises(ValueError, match="duplicate knowledge axis"):
            ThreatModel.parse("white_box+surrogate")

    def test_duplicate_adaptivity_axis_is_rejected(self):
        with pytest.raises(ValueError, match="duplicate adaptivity axis"):
            ThreatModel.parse("adaptive:jaccard+adaptive:svd")
        with pytest.raises(ValueError, match="duplicate adaptivity axis"):
            ThreatModel.parse("oblivious+preprocess_aware:jaccard")

    def test_explicit_defaults_still_parse(self):
        # The CLI's default token spells out both axes once each.
        assert ThreatModel.parse("white_box+oblivious").is_default
        assert ThreatModel.parse("").is_default
        assert ThreatModel.parse("surrogate:h8+adaptive:jaccard").defense == (
            "jaccard"
        )


class TestValidateGrid:
    """validate_grid names the first unknown registry entry on any axis."""

    def test_every_registered_name_passes(self):
        grid = ScenarioGrid(
            attacks=tuple(REGISTRY),
            defenses=tuple(sorted(DEFENSES)),
            archs=tuple(sorted(ARCHITECTURES)),
            threats=(
                "white_box",
                "surrogate:gat",
                *(f"adaptive:{name}" for name in sorted(DEFENSES)),
            ),
        )
        assert validate_grid(grid) is None

    @pytest.mark.parametrize(
        "axes, fragment",
        [
            ({"datasets": ("CORA",)}, "unknown dataset 'CORA'"),
            ({"attacks": ("FGA-T", "FGA-X")}, "unknown attack 'FGA-X'"),
            ({"defenses": ("none", "bogus")}, "unknown defense 'bogus'"),
            ({"archs": ("gcn", "mlp")}, "unknown architecture 'mlp'"),
            (
                {"threats": ("adaptive:bogus",)},
                "unknown adapted defense 'bogus'",
            ),
            (
                {"threats": ("surrogate:x8",)},
                "unknown surrogate architecture 'x8'",
            ),
        ],
    )
    def test_unknown_name_raises_key_error(self, axes, fragment):
        with pytest.raises(KeyError, match=fragment):
            validate_grid(ScenarioGrid(**axes))

    def test_first_unknown_axis_wins(self):
        # Attacks are checked before defenses: one grid, one message.
        grid = ScenarioGrid(attacks=("FGA-X",), defenses=("bogus",))
        with pytest.raises(KeyError, match="unknown attack 'FGA-X'"):
            validate_grid(grid)
