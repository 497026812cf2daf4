"""Spec round-trips and store-key compatibility of the repro.api façade.

Three contracts guard the refactor:

1. **Round-trip exactness** — ``Spec.from_dict(spec.to_dict()) == spec``
   for every registered attack, defense and explainer, and
   ``cell_from_config(cell_config(cell, config)) == cell`` for every
   cell, so specs and cells can travel through JSON losslessly.
2. **Store-key compatibility** — generated cell configs hash to
   byte-identical content keys as the pre-refactor hand-maintained
   implementation (frozen below), so arena stores written before the spec
   layer existed stay warm after it.
3. **Threat-axis key compatibility** — a default (white-box oblivious)
   threat model is invisible to the key: every default-threat cell hashes
   to the exact SHA-256 recorded *before the threat axis existed*
   (``tests/data/legacy_store_keys.json``, generated at the pre-threat
   commit and frozen), while any non-default threat moves the key.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.api.registry import EXPLAINERS, attack_spec, defense_spec
from repro.api.specs import AttackSpec, DefenseSpec, ExplainerSpec, ThreatModel
from repro.arena.grid import (
    SCHEMA_VERSION,
    ScenarioCell,
    canonical_json,
    cell_config,
    cell_from_config,
    content_key,
    victim_key,
)
from repro.attacks import ATTACKS, EXTENSION_ATTACKS, AttackResult, VictimSpec
from repro.datasets import load_dataset
from repro.defense import DEFENSES
from repro.experiments import SCALE_PRESETS, ExperimentConfig

SMOKE = SCALE_PRESETS["smoke"]
#: A second operating point, to prove keys react to every scoped knob.
TWEAKED = ExperimentConfig(
    dataset_scale=0.08,
    geattack_lam=1.5,
    geattack_inner_steps=7,
    geattack_inner_lr=0.2,
    explainer_epochs=33,
    explanation_size=11,
    pg_epochs=4,
    pg_instances=3,
)

EDGE_ATTACKS = sorted({**ATTACKS, **EXTENSION_ATTACKS})


def legacy_attack_params(name, config):
    """Frozen copy of the pre-refactor ``arena.grid._attack_params``."""
    if name == "GEAttack":
        return {
            "lam": config.geattack_lam,
            "inner_steps": config.geattack_inner_steps,
            "inner_lr": config.geattack_inner_lr,
        }
    if name == "GEAttack-PG":
        return {
            "lam": config.geattack_lam,
            "inner_steps": min(config.geattack_inner_steps, 2),
            "pg_epochs": config.pg_epochs,
            "pg_instances": config.pg_instances,
        }
    if name == "FGA-T&E":
        return {
            "explainer_epochs": config.explainer_epochs,
            "explanation_size": config.explanation_size,
        }
    return {}


def legacy_cell_config(cell, config):
    """Frozen copy of the pre-refactor ``arena.grid.cell_config``."""
    return {
        "schema": 1,
        "dataset": {"name": cell.dataset, "scale": config.dataset_scale},
        "model": {
            "hidden": cell.hidden,
            "epochs": config.epochs,
            "learning_rate": config.learning_rate,
            "weight_decay": config.weight_decay,
            "dropout": config.dropout,
        },
        "victim_protocol": {
            "num_victims": config.num_victims,
            "margin_group": config.margin_group,
            "min_degree": config.min_degree,
            "max_degree": config.max_degree,
        },
        "attack": {"name": cell.attack, **legacy_attack_params(cell.attack, config)},
        "budget_cap": cell.budget_cap,
        "seed": cell.seed,
    }


class TestRoundTrips:
    @pytest.mark.parametrize("name", EDGE_ATTACKS)
    @pytest.mark.parametrize("config", [SMOKE, TWEAKED], ids=["smoke", "tweaked"])
    def test_attack_spec_round_trip(self, name, config):
        spec = attack_spec(name, config)
        assert AttackSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("name", sorted(DEFENSES))
    def test_defense_spec_round_trip(self, name):
        spec = defense_spec(name, SMOKE)
        assert DefenseSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("kind", sorted(EXPLAINERS))
    def test_explainer_spec_round_trip(self, kind):
        recipe = EXPLAINERS[kind]
        spec = ExplainerSpec(
            kind, {p.name: p.resolve(SMOKE) for p in recipe.params}
        )
        assert ExplainerSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("name", EDGE_ATTACKS)
    def test_cell_config_round_trip(self, name):
        cell = ScenarioCell("citeseer", 32, name, 5, 3)
        assert cell_from_config(cell_config(cell, TWEAKED)) == cell

    @pytest.mark.parametrize(
        "data",
        [
            [1, 2],
            "x",
            {"schema": SCHEMA_VERSION + 1},
            {"schema": SCHEMA_VERSION},
            {"schema": SCHEMA_VERSION, "dataset": "cora"},
            {
                "schema": SCHEMA_VERSION,
                "dataset": {"name": "cora"},
                "model": [16],
            },
        ],
        ids=["list", "string", "other-schema", "empty", "flat", "model-list"],
    )
    def test_cell_from_config_rejects_malformed(self, data):
        with pytest.raises(ValueError):
            cell_from_config(data)

    def test_with_params_overrides(self):
        spec = attack_spec("GEAttack", SMOKE)
        bumped = spec.with_params(lam=2.5)
        assert dict(bumped.params)["lam"] == 2.5
        assert dict(bumped.params)["inner_steps"] == SMOKE.geattack_inner_steps
        assert dict(spec.params)["lam"] == SMOKE.geattack_lam  # original frozen

    def test_params_canonical_order(self):
        a = AttackSpec("X", {"b": 1, "a": 2})
        b = AttackSpec("X", (("a", 2), ("b", 1)))
        assert a == b


class TestStoreKeyCompatibility:
    """Old stores must stay warm: spec-derived keys ≡ pre-refactor keys."""

    @pytest.mark.parametrize("name", EDGE_ATTACKS)
    @pytest.mark.parametrize("config", [SMOKE, TWEAKED], ids=["smoke", "tweaked"])
    def test_cell_config_bytes_match_legacy(self, name, config):
        cell = ScenarioCell("cora", 16, name, 3, 0)
        assert canonical_json(cell_config(cell, config)) == canonical_json(
            legacy_cell_config(cell, config)
        )

    @pytest.mark.parametrize("name", EDGE_ATTACKS)
    def test_victim_keys_bytes_match_legacy(self, name):
        cell = ScenarioCell("citeseer", 24, name, 4, 7)
        victim = VictimSpec(node=11, target_label=2, budget=3)
        assert victim_key(cell_config(cell, SMOKE), victim) == victim_key(
            legacy_cell_config(cell, SMOKE), victim
        )

    def test_scoped_invalidation(self):
        """Changing a GEAttack knob must not move Nettack's keys."""
        cell_ge = ScenarioCell("cora", 16, "GEAttack", 3, 0)
        cell_ne = ScenarioCell("cora", 16, "Nettack", 3, 0)
        bumped = replace(SMOKE, geattack_lam=9.9)
        assert canonical_json(cell_config(cell_ge, SMOKE)) != canonical_json(
            cell_config(cell_ge, bumped)
        )
        assert canonical_json(cell_config(cell_ne, SMOKE)) == canonical_json(
            cell_config(cell_ne, bumped)
        )


#: Cell-config and victim SHA-256 pairs recorded at the commit *before*
#: the threat axis existed.  Default-threat cells must reproduce them
#: byte-for-byte forever: every key move silently cold-starts every store
#: a user has on disk.
FROZEN_KEYS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "legacy_store_keys.json"
)


class TestFrozenLegacyKeys:
    """Pre-threat-axis stores must resume with zero re-executed attacks."""

    @pytest.fixture(scope="class")
    def frozen(self):
        with open(FROZEN_KEYS_PATH) as handle:
            return json.load(handle)

    @pytest.mark.parametrize("name", EDGE_ATTACKS)
    @pytest.mark.parametrize("label", ["smoke", "tweaked"])
    def test_default_threat_cells_keep_frozen_keys(self, frozen, name, label):
        config = SMOKE if label == "smoke" else TWEAKED
        cell = ScenarioCell("cora", 16, name, 3, 0)
        cfg = cell_config(cell, config)
        entry = frozen[f"{name}/{label}"]
        assert content_key(cfg) == entry["cell_sha"]
        assert (
            victim_key(cfg, VictimSpec(node=11, target_label=2, budget=3))
            == entry["victim_sha"]
        )

    @pytest.mark.parametrize("name", ["GEAttack", "Nettack"])
    def test_off_default_cells_keep_frozen_keys(self, frozen, name):
        cell = ScenarioCell("citeseer", 24, name, 4, 7)
        cfg = cell_config(cell, SMOKE)
        entry = frozen[f"{name}/citeseer-h24-b4-s7"]
        assert content_key(cfg) == entry["cell_sha"]
        assert (
            victim_key(cfg, VictimSpec(node=3, target_label=None, budget=2))
            == entry["victim_sha"]
        )

    def test_explicit_default_threat_is_key_invisible(self, frozen):
        explicit = ScenarioCell(
            "cora", 16, "GEAttack", 3, 0, ThreatModel.parse("white_box+oblivious")
        )
        assert (
            content_key(cell_config(explicit, SMOKE))
            == frozen["GEAttack/smoke"]["cell_sha"]
        )

    @pytest.mark.parametrize(
        "threat",
        ["surrogate", "adaptive:jaccard", "surrogate:h8,s3+adaptive:svd"],
    )
    def test_non_default_threats_move_every_key(self, frozen, threat):
        cell = ScenarioCell("cora", 16, "GEAttack", 3, 0, ThreatModel.parse(threat))
        cfg = cell_config(cell, SMOKE)
        assert content_key(cfg) != frozen["GEAttack/smoke"]["cell_sha"]
        assert "threat" in cfg

    def test_unresolved_and_resolved_surrogates_share_keys(self):
        from repro.threat import resolve_threat

        open_threat = ThreatModel.parse("surrogate")
        pinned = resolve_threat(open_threat, SMOKE, 0)
        assert pinned.surrogate_hidden is not None
        assert pinned.surrogate_seed is not None
        key = lambda threat: content_key(
            cell_config(ScenarioCell("cora", 16, "FGA-T", 3, 0, threat), SMOKE)
        )
        assert key(open_threat) == key(pinned)


class TestArchAxisKeys:
    """The arch axis mirrors the threat axis: default-invisible in keys.

    A store written before the architecture axis existed must resume
    warm — ``executed 0 attacks`` — under the arch-aware code, which is
    exactly the default-arch cells hashing to the frozen pre-arch SHAs.
    """

    @pytest.fixture(scope="class")
    def frozen(self):
        with open(FROZEN_KEYS_PATH) as handle:
            return json.load(handle)

    def test_explicit_default_arch_is_key_invisible(self, frozen):
        explicit = ScenarioCell("cora", 16, "GEAttack", 3, 0, arch="gcn")
        cfg = cell_config(explicit, SMOKE)
        assert "arch" not in cfg["model"]
        assert content_key(cfg) == frozen["GEAttack/smoke"]["cell_sha"]

    @pytest.mark.parametrize("arch", ["sage", "gin", "gat"])
    def test_non_default_arch_moves_every_key(self, frozen, arch):
        cell = ScenarioCell("cora", 16, "GEAttack", 3, 0, arch=arch)
        cfg = cell_config(cell, SMOKE)
        assert cfg["model"]["arch"] == arch
        assert content_key(cfg) != frozen["GEAttack/smoke"]["cell_sha"]

    @pytest.mark.parametrize("arch", ["gcn", "gat"])
    def test_arch_round_trips_through_cell_config(self, arch):
        cell = ScenarioCell("cora", 16, "GEAttack", 3, 0, arch=arch)
        cfg = cell_config(cell, SMOKE)
        assert cfg["model"].get("arch", "gcn") == arch
        assert cell_from_config(cfg) == cell

    def test_same_arch_surrogate_normalizes_to_default_key(self):
        """``surrogate:gcn`` on a gcn victim ≡ plain ``surrogate``."""
        from repro.threat import resolve_threat

        explicit = ThreatModel.parse("surrogate:gcn")
        assert resolve_threat(explicit, SMOKE, 0).surrogate_arch is None
        key = lambda threat: content_key(
            cell_config(ScenarioCell("cora", 16, "FGA-T", 3, 0, threat), SMOKE)
        )
        assert key(explicit) == key(ThreatModel.parse("surrogate"))
        # …while a genuinely cross-arch surrogate moves the key.
        assert key(ThreatModel.parse("surrogate:gat")) != key(explicit)

    def test_pre_arch_store_resumes_with_zero_executed(self, tmp_path):
        """The acceptance criterion, end to end on a tiny grid."""
        from repro.api import Session
        from repro.arena import ResultStore, ScenarioGrid
        from repro.experiments import ExperimentConfig

        config = ExperimentConfig(
            dataset_scale=0.05,
            num_seeds=1,
            hidden=8,
            epochs=15,
            num_victims=2,
            margin_group=1,
            budget_cap=2,
        )
        axes = dict(
            attacks=("FGA",), defenses=("none",), budget_caps=(2,), seeds=(0,)
        )
        session = Session(config)
        store = ResultStore(tmp_path / "store")
        # A grid that never mentions the arch axis — the pre-arch shape.
        cold = session.arena(ScenarioGrid(**axes), store)
        assert cold.executed > 0
        # Resuming under an explicitly arch-aware grid stays warm…
        warm = session.arena(ScenarioGrid(archs=("gcn",), **axes), store)
        assert warm.stats_line() == (
            f"executed 0 attacks, {cold.executed} victim results served "
            "from the store"
        )
        # …and widening the axis executes only the new architecture's cells.
        wider = session.arena(ScenarioGrid(archs=("gcn", "sage"), **axes), store)
        assert wider.executed == cold.executed
        assert wider.loaded == cold.executed


class TestThreatModelSpec:
    @pytest.mark.parametrize(
        "threat",
        [
            ThreatModel(),
            ThreatModel.parse("surrogate"),
            ThreatModel.parse("surrogate:h8,s3"),
            ThreatModel.parse("adaptive:jaccard"),
            ThreatModel.parse("surrogate:h4+adaptive:explainer"),
        ],
        ids=lambda threat: threat.label(),
    )
    def test_round_trip_through_json(self, threat):
        data = json.loads(json.dumps(threat.to_dict()))
        assert ThreatModel.from_dict(data) == threat

    def test_parse_defaults_and_aliases(self):
        assert ThreatModel.parse("white_box+oblivious") == ThreatModel()
        assert ThreatModel.parse("oblivious").is_default
        assert ThreatModel.parse("preprocess_aware:svd") == ThreatModel.parse(
            "adaptive:svd"
        )
        surrogate = ThreatModel.parse("surrogate:s5")
        assert surrogate.surrogate_seed == 5
        assert surrogate.surrogate_hidden is None

    @pytest.mark.parametrize(
        "text",
        [
            "sideways",
            "adaptive",
            "surrogate:9x",
            "adaptive:",
            "surrogate:h-3",
            "surrogate:gat,gcn",
        ],
    )
    def test_parse_rejects_bad_grammar(self, text):
        with pytest.raises(ValueError):
            ThreatModel.parse(text)

    def test_parse_surrogate_arch_token(self):
        threat = ThreatModel.parse("surrogate:gat,h8")
        assert threat.surrogate_arch == "gat"
        assert threat.surrogate_hidden == 8
        assert threat.label() == "surrogate(gat,h8)+oblivious"
        data = json.loads(json.dumps(threat.to_dict()))
        assert ThreatModel.from_dict(data) == threat
        # Unknown-but-well-formed arch names parse; validation against the
        # registry happens at submit time (CLI / service / Session).
        assert ThreatModel.parse("surrogate:x9").surrogate_arch == "x9"

    def test_validation_rejects_inconsistent_fields(self):
        with pytest.raises(ValueError, match="surrogate"):
            ThreatModel(knowledge="white_box", surrogate_seed=3)
        with pytest.raises(ValueError, match="defense"):
            ThreatModel(adaptivity="preprocess_aware")
        with pytest.raises(ValueError, match="adapted defense"):
            ThreatModel(defense="jaccard")
        with pytest.raises(ValueError, match="knowledge"):
            ThreatModel(knowledge="psychic")

    def test_twins(self):
        threat = ThreatModel.parse("surrogate:h8+adaptive:jaccard")
        assert threat.oblivious_twin() == ThreatModel.parse("surrogate:h8")
        assert threat.white_box_twin() == ThreatModel.parse("adaptive:jaccard")
        assert threat.oblivious_twin().white_box_twin().is_default

    def test_cell_config_with_threat_round_trips(self):
        cell = ScenarioCell(
            "cora", 16, "Nettack", 3, 0, ThreatModel.parse("adaptive:explainer")
        )
        data = json.loads(canonical_json(cell_config(cell, SMOKE)))
        # The parsed cell carries the resolved threat, not the open one,
        # so it round-trips to the same bytes rather than the same cell.
        assert canonical_json(
            cell_config(cell_from_config(data), SMOKE)
        ) == canonical_json(data)
        # The resolved adapted-defense operating point is in the key.
        assert data["threat"]["defense_params"] == [
            ["inspection_window", SMOKE.explanation_size]
        ]


class TestFromDictGuard:
    """AttackResult.from_dict refuses to replay edges on the wrong graph."""

    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("cora", scale=0.06, seed=0)

    def payload(self, node, edges):
        return {
            "target_node": node,
            "target_label": 1,
            "original_prediction": 0,
            "final_prediction": 1,
            "added_edges": edges,
            "history": [],
            "score_trace": [],
        }

    def test_matching_graph_replays(self, graph):
        result = AttackResult.from_dict(
            self.payload(3, [[3, 5]]), graph=graph
        )
        assert result.perturbed_graph is not None
        assert (3, 5) in result.perturbed_graph.edge_set()

    def test_victim_out_of_range_raises(self, graph):
        with pytest.raises(ValueError, match="different graph"):
            AttackResult.from_dict(
                self.payload(graph.num_nodes + 4, [[0, 1]]), graph=graph
            )

    def test_edge_endpoint_out_of_range_raises(self, graph):
        with pytest.raises(ValueError, match="wrong graph"):
            AttackResult.from_dict(
                self.payload(0, [[0, graph.num_nodes]]), graph=graph
            )

    def test_history_endpoint_out_of_range_raises(self, graph):
        data = self.payload(0, [])
        data["history"] = [["removed", [1, graph.num_nodes + 2]]]
        with pytest.raises(ValueError, match="wrong graph"):
            AttackResult.from_dict(data, graph=graph)

    def test_metrics_only_use_needs_no_graph(self, graph):
        result = AttackResult.from_dict(self.payload(10 ** 9, [[0, 10 ** 9]]))
        assert result.perturbed_graph is None
        assert result.misclassified
