"""DEFENSES registry + the shared Defense protocol contract.

Mirrors the attacks' registry-conformance suite: every registered defense
must build uniformly as ``DEFENSES[name](model, **kwargs)`` — the one
constructor shape ``repro.api.build_defense`` relies on — and honor the
``preprocess(graph)`` / ``flag(graph, node)`` protocol the arena
enumerates.  Registering a new defense in ``repro.defense.DEFENSES`` puts
it under these tests automatically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.registry import build_defense
from repro.api.specs import DefenseSpec
from repro.attacks.base import Attack
from repro.defense import (
    DEFENSES,
    Defense,
    ExplainerDefense,
    JaccardDefense,
    NoDefense,
    SVDDefense,
)
from repro.experiments import SCALE_PRESETS
from repro.explain import GNNExplainer
from repro.graph import Graph


def build_every_defense(model):
    factory = lambda _graph: GNNExplainer(model, epochs=15, seed=4)
    return {
        name: cls(model, explainer_factory=factory)
        if cls.requires_explainer
        else cls(model)
        for name, cls in DEFENSES.items()
    }


class TestRegistry:
    def test_expected_members(self):
        assert {"none", "jaccard", "svd", "explainer"} <= set(DEFENSES)
        for name, cls in DEFENSES.items():
            assert cls.name == name
            assert issubclass(cls, Defense)

    def test_build_defense_unknown_name(self):
        config = SCALE_PRESETS["smoke"]
        for spec in ("firewall", DefenseSpec("firewall")):
            with pytest.raises(KeyError, match="unknown defense 'firewall'"):
                build_defense(spec, None, config=config)

    def test_explainer_requires_factory(self, trained_model):
        assert DEFENSES["explainer"].requires_explainer
        with pytest.raises(TypeError, match="explainer_factory"):
            DEFENSES["explainer"](trained_model)

    def test_kwargs_reach_constructors(self, trained_model):
        jaccard = DEFENSES["jaccard"](trained_model, threshold=0.2)
        assert jaccard.threshold == 0.2
        assert jaccard.model is trained_model
        svd = DEFENSES["svd"](trained_model, rank=7)
        assert svd.rank == 7
        explainer = DEFENSES["explainer"](
            trained_model,
            explainer_factory=lambda _g: None,
            prune_k=5,
            inspection_window=12,
        )
        assert explainer.prune_k == 5
        assert explainer.inspection_window == 12


class TestProtocolConformance:
    """Every registered defense honors the shared protocol."""

    @pytest.fixture()
    def defenses(self, trained_model):
        return build_every_defense(trained_model)

    def test_preprocess_returns_graph(self, defenses, tiny_graph):
        for name, defense in defenses.items():
            cleaned = defense.preprocess(tiny_graph)
            assert cleaned.num_nodes == tiny_graph.num_nodes, name
            # Preprocessing may only *remove* structure, never invent it.
            assert cleaned.edge_set() <= tiny_graph.edge_set(), name

    def test_flag_is_bounded_float(self, defenses, tiny_graph):
        for name, defense in defenses.items():
            score = defense.flag(tiny_graph, 10)
            assert isinstance(score, float), name
            assert 0.0 <= score <= 1.0, name

    def test_defended_predictions_are_class_ids(self, defenses, tiny_graph):
        for name, defense in defenses.items():
            prediction = defense.predict(tiny_graph, 10)
            assert 0 <= int(prediction) < tiny_graph.num_classes, name

    def test_preprocess_is_graph_cached(self, defenses, tiny_graph):
        for name, defense in defenses.items():
            assert defense.preprocessed(tiny_graph) is defense.preprocessed(
                tiny_graph
            ), name


class TestNoDefense:
    def test_identity(self, trained_model, tiny_graph):
        defense = NoDefense(trained_model)
        assert defense.preprocess(tiny_graph) is tiny_graph
        assert defense.flag(tiny_graph, 3) == 0.0
        undefended = Attack(trained_model).predict(tiny_graph)
        assert np.array_equal(defense.predict(tiny_graph), undefended)


class TestJaccardProtocol:
    def test_flag_marks_dissimilar_neighbor(self):
        features = np.zeros((4, 6))
        features[0, :3] = 1.0
        features[1, :3] = 1.0  # similar to 0
        features[2, 3:] = 1.0  # disjoint from 0
        features[3, :3] = 1.0
        adjacency = np.array(
            [
                [0, 1, 1, 0],
                [1, 0, 0, 1],
                [1, 0, 0, 0],
                [0, 1, 0, 0],
            ]
        )
        graph = Graph(adjacency, features, [0, 0, 1, 0])
        defense = JaccardDefense(threshold=0.05)
        assert defense.flag(graph, 0) == pytest.approx(0.5)  # 1 of 2 edges
        assert defense.flag(graph, 1) == 0.0
        cleaned = defense.preprocess(graph)
        assert (0, 2) not in cleaned.edge_set()
        assert (0, 1) in cleaned.edge_set()

    def test_flag_isolated_node_defined(self):
        graph = Graph(np.zeros((3, 3)), np.eye(3), [0, 1, 0])
        assert JaccardDefense().flag(graph, 1) == 0.0


class TestSVDProtocol:
    def test_cross_community_edge_flags_higher(self):
        """A high-frequency (cross-block) edge raises the spectral flag."""
        block = np.ones((6, 6)) - np.eye(6)
        adjacency = np.zeros((12, 12))
        adjacency[:6, :6] = block
        adjacency[6:, 6:] = block
        labels = [0] * 6 + [1] * 6
        clean = Graph(adjacency, np.eye(12), labels)
        attacked = clean.with_edges_added([(0, 6)])
        defense = SVDDefense(model=None, rank=2)
        assert defense.flag(attacked, 0) > defense.flag(clean, 0)
        # The cross-block edge reconstructs far below the clique edges.
        energies = defense.edge_energy(attacked, [(0, 6), (0, 1)])
        assert energies[0] < energies[1]

    def test_preprocess_drops_low_energy_edges(self, trained_model, tiny_graph):
        defense = SVDDefense(trained_model, rank=4, energy_threshold=0.2)
        cleaned = defense.preprocess(tiny_graph)
        assert cleaned.edge_set() < tiny_graph.edge_set()


class TestExplainerProtocol:
    def test_flag_binary_and_predict_per_node(self, trained_model, tiny_graph):
        factory = lambda _graph: GNNExplainer(trained_model, epochs=15, seed=4)
        defense = ExplainerDefense(trained_model, factory, prune_k=2)
        score = defense.flag(tiny_graph, 10)
        assert score in (0.0, 1.0)
        assert isinstance(defense.predict(tiny_graph, 10), int)
        # Node-free predict falls back to the undefended model.
        undefended = Attack(trained_model).predict(tiny_graph)
        assert np.array_equal(defense.predict(tiny_graph), undefended)

    def test_inspection_window_zero_sees_nothing(
        self, trained_model, tiny_graph
    ):
        factory = lambda _graph: GNNExplainer(trained_model, epochs=15, seed=4)
        blind = ExplainerDefense(
            trained_model, factory, prune_k=3, inspection_window=0
        )
        outcome = blind.inspect(tiny_graph, 10)
        assert outcome.pruned_edges == []
        assert not outcome.prediction_changed

    def test_window_limits_prune_candidates(self, trained_model, tiny_graph):
        factory = lambda _graph: GNNExplainer(trained_model, epochs=15, seed=4)
        windowed = ExplainerDefense(
            trained_model, factory, prune_k=10, inspection_window=2
        )
        outcome = windowed.inspect(tiny_graph, 10)
        assert len(outcome.pruned_edges) <= 2
