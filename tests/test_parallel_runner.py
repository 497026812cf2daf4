"""Parallel experiment runner: determinism across pool widths.

The contract: because every per-victim unit of work derives its randomness
from the victim's node id, ``jobs=1`` and ``jobs=N`` must produce
byte-identical result tables, and results must not depend on how victims
are sharded across workers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.session import evaluate_method
from repro.attacks import FGA, FGATargeted, VictimSpec
from repro.experiments import ExperimentConfig
from repro.experiments.pipeline import Victim
from repro.explain import GNNExplainer
from repro.parallel import fork_available, parallel_map


class TestParallelMap:
    def test_preserves_order(self):
        items = list(range(23))
        assert parallel_map(lambda x: x * x, items, jobs=1) == [
            x * x for x in items
        ]
        if fork_available():
            assert parallel_map(lambda x: x * x, items, jobs=4) == [
                x * x for x in items
            ]

    def test_jobs_capped_by_items(self):
        assert parallel_map(lambda x: -x, [7], jobs=8) == [-7]

    def test_closure_state_is_inherited(self):
        if not fork_available():
            pytest.skip("fork unavailable")
        table = {"offset": 100}
        result = parallel_map(lambda x: x + table["offset"], [1, 2, 3], jobs=2)
        assert result == [101, 102, 103]

    def test_exceptions_propagate(self):
        def boom(x):
            raise ValueError(f"bad item {x}")

        with pytest.raises(ValueError):
            parallel_map(boom, [1, 2], jobs=1)
        if fork_available():
            with pytest.raises(ValueError):
                parallel_map(boom, [1, 2], jobs=2)

    def test_shard_assignment_does_not_change_results(self):
        """Same outputs whether an item lands in worker 0 or worker k."""
        if not fork_available():
            pytest.skip("fork unavailable")
        items = list(range(11))
        by_two = parallel_map(lambda x: x * 3, items, jobs=2)
        by_five = parallel_map(lambda x: x * 3, items, jobs=5)
        assert by_two == by_five


class _MiniCase:
    """The slice of PreparedCase that evaluate_method consumes."""

    def __init__(self, graph, model, config):
        self.graph = graph
        self.model = model
        self.config = config


@pytest.fixture(scope="module")
def mini_case(tiny_graph, trained_model):
    config = ExperimentConfig(
        budget_cap=3, detection_k=10, explanation_size=15, explainer_epochs=8
    )
    return _MiniCase(tiny_graph, trained_model, config)


@pytest.fixture(scope="module")
def runner_victims(tiny_graph, trained_model, clean_predictions):
    degrees = tiny_graph.degrees()
    attack = FGA(trained_model, seed=11)
    found = []
    eligible = np.flatnonzero(
        (clean_predictions == tiny_graph.labels) & (degrees >= 2) & (degrees <= 6)
    )
    for node in eligible:
        node = int(node)
        result = attack.attack(tiny_graph, node, None, int(degrees[node]))
        if result.misclassified:
            found.append(
                Victim(
                    node=node,
                    degree=int(degrees[node]),
                    target_label=int(result.final_prediction),
                )
            )
        if len(found) >= 4:
            break
    if len(found) < 2:
        pytest.skip("not enough flippable victims on the tiny graph")
    return found


class TestEvaluationDeterminism:
    def _evaluate(self, mini_case, victims, jobs):
        attack = FGATargeted(mini_case.model, seed=3)
        factory = lambda _graph: GNNExplainer(
            mini_case.model, epochs=8, lr=0.05, seed=41
        )
        return evaluate_method(mini_case, attack, victims, factory, jobs=jobs)

    def test_jobs_one_vs_four_byte_identical(self, mini_case, runner_victims):
        if not fork_available():
            pytest.skip("fork unavailable")
        serial = self._evaluate(mini_case, runner_victims, jobs=1)
        pooled = self._evaluate(mini_case, runner_victims, jobs=4)
        assert serial.per_victim == pooled.per_victim
        for metric in ("asr", "asr_t", "precision", "recall", "f1", "ndcg"):
            left = getattr(serial, metric)
            right = getattr(pooled, metric)
            assert (np.isnan(left) and np.isnan(right)) or left == right

    def test_rng_streams_follow_the_victim_not_the_shard(
        self, tiny_graph, trained_model, runner_victims
    ):
        """Attacking victims in any order/subset yields identical results."""
        attack = FGATargeted(trained_model, seed=3)
        specs = [
            VictimSpec(v.node, v.target_label, min(2, v.budget))
            for v in runner_victims
        ]
        forward = {
            spec.node: attack.attack_one(tiny_graph, spec).added_edges
            for spec in specs
        }
        backward = {
            spec.node: attack.attack_one(tiny_graph, spec).added_edges
            for spec in reversed(specs)
        }
        assert forward == backward
