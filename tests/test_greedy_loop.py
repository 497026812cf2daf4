"""The one greedy edge-insertion loop every gradient attack runs on."""

from __future__ import annotations

import pytest

from repro.attacks import ATTACKS, EXTENSION_ATTACKS, IdentityScene
from repro.explain import PGExplainer

GREEDY = ("FGA-T", "FGA-T&E", "IG-Attack", "Nettack", "GEAttack", "GEAttack-PG")


@pytest.fixture(scope="module")
def pg_explainer(tiny_graph, trained_model):
    return PGExplainer(trained_model, epochs=2, seed=3).fit(
        tiny_graph, instances=4
    )


@pytest.mark.parametrize("backend", ["dense", "sparse"])
@pytest.mark.parametrize("name", GREEDY)
def test_no_candidate_stops_before_the_first_edge(
    name, backend, tiny_graph, trained_model, pg_explainer, monkeypatch
):
    """A target label no node carries leaves no candidate endpoint.

    The step then returns ``None`` and the loop stops: no edge, no trace
    record, and the prediction is the clean one.
    """
    monkeypatch.setenv("REPRO_BACKEND", backend)
    registry = {**ATTACKS, **EXTENSION_ATTACKS}
    deps = {"pg_explainer": pg_explainer} if name == "GEAttack-PG" else {}
    attack = registry[name](trained_model, seed=0, **deps)
    node, absent = 0, tiny_graph.num_classes

    scene = IdentityScene(tiny_graph, node)
    state = attack._prepare(tiny_graph, scene, node, absent)
    view = scene.view(tiny_graph)
    assert attack._step(scene, view, tiny_graph, absent, state) is None

    full = attack.attack(tiny_graph, node, absent, 3)
    (batched,) = attack.attack_many(tiny_graph, [(node, absent, 3)])
    for result in (full, batched):
        assert result.added_edges == []
        assert result.score_trace == []
        assert result.final_prediction == result.original_prediction
