"""Figure 5 — detection of GEAttack edges vs explanation subgraph size L.

Paper shape: detection rises with L while L < K(=15) and plateaus once
L ≳ 20 — the inspector's top-15 no longer changes when the explanation
keeps more low-ranked edges.
"""

import numpy as np

from repro.api.session import sweep_points
from repro.experiments import PAPER_L_GRID, format_series


def run(cache, config):
    case = cache.case("cora", config)
    victims = cache.victims("cora", config)
    points = sweep_points(case, victims, "subgraph-size", values=PAPER_L_GRID)
    print()
    print(
        format_series(
            "L",
            points,
            columns=("precision", "recall", "f1", "ndcg"),
            title="Figure 5 (CORA): detection vs explanation size L",
        )
    )
    return points


def test_fig5_subgraph_size(benchmark, cache, config, assert_shapes):
    points = benchmark.pedantic(run, args=(cache, config), rounds=1, iterations=1)
    assert [p.value for p in points] == [float(v) for v in PAPER_L_GRID]
    if assert_shapes:
        by_value = {p.value: p for p in points}
        # Rising region: more explanation edges expose more injections.
        assert by_value[5.0].recall <= by_value[20.0].recall + 1e-9
        # Plateau: beyond K=15 the top-15 is unchanged.
        assert by_value[20.0].f1 == np.float64(by_value[100.0].f1)
