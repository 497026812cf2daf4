"""Figure 6 — GEAttack detectability vs inner explainer steps T (CORA, ACM).

Paper shape: small T (≤ 3) already provides enough gradient signal — the
detection metrics do not keep improving with larger T.
"""

import numpy as np
import pytest

from repro.api.session import sweep_points
from repro.experiments import format_series

T_GRID = (1, 2, 3, 5, 8, 10)


def run(cache, config, dataset):
    case = cache.case(dataset, config)
    victims = cache.victims(dataset, config)
    points = sweep_points(case, victims, "inner-steps", values=T_GRID)
    print()
    print(
        format_series(
            "T",
            points,
            columns=("asr_t", "f1", "ndcg"),
            title=f"Figure 6 ({dataset.upper()}): detection vs inner steps T",
        )
    )
    return points


@pytest.mark.parametrize("dataset", ["cora", "acm"])
def test_fig6_inner_steps(benchmark, cache, config, dataset, assert_shapes):
    points = benchmark.pedantic(
        run, args=(cache, config, dataset), rounds=1, iterations=1
    )
    assert len(points) == len(T_GRID)
    if assert_shapes:
        f1s = [p.f1 for p in points if not np.isnan(p.f1)]
        # Sub-optimal inner solutions suffice: detectability at T=1..3 is in
        # the same band as at T=10 (no monotone improvement with T).
        assert max(f1s) - min(f1s) < 0.25
