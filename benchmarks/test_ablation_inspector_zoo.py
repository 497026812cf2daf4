"""Ablation (extension) — how inspector choice changes detection power.

The paper studies GNNExplainer and PGExplainer as inspectors.  This
ablation adds two classic attribution baselines — vanilla gradient
saliency and exact leave-one-edge-out occlusion — and asks two questions:

1. Under *Nettack* (a strong attack that ignores the explainer), which
   inspector surfaces the adversarial edges best?
2. Under *GEAttack*, does evasion trained against GNNExplainer's mask
   optimization transfer to inspectors it never simulated?

Both matter for the paper's threat model: if a cheap gradient inspector
detects what GNNExplainer misses, a defender could ensemble them.
"""

import numpy as np

from repro.api.session import evaluate_method
from repro.attacks import GEAttack, Nettack
from repro.experiments import format_table
from repro.explain import GNNExplainer, GradExplainer, OcclusionExplainer


def inspector_factories(case, config):
    """Name → explainer-factory pairs for the zoo."""
    return {
        "GNNExplainer": lambda _graph: GNNExplainer(
            case.model, epochs=config.explainer_epochs, lr=config.explainer_lr, seed=case.seed + 41
        ),
        "Gradient": lambda _graph: GradExplainer(case.model),
        "Occlusion": lambda _graph: OcclusionExplainer(case.model),
    }


def run(cache, config):
    case = cache.case("cora", config)
    victims = cache.victims("cora", config)
    attacks = [
        Nettack(case.model, seed=case.seed + 71),
        GEAttack(
            case.model,
            seed=case.seed + 71,
            lam=config.geattack_lam,
            inner_steps=config.geattack_inner_steps,
            inner_lr=config.geattack_inner_lr,
        ),
    ]
    table = {}
    rows = []
    for attack in attacks:
        for name, factory in inspector_factories(case, config).items():
            evaluation = evaluate_method(case, attack, victims, factory)
            table[(attack.name, name)] = evaluation
            rows.append(
                [
                    attack.name,
                    name,
                    f"{evaluation.f1:.3f}",
                    f"{evaluation.ndcg:.3f}",
                ]
            )
    print()
    print(
        format_table(
            ["Attack", "Inspector", "F1@15", "NDCG@15"],
            rows,
            title="Ablation: inspector zoo (CORA)",
        )
    )
    return table


def test_ablation_inspector_zoo(benchmark, cache, config, assert_shapes):
    table = benchmark.pedantic(run, args=(cache, config), rounds=1, iterations=1)
    nettack_scores = [
        evaluation.ndcg
        for (attack, _), evaluation in table.items()
        if attack == "Nettack" and not np.isnan(evaluation.ndcg)
    ]
    # Every inspector must surface Nettack's edges to some degree — the
    # preliminary-study premise holds regardless of attribution method.
    assert all(score > 0 for score in nettack_scores)
    if assert_shapes:
        # GEAttack's evasion is trained against GNNExplainer; it must at
        # least beat Nettack under that inspector.
        assert (
            table[("GEAttack", "GNNExplainer")].ndcg
            <= table[("Nettack", "GNNExplainer")].ndcg + 0.05
        )
