"""Ablation (extension) — feature-space attacks vs the M_F inspector.

The paper defers feature perturbations to future work.  This bench carries
the attack framework into feature space and measures what the paper's
Eq. 2 feature mask can actually see:

* ``FeatureFGA`` / ``GEF-Attack`` rows — ASR/ASR-T plus detection metrics
  of GNNExplainer's *feature mask* ranked over feature indices;
* ``FGA-T (edges)`` reference row — the same victims attacked through
  structure and inspected through the *edge* mask, i.e. the paper's main
  protocol.

Measured finding (recorded in DESIGN.md/EXPERIMENTS.md): at realistic
feature dimensionality the feature-mask inspector is far weaker than the
edge inspector — per-word weights of planted words sit at the mask-
initialization noise floor — so joint feature evasion has little signal to
exploit and little detection to evade.  This empirically supports the
paper's structure-only focus.  The shape assertions below encode the
inspector-power gap, not a feature-evasion win.
"""

from repro.api.session import evaluate_method
from repro.attacks import FGATargeted, FeatureFGA, GEFAttack
from repro.experiments import evaluate_feature_attack_method, format_table
from repro.explain import GNNExplainer


def run(cache, config):
    case = cache.case("citeseer", config)
    victims = cache.victims("citeseer", config)
    feature_factory = lambda _graph: GNNExplainer(
        case.model,
        epochs=config.explainer_epochs,
        lr=config.explainer_lr,
        seed=case.seed + 41,
        explain_features=True,
    )
    edge_factory = lambda _graph: GNNExplainer(
        case.model, epochs=config.explainer_epochs, lr=config.explainer_lr, seed=case.seed + 41
    )

    evaluations = {}
    for attack in (
        FeatureFGA(case.model, seed=case.seed + 71),
        GEFAttack(case.model, seed=case.seed + 71),
    ):
        evaluations[attack.name] = evaluate_feature_attack_method(
            case, attack, victims, feature_factory
        )
    evaluations["FGA-T (edges)"] = evaluate_method(
        case, FGATargeted(case.model, seed=case.seed + 71), victims, edge_factory
    )

    rows = [
        [
            name,
            f"{evaluation.asr:.3f}",
            f"{evaluation.asr_t:.3f}",
            f"{evaluation.precision:.3f}",
            f"{evaluation.recall:.3f}",
            f"{evaluation.f1:.3f}",
            f"{evaluation.ndcg:.3f}",
        ]
        for name, evaluation in evaluations.items()
    ]
    print()
    print(
        format_table(
            ["Method", "ASR", "ASR-T", "Precision", "Recall", "F1", "NDCG"],
            rows,
            title=(
                "Ablation: feature-space attacks vs M_F inspector "
                "(CITESEER; FGA-T row = edge-mask reference)"
            ),
        )
    )
    return evaluations


def test_ablation_feature_attack(benchmark, cache, config, assert_shapes):
    evaluations = benchmark.pedantic(
        run, args=(cache, config), rounds=1, iterations=1
    )
    plain = evaluations["FeatureFGA"]
    edges = evaluations["FGA-T (edges)"]
    if assert_shapes:
        # Feature flips are a viable attack vector...
        assert plain.asr_t >= 0.5
        # ...but the M_F inspector is much weaker than the edge inspector —
        # the measured gap that justifies the paper's structure-only focus.
        assert plain.ndcg < edges.ndcg
