"""Session quickstart: one front door for tables, sweeps and the arena.

Demonstrates the three layers of ``repro.api`` on a tiny configuration:

1. **Specs** — typed, frozen, exactly-round-tripping descriptions of what
   to run (``AttackSpec``, ``ExplainerSpec``, experiment objects);
2. **Registry** — self-describing construction: every attack declares its
   config-fed knobs, and ``build_attack(spec, case)`` checks a spec
   against them and builds the attack for a prepared case;
3. **Session** — owns the caches (trained models, victim sets, fitted
   explainers) and streams typed per-victim events from ``run(...)``.

Usage::

    python examples/session_quickstart.py [--dataset cora] [--jobs 2]
"""

import argparse

from repro.api import (
    AttackSpec,
    Session,
    TableExperiment,
    attack_spec,
    build_attack,
    events,
)
from repro.experiments import SCALE_PRESETS, format_comparison_table


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="cora",
                        choices=["citeseer", "cora", "acm"])
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    config = SCALE_PRESETS["smoke"]
    session = Session(config=config, jobs=args.jobs)

    print("== 1. typed specs ==")
    spec = attack_spec("GEAttack", config)
    print(f"spec:       {spec}")
    print(f"serialized: {spec.to_dict()}")
    assert AttackSpec.from_dict(spec.to_dict()) == spec  # exact round-trip

    print("\n== 2. registry construction ==")
    case = session.case(args.dataset)
    attack = build_attack(spec, case)  # seeded by the shared convention
    print(f"built {attack.name} (seed {attack.seed}) for {case.graph}")

    print("\n== 3. streaming execution ==")
    experiment = TableExperiment(
        args.dataset, explainer="gnn", methods=("FGA-T", "GEAttack")
    )
    comparison = None
    for event in session.run(experiment):
        if isinstance(event, events.CasePrepared):
            print(
                f"case ready: {event.dataset} seed {event.seed} "
                f"({event.num_victims} victims, acc {event.test_accuracy:.3f})"
            )
        elif isinstance(event, events.VictimEvaluated):
            flag = "flipped" if event.result.misclassified else "held"
            print(
                f"  {event.method:9s} victim {event.victim.node:4d} {flag} "
                f"(F1@15 {event.report['f1']:.3f}) "
                f"[{event.index + 1}/{event.total}]"
            )
        elif isinstance(event, events.RunCompleted):
            comparison = event.result

    print()
    print(format_comparison_table(comparison))
    print(
        "\nThe same Session caches serve session.sweep(...) and "
        "session.arena(...); see\nexamples/arena_quickstart.py and "
        "`python -m repro describe` for the registry schemas."
    )


if __name__ == "__main__":
    main()
