"""Command-line interface: regenerate any paper table or figure.

Every command executes through the façade — one :class:`repro.api.Session`
owns the prepared cases, fitted explainers and process pool for the whole
invocation.  Examples::

    python -m repro table1 --dataset cora --scale smoke
    python -m repro table2 --scale small
    python -m repro table3
    python -m repro fig2 --dataset citeseer
    python -m repro fig4 --scale smoke
    python -m repro fig6 --dataset acm
    python -m repro feature-attack --dataset citeseer
    python -m repro inspector-zoo --dataset cora
    python -m repro arena --store arena-store --resume
    python -m repro serve --store arena-store --port 8008 --workers 2
    python -m repro describe

With ``REPRO_TRACE=1`` any run additionally writes a structured span
trace (JSONL, ``REPRO_TRACE_PATH`` or ``repro_trace.jsonl``), inspected
offline with::

    python -m repro trace summarize repro_trace.jsonl
    python -m repro trace validate repro_trace.jsonl
"""

from __future__ import annotations

import argparse

from repro.api import Session, build_attack, build_explainer_factory
from repro.datasets import load_dataset
from repro.experiments import (
    SCALE_PRESETS,
    format_comparison_table,
    format_series,
    format_table,
    preliminary_inspection_study,
)
from repro.obs.tracer import get_tracer

__all__ = ["main", "build_parser"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce tables/figures of the GEAttack paper (ICDE 2023).",
    )
    parser.add_argument(
        "--scale",
        default="smoke",
        choices=sorted(SCALE_PRESETS),
        help="experiment preset (graph size, victim count, seeds)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for per-victim attack/inspect loops "
        "(results are identical for any value; speedup needs >1 CPUs); "
        "serve takes this count from its own --workers instead",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_dataset(name, help_text, default="cora"):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "--dataset", default=default, choices=["citeseer", "cora", "acm"]
        )
        return cmd

    with_dataset("table1", "attack comparison under GNNExplainer")
    sub.add_parser("table2", help="attack comparison under PGExplainer (CITESEER)")
    sub.add_parser("table3", help="dataset statistics")
    with_dataset("fig2", "Nettack ASR by degree", default="citeseer")
    with_dataset("fig3", "GNNExplainer detection by degree", default="citeseer")
    with_dataset("fig4", "lambda trade-off (ASR-T/F1/NDCG)")
    with_dataset("fig5", "detection vs explanation size L")
    with_dataset("fig6", "detection vs inner steps T")
    with_dataset("fig7", "PGExplainer detection by degree", default="citeseer")
    with_dataset("fig8", "lambda effect on detection", default="citeseer")
    with_dataset(
        "feature-attack",
        "extension: feature flips vs the M_F feature-mask inspector",
        default="citeseer",
    )
    with_dataset(
        "inspector-zoo",
        "extension: detection across GNNExplainer/gradient/occlusion inspectors",
    )
    describe = sub.add_parser(
        "describe",
        help="list every registered attack/defense/explainer with its "
        "generated parameter schema",
    )
    describe.add_argument(
        "--json",
        action="store_true",
        help="emit the raw schema as JSON instead of the listing",
    )
    arena = sub.add_parser(
        "arena",
        help="attack × defense robustness matrix with a resumable result store",
    )
    arena.add_argument(
        "--dataset",
        action="append",
        choices=["citeseer", "cora", "acm"],
        help="dataset axis (repeatable; default: cora)",
    )
    arena.add_argument(
        "--attacks",
        default="FGA-T,Nettack,GEAttack",
        help="comma-separated attack axis (registry names)",
    )
    arena.add_argument(
        "--defenses",
        default="none,jaccard,svd,explainer",
        help="comma-separated defense axis (registry names)",
    )
    arena.add_argument(
        "--budgets",
        default="3",
        help="comma-separated per-victim budget caps",
    )
    arena.add_argument(
        "--seeds", default="0", help="comma-separated seed axis"
    )
    arena.add_argument(
        "--archs",
        default="gcn",
        help="comma-separated victim-architecture axis (registered "
        "architectures: gcn, gat, sage, gin; default: gcn)",
    )
    arena.add_argument(
        "--threat",
        action="append",
        dest="threats",
        metavar="THREAT",
        help="threat-model axis entry (repeatable; default: the historical "
        "white_box+oblivious).  Grammar: 'white_box', 'oblivious', "
        "'surrogate[:<arch>,h<H>,s<S>]' (attacker only holds an "
        "independently trained model, optionally of another registered "
        "architecture), 'adaptive:<defense>' (attacker optimizes through "
        "that defense's sanitization), joined with '+', e.g. "
        "'surrogate:h8+adaptive:jaccard' or 'surrogate:gcn'",
    )
    arena.add_argument(
        "--store",
        default="arena-store",
        help="result-store directory (content-addressed per-victim records)",
    )
    arena.add_argument(
        "--resume",
        action="store_true",
        help="reuse completed results from the store (the default behavior; "
        "the flag documents intent in scripts; excludes --fresh)",
    )
    arena.add_argument(
        "--fresh",
        action="store_true",
        help="clear the store before running (re-executes everything; "
        "excludes --resume)",
    )
    serve = sub.add_parser(
        "serve",
        help="run the arena job server (HTTP + SSE; see repro.service)",
    )
    serve.add_argument(
        "--store",
        default="arena-store",
        help="result-store directory shared by every job (and any other "
        "server or in-process run pointed at it)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8008,
        help="bind port (0 picks an ephemeral port, printed on startup)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes each job's per-victim loops fan out over "
        "(the --jobs pool); jobs run one at a time in submission order, "
        "and overlapping grids dedupe through store leases",
    )
    trace = sub.add_parser(
        "trace",
        help="inspect a structured trace written by a REPRO_TRACE=1 run",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="per-phase / per-cell time breakdown with anomaly flags",
    )
    summarize.add_argument("path", help="trace JSONL file")
    summarize.add_argument(
        "--min-coverage",
        type=float,
        default=None,
        metavar="PCT",
        help="exit nonzero unless the run root's cell spans cover at "
        "least PCT%% of its wall-clock (CI uses 95)",
    )
    validate = trace_sub.add_parser(
        "validate", help="check every JSONL line against the span schema"
    )
    validate.add_argument("path", help="trace JSONL file")
    return parser


def _case_and_victims(session, dataset):
    case, victims = session.prepared(dataset)
    if not victims:
        raise SystemExit("no FGA-flippable victims; try another scale/seed")
    return case, victims


def _preliminary(session, case, factory, title):
    config = session.config
    results = preliminary_inspection_study(
        case,
        factory,
        degrees=range(1, 11),
        per_degree=max(2, config.num_victims // 4),
        detection_k=config.detection_k,
        jobs=session.jobs,
    )
    rows = [
        [r.degree, r.count, f"{r.asr:.2f}", f"{r.f1:.3f}", f"{r.ndcg:.3f}"]
        for r in results
    ]
    print(
        format_table(
            ["Degree", "Victims", "ASR", "F1@15", "NDCG@15"], rows, title=title
        )
    )


def main(argv=None):
    args = build_parser().parse_args(argv)
    for flag in ("jobs", "workers"):  # --workers exists only for serve
        value = getattr(args, flag, 1)
        if value < 1:
            raise SystemExit(f"error: --{flag} must be at least 1, got {value}")
    if args.command == "trace":
        return _trace(args)
    # Materialize the tracer (REPRO_TRACE=1) in the parent before any
    # process pool forks, so workers inherit the trace configuration.
    get_tracer()
    config = SCALE_PRESETS[args.scale]
    if args.command == "serve":
        return _serve(config, args)
    session = Session(config=config, jobs=args.jobs)

    if args.command == "table1":
        print(format_comparison_table(session.table(args.dataset, "gnn")))
    elif args.command == "table2":
        print(format_comparison_table(session.table("citeseer", "pg")))
    elif args.command == "table3":
        rows = []
        for name in ("citeseer", "cora", "acm"):
            graph = load_dataset(name, scale=config.dataset_scale, seed=config.seed)
            rows.append(
                [
                    name.upper(),
                    graph.num_nodes,
                    graph.num_edges,
                    graph.num_classes,
                    graph.num_features,
                ]
            )
        print(
            format_table(
                ["Dataset", "Nodes", "Edges", "Classes", "Features"],
                rows,
                title=f"Table 3 (scale={config.dataset_scale})",
            )
        )
    elif args.command in ("fig2", "fig3"):
        case = session.case(args.dataset)
        _preliminary(
            session,
            case,
            build_explainer_factory("gnn", case, config),
            f"Figures 2/3 ({args.dataset.upper()}): Nettack vs GNNExplainer",
        )
    elif args.command == "fig7":
        case = session.case(args.dataset)
        _preliminary(
            session,
            case,
            build_explainer_factory("pg", case, config, context=session),
            f"Figure 7 ({args.dataset.upper()}): Nettack vs PGExplainer",
        )
    elif args.command in ("fig4", "fig8"):
        _case_and_victims(session, args.dataset)
        points = session.sweep("lambda", args.dataset)
        columns = (
            ("asr_t", "f1", "ndcg")
            if args.command == "fig4"
            else ("precision", "recall", "f1", "ndcg")
        )
        print(
            format_series(
                "lambda",
                points,
                columns=columns,
                title=f"{args.command} ({args.dataset.upper()})",
            )
        )
    elif args.command == "fig5":
        _case_and_victims(session, args.dataset)
        points = session.sweep("subgraph-size", args.dataset)
        print(
            format_series(
                "L",
                points,
                columns=("precision", "recall", "f1", "ndcg"),
                title=f"Figure 5 ({args.dataset.upper()})",
            )
        )
    elif args.command == "fig6":
        _case_and_victims(session, args.dataset)
        points = session.sweep("inner-steps", args.dataset)
        print(
            format_series(
                "T",
                points,
                columns=("asr_t", "f1", "ndcg"),
                title=f"Figure 6 ({args.dataset.upper()})",
            )
        )
    elif args.command == "feature-attack":
        _feature_attack(session, args.dataset)
    elif args.command == "inspector-zoo":
        _inspector_zoo(session, args.dataset)
    elif args.command == "describe":
        from repro.api import describe_registries

        print(describe_registries(config, as_json=args.json))
    elif args.command == "arena":
        _arena(session, args)
    return 0


def _trace(args):
    """``repro trace summarize|validate`` — offline trace inspection."""
    from repro.obs.schema import validate_trace
    from repro.obs.summarize import render_summary, summarize_trace

    if args.trace_command == "validate":
        try:
            records = validate_trace(args.path)
        except (OSError, ValueError) as error:
            raise SystemExit(f"error: {error}")
        print(f"{args.path}: {len(records)} span record(s), schema-valid")
        return 0
    try:
        summary = summarize_trace(args.path)
    except (OSError, ValueError) as error:
        raise SystemExit(f"error: {error}")
    print(render_summary(summary))
    if args.min_coverage is not None:
        coverage = summary["coverage"]
        if coverage is None or coverage * 100.0 < args.min_coverage:
            have = "none" if coverage is None else f"{coverage:.1%}"
            raise SystemExit(
                f"error: cell-span coverage {have} below required "
                f"{args.min_coverage:.1f}%"
            )
    return 0


def _serve(config, args):
    """``repro serve`` — run the arena job server until SIGTERM/SIGINT.

    The first stdout line is the machine-readable listen announcement
    (tests and scripts parse the URL out of it); shutdown drains every
    queued and running job so the store's leases are released and a
    restarted server resumes with zero re-executed cells.
    """
    import signal
    import time

    from repro.service import ArenaService

    if args.jobs != 1:
        raise SystemExit("error: serve takes its process count from --workers")
    service = ArenaService(
        args.store,
        config=config,
        host=args.host,
        port=args.port,
        workers=args.workers,
    ).start()
    # Handlers go in before the banner a client waits for, and they only
    # append to a list: a handler calling ``threading.Event.set`` deadlocks
    # when the signal lands while this thread holds the event's lock
    # inside ``wait``.
    stop = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda signum, _: stop.append(signum))
    print(
        f"repro service listening on {service.url} "
        f"(store={service.store_root}, workers={service.queue.workers}, "
        f"scale={args.scale})",
        flush=True,
    )
    while not stop:
        time.sleep(0.1)
    print("repro service draining in-flight jobs ...", flush=True)
    service.close(drain=True)
    print("repro service stopped", flush=True)
    return 0


def _arena(session, args):
    """Run (or resume) the attack × defense robustness arena."""
    from repro.arena import ResultStore, ScenarioGrid, render_arena_matrices
    from repro.arena.grid import validate_grid

    if args.fresh and args.resume:
        raise SystemExit(
            "error: --fresh and --resume are mutually exclusive "
            "(--fresh clears the store before running, --resume reuses "
            "its completed results)"
        )
    # Build and validate the whole grid before the store exists and before
    # any training has burned compute: a malformed threat token or an
    # unknown registry name is a one-line error, not a traceback.
    archs = tuple(a.strip() for a in args.archs.split(",") if a.strip())
    try:
        grid = ScenarioGrid(
            datasets=tuple(args.dataset or ("cora",)),
            attacks=tuple(args.attacks.split(",")),
            defenses=tuple(args.defenses.split(",")),
            budget_caps=tuple(int(b) for b in args.budgets.split(",")),
            seeds=tuple(int(s) for s in args.seeds.split(",")),
            threats=tuple(args.threats or ("white_box+oblivious",)),
            archs=archs or ("gcn",),
        )
        validate_grid(grid)
    except (KeyError, ValueError) as error:
        raise SystemExit(f"error: {error.args[0]}")
    store = ResultStore(args.store)
    run = session.arena(grid, store, progress=print, fresh=args.fresh)
    print()
    print(render_arena_matrices(run))
    print()
    print(run.stats_line())


def _feature_attack(session, dataset):
    """Extension: feature-flip attacks measured against the M_F inspector."""
    from repro.experiments import evaluate_feature_attack_method

    config = session.config
    case, victims = _case_and_victims(session, dataset)
    factory = build_explainer_factory("gnn-features", case, config)
    rows = []
    for name in ("FeatureFGA", "GEF-Attack"):
        attack = build_attack(name, case, config, seed=case.seed + 71)
        evaluation = evaluate_feature_attack_method(
            case, attack, victims, factory, jobs=session.jobs
        )
        rows.append(
            [
                attack.name,
                f"{evaluation.asr:.3f}",
                f"{evaluation.asr_t:.3f}",
                f"{evaluation.f1:.3f}",
                f"{evaluation.ndcg:.3f}",
            ]
        )
    print(
        format_table(
            ["Method", "ASR", "ASR-T", "F1", "NDCG"],
            rows,
            title=f"Feature attacks vs M_F inspector ({dataset.upper()})",
        )
    )


def _inspector_zoo(session, dataset):
    """Extension: the same attacks under different inspectors."""
    config = session.config
    case, victims = _case_and_victims(session, dataset)
    inspectors = {
        "GNNExplainer": build_explainer_factory("gnn", case, config),
        "Gradient": build_explainer_factory("grad", case, config),
        "Occlusion": build_explainer_factory("occlusion", case, config),
    }
    rows = []
    for attack_name in ("Nettack", "GEAttack"):
        attack = build_attack(attack_name, case, config, seed=case.seed + 71)
        for name, factory in inspectors.items():
            evaluation = session.evaluate(case, attack, victims, factory)
            rows.append(
                [
                    attack.name,
                    name,
                    f"{evaluation.f1:.3f}",
                    f"{evaluation.ndcg:.3f}",
                ]
            )
    print(
        format_table(
            ["Attack", "Inspector", "F1@15", "NDCG@15"],
            rows,
            title=f"Inspector zoo ({dataset.upper()})",
        )
    )


if __name__ == "__main__":
    raise SystemExit(main())
