"""The façade's front door: :class:`Session` and the shared execution engine.

A :class:`Session` owns every cross-call cache — prepared cases (trained
GCNs + derived victim sets), fitted PGExplainers, and the arena's
content-addressed :class:`~repro.arena.store.ResultStore` handles — and
executes every experiment shape through one streaming entry point::

    from repro.api import Session, TableExperiment

    session = Session(config=SCALE_PRESETS["smoke"], jobs=4)
    for event in session.run(TableExperiment("cora", explainer="gnn")):
        print(event)                      # typed per-victim progress
    table = session.table("cora")         # or drain to the result object

``session.table`` / ``session.sweep`` / ``session.arena`` are thin
drains over :meth:`Session.run`.  Callers that bring their own prepared
case and victims use the module-level drains of the same engine,
:func:`evaluate_method` and :func:`sweep_points`, so there is exactly
one execution path.

Determinism contract (inherited from the engine this absorbs): per-victim
work is seeded by the victim's node id, so any ``jobs`` width produces
byte-identical tables and matrices, and all construction seeds follow the
registry's shared conventions (attack ``+21``, inspector ``+41``, PG
``+31``; the sweeps keep their historical ``+51/52/53`` offsets).
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.api.events import (
    CasePrepared,
    CellDeferred,
    CellExecuted,
    CellScored,
    MethodEvaluated,
    MethodStarted,
    RunCompleted,
    SweepPointEvaluated,
    VictimAttacked,
    VictimEvaluated,
)
from repro.api.registry import (
    attack_spec,
    build_attack,
    build_defense,
    build_explainer_factory,
    fit_pg_explainer,
)
from repro.api.specs import (
    ArenaExperiment,
    DefenseSpec,
    SweepExperiment,
    TableExperiment,
)
from repro.arena.grid import (
    SCHEMA_VERSION,
    cell_config,
    content_key,
    defense_point,
    validate_grid,
    verdict_key,
    victim_dict,
    victim_key,
)
from repro.arena.runner import ArenaRun, CellEvaluation
from repro.arena.store import ResultStore
from repro.attacks import AttackResult, VictimSpec
from repro.experiments.config import SCALE_PRESETS
from repro.experiments.pipeline import (
    MethodEvaluation,
    _TruncatedExplanation,
    derive_target_labels,
    prepare_case,
    select_victims,
)
from repro.experiments.reporting import summarize_reports
from repro.experiments.sweeps import (
    PAPER_L_GRID,
    PAPER_LAMBDA_GRID,
    PAPER_T_GRID,
    SweepPoint,
)
from repro.experiments.table_runner import METHOD_ORDER, ComparisonResult
from repro.metrics import (
    attack_success_rate,
    attack_success_rate_targeted,
    detection_report,
)
from repro.obs import metrics
from repro.obs.manifest import build_manifest
from repro.obs.tracer import get_tracer
from repro.parallel import parallel_map

__all__ = [
    "Session",
    "iter_method_events",
    "evaluate_method",
    "iter_sweep_events",
    "sweep_points",
]

_EMPTY_REPORT = {"precision": 0.0, "recall": 0.0, "f1": 0.0, "ndcg": 0.0}

#: Seconds between re-polls of arena cells deferred behind another run's
#: lease.  Read at call time, so tests can shorten it.
POLL_INTERVAL = 0.5


# -- the per-victim engine ---------------------------------------------------


def iter_method_events(
    case,
    attack,
    victims,
    explainer_factory,
    jobs=1,
    keep_ranking=False,
):
    """Attack every victim, inspect with the explainer, stream the results.

    The single attack→inspect loop behind the table runner, the sweeps and
    :func:`evaluate_method`: yields one :class:`VictimEvaluated` per
    victim (in victim order, independent of ``jobs``), closing with a
    :class:`MethodEvaluated` carrying the aggregated
    :class:`~repro.experiments.MethodEvaluation`.  ``keep_ranking``
    additionally ships each inspection's full edge ranking in the event
    (the subgraph-size sweep re-truncates it per grid value).

    The detection cut-off K and the inspection window L are the case
    config's ``detection_k`` and ``explanation_size``.
    """
    config = case.config
    k = int(config.detection_k)
    window = int(config.explanation_size)
    victims = list(victims)
    tracer = get_tracer()

    def evaluate_one(victim):
        budget = min(victim.budget, config.budget_cap)
        result = attack.attack_one(
            case.graph, VictimSpec(victim.node, victim.target_label, budget)
        )
        ranking = None
        if result.added_edges:
            with tracer.span("explain", victim=victim.node):
                explainer = explainer_factory(result.perturbed_graph)
                explanation = explainer.explain_node(
                    result.perturbed_graph, victim.node
                )
            full_ranking = explanation.ranking()
            if keep_ranking:
                ranking = tuple(full_ranking)
            ranked = full_ranking[:window]
            report = detection_report(
                _TruncatedExplanation(ranked), result.added_edges, k=k
            )
        else:
            report = dict(_EMPTY_REPORT)
        row = {
            "node": victim.node,
            "degree": victim.degree,
            "target_label": victim.target_label,
            "hit_target": result.hit_target,
            "misclassified": result.misclassified,
            **report,
        }
        # Inspection is done: drop the per-victim perturbed graph so a
        # process-pool run doesn't pickle (and the parent retain) a full
        # graph copy per victim — aggregation only reads the scalars.
        result.perturbed_graph = None
        return result, report, row, ranking

    with tracer.span(
        "method", method=attack.name, victims=len(victims)
    ) as span:
        yield MethodStarted(
            method=attack.name,
            dataset=getattr(case.graph, "name", ""),
            num_victims=len(victims),
            span=span.id,
        )
        outcomes = parallel_map(evaluate_one, victims, jobs=jobs)
        # Per-item ``unit`` span ids from the map just above (None with
        # tracing off): each VictimEvaluated carries its own victim's span.
        item_spans = tracer.pop_map_spans()
        for index, (victim, (result, report, _, ranking)) in enumerate(
            zip(victims, outcomes)
        ):
            yield VictimEvaluated(
                method=attack.name,
                victim=victim,
                result=result,
                report=report,
                index=index,
                total=len(victims),
                ranking=ranking,
                span=item_spans[index] if item_spans else span.id,
            )
        results = [result for result, _, _, _ in outcomes]
        reports = [report for _, report, _, _ in outcomes]
        per_victim = [row for _, _, row, _ in outcomes]
        yield MethodEvaluated(
            method=attack.name,
            evaluation=MethodEvaluation(
                method=attack.name,
                asr=attack_success_rate(results),
                asr_t=attack_success_rate_targeted(results),
                per_victim=per_victim,
                **summarize_reports(reports),
            ),
            span=span.id,
        )


def evaluate_method(case, attack, victims, explainer_factory, jobs=1):
    """Drain :func:`iter_method_events` to its final MethodEvaluation."""
    evaluation = None
    for event in iter_method_events(
        case, attack, victims, explainer_factory, jobs=jobs
    ):
        if isinstance(event, MethodEvaluated):
            evaluation = event.evaluation
    return evaluation


# -- sweeps ------------------------------------------------------------------

_SWEEP_GRIDS = {
    "lambda": PAPER_LAMBDA_GRID,
    "inner-steps": PAPER_T_GRID,
    "subgraph-size": PAPER_L_GRID,
}
#: Historical per-sweep GEAttack seed offsets (results must not drift).
_SWEEP_SEED_OFFSETS = {"lambda": 51, "inner-steps": 52, "subgraph-size": 53}


def _summaries(value, results, reports):
    return SweepPoint(
        value=float(value),
        asr_t=attack_success_rate_targeted(results),
        **summarize_reports(reports),
    )


def iter_sweep_events(
    case, victims, kind, values=None, explainer_factory=None, jobs=1
):
    """One-knob GEAttack sweep as an event stream.

    ``kind`` is ``"lambda"`` (Fig. 4/8), ``"inner-steps"`` (Fig. 6) or
    ``"subgraph-size"`` (Fig. 5).  Victims stream through the shared
    engine per grid value; each value closes with a
    :class:`SweepPointEvaluated`.  A sweep's detection summary only
    aggregates victims whose attack actually added edges (the historical
    sweep semantics), while ``MethodEvaluated`` events keep the pipeline's
    zero-filled convention — consumers pick their policy.
    """
    if kind not in _SWEEP_GRIDS:
        raise KeyError(
            f"unknown sweep kind {kind!r}; options: {sorted(_SWEEP_GRIDS)}"
        )
    config = case.config
    factory = explainer_factory or build_explainer_factory("gnn", case, config)
    values = _SWEEP_GRIDS[kind] if values is None else values
    seed = case.seed + _SWEEP_SEED_OFFSETS[kind]
    base_spec = attack_spec("GEAttack", config)

    if kind == "subgraph-size":
        # One attack+inspection per victim at the operating point; the
        # explanation is then re-truncated to each L (paper Fig. 5).
        attack = build_attack(base_spec, case, config, seed=seed)
        collected = []
        for event in iter_method_events(
            case, attack, victims, factory, jobs=jobs, keep_ranking=True
        ):
            if isinstance(event, VictimEvaluated):
                collected.append(event)
            yield event
        results = [event.result for event in collected]
        cached = [
            (event.ranking, event.result.added_edges)
            for event in collected
            if event.result.added_edges
        ]
        for size in values:
            reports = [
                detection_report(
                    _TruncatedExplanation(list(ranked)[: int(size)]),
                    edges,
                    k=config.detection_k,
                )
                for ranked, edges in cached
            ]
            yield SweepPointEvaluated(
                kind=kind,
                value=float(size),
                point=_summaries(size, results, reports),
            )
        return

    overridden = {
        "lambda": lambda value: base_spec.with_params(lam=float(value)),
        "inner-steps": lambda value: base_spec.with_params(
            inner_steps=int(value)
        ),
    }[kind]
    for value in values:
        attack = build_attack(overridden(value), case, config, seed=seed)
        results, reports = [], []
        for event in iter_method_events(
            case, attack, victims, factory, jobs=jobs
        ):
            if isinstance(event, VictimEvaluated):
                results.append(event.result)
                if event.result.added_edges:
                    reports.append(event.report)
            yield event
        yield SweepPointEvaluated(
            kind=kind, value=float(value), point=_summaries(value, results, reports)
        )


def sweep_points(case, victims, kind, values=None, explainer_factory=None, jobs=1):
    """Drain :func:`iter_sweep_events` to its list of SweepPoints."""
    return [
        event.point
        for event in iter_sweep_events(
            case,
            victims,
            kind,
            values=values,
            explainer_factory=explainer_factory,
            jobs=jobs,
        )
        if isinstance(event, SweepPointEvaluated)
    ]


# -- the session -------------------------------------------------------------


def _defense_runtime(defense_name, case, cell):
    """A cell's runtime wiring for one defense (only the inspector has any).

    The arena's explainer inspector is the paper's Section-3 defender: it
    holds a clean pre-attack snapshot, so only *new* edges are prunable
    (the knowledge detection@K assumes), and may prune as many edges as
    the budget cap.  It examines the explanation's top-L window only (the
    declared ``inspection_window`` config param), so evading it means
    keeping adversarial edges *below* that window — GEAttack's objective.
    An adaptive attacker rebuilds the same wiring: the snapshot is the
    graph it observes and the cap its own operating point.
    """
    if defense_name != "explainer":
        return {}
    return {"prune_k": cell.budget_cap, "trusted_edges": case.graph.edge_set()}


class Session:
    """One front door for attack construction, execution and results.

    Parameters
    ----------
    config:
        :class:`repro.experiments.ExperimentConfig` supplying every knob
        (defaults to the ``smoke`` preset).
    jobs:
        Process-pool width for every per-victim loop; any value yields
        identical results (per-victim seeding).
    cases:
        Optional mutable dict to share prepared cases (trained models,
        derived victims, fitted PGExplainers) across sessions in one
        process — the resume tests and benchmarks reuse models this way.

    One thread per process runs Sessions: the autodiff grad mode and the
    tracer's open-span stack are process-wide.  Concurrent runs are
    processes — ``jobs`` forks the per-victim loops, and separate
    processes (CLI runs, job servers) share a store through its leases.

    The compute backend is chosen by ``REPRO_BACKEND`` alone, when each
    attack is built (see :class:`repro.attacks.base.Attack`), so it is
    not part of the prepared-case memo key.  Dense and sparse runs agree
    on edge sets, ASR and rendered matrices; score-trace floats, and so
    newly written store records, can differ in the last ulp.
    """

    def __init__(self, config=None, jobs=1, cases=None):
        self.config = SCALE_PRESETS["smoke"] if config is None else config
        self.jobs = max(1, int(jobs))
        self._memo = {} if cases is None else cases

    # -- caches --------------------------------------------------------------
    def prepared(self, dataset, seed=None, hidden=None, arch=None):
        """``(case, victims)`` for a dataset instance, memoized.

        Case preparation (training) and victim derivation (FGA probing)
        are deterministic functions of ``(dataset, hidden, seed, arch,
        config)`` and independent of attack/defense, so every consumer
        sharing the key reuses them.  The effective config is part of the
        memo key (frozen dataclasses hash by value), so a ``cases`` dict
        shared across sessions with *different* configs can never serve a
        model trained under the wrong knobs.
        """
        seed = self.config.seed if seed is None else int(seed)
        hidden = self.config.hidden if hidden is None else int(hidden)
        arch = "gcn" if arch is None else str(arch)
        config = replace(self.config, hidden=hidden)
        key = (dataset, hidden, seed, arch, config)
        if key not in self._memo:
            case = prepare_case(dataset, config, seed=seed, arch=arch)
            victims = derive_target_labels(case, select_victims(case))
            self._memo[key] = (case, victims)
        return self._memo[key]

    def case(self, dataset, seed=None, hidden=None, arch=None):
        """The prepared (trained) case alone."""
        return self.prepared(dataset, seed=seed, hidden=hidden, arch=arch)[0]

    def victims(self, dataset, seed=None, hidden=None, arch=None):
        """The derived victim set alone."""
        return self.prepared(dataset, seed=seed, hidden=hidden, arch=arch)[1]

    def pg_explainer(self, case):
        """The case's fitted PGExplainer (one fit per case, memoized)."""
        return fit_pg_explainer(case, self.config, memo=self._memo)

    def surrogate_case(self, case, hidden=None, seed=None, arch=None):
        """A surrogate-attacker case for ``case`` (one training, memoized).

        The attacker-side mirror of :meth:`prepared`: an independently
        trained model on the same observed graph (see
        :func:`repro.threat.surrogate_case`), shared across every arena
        cell with the same victim case and surrogate settings.  ``arch``
        defaults to the victim case's own architecture; naming another
        registered architecture gives the cross-arch transfer setting.
        """
        from repro.threat import surrogate_case

        return surrogate_case(
            case, hidden=hidden, seed=seed, arch=arch, memo=self._memo
        )

    # -- the front door ------------------------------------------------------
    def run(self, experiment):
        """Execute an experiment as a stream of typed per-victim events.

        Accepts a :class:`~repro.api.specs.TableExperiment`,
        :class:`~repro.api.specs.SweepExperiment` or
        :class:`~repro.api.specs.ArenaExperiment`; yields
        :mod:`repro.api.events` objects and closes with
        :class:`~repro.api.events.RunCompleted` carrying the aggregate
        result (``ComparisonResult`` / ``[SweepPoint]`` / ``ArenaRun``).
        """
        if isinstance(experiment, TableExperiment):
            return self._iter_table(experiment)
        if isinstance(experiment, SweepExperiment):
            return self._iter_sweep(experiment)
        if isinstance(experiment, ArenaExperiment):
            return self._iter_arena(experiment)
        raise TypeError(
            "Session.run expects a TableExperiment, SweepExperiment or "
            f"ArenaExperiment, got {type(experiment).__name__}"
        )

    # -- convenience drains --------------------------------------------------
    def table(self, dataset, explainer="gnn", methods=None):
        """Table 1 / Table 2 comparison; returns a ComparisonResult."""
        return self._drain(
            self.run(
                TableExperiment(
                    dataset=dataset, explainer=explainer, methods=methods
                )
            )
        )

    def sweep(self, kind, dataset="cora", values=None):
        """One-knob GEAttack sweep; returns the list of SweepPoints."""
        return self._drain(
            self.run(SweepExperiment(kind=kind, dataset=dataset, values=values))
        )

    def arena(self, grid, store, progress=None, fresh=False):
        """Attack × defense matrix against a result store; returns ArenaRun.

        Attack results and each defense's verdicts on them are read from
        ``store`` when present and computed (then stored) otherwise, so a
        warm run attacks nothing and scores no defense.  A cell's missing
        work is one pool map over its victims (see :meth:`_attempt_cell`).
        ``progress`` (``callable(str)``) receives the historical one line
        per execution cell.  Concurrent runs on one store coordinate
        through :meth:`ResultStore.fill`'s leases (see
        :class:`ArenaExperiment`).
        """
        result = None
        for event in self.run(
            ArenaExperiment(grid=grid, store=store, fresh=fresh)
        ):
            if progress is not None and isinstance(event, CellExecuted):
                progress(
                    f"{event.cell.label()}: {event.cached} cached, "
                    f"{event.executed} executed"
                )
            if isinstance(event, RunCompleted):
                result = event.result
        return result

    def evaluate(self, case, attack, victims, explainer_factory):
        """One method over one victim set (the pipeline's primitive)."""
        return evaluate_method(
            case, attack, victims, explainer_factory, jobs=self.jobs
        )

    @staticmethod
    def _drain(events):
        result = None
        for event in events:
            if isinstance(event, RunCompleted):
                result = event.result
        return result

    # -- experiment loops ----------------------------------------------------
    def _table_attack(self, name, case, pg_explainer):
        """Build one table column's attack at the config operating point.

        Under the PGExplainer inspector (Table 2), the ``GEAttack`` column
        is the PG variant — renamed to keep the paper's column header.
        """
        if name == "GEAttack" and pg_explainer is not None:
            attack = build_attack("GEAttack-PG", case, self.config, context=self)
            attack.name = "GEAttack"
            return attack
        return build_attack(name, case, self.config, context=self)

    def _iter_table(self, experiment):
        config = self.config
        tracer = get_tracer()
        base = metrics.snapshot()
        wanted = set(experiment.methods or METHOD_ORDER)
        comparison = ComparisonResult(
            dataset=experiment.dataset, explainer=experiment.explainer
        )
        with tracer.span(
            "table-run",
            dataset=experiment.dataset,
            explainer=experiment.explainer,
        ) as root:
            for run_index in range(config.num_seeds):
                case, victims = self.prepared(
                    experiment.dataset, seed=config.seed + 100 * run_index
                )
                yield CasePrepared(
                    dataset=experiment.dataset,
                    seed=case.seed,
                    hidden=config.hidden,
                    test_accuracy=case.test_accuracy,
                    num_victims=len(victims),
                    span=root.id,
                )
                if not victims:
                    continue
                pg = None
                if experiment.explainer == "pg":
                    pg = self.pg_explainer(case)
                    factory = build_explainer_factory(
                        "pg", case, config, context=self
                    )
                else:
                    factory = build_explainer_factory("gnn", case, config)
                evaluations = {}
                for name in METHOD_ORDER:
                    if name not in wanted:
                        continue
                    attack = self._table_attack(name, case, pg)
                    evaluation = None
                    for event in iter_method_events(
                        case, attack, victims, factory, jobs=self.jobs
                    ):
                        if isinstance(event, MethodEvaluated):
                            evaluation = event.evaluation
                            if name == "FGA":
                                # Untargeted: the paper reports "-".
                                evaluation.asr_t = float("nan")
                        yield event
                    evaluations[attack.name] = evaluation
                comparison.runs.append(evaluations)
        comparison.manifest = build_manifest(
            wall_seconds=root.seconds,
            cells=[],
            counters=metrics.delta_since(base),
        )
        yield RunCompleted(comparison, span=root.id)

    def _iter_sweep(self, experiment):
        case, victims = self.prepared(experiment.dataset)
        points = []
        for event in iter_sweep_events(
            case,
            victims,
            experiment.kind,
            values=experiment.values,
            jobs=self.jobs,
        ):
            if isinstance(event, SweepPointEvaluated):
                points.append(event.point)
            yield event
        yield RunCompleted(points)

    def _iter_arena(self, experiment):
        grid = experiment.grid
        store = experiment.store
        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        if experiment.fresh:
            store.clear()
        # Fail on axis typos in milliseconds, not after the first cell's
        # attacks have burned minutes of compute.
        validate_grid(grid)
        run = ArenaRun(grid=grid, config=self.config)

        tracer = get_tracer()
        base = metrics.snapshot()
        cells = list(grid.cells())
        cell_rows = {
            cell.label(): {"label": cell.label(), "seconds": 0.0, "cached": 0,
                           "executed": 0}
            for cell in cells
        }
        with tracer.span(
            "arena-run", cells=len(cells), defenses=len(grid.defenses)
        ) as root:
            # Every cell whose lease this run wins executes on the first
            # pass.  A cell leased by another live run is deferred, not
            # blocked on, and re-polled until its foreign writer commits
            # (or dies: an expired lease is stolen and the leftovers
            # executed here).  With a single writer no lease is ever
            # contested, so ordering and results are unchanged.
            pending, first = cells, True
            while pending:
                waiting = []
                for cell in pending:
                    with tracer.span("cell", cell=cell.label()) as span:
                        done = yield from self._attempt_cell(
                            run, grid, store, cell, span, first
                        )
                    row = cell_rows[cell.label()]
                    row["seconds"] += span.seconds
                    if done is None:
                        waiting.append(cell)
                    else:
                        row["cached"] += done[0]
                        row["executed"] += done[1]
                # The first re-poll follows the first pass at once: the
                # rest of that pass gave foreign writers time to commit.
                if waiting and not first:
                    with tracer.span("lease-wait", pending=len(waiting)):
                        time.sleep(POLL_INTERVAL)
                pending, first = waiting, False
        run.manifest = build_manifest(
            wall_seconds=root.seconds,
            cells=list(cell_rows.values()),
            counters=metrics.delta_since(base),
        )
        yield RunCompleted(run, span=root.id)

    def _attempt_cell(self, run, grid, store, cell, span, first):
        """One leased attempt at an arena cell (an event generator).

        Runs inside the attempt's open ``cell`` ``span`` and returns
        ``(cached, executed)`` through the generator protocol, or ``None``
        when another run holds the cell's lease.  ``CellDeferred`` and the
        deferral counters fire only on the ``first`` attempt (re-polls are
        silent until the cell completes).

        One :meth:`ResultStore.fill` under the cell's lease covers its
        attack records and its verdict records (one per victim × defense,
        :func:`~repro.arena.grid.verdict_key`).  Its compute is one
        ``parallel_map`` whose unit is a victim with any missing key: the
        unit attacks the victim if its record is missing, then scores
        every defense whose verdict on it is missing, each under its own
        ``defense`` span.  A warm cell therefore attacks, rebuilds and
        scores nothing.  ``cached``, ``executed`` and
        ``CellDeferred.missing`` count attack records.
        """
        from repro.threat import execute_with_threat, resolve_threat

        case, victims = self.prepared(
            cell.dataset, seed=cell.seed, hidden=cell.hidden, arch=cell.arch
        )
        specs = [
            VictimSpec(victim.node, victim.target_label,
                       min(victim.budget, cell.budget_cap))
            for victim in victims
        ]
        cfg = cell_config(cell, self.config)
        keys = [victim_key(cfg, spec) for spec in specs]
        verdicts = {}
        for name in grid.defenses:
            point = defense_point(name, self.config)
            verdicts[name] = [verdict_key(key, point) for key in keys]

        def compute(missing):
            # Everything a unit needs is built (or read) here, once per
            # cell; forked workers inherit it.
            todo = set(missing)
            threat = attack = attacker_defense = None
            if any(key in todo for key in keys):
                threat = resolve_threat(
                    cell.threat, self.config, cell.seed, arch=cell.arch
                )
                attack = build_attack(
                    cell.attack, case, self.config, context=self, threat=threat
                )
                attacker_defense = self._attacker_defense(threat, case, cell)
            defenses = {
                name: build_defense(
                    name, case, config=self.config, context=self,
                    **_defense_runtime(name, case, cell),
                )
                for name, names_keys in verdicts.items()
                if any(key in todo for key in names_keys)
            }
            units = []
            for i, key in enumerate(keys):
                names = [name for name in defenses if verdicts[name][i] in todo]
                if key in todo or names:
                    units.append((i, names))
            stored = {
                i: store.get(keys[i]) for i, _ in units if keys[i] not in todo
            }

            def unit(item):
                i, names = item
                spec, rows = specs[i], {}
                if keys[i] in todo:
                    (result,) = execute_with_threat(
                        attack, case, [spec], threat=threat,
                        defense=attacker_defense,
                    )
                    rows[keys[i]] = {
                        "schema": SCHEMA_VERSION, "cell": cfg,
                        "victim": victim_dict(spec), "result": result.to_dict(),
                    }
                if not names:
                    return rows
                # Score through the store's format: rebuild the perturbed
                # graph from its record, fresh or stored alike.
                result = AttackResult.from_dict(
                    (rows.get(keys[i]) or stored[i])["result"], graph=case.graph
                )
                perturbed = result.perturbed_graph
                for name in names:
                    defense = defenses[name]
                    with get_tracer().span("defense", defense=name):
                        rows[verdicts[name][i]] = {
                            "evaded": bool(
                                defense.predict(perturbed, spec.node)
                                != result.original_prediction
                            ),
                            "attacked_flag": float(
                                defense.flag(perturbed, spec.node)
                            ),
                            "clean_flag": float(
                                defense.flag(case.graph, spec.node)
                            ),
                        }
                return rows

            fresh = {}
            for rows in parallel_map(
                unit, units, jobs=self.jobs,
                describe=lambda u: f"victim {specs[u[0]].node} ({cell.attack})",
            ):
                fresh.update(rows)
            return [fresh[key] for key in missing]

        payloads, written = store.fill(
            content_key(cfg),
            keys + [key for names_keys in verdicts.values() for key in names_keys],
            compute,
        )
        if written is None:
            span.set(deferred=True)
            if first:
                run.deferred += 1
                metrics.incr("arena.cells_deferred")
                missing = sum(payloads[key] is None for key in keys)
                yield CellDeferred(cell=cell, missing=missing, span=span.id)
            return None
        executed = sum(key in written for key in keys)
        cached = len(keys) - executed
        span.set(cached=cached, executed=executed)
        run.loaded += cached
        run.executed += executed
        for spec, key in zip(specs, keys):
            yield VictimAttacked(
                cell=cell, victim=spec, loaded=key not in written, span=span.id
            )
        yield CellExecuted(
            cell=cell, cached=cached, executed=executed, span=span.id
        )
        # Always aggregate the read-back verdicts, so warm and cold runs
        # see bit-identical floats.
        misclassified = [
            AttackResult.from_dict(payloads[key]["result"]).misclassified
            for key in keys
        ]
        for name in grid.defenses:
            evaluation = CellEvaluation.from_verdicts(
                cell,
                name,
                [payloads[key] for key in verdicts[name]],
                misclassified,
            )
            run.evaluations.append(evaluation)
            yield CellScored(evaluation, span=span.id)
        return cached, executed

    def _attacker_defense(self, threat, case, cell):
        """The adaptive attacker's simulation of its adapted defense.

        ``None`` for oblivious threats.  The simulation is built over the
        *attacker's* model — the surrogate under surrogate knowledge; an
        attacker cannot simulate an inspector around weights it does not
        hold.
        """
        if not threat.is_adaptive:
            return None
        from repro.api.registry import attacker_case

        attacker = attacker_case(case, threat, context=self)
        spec = DefenseSpec(threat.defense, threat.defense_params)
        return build_defense(
            spec, attacker, config=self.config, context=self,
            **_defense_runtime(threat.defense, case, cell),
        )
