"""The benchmark's workloads: set-up, one timed run, and its correctness checks.

Every workload follows the same protocol, driven by ``run.py``:

* ``setup()`` trains the models and derives the victims for the workload
  seed (repeated to time set-up; the last result is kept);
* ``finish_setup()`` does one-off set-up that is too slow to repeat
  (filling the store for ``arena-warm``);
* ``begin()`` readies one run outside the timed region (fresh store
  directory, cold graph cache);
* ``execute()`` is the timed region;
* ``check()`` validates the outputs, cleans up and returns an
  :class:`Outcome` with one verdict per operation.

Expected counts are derived from the grid and the derived victim sets, never
hard-coded: at ``s = 0`` the arena grid has 42 victim results.

Each workload draws on two or three model seeds, and how many victims a
seed derives (4 to 7) would swing its cost by up to 40% from one workload
seed to the next.  ``generate()`` therefore picks, from candidates
``SEED_STRIDE * s + k``, the first model seeds whose victim sets have a
stated size (victim count and summed attack budget): every workload seed
measures the same amount of work on other graphs, models and victims.  At
``s = 0`` the picks are the plain seeds: arena grid (0, 1, 2), service jobs
(0, 0, 1, 1), Table 1 seed 0.
"""

from __future__ import annotations

import os
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

from repro.api import Session
from repro.api.events import CellScored, RunCompleted
from repro.arena import ResultStore, ScenarioGrid, render_arena_matrices
from repro.experiments import SCALE_PRESETS
from repro.experiments.reporting import format_comparison_table
from repro.experiments.table_runner import METHOD_ORDER
from repro.graph.utils import reset_graph_cache
from repro.service import ArenaService, ServiceClient

#: The acceptance operating point of the arena resume benchmark: converged
#: inspector (150 steps, lr 0.05) and GEAttack at λ = 1.0.  Frozen here so
#: the benchmark does not move when that test file changes.
ARENA_CONFIG = replace(
    SCALE_PRESETS["smoke"],
    dataset_scale=0.1,
    num_victims=8,
    margin_group=2,
    explainer_epochs=150,
    explainer_lr=0.05,
    geattack_lam=1.0,
)
ARENA_ATTACKS = ("FGA", "Nettack", "GEAttack")
ARENA_DEFENSES = ("none", "jaccard", "svd", "explainer")
ARENA_BUDGET_CAPS = (4,)
#: The arena grid runs model seeds ``(c, c + 1, c + 2)`` whose victim sets
#: total 14-15 victims with a summed budget of 42-48 (42 results at s = 0).
ARENA_SEEDS = 3
ARENA_SIZE = (range(14, 16), range(42, 49))
DATASET = "cora"

#: ``service-overlap``: two model seeds, each requested by two concurrent
#: jobs; each seed derives exactly 5 victims with a summed budget of 14-18.
SERVICE_JOB_SEEDS = (0, 0, 1, 1)  # indices into the picked model seeds
SERVICE_CASE_SIZE = (range(5, 6), range(14, 19))
SERVICE_WORKERS = 2

#: ``table1``: three cases whose victim sets total 9-10 victims with a
#: summed budget of 26-30.
TABLE_SEEDS = 3
TABLE_SIZE = (range(9, 11), range(26, 31))
#: Candidate model seeds for workload seed ``s`` start at ``SEED_STRIDE * s``.
SEED_STRIDE = 1000
#: Explainer epochs in the self-test's reduced mode.
REDUCED_EPOCHS = 20


def arena_grid(seeds):
    return ScenarioGrid(
        attacks=ARENA_ATTACKS,
        defenses=ARENA_DEFENSES,
        budget_caps=ARENA_BUDGET_CAPS,
        seeds=tuple(seeds),
    )


def config_deltas(config, preset="smoke"):
    """``{field: value}`` where ``config`` differs from the named preset."""
    base = SCALE_PRESETS[preset]
    return {
        f.name: getattr(config, f.name)
        for f in fields(config)
        if getattr(config, f.name) != getattr(base, f.name)
    }


def prepare_grid(config, grid):
    """Train and derive victims for every cell; returns (cases, victims).

    ``victims`` is the number of victim results the grid executes cold.
    """
    cases = {}
    session = Session(config=config, cases=cases)
    victims = 0
    for cell in grid.cells():
        victims += len(
            session.victims(
                cell.dataset, seed=cell.seed, hidden=cell.hidden, arch=cell.arch
            )
        )
    return cases, victims


def victim_set_size(victims, budget_cap):
    """``(victims, summed attack budget)`` of a derived victim set."""
    return len(victims), sum(min(v.budget, budget_cap) for v in victims)


def matched_seeds(count, start, size_of, size):
    """The first ``count`` candidates from ``start`` whose size is ``size``.

    ``size_of(candidate)`` returns ``(victims, budget)``; ``size`` is a
    pair of ranges they must fall in.
    """
    victims, budget = size
    found = []
    for candidate in range(start, start + SEED_STRIDE):
        count_of, budget_of = size_of(candidate)
        if count_of in victims and budget_of in budget:
            found.append(candidate)
            if len(found) == count:
                return found
    raise RuntimeError(f"no {count} seeds of size {size} from {start}")


def verdict(evaluation):
    """One cell × defense verdict as exact text (NaN-safe comparison)."""
    return repr(
        (
            evaluation.cell.label(),
            evaluation.defense,
            evaluation.victims,
            evaluation.evasion_rate,
            evaluation.inspection_evasion_rate,
            evaluation.detection_auc,
        )
    )


@dataclass
class Outcome:
    """What one timed run produced, as seen by the checks."""

    #: One bool per operation: did it succeed and pass its checks.
    verdicts: list
    #: Per-job latencies (seconds); ``None`` when the run is one job.
    latencies: list = None
    #: Workload-specific figures reported by the traced run.
    extra: dict = field(default_factory=dict)


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Workload:
    name = ""
    config = ARENA_CONFIG
    #: Seconds one timed run takes on the reference 2-CPU box; ``run.py``
    #: divides ``--seconds`` by it to fix the number of timed runs.
    nominal_run_s: float

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.workdir = workdir

    def describe(self):
        """Config deltas from the smoke preset, for the result stamp."""
        return config_deltas(self.config)

    def reduce(self):
        """Shrink the workload for the self-test (same code paths)."""
        self.config = replace(self.config, explainer_epochs=REDUCED_EPOCHS)

    def generate(self):
        """Derive the workload's inputs from its seed (before set-up)."""

    def finish_setup(self, state):
        return state

    def begin(self, state):
        reset_graph_cache()
        return None


class _Arena(Workload):
    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.grid = None
        self.grid_seeds = ARENA_SEEDS
        self.reference = None

    def generate(self):
        session = Session(config=self.config)

        def size_of(start):
            sizes = [
                victim_set_size(
                    session.victims(DATASET, seed=seed), max(ARENA_BUDGET_CAPS)
                )
                for seed in range(start, start + ARENA_SEEDS)
            ]
            return sum(n for n, _ in sizes), sum(b for _, b in sizes)

        (start,) = matched_seeds(1, SEED_STRIDE * self.seed, size_of, ARENA_SIZE)
        self.grid = arena_grid(range(start, start + self.grid_seeds))

    def describe(self):
        return {**super().describe(), "grid_seeds": list(self.grid.seeds)}

    def reduce(self):
        super().reduce()
        self.grid_seeds = 1

    def setup(self):
        cases, victims = prepare_grid(self.config, self.grid)
        return {"cases": cases, "victims": victims}

    def _arena(self, state, store_dir, jobs):
        session = Session(config=self.config, jobs=jobs, cases=state["cases"])
        return session.arena(self.grid, ResultStore(store_dir))

    def execute(self, state, store_dir):
        return self._arena(state, store_dir, self.jobs)

    def _judge(self, run, expected_executed):
        """Verdicts of one arena run against the first run seen."""
        text = render_arena_matrices(run)
        verdicts = [verdict(evaluation) for evaluation in run.evaluations]
        if self.reference is None:
            self.reference = (text, verdicts)
        ref_text, ref_verdicts = self.reference
        whole = text == ref_text and run.executed == expected_executed
        return [
            whole and index < len(ref_verdicts) and value == ref_verdicts[index]
            for index, value in enumerate(verdicts)
        ] or [False]


class ArenaCold(_Arena):
    """The acceptance grid on an empty store with the fork pool on."""

    name = "arena-cold"
    jobs = 2
    nominal_run_s = 11.0

    def begin(self, state):
        super().begin(state)
        return _fresh_dir(os.path.join(self.workdir, "cold-store"))

    def check(self, state, store_dir, run):
        verdicts = self._judge(run, state["victims"])
        shutil.rmtree(store_dir, ignore_errors=True)
        return Outcome(verdicts)


class ArenaWarm(_Arena):
    """The same grid re-run serially against a store filled in set-up."""

    name = "arena-warm"
    jobs = 1
    nominal_run_s = 9.0

    def finish_setup(self, state):
        store_dir = _fresh_dir(os.path.join(self.workdir, "warm-store"))
        cold = self._arena(state, store_dir, ArenaCold.jobs)
        # The cold fill is the reference every warm run must match.
        state["fill_ok"] = all(self._judge(cold, state["victims"]))
        state["store_dir"] = store_dir
        return state

    def begin(self, state):
        super().begin(state)
        return state["store_dir"]

    def check(self, state, store_dir, run):
        verdicts = self._judge(run, 0)
        if not state["fill_ok"]:
            verdicts = [False] * len(verdicts)
        return Outcome(verdicts)


class ServiceOverlap(Workload):
    """Four overlapping single-seed jobs through an in-process job server."""

    name = "service-overlap"
    nominal_run_s = 20.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.seeds = None

    def generate(self):
        session = Session(config=self.config)
        picked = matched_seeds(
            2,
            SEED_STRIDE * self.seed,
            lambda seed: victim_set_size(
                session.victims(DATASET, seed=seed), max(ARENA_BUDGET_CAPS)
            ),
            SERVICE_CASE_SIZE,
        )
        self.seeds = [picked[index] for index in SERVICE_JOB_SEEDS]

    def describe(self):
        return {**super().describe(), "job_seeds": self.seeds}

    def setup(self):
        grid = arena_grid(sorted(set(self.seeds)))
        cases, victims = prepare_grid(self.config, grid)
        return {"cases": cases, "victims": victims}

    def begin(self, state):
        super().begin(state)
        store_dir = _fresh_dir(os.path.join(self.workdir, "service-store"))
        service = ArenaService(
            store_dir,
            config=self.config,
            workers=SERVICE_WORKERS,
            cases=state["cases"],
        ).start()
        return service, store_dir

    def execute(self, state, context):
        service, _ = context
        client = ServiceClient(service.url)
        submitted = []
        for seed in self.seeds:
            job = client.submit(grid=arena_grid([seed]))
            submitted.append((job, time.perf_counter()))

        def drain(entry):
            job, submitted_at = entry
            first = None
            final = False
            scored = []
            for event in client.events(job):
                if first is None:
                    first = time.perf_counter() - submitted_at
                if isinstance(event, CellScored):
                    scored.append(verdict(event.evaluation))
                final = isinstance(event, RunCompleted)
            latency = time.perf_counter() - submitted_at
            return job, first, latency, scored, final

        # One blocking reader per job, so each terminal event is seen when
        # it is sent rather than after an earlier job's stream closes.
        with ThreadPoolExecutor(max_workers=len(submitted)) as pool:
            return [future.result() for future in
                    [pool.submit(drain, entry) for entry in submitted]]

    def check(self, state, context, drained):
        service, store_dir = context
        client = ServiceClient(service.url)
        statuses = [client.status(job) for job, *_ in drained]
        service.close()
        shutil.rmtree(store_dir, ignore_errors=True)

        executed = sum(status.get("executed", 0) for status in statuses)
        exactly_once = executed == state["victims"]
        verdicts = [
            exactly_once and status.get("state") == "done" and final
            for status, (_, _, _, _, final) in zip(statuses, drained)
        ]
        # Duplicate jobs (same seed) must score every cell identically; a
        # job that deferred a cell scores it later, so order may differ.
        scored = [sorted(entry[3]) for entry in drained]
        for index, seed in enumerate(self.seeds):
            for other, other_seed in enumerate(self.seeds):
                if other != index and other_seed == seed:
                    if scored[index] != scored[other]:
                        verdicts[index] = False
        excess = sum(
            (status.get("manifest") or {}).get("counters", {}).get(
                "store.writes", 0
            )
            - status.get("executed", 0)
            for status in statuses
        )
        firsts = sorted(first for _, first, *_ in drained if first is not None)
        return Outcome(
            verdicts,
            latencies=[latency for _, _, latency, _, _ in drained],
            extra={
                "service.manifest_write_excess": excess,
                "service.first_event_s": firsts[len(firsts) // 2]
                if firsts else float("nan"),
            },
        )


class Table1(Workload):
    """The GNNExplainer Table 1 over three seeds: no store, no defenses."""

    name = "table1"
    nominal_run_s = 11.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = replace(SCALE_PRESETS["smoke"], num_seeds=TABLE_SEEDS)
        self.reference = None

    def generate(self):
        session = Session(config=self.config)

        def size_of(seed):
            sizes = [
                victim_set_size(
                    session.victims(DATASET, seed=seed + 100 * run_index),
                    self.config.budget_cap,
                )
                for run_index in range(TABLE_SEEDS)
            ]
            return sum(n for n, _ in sizes), sum(b for _, b in sizes)

        (picked,) = matched_seeds(
            1, SEED_STRIDE * self.seed, size_of, TABLE_SIZE
        )
        self.config = replace(self.config, seed=picked)

    def reduce(self):
        super().reduce()
        self.config = replace(self.config, num_seeds=1)

    def setup(self):
        cases = {}
        session = Session(config=self.config, cases=cases)
        for run_index in range(self.config.num_seeds):
            session.prepared(DATASET, seed=self.config.seed + 100 * run_index)
        return {"cases": cases}

    def execute(self, state, _):
        return Session(config=self.config, cases=state["cases"]).table(DATASET)

    def check(self, state, _, comparison):
        text = format_comparison_table(comparison)
        columns = [
            repr([run.get(method) for run in comparison.runs])
            for method in METHOD_ORDER
        ]
        if self.reference is None:
            self.reference = (text, columns)
        ref_text, ref_columns = self.reference
        return Outcome(
            [text == ref_text and column == ref for column, ref in
             zip(columns, ref_columns)]
        )


WORKLOADS = {
    workload.name: workload
    for workload in (ArenaCold, ArenaWarm, ServiceOverlap, Table1)
}
