"""Session: one front door, streaming events, shared caches, exact results.

The acceptance-level contract: the table runner, the sweeps and the arena
all execute through ``Session.run``, whose drains (``table``/``sweep``/
``arena``) return exactly the ``RunCompleted`` result of the stream.
"""

import math
from dataclasses import replace

import pytest

from repro.api import (
    ArenaExperiment,
    ExplainerSpec,
    Session,
    SweepExperiment,
    TableExperiment,
    ThreatModel,
    build_explainer_factory,
)
from repro.api.events import (
    CasePrepared,
    CellExecuted,
    CellScored,
    MethodEvaluated,
    MethodStarted,
    RunCompleted,
    SweepPointEvaluated,
    VictimAttacked,
    VictimEvaluated,
)
from repro.api.session import sweep_points
from repro.arena import ResultStore, ScenarioGrid, render_arena_matrices
from repro.experiments import SCALE_PRESETS, format_comparison_table

#: Trimmed to seconds: tiny model, three victims, cheap explainer.
CONFIG = replace(
    SCALE_PRESETS["smoke"],
    epochs=60,
    num_victims=3,
    margin_group=1,
    explainer_epochs=20,
    geattack_inner_steps=2,
)

METHODS = ("RNA", "FGA-T")


@pytest.fixture(scope="module")
def session():
    return Session(config=CONFIG)


@pytest.fixture(scope="module")
def table_events(session):
    return list(
        session.run(TableExperiment("cora", explainer="gnn", methods=METHODS))
    )


class TestTableThroughSession:
    def test_event_stream_shape(self, table_events, session):
        assert isinstance(table_events[0], CasePrepared)
        assert isinstance(table_events[-1], RunCompleted)
        started = [e for e in table_events if isinstance(e, MethodStarted)]
        evaluated = [e for e in table_events if isinstance(e, MethodEvaluated)]
        assert [e.method for e in started] == list(METHODS)
        assert [e.method for e in evaluated] == list(METHODS)
        victims = len(session.victims("cora"))
        per_victim = [e for e in table_events if isinstance(e, VictimEvaluated)]
        assert len(per_victim) == victims * len(METHODS)
        assert [e.index for e in per_victim[:victims]] == list(range(victims))

    def test_table_drain_matches_stream(self, table_events, session):
        comparison = table_events[-1].result
        drained = session.table("cora", explainer="gnn", methods=METHODS)
        assert format_comparison_table(drained) == format_comparison_table(
            comparison
        )

    def test_fga_event_carries_nan_asr_t_when_yielded(self, session):
        """A streaming consumer sees FGA's "-" exactly as the table does."""
        at_yield = []
        for event in session.run(TableExperiment("cora", methods=("FGA",))):
            if isinstance(event, MethodEvaluated):
                wire = MethodEvaluated.from_dict(event.to_dict())
                at_yield += [event.evaluation.asr_t, wire.evaluation.asr_t]
        assert at_yield
        assert all(math.isnan(asr_t) for asr_t in at_yield)

    def test_case_cache_shared(self, session):
        assert session.case("cora") is session.case("cora")

    def test_shared_cases_are_config_scoped(self, session):
        """A cases dict shared across configs must never cross-serve models."""
        other = Session(
            config=replace(CONFIG, epochs=30, num_victims=2),
            cases=session._memo,
        )
        assert other.case("cora") is not session.case("cora")

    def test_run_rejects_unknown_experiment(self, session):
        with pytest.raises(TypeError, match="Session.run expects"):
            list(session.run(object()))

    def test_eval_spec_parameterizes_inspection(self, session):
        from repro.api import build_attack

        case, victims = session.prepared("cora")
        attack = build_attack("FGA-T", case, CONFIG)
        factory = build_explainer_factory("gnn", case, CONFIG)

        def window(size):
            return replace(
                case,
                config=replace(
                    case.config, detection_k=5, explanation_size=size
                ),
            )

        narrow = session.evaluate(window(1), attack, victims, factory)
        wide = session.evaluate(window(40), attack, victims, factory)
        # A 1-edge inspection window can only expose at most as many
        # adversarial edges as a 40-edge one (same seeds throughout).
        assert narrow.recall <= wide.recall + 1e-12


class TestSweepThroughSession:
    def test_sweep_events_match_module_drain(self, session):
        events = list(
            session.run(
                SweepExperiment("lambda", dataset="cora", values=(0.0, 5.0))
            )
        )
        points = [e for e in events if isinstance(e, SweepPointEvaluated)]
        assert [p.value for p in points] == [0.0, 5.0]
        assert isinstance(events[-1], RunCompleted)
        assert events[-1].result == [p.point for p in points]
        case, victims = session.prepared("cora")
        drained = sweep_points(case, victims, "lambda", values=(0.0, 5.0))
        assert drained == events[-1].result

    def test_subgraph_size_sweep_streams(self, session):
        points = session.sweep("subgraph-size", "cora", values=(5, 20))
        assert [p.value for p in points] == [5.0, 20.0]

    def test_unknown_kind_rejected(self, session):
        with pytest.raises(KeyError, match="unknown sweep kind"):
            session.sweep("gamma", "cora")


class TestExplainerSpecBuild:
    def test_pg_context_cache_serves_default_point(self, session):
        case = session.case("cora")
        factory = build_explainer_factory("pg", case, CONFIG, context=session)
        assert factory(None) is session.pg_explainer(case)

    def test_pg_spec_overrides_bypass_cache(self, session):
        """Explicit spec params must be honored, never silently dropped."""
        case = session.case("cora")
        factory = build_explainer_factory(
            ExplainerSpec("pg", {"epochs": 1, "instances": 2}),
            case,
            CONFIG,
            context=session,
        )
        explainer = factory(None)
        assert explainer.epochs == 1
        assert explainer is not session.pg_explainer(case)


#: An adaptive threat whose adapted-defense params carry a typo.
ADAPTED_JACCARD_TYPO = ThreatModel(
    adaptivity="preprocess_aware",
    defense="jaccard",
    defense_params={"treshold": 0.1},
)


class TestArenaThroughSession:
    GRID = ScenarioGrid(
        attacks=("FGA-T", "DICE"),
        defenses=("none", "jaccard"),
        budget_caps=(2,),
        seeds=(0,),
    )

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return ResultStore(tmp_path_factory.mktemp("api-arena") / "store")

    @pytest.fixture(scope="class")
    def cold_events(self, session, store):
        return list(session.run(ArenaExperiment(grid=self.GRID, store=store)))

    def test_cold_run_event_stream(self, cold_events, session):
        cells = [e for e in cold_events if isinstance(e, CellExecuted)]
        scored = [e for e in cold_events if isinstance(e, CellScored)]
        attacked = [e for e in cold_events if isinstance(e, VictimAttacked)]
        assert len(cells) == self.GRID.num_cells
        assert len(scored) == self.GRID.num_cells * len(self.GRID.defenses)
        assert all(not e.loaded for e in attacked)
        run = cold_events[-1].result
        assert run.executed == len(attacked) > 0
        assert run.loaded == 0

    def test_warm_resume_executes_zero_through_session(
        self, session, store, cold_events
    ):
        cold_run = cold_events[-1].result
        events = list(session.run(ArenaExperiment(grid=self.GRID, store=store)))
        attacked = [e for e in events if isinstance(e, VictimAttacked)]
        assert all(e.loaded for e in attacked)
        warm_run = events[-1].result
        assert warm_run.executed == 0
        assert warm_run.loaded == cold_run.executed
        assert render_arena_matrices(warm_run) == render_arena_matrices(cold_run)

    def test_progress_lines_preserved(self, session, store, cold_events):
        lines = []
        session.arena(self.GRID, store, progress=lines.append)
        assert len(lines) == self.GRID.num_cells
        assert all("cached, 0 executed" in line for line in lines)

    @pytest.mark.parametrize(
        "axes, error, fragment",
        [
            ({"datasets": ("cora", "bogus")}, KeyError, "unknown dataset"),
            ({"budget_caps": ("3",)}, ValueError, "budget_caps .* integers"),
            ({"hidden_dims": (0,)}, ValueError, "hidden_dims .* >= 1"),
            ({"seeds": (1.5,)}, ValueError, "seeds .* integers"),
            ({"seeds": (-1,)}, ValueError, "seeds .* >= 0"),
            ({"budget_caps": (True,)}, ValueError, "budget_caps .* integers"),
            (
                {"threats": (ADAPTED_JACCARD_TYPO,)},
                ValueError,
                r"defense 'jaccard' spec carries undeclared params "
                r"\['treshold'\]",
            ),
        ],
    )
    def test_bad_grid_rejected_before_any_work(
        self, session, tmp_path, axes, error, fragment
    ):
        """Datasets, numeric axes and adapted-defense params fail early."""
        grid = ScenarioGrid(
            **{"attacks": ("DICE",), "defenses": ("none",), **axes}
        )
        store = ResultStore(tmp_path / "store")
        with pytest.raises(error, match=fragment):
            session.arena(grid, store)
        assert len(store) == 0
