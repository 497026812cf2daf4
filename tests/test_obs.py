"""Observability layer: tracer, counters, manifest, schema, trace CLI.

Covers the contracts the rest of the platform leans on:

* span ids are deterministic dotted paths, identical at any ``jobs``
  width (pre-fork reservation + records shipped back in shard results);
* a *disabled* tracer costs nothing measurable on the hot path, yet its
  spans still feed the ``phase.*`` counters the run manifest reads;
* counters survive the fork boundary exactly (snapshot/delta/merge);
* worker exceptions re-raise in the parent with the failing unit of
  work (and span id, when tracing) attached;
* a corrupt store record warns once per *run*, not once per process;
* ``python -m repro trace summarize|validate`` renders/validates traces.
"""

from __future__ import annotations

import json
import logging
import sys
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.api import Session
from repro.arena import ScenarioGrid
from repro.arena.store import ResultStore
from repro.cli import main as cli_main
from repro.experiments import SCALE_PRESETS
from repro.obs import metrics
from repro.obs.manifest import build_manifest
from repro.obs.schema import validate_record, validate_trace
from repro.obs.summarize import render_summary, summarize_trace
from repro.obs.tracer import Tracer, start_trace, stop_trace
from repro.parallel import fork_available, parallel_map


@pytest.fixture
def trace(tmp_path):
    """An enabled global tracer writing into ``tmp_path``; always stopped."""
    path = str(tmp_path / "trace.jsonl")
    tracer = start_trace(path)
    yield tracer, path
    stop_trace()


def _shape(record):
    """A trace record minus the volatile fields (timings, pid)."""
    return {
        key: value
        for key, value in record.items()
        if key not in ("start", "seconds", "pid")
    }


class TestTracer:
    def test_nested_ids_parents_and_schema(self, trace):
        tracer, path = trace
        with tracer.span("run", kind="test"):
            with tracer.span("cell", cell="a"):
                with tracer.span("attack", victim=3):
                    pass
            with tracer.span("cell", cell="b"):
                pass
        stop_trace()
        records = validate_trace(path)
        shapes = [_shape(r) for r in records]
        # Children close (and are written) before parents.
        assert [(s["span"], s["parent"], s["name"]) for s in shapes] == [
            ("1.1.1", "1.1", "attack"),
            ("1.1", "1", "cell"),
            ("1.2", "1", "cell"),
            ("1", None, "run"),
        ]
        assert shapes[0]["attrs"] == {"victim": 3}
        assert shapes[-1]["attrs"] == {"kind": "test"}

    def test_set_attaches_attrs_after_entry(self, trace):
        tracer, path = trace
        with tracer.span("cell") as span:
            span.set(cached=4, executed=0)
        stop_trace()
        (record,) = validate_trace(path)
        assert record["attrs"] == {"cached": 4, "executed": 0}

    def test_non_scalar_attrs_stringify(self, trace):
        tracer, path = trace
        with tracer.span("run", grid=[1, 2]):
            pass
        stop_trace()
        (record,) = validate_trace(path)
        assert record["attrs"]["grid"] == "[1, 2]"

    def test_out_of_order_exit_is_tolerated(self, trace):
        tracer, path = trace
        outer = tracer.span("outer").__enter__()
        inner = tracer.span("inner").__enter__()
        # A generator torn down mid-iteration closes parents first.
        outer.__exit__(None, None, None)
        inner.__exit__(None, None, None)
        stop_trace()
        assert {r["name"] for r in validate_trace(path)} == {"outer", "inner"}

    def test_disabled_span_is_untraced_but_counted(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        tracer = Tracer(None)
        before = metrics.snapshot()
        span = tracer.span("test_obs_disabled", victim=1)
        assert span.id is None
        with span as entered:
            assert entered.set(x=1) is span
            assert tracer.current_id() is None
        assert tracer.reserve_item_spans(5) is None
        # Writes nothing: no trace file, no buffered worker lines.
        assert list(tmp_path.iterdir()) == []
        assert tracer.take_worker_lines() == []
        delta = metrics.delta_since(before)
        assert delta["phase.test_obs_disabled.calls"] == 1
        assert delta["phase.test_obs_disabled.seconds"] == span.seconds

    def test_disabled_tracer_overhead_guard(self):
        """The off-by-default promise: ~µs per span() on the hot path."""
        tracer = Tracer(None)
        iterations = 100_000
        started = time.perf_counter()
        for _ in range(iterations):
            with tracer.span("hot", victim=7):
                pass
        elapsed = time.perf_counter() - started
        # ~2.5µs/call in practice (two clock reads, two locked counter
        # increments); 10µs/call is the generous CI ceiling.
        assert elapsed < 1.0, f"{elapsed:.3f}s for {iterations} disabled spans"

    def test_jobs_width_does_not_change_the_trace(self, tmp_path):
        """jobs=1 and jobs=N traces are identical modulo timings/pids."""
        if not fork_available():
            pytest.skip("fork unavailable")

        def traced_run(jobs):
            path = str(tmp_path / f"jobs{jobs}.jsonl")
            tracer = start_trace(path)
            try:
                with tracer.span("run"):
                    parallel_map(lambda x: x + 1, list(range(6)), jobs=jobs)
            finally:
                stop_trace()
            return [_shape(r) for r in validate_trace(path)]

        assert traced_run(1) == traced_run(3)

    def test_stale_segment_file_is_not_merged(self, tmp_path):
        """A killed run's leftover ``<trace>.<pid>.seg`` stays out."""
        if not fork_available():
            pytest.skip("fork unavailable")
        path = tmp_path / "trace.jsonl"
        stale = {
            "schema": 1, "span": "9", "parent": None, "name": "stale",
            "start": 1.0, "seconds": 0.1, "pid": 99999, "attrs": {},
        }
        (tmp_path / "trace.jsonl.99999.seg").write_text(
            json.dumps(stale) + "\n", encoding="utf-8"
        )
        tracer = start_trace(str(path))
        try:
            with tracer.span("run"):
                parallel_map(lambda x: x, [0, 1], jobs=2)
        finally:
            stop_trace()
        names = [record["name"] for record in validate_trace(path)]
        assert names == ["unit", "unit", "run"]

    def test_item_spans_surface_through_pop_map_spans(self, trace):
        tracer, _ = trace
        with tracer.span("run"):
            parallel_map(lambda x: x, [10, 20], jobs=1)
            assert tracer.pop_map_spans() == ["1.1", "1.2"]
            assert tracer.pop_map_spans() is None


class TestMetrics:
    def test_incr_delta_merge_roundtrip(self):
        before = metrics.snapshot()
        metrics.incr("test_obs.alpha")
        metrics.incr("test_obs.alpha", 2)
        delta = metrics.delta_since(before)
        assert delta["test_obs.alpha"] == 3
        metrics.merge(delta)
        assert metrics.counters()["test_obs.alpha"] - before.get(
            "test_obs.alpha", 0
        ) == 6

    def test_register_external_is_idempotent_and_live(self):
        stats = {"hits": 1}
        metrics.register_external("test_obs_ext", stats)
        metrics.register_external("test_obs_ext", stats)  # no double fold
        assert metrics.counters()["test_obs_ext.hits"] == 1
        stats["hits"] = 5
        assert metrics.counters()["test_obs_ext.hits"] == 5

    def test_delta_clamps_external_resets(self):
        stats = {"n": 10}
        metrics.register_external("test_obs_reset", stats)
        before = metrics.snapshot()
        stats["n"] = 3  # zeroed-and-recounted under our feet
        assert metrics.delta_since(before)["test_obs_reset.n"] == 3

    def test_spans_accumulate_phase_seconds_and_calls(self, tmp_path):
        before = metrics.snapshot()
        with Tracer(None).span("test_obs_phase") as untraced:
            pass
        traced_tracer = Tracer(str(tmp_path / "t.jsonl"))
        with traced_tracer.span("test_obs_phase") as traced:
            pass
        delta = metrics.delta_since(before)
        assert delta["phase.test_obs_phase.calls"] == 2
        assert delta["phase.test_obs_phase.seconds"] == pytest.approx(
            untraced.seconds + traced.seconds
        )
        (record,) = validate_trace(tmp_path / "t.jsonl")
        assert record["seconds"] == traced.seconds

    def test_incr_is_exact_under_threads(self):
        """8 threads x 50k increments lose no update, even at a 1µs switch."""
        interval = sys.getswitchinterval()
        before = metrics.counters().get("test_obs.threaded", 0)

        def work():
            for _ in range(50_000):
                metrics.incr("test_obs.threaded")

        threads = [threading.Thread(target=work) for _ in range(8)]
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert metrics.counters()["test_obs.threaded"] - before == 400_000

    def test_parallel_map_counts_items_across_workers(self):
        before = metrics.snapshot()
        parallel_map(lambda x: x, list(range(5)), jobs=1)
        assert metrics.delta_since(before)["parallel.items"] == 5
        if fork_available():
            before = metrics.snapshot()
            parallel_map(lambda x: x, list(range(5)), jobs=2)
            assert metrics.delta_since(before)["parallel.items"] == 5


class TestWorkerFailureContext:
    def test_serial_failure_names_the_victim(self):
        victims = [SimpleNamespace(node=3), SimpleNamespace(node=7)]

        def boom(victim):
            if victim.node == 7:
                raise ValueError("numerical blow-up")
            return victim.node

        with pytest.raises(ValueError) as info:
            parallel_map(boom, victims, jobs=1)
        assert any("victim 7" in note for note in info.value.__notes__)

    def test_pool_failure_names_the_victim_and_keeps_traceback(self):
        if not fork_available():
            pytest.skip("fork unavailable")
        victims = [SimpleNamespace(node=3), SimpleNamespace(node=7)]

        def boom(victim):
            if victim.node == 7:
                raise ValueError("numerical blow-up")
            return victim.node

        with pytest.raises(ValueError) as info:
            parallel_map(boom, victims, jobs=2)
        notes = "\n".join(info.value.__notes__)
        assert "victim 7" in notes
        assert "worker traceback" in notes
        assert "numerical blow-up" in notes

    def test_describe_overrides_the_default_label(self):
        with pytest.raises(ZeroDivisionError) as info:
            parallel_map(
                lambda x: 1 // 0 if x else x,
                [1],
                jobs=1,
                describe=lambda x: f"grid point {x}",
            )
        assert any("grid point 1" in note for note in info.value.__notes__)

    def test_unpicklable_exception_degrades_to_runtime_error(self):
        if not fork_available():
            pytest.skip("fork unavailable")

        class LocalError(Exception):  # local classes never unpickle
            pass

        def boom(x):
            raise LocalError(f"item {x} died")

        with pytest.raises(RuntimeError) as info:
            parallel_map(boom, [0, 1], jobs=2)
        message = str(info.value)
        assert "item 0" in message and "LocalError" in message

    def test_earliest_failing_item_wins(self):
        if not fork_available():
            pytest.skip("fork unavailable")

        def boom(x):
            raise ValueError(f"item {x}")

        with pytest.raises(ValueError) as info:
            parallel_map(boom, list(range(6)), jobs=3)
        assert any("item 0" in note for note in info.value.__notes__)

    def test_failure_note_carries_span_id_when_tracing(self, trace):
        tracer, _ = trace
        with tracer.span("run"):
            with pytest.raises(ValueError) as info:
                parallel_map(
                    lambda x: (_ for _ in ()).throw(ValueError("x")),
                    [0],
                    jobs=1,
                )
        assert any("[span 1.1]" in note for note in info.value.__notes__)


class TestQuarantineWarnsOncePerRun:
    def _corrupt_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("ab" * 32, {"x": 1})
        path = store.path("ab" * 32)
        path.write_text("{ torn", encoding="utf-8")
        return store, path

    def test_rename_winner_warns_loser_stays_quiet(self, tmp_path, caplog):
        store, path = self._corrupt_store(tmp_path)
        with caplog.at_level(logging.DEBUG, logger="repro.arena.store"):
            assert store._quarantine("ab" * 32, path, "torn json") is None
            # A second quarantine of the same record (another worker that
            # raced us) loses the rename and must not warn again.
            assert store._quarantine("ab" * 32, path, "torn json") is None
        warnings = [
            r for r in caplog.records if r.levelno >= logging.WARNING
        ]
        assert len(warnings) == 1
        assert path.with_name(path.name + ".corrupt").exists()

    def test_second_process_reading_after_quarantine_is_silent(
        self, tmp_path, caplog
    ):
        store, path = self._corrupt_store(tmp_path)
        other = ResultStore(tmp_path / "store")  # a second writer's handle
        with caplog.at_level(logging.DEBUG, logger="repro.arena.store"):
            assert store.get("ab" * 32) is None  # quarantines + warns
            assert other.get("ab" * 32) is None  # record already renamed
        warnings = [
            r for r in caplog.records if r.levelno >= logging.WARNING
        ]
        assert len(warnings) == 1

    def test_store_counters_track_reads_and_writes(self, tmp_path):
        before = metrics.snapshot()
        store = ResultStore(tmp_path / "store")
        store.put("cd" * 32, {"x": 2})
        assert store.get("cd" * 32) == {"x": 2}
        assert store.get("ef" * 32) is None
        delta = metrics.delta_since(before)
        assert delta["store.writes"] == 1
        assert delta["store.reads"] == 2
        assert delta["store.read_hits"] == 1
        assert delta["store.read_misses"] == 1
        assert delta["store.fsyncs"] >= 1

    def test_lease_counters(self, tmp_path):
        before = metrics.snapshot()
        store = ResultStore(tmp_path / "store")
        lease = store.try_lease("cell-a", ttl=900.0)
        assert store.try_lease("cell-a", ttl=900.0) is None
        lease.release()
        delta = metrics.delta_since(before)
        assert delta["lease.acquired"] == 1
        assert delta["lease.busy"] == 1


#: Trimmed to seconds: tiny model, three victims, one cheap attack.
ARENA_CONFIG = replace(
    SCALE_PRESETS["smoke"],
    epochs=60,
    num_victims=3,
    margin_group=1,
    explainer_epochs=20,
)
ARENA_GRID = ScenarioGrid(
    attacks=("FGA-T",),
    defenses=("none", "jaccard"),
    budget_caps=(2,),
    seeds=(0,),
)


@pytest.fixture(scope="module")
def arena_cases():
    """Trained models shared by every arena run in this module."""
    return {}


def _cold_arena(cases, store_dir, jobs=1):
    session = Session(ARENA_CONFIG, jobs=jobs, cases=cases)
    return session.arena(ARENA_GRID, ResultStore(store_dir))


class TestSpanPhases:
    """With tracing off, spans alone time the run the manifest reports."""

    def test_wall_seconds_is_the_root_span(self, arena_cases, tmp_path):
        # From zero, the arena-run counter delta is that one span's
        # seconds exactly (no float cancellation against earlier runs).
        metrics.reset()
        manifest = _cold_arena(arena_cases, tmp_path / "store").manifest
        phases = manifest.phase_seconds()
        assert manifest.wall_seconds == phases["arena-run"]
        assert {"cell", "store-read", "store-write", "attack", "defense"} <= (
            set(phases)
        )
        assert sum(row["seconds"] for row in manifest.cells) == (
            pytest.approx(phases["cell"])
        )

    def test_attack_calls_equal_across_jobs(self, arena_cases, tmp_path):
        if not fork_available():
            pytest.skip("fork unavailable")
        serial = _cold_arena(arena_cases, tmp_path / "j1").manifest
        pooled = _cold_arena(arena_cases, tmp_path / "j2", jobs=2).manifest
        assert serial.counters["phase.attack.calls"] == 3
        assert pooled.counters["phase.attack.calls"] == 3


def _traced_arena(cases, grid, store_dir, path, jobs):
    """A traced arena run over ``grid``: ``(run, records)``."""
    start_trace(str(path))
    try:
        run = Session(ARENA_CONFIG, jobs=jobs, cases=cases).arena(
            grid, ResultStore(store_dir)
        )
    finally:
        stop_trace()
    return run, validate_trace(str(path))


class TestArenaUnits:
    """One pool map per arena cell: a unit is one victim's attack plus its
    missing verdicts, and every ``defense`` span runs inside a unit."""

    GRID = replace(
        ARENA_GRID, attacks=("FGA-T", "RNA"), defenses=("none", "jaccard")
    )

    def test_cold_cell_is_one_unit_per_victim_at_any_width(
        self, arena_cases, tmp_path
    ):
        if not fork_available():
            pytest.skip("fork unavailable")
        # Train first, so neither traced run opens a case-prep span.
        Session(ARENA_CONFIG, cases=arena_cases).prepared("cora")
        (run, records), (pooled_run, pooled) = [
            _traced_arena(
                arena_cases, self.GRID, tmp_path / f"j{jobs}",
                tmp_path / f"j{jobs}.jsonl", jobs,
            )
            for jobs in (1, 2)
        ]
        assert [_shape(r) for r in records] == [_shape(r) for r in pooled]
        names = {record["span"]: record["name"] for record in records}
        defense_spans = [r for r in records if r["name"] == "defense"]
        verdicts = run.executed * len(self.GRID.defenses)
        assert run.executed == 2 * ARENA_CONFIG.num_victims
        assert list(names.values()).count("unit") == run.executed
        assert len(defense_spans) == verdicts
        assert {names[r["parent"]] for r in defense_spans} == {"unit"}
        for manifest in (run.manifest, pooled_run.manifest):
            assert manifest.counters["phase.defense.calls"] == verdicts

    def test_widening_is_one_unit_per_victim_for_the_new_defense(
        self, arena_cases, tmp_path
    ):
        store = tmp_path / "store"
        narrow = replace(self.GRID, defenses=("none",))
        Session(ARENA_CONFIG, cases=arena_cases).arena(
            narrow, ResultStore(store)
        )
        run, records = _traced_arena(
            arena_cases, self.GRID, store, tmp_path / "t.jsonl", jobs=2
        )
        names = [record["name"] for record in records]
        assert run.executed == 0
        assert names.count("attack") == 0
        assert names.count("unit") == run.loaded
        assert [
            r["attrs"]["defense"] for r in records if r["name"] == "defense"
        ] == ["jaccard"] * run.loaded


class TestManifest:
    def _manifest(self):
        return build_manifest(
            wall_seconds=10.0,
            cells=[
                {"label": "a", "seconds": 6.0, "cached": 4, "executed": 0},
                {"label": "b", "seconds": 3.0, "cached": 0, "executed": 4},
            ],
            counters={
                "store.read_hits": 4,
                "store.read_misses": 4,
                "graph_cache.hits": 30,
                "graph_cache.misses": 10,
                "phase.case-prep.seconds": 2.5,
                "phase.case-prep.calls": 2,
            },
        )

    def test_ratios_and_slowest(self):
        manifest = self._manifest()
        assert manifest.store_hit_ratio() == 0.5
        assert manifest.graph_cache_hit_ratio() == 0.75
        assert [row["label"] for row in manifest.slowest_cells(1)] == ["a"]
        assert manifest.phase_seconds() == {"case-prep": 2.5}

    def test_ratios_none_without_traffic(self):
        manifest = build_manifest(wall_seconds=1.0, cells=[], counters={})
        assert manifest.store_hit_ratio() is None
        assert manifest.graph_cache_hit_ratio() is None

    def test_summary_lines_and_to_dict(self):
        manifest = self._manifest()
        text = "\n".join(manifest.summary_lines())
        assert "store hit ratio: 50.0%" in text
        assert "a: 6.00s" in text
        payload = manifest.to_dict()
        assert payload["wall_seconds"] == 10.0
        assert len(payload["cells"]) == 2


class TestSchema:
    def _record(self, **overrides):
        record = {
            "schema": 1,
            "span": "1.2",
            "parent": "1",
            "name": "cell",
            "start": 100.0,
            "seconds": 0.5,
            "pid": 42,
            "attrs": {"cell": "a"},
        }
        record.update(overrides)
        return record

    def test_valid_record(self):
        assert validate_record(self._record()) == []

    @pytest.mark.parametrize(
        "overrides",
        [
            {"schema": 2},
            {"span": "0.1"},
            {"span": "a.b"},
            {"parent": "2"},  # not a prefix of span
            {"seconds": -0.1},
            {"start": True},
            {"attrs": {"x": [1]}},
            {"pid": "42"},
        ],
    )
    def test_invalid_records(self, overrides):
        assert validate_record(self._record(**overrides))

    def test_missing_field_flagged(self):
        record = self._record()
        del record["name"]
        assert validate_record(record)

    def test_validate_trace_points_at_the_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(self._record(span="1", parent=None))
        path.write_text(good + "\n{ not json\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            validate_trace(path)


class TestTraceCLI:
    def _write_trace(
        self, path, lease_seconds=0.0, defer_cell=False, cold_cell=False
    ):
        root = {
            "schema": 1, "span": "1", "parent": None, "name": "arena-run",
            "start": 100.0, "seconds": 10.0, "pid": 1, "attrs": {},
        }
        cells = [
            {
                "schema": 1, "span": "1.1", "parent": "1", "name": "cell",
                "start": 100.0, "seconds": 6.0, "pid": 1,
                "attrs": {"cell": "cora/FGA-T", "cached": 4, "executed": 0},
            },
            {
                "schema": 1, "span": "1.2", "parent": "1", "name": "cell",
                "start": 106.0, "seconds": 3.5, "pid": 1,
                "attrs": {
                    "cell": "cora/Nettack",
                    "cached": 0 if cold_cell else 4,
                    "executed": 4 if cold_cell else 0,
                    **({"deferred": True} if defer_cell else {}),
                },
            },
        ]
        records = cells + [root]
        if lease_seconds:
            records.insert(0, {
                "schema": 1, "span": "1.3", "parent": "1",
                "name": "lease-wait", "start": 101.0,
                "seconds": lease_seconds, "pid": 1, "attrs": {},
            })
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        return path

    def test_summarize_reports_cells_and_coverage(self, tmp_path, capsys):
        path = self._write_trace(tmp_path / "t.jsonl")
        summary = summarize_trace(path)
        assert summary["coverage"] == pytest.approx(0.95)
        assert [row["label"] for row in summary["cells"]] == [
            "cora/FGA-T", "cora/Nettack",
        ]
        assert summary["anomalies"] == []
        assert cli_main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cell-span coverage: 95.0%" in out
        assert "cora/FGA-T" in out

    def test_min_coverage_gate(self, tmp_path):
        path = self._write_trace(tmp_path / "t.jsonl")
        assert (
            cli_main(["trace", "summarize", str(path), "--min-coverage", "90"])
            == 0
        )
        with pytest.raises(SystemExit):
            cli_main(
                ["trace", "summarize", str(path), "--min-coverage", "99"]
            )

    def test_anomalies_flagged(self, tmp_path):
        path = self._write_trace(
            tmp_path / "t.jsonl", lease_seconds=2.0, defer_cell=True
        )
        summary = summarize_trace(path)
        text = render_summary(summary)
        assert "lease waits account for" in text
        assert "deferred behind a foreign lease" in text

    def test_cache_collapse_anomaly(self, tmp_path):
        # Run-wide ratio is warm (≥50%) but one cell's collapses to 0%.
        path = self._write_trace(tmp_path / "t.jsonl", cold_cell=True)
        summary = summarize_trace(path)
        assert any("hit-rate collapse" in a for a in summary["anomalies"])

    def test_validate_subcommand(self, tmp_path, capsys):
        path = self._write_trace(tmp_path / "t.jsonl")
        assert cli_main(["trace", "validate", str(path)]) == 0
        assert "schema-valid" in capsys.readouterr().out
        path.write_text("nonsense\n", encoding="utf-8")
        with pytest.raises(SystemExit):
            cli_main(["trace", "validate", str(path)])
