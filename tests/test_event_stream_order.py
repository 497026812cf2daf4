"""Event-stream ordering under process pools.

The facade's determinism contract, asserted at the event level: the typed
event sequence from ``session.run(...)`` is identical at ``jobs=1`` and
``jobs=4`` — same event types, same order, same per-victim payloads —
and with tracing on, the two runs' traces are structurally identical
(same spans, ids, parents and attrs; only timings and pids differ).
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.api import Session, TableExperiment
from repro.api.events import (
    CasePrepared,
    MethodEvaluated,
    MethodStarted,
    RunCompleted,
    VictimEvaluated,
)
from repro.experiments import SCALE_PRESETS
from repro.obs.schema import validate_trace
from repro.obs.tracer import start_trace, stop_trace
from repro.parallel import fork_available

#: Trimmed to seconds: tiny model, three victims, one cheap method.
CONFIG = replace(
    SCALE_PRESETS["smoke"],
    epochs=60,
    num_victims=3,
    margin_group=1,
    explainer_epochs=20,
)
EXPERIMENT = TableExperiment(dataset="cora", explainer="gnn", methods=("FGA-T",))


@pytest.fixture(scope="module")
def shared_cases():
    """One trained model shared by every run in this module."""
    cases = {}
    # Warm the memo before any traced run so neither the jobs=1 nor the
    # jobs=4 trace holds a case-prep span (prepare_case opens it, and
    # only on a memo miss).
    session = Session(config=CONFIG, jobs=1, cases=cases)
    session.prepared("cora")
    return cases


def _project(event):
    """An event's deterministic payload (drops result objects' arrays)."""
    kind = type(event).__name__
    if isinstance(event, CasePrepared):
        return (kind, event.dataset, event.seed, event.num_victims, event.span)
    if isinstance(event, MethodStarted):
        return (kind, event.method, event.dataset, event.num_victims, event.span)
    if isinstance(event, VictimEvaluated):
        return (
            kind,
            event.method,
            event.victim.node,
            event.index,
            event.total,
            bool(event.result.hit_target),
            bool(event.result.misclassified),
            tuple(event.result.added_edges),
            tuple(sorted(event.report.items())),
            event.span,
        )
    if isinstance(event, MethodEvaluated):
        evaluation = event.evaluation
        return (kind, event.method, evaluation.asr, evaluation.asr_t, event.span)
    if isinstance(event, RunCompleted):
        return (kind, event.span)
    return (kind,)


def _run(cases, jobs, trace_path=None):
    tracer = start_trace(trace_path) if trace_path else None
    try:
        session = Session(config=CONFIG, jobs=jobs, cases=cases)
        events = list(session.run(EXPERIMENT))
    finally:
        if tracer is not None:
            stop_trace()
    return events


def _trace_shape(path):
    return [
        {k: v for k, v in record.items() if k not in ("start", "seconds", "pid")}
        for record in validate_trace(path)
    ]


class TestEventStreamOrder:
    def test_jobs4_stream_matches_jobs1(self, shared_cases):
        if not fork_available():
            pytest.skip("fork unavailable")
        serial = [_project(e) for e in _run(shared_cases, jobs=1)]
        pooled = [_project(e) for e in _run(shared_cases, jobs=4)]
        assert serial == pooled
        kinds = [p[0] for p in serial]
        assert kinds[0] == "CasePrepared"
        assert kinds[1] == "MethodStarted"
        assert kinds.count("VictimEvaluated") == 3
        assert kinds[-1] == "RunCompleted"

    def test_traces_structurally_identical_across_jobs(
        self, shared_cases, tmp_path
    ):
        if not fork_available():
            pytest.skip("fork unavailable")
        _run(shared_cases, jobs=1, trace_path=str(tmp_path / "j1.jsonl"))
        _run(shared_cases, jobs=4, trace_path=str(tmp_path / "j4.jsonl"))
        serial = _trace_shape(tmp_path / "j1.jsonl")
        pooled = _trace_shape(tmp_path / "j4.jsonl")
        assert serial == pooled
        # Sanity: the trace actually has per-victim structure in it.
        names = [record["name"] for record in serial]
        assert names.count("unit") == 3
        assert names.count("attack") == 3

    def test_events_carry_span_ids_when_tracing(self, shared_cases, tmp_path):
        events = _run(
            shared_cases, jobs=1, trace_path=str(tmp_path / "t.jsonl")
        )
        victim_events = [e for e in events if isinstance(e, VictimEvaluated)]
        spans = [event.span for event in victim_events]
        assert all(spans) and len(set(spans)) == len(spans)
        recorded = {
            json.loads(line)["span"]
            for line in open(tmp_path / "t.jsonl", encoding="utf-8")
        }
        assert set(spans) <= recorded

    def test_events_span_free_without_tracing(self, shared_cases):
        events = _run(shared_cases, jobs=1)
        assert all(event.span is None for event in events)
        run_completed = events[-1]
        assert isinstance(run_completed, RunCompleted)
        manifest = run_completed.result.manifest
        assert manifest is not None
        assert manifest.wall_seconds > 0
        assert manifest.counters.get("parallel.items") == 3
