"""Structured tracing + metrics for the experiment platform (zero-dep).

Two complementary instruments, both strictly *out-of-band* — nothing in
this package ever touches store keys, result payloads or rendered
matrices, so every golden byte is independent of whether telemetry is on:

* :mod:`repro.obs.tracer` — spans, the one timer.  Every span adds its
  duration to the ``phase.<name>.seconds`` / ``.calls`` counters; with
  ``REPRO_TRACE=1`` (path via ``REPRO_TRACE_PATH``) spans are also
  written as one JSONL trace file per run.  Span ids are deterministic
  across pool widths: the parent reserves the per-item ids before
  forking and workers ship each item's records back in the shard result,
  appended in input order, so ``jobs=1`` and ``jobs=N`` traces are
  structurally identical (timing and pids aside).
* :mod:`repro.obs.metrics` — always-on process-local counters (locked
  dict increments; cheap enough for the hot path).  Forked pool workers
  ship their counter deltas back through
  :func:`repro.parallel.parallel_map`, so attribution is correct at any
  ``jobs`` width.

:mod:`repro.obs.manifest` summarizes a run (totals, cache ratios,
slowest cells) into the ``RunManifest`` attached to ``ArenaRun`` /
``ComparisonResult``; :mod:`repro.obs.schema` validates trace lines;
:mod:`repro.obs.summarize` renders ``python -m repro trace summarize``.
"""

from __future__ import annotations

from repro.obs import metrics
from repro.obs.manifest import RunManifest, build_manifest
from repro.obs.schema import validate_record, validate_trace
from repro.obs.summarize import summarize_trace
from repro.obs.tracer import Tracer, get_tracer, start_trace, stop_trace

__all__ = [
    "metrics",
    "RunManifest",
    "build_manifest",
    "Tracer",
    "get_tracer",
    "start_trace",
    "stop_trace",
    "summarize_trace",
    "validate_record",
    "validate_trace",
]
