"""Traced arena quickstart: spans, counters and the run manifest.

Runs a small attack × defense matrix twice with structured tracing
enabled (the ``repro.obs`` layer) and shows the three observability
surfaces the platform emits:

1. **the trace file** — one JSONL span record per unit of work
   (``arena-run`` → ``cell`` → ``case-prep``/``store-read``/``unit``/
   ``store-write``/``defense`` → ``attack``), schema-checked and
   summarized offline with ``python -m repro trace summarize``;
2. **counters** — always-on process-local tallies (store reads/writes,
   graph-cache hits, lease outcomes, and ``phase.<span>.seconds`` for
   every span), exact at any ``jobs`` width because workers ship deltas
   back through the pool;
3. **the run manifest** — ``ArenaRun.manifest``, the per-run summary a
   service front-end would ingest (totals, cache ratios, per-span
   phases, slowest cells).

Telemetry is strictly out-of-band: store keys, result payloads and the
rendered matrices are byte-identical with tracing on or off.  With
``REPRO_TRACE`` unset, spans still time themselves into the counters
(so the manifest is complete) but write no record.

Usage::

    python examples/traced_arena.py [--jobs 2]

CLI equivalent::

    REPRO_TRACE=1 REPRO_TRACE_PATH=trace.jsonl \
        python -m repro --jobs 2 arena --attacks FGA-T,Nettack \
        --defenses none,jaccard --store arena-store
    python -m repro trace summarize trace.jsonl
"""

import argparse
import shutil
import tempfile
from pathlib import Path

from repro.api import Session
from repro.arena import ResultStore, ScenarioGrid
from repro.experiments import SCALE_PRESETS
from repro.obs.summarize import render_summary, summarize_trace
from repro.obs.tracer import start_trace, stop_trace


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()

    workdir = Path(tempfile.mkdtemp(prefix="traced-arena-"))
    trace_path = workdir / "trace.jsonl"
    grid = ScenarioGrid(
        attacks=("FGA-T", "Nettack"),
        defenses=("none", "jaccard"),
        budget_caps=(3,),
        seeds=(0,),
    )
    session = Session(config=SCALE_PRESETS["smoke"], jobs=args.jobs)

    try:
        # Cold run, traced: every span lands in trace.jsonl.
        start_trace(trace_path)
        cold = session.arena(grid, ResultStore(workdir / "store"))
        stop_trace()

        print(f"cold run: {cold.stats_line()}")
        print()
        print("== run manifest (what a dashboard would ingest) ==")
        print("\n".join(cold.manifest.summary_lines()))
        print()
        print("== trace summary (python -m repro trace summarize) ==")
        print(render_summary(summarize_trace(trace_path)))

        # Warm resume, untraced: identical results, zero attacks executed,
        # and the manifest's store hit ratio flips to 100% cached.  The
        # manifest is built from span timings and always-on counters, so
        # it is populated even though no trace file is being written here.
        warm = session.arena(grid, ResultStore(workdir / "store"))
        print()
        print(f"warm resume: {warm.stats_line()}")
        print(f"warm store hit ratio: {warm.manifest.store_hit_ratio():.0%}")
        assert warm.executed == 0, "warm store must re-execute nothing"
    finally:
        stop_trace()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
