"""Order-preserving process-pool map for embarrassingly parallel work.

The experiment pipeline's per-victim unit of work (attack → explain →
score) is deterministic given the victim: every attack seeds its RNG with
``base_seed + victim_node``, so results are independent of execution order
and of how victims are sharded across workers.  :func:`parallel_map`
exploits that: it fans items out over a fork-based process pool and merges
results back in input order, which makes ``jobs=1`` and ``jobs=N`` produce
byte-identical result tables.

Fork (not spawn) is required: work functions are closures over trained
models and prepared cases, which are not picklable.  Children inherit them
through the forked address space; only the shard index lists and the
per-item results cross the process boundary.  On platforms without fork
the map silently degrades to serial execution — same results, no speedup.

Observability rides the same protocol (see :mod:`repro.obs`):

* **Counters** — each worker snapshots :mod:`repro.obs.metrics` at shard
  start and ships its delta back with the results; the parent merges, so
  counter totals are exact at any ``jobs`` width.
* **Spans** — every item runs under a ``unit`` span.  With tracing
  enabled, the parent *reserves* one span id per item (in input order)
  before forking; workers open each item's span under its reserved id,
  buffer the item's records and ship them back in the shard result next
  to the counter delta, and the parent appends them in input order.  A
  ``jobs=N`` trace is therefore structurally identical to ``jobs=1``.
* **Failures** — a worker exception re-raises in the *parent* with the
  failing unit of work attached (``describe(item)``, or the item's
  ``.node`` for victim-shaped items) plus the failing span id when
  tracing; the parent-side traceback no longer loses which victim died.
"""

from __future__ import annotations

import multiprocessing
import pickle
import traceback

from repro.obs import metrics
from repro.obs.tracer import get_tracer

__all__ = ["parallel_map", "fork_available"]

#: Parent-side state inherited by forked workers.  Non-empty only while a
#: pool is running; a populated dict inside a worker therefore also serves
#: as the "already inside a pool" marker that keeps nested parallel_map
#: calls serial (no fork bombs).
_WORKER_STATE = {}


def fork_available():
    """Whether fork-based pools are usable on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _describe_item(index, item, describe):
    """Human label for one unit of work (for error notes and span attrs)."""
    if describe is not None:
        try:
            return str(describe(item))
        except Exception:
            pass
    node = getattr(item, "node", None)
    if node is not None:
        return f"victim {node}"
    return f"item {index}"


def _failure(index, item, describe, span_id, error):
    """A worker failure as a picklable record (the exception when it is)."""
    try:
        pickle.dumps(error)
        portable = error
    except Exception:
        portable = None
    return (
        index,
        _describe_item(index, item, describe),
        span_id,
        portable,
        traceback.format_exc(),
    )


def _attach_context(error, description, span_id):
    note = f"parallel_map: while processing {description}"
    if span_id is not None:
        note += f" [span {span_id}]"
    if hasattr(error, "add_note"):
        error.add_note(note)
    return note


def _reraise(failure):
    index, description, span_id, error, formatted = failure
    metrics.incr("parallel.failures")
    if error is not None:
        _attach_context(error, description, span_id)
        if hasattr(error, "add_note"):
            error.add_note(f"worker traceback:\n{formatted.rstrip()}")
        raise error
    # The original exception would not survive pickling; carry its
    # worker-side traceback instead of losing it.
    raise RuntimeError(
        f"parallel_map: worker failed while processing {description}"
        + (f" [span {span_id}]" if span_id is not None else "")
        + f"\n{formatted.rstrip()}"
    )


def _run_shard(indices):
    fn = _WORKER_STATE["fn"]
    items = _WORKER_STATE["items"]
    describe = _WORKER_STATE["describe"]
    spans = _WORKER_STATE["spans"]
    tracer = get_tracer()
    before = metrics.snapshot()
    results = []
    traced = []
    failure = None
    for index in indices:
        span_id = spans[index] if spans is not None else None
        metrics.incr("parallel.items")
        try:
            with tracer.item_span(span_id):
                results.append((index, fn(items[index])))
        except Exception as error:
            # Fail fast on this shard; the parent re-raises the earliest
            # failing item with its work-unit context attached.
            failure = _failure(index, items[index], describe, span_id, error)
        traced.append((index, tracer.take_worker_lines()))
        if failure is not None:
            break
    return results, failure, metrics.delta_since(before), traced


def parallel_map(fn, items, jobs=1, describe=None):
    """``[fn(x) for x in items]`` with optional process-pool fan-out.

    Results always come back in input order.  ``fn`` must be deterministic
    per item (derive any randomness from the item itself, e.g. a per-victim
    seed) for ``jobs`` to have no effect on the output.  Worker exceptions
    propagate to the caller, annotated with the failing unit of work —
    ``describe(item)`` when given, the item's ``.node`` otherwise — and
    the failing span id when tracing is on.
    """
    items = list(items)
    jobs = max(1, int(jobs))
    tracer = get_tracer()
    spans = tracer.reserve_item_spans(len(items))
    if (
        jobs == 1
        or len(items) <= 1
        or _WORKER_STATE  # nested call from inside a worker: stay serial
        or not fork_available()
    ):
        results = []
        for index, item in enumerate(items):
            span_id = spans[index] if spans is not None else None
            metrics.incr("parallel.items")
            try:
                with tracer.item_span(span_id):
                    results.append(fn(item))
            except Exception as error:
                metrics.incr("parallel.failures")
                _attach_context(
                    error, _describe_item(index, item, describe), span_id
                )
                raise
        tracer.store_map_spans(spans)
        return results

    jobs = min(jobs, len(items))
    shards = [list(range(start, len(items), jobs)) for start in range(jobs)]
    context = multiprocessing.get_context("fork")
    _WORKER_STATE.update(fn=fn, items=items, describe=describe, spans=spans)
    try:
        with context.Pool(processes=jobs) as pool:
            shard_results = pool.map(_run_shard, shards)
    finally:
        _WORKER_STATE.clear()
    merged = [None] * len(items)
    failures = []
    traced = []
    for results, failure, delta, shard_traced in shard_results:
        metrics.merge(delta)
        traced.extend(shard_traced)
        for index, value in results:
            merged[index] = value
        if failure is not None:
            failures.append(failure)
    # The items' span records in input order — also on failure, so a
    # partial trace of a crashed run still shows what ran.
    traced.sort(key=lambda entry: entry[0])
    tracer.write_lines([line for _, lines in traced for line in lines])
    if failures:
        _reraise(min(failures, key=lambda failure: failure[0]))
    tracer.store_map_spans(spans)
    return merged
