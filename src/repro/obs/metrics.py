"""Process-local counters and phase timers (always on, out-of-band).

A flat ``name -> number`` dict with three access patterns:

* :func:`incr` / :func:`add` — discrete events and accumulated seconds
  (``store.writes``, ``lease.stolen``, ``phase.attack_steps.seconds``).
* :func:`snapshot` / :func:`delta_since` / :func:`merge` — the
  fork-attribution protocol: a pool worker snapshots at shard start,
  ships ``delta_since(snapshot)`` back with its results, and the parent
  :func:`merge`\\ s it, so counters are exact at any ``jobs`` width.
* :func:`register_external` — adopt an existing stats dict (the graph
  cache's hit/miss counters) under a prefix instead of double-counting
  on the hot path; externals are folded in at :func:`counters` /
  :func:`snapshot` time.

Everything is plain dict arithmetic — no locks (process-local by
design), no I/O, no dependencies — which is what lets the hot layers
increment unconditionally while tracing stays opt-in.

Counter catalog (the names the platform emits today):

===============================  =============================================
``graph_cache.hits/misses``      :func:`repro.graph.utils.graph_cached`
``store.reads``                  ``ResultStore.get`` calls
``store.read_hits/misses``       ...split by outcome (miss = absent/corrupt)
``store.writes``                 ``ResultStore.put`` calls
``store.quarantined``            corrupt records renamed to ``*.corrupt``
``store.bulk_flushes``           ``bulk()`` batch commits
``store.fsyncs``                 record + manifest fsync syscalls
``store.compressed_writes``      records gzip-compressed on ``put``
``lease.acquired/busy/stolen``   ``ResultStore.try_lease`` outcomes
``lease.renewed``                heartbeat TTL extensions (``Lease.renew``)
``arena.cells_deferred``         cells skipped on first pass (foreign lease)
``service.jobs_*``               job server intake/outcomes (``repro.service``)
``backend.arch_dense_fallback``  ``REPRO_BACKEND=sparse`` downgraded for a
                                 non-GCN victim (``Attack.__init__``)
``locality.arch_fallback``       scenes declined for a victim without exact
                                 locality (GAT)
``parallel.items/failures``      units of work through ``parallel_map``
``phase.<name>.seconds/calls``   :func:`time_phase` blocks: ``case_prep``,
                                 ``surrogate_training``, ``explainer_fitting``,
                                 ``attack_steps``, ``defense_eval``,
                                 ``store_io``
===============================  =============================================
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = [
    "incr",
    "add",
    "counters",
    "snapshot",
    "delta_since",
    "merge",
    "reset",
    "register_external",
    "time_phase",
]

_COUNTERS = {}
#: ``[(prefix, stats_dict), ...]`` — live views merged in at read time.
_EXTERNALS = []


def incr(name, amount=1):
    """Add ``amount`` to counter ``name`` (created at zero)."""
    _COUNTERS[name] = _COUNTERS.get(name, 0) + amount


add = incr  # seconds accumulate through the same arithmetic


def register_external(prefix, stats):
    """Fold a live stats dict into every snapshot as ``<prefix>.<key>``.

    The dict is read (never written) at :func:`counters`/:func:`snapshot`
    time, so the owning module keeps sole write access to its hot-path
    counters and nothing is counted twice.
    """
    for registered_prefix, registered in _EXTERNALS:
        if registered_prefix == prefix and registered is stats:
            return
    _EXTERNALS.append((prefix, stats))


def counters():
    """One merged ``name -> value`` snapshot (own counters + externals)."""
    merged = dict(_COUNTERS)
    for prefix, stats in _EXTERNALS:
        for key, value in stats.items():
            merged[f"{prefix}.{key}"] = merged.get(f"{prefix}.{key}", 0) + value
    return merged


snapshot = counters  # same shape; the name marks intent at call sites


def delta_since(before):
    """Counters accumulated since ``before`` (a :func:`snapshot`).

    Only changed names appear; a counter reset under our feet (external
    stats zeroed mid-run) clamps to its current value rather than going
    negative.
    """
    now = counters()
    out = {}
    for name, value in now.items():
        changed = value - before.get(name, 0)
        if changed:
            out[name] = changed if changed > 0 else value
    return out


def merge(delta):
    """Fold a worker's ``delta_since`` payload into this process."""
    for name, value in (delta or {}).items():
        _COUNTERS[name] = _COUNTERS.get(name, 0) + value


def reset():
    """Zero every counter owned by this module (externals untouched)."""
    _COUNTERS.clear()


@contextmanager
def time_phase(name):
    """Accumulate a block's wall-clock under ``phase.<name>.seconds``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        incr(f"phase.{name}.seconds", time.perf_counter() - start)
        incr(f"phase.{name}.calls")
