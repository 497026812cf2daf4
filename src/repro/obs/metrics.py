"""Process-local counters (always on, out-of-band).

A flat ``name -> number`` dict with three access patterns:

* :func:`incr` / :func:`add` — discrete events and accumulated seconds
  (``store.writes``, ``lease.stolen``, ``phase.attack.seconds``).
* :func:`snapshot` / :func:`delta_since` / :func:`merge` — the
  fork-attribution protocol: a pool worker snapshots at shard start,
  ships ``delta_since(snapshot)`` back with its results, and the parent
  :func:`merge`\\ s it, so counters are exact at any ``jobs`` width.
* :func:`register_external` — adopt an existing stats dict (the graph
  cache's hit/miss counters) under a prefix instead of double-counting
  on the hot path; externals are folded in at :func:`counters` /
  :func:`snapshot` time.

Everything is plain dict arithmetic under one module lock — the job
server's HTTP handler threads and lease heartbeats increment alongside
the Session thread, and an unlocked read-modify-write loses updates —
with no I/O and no dependencies, which
is what lets the hot layers increment unconditionally while tracing
stays opt-in.

Counter catalog (the names the platform emits today):

===============================  =============================================
``graph_cache.hits/misses``      :func:`repro.graph.utils.graph_cached`
``store.reads``                  ``ResultStore.get`` calls
``store.read_hits/misses``       ...split by outcome (miss = absent/corrupt)
``store.writes``                 ``ResultStore.put`` calls
``store.quarantined``            corrupt records renamed to ``*.corrupt``
``store.bulk_flushes``           ``bulk()`` batch commits
``store.fsyncs``                 record + manifest fsync syscalls
``lease.acquired/busy/stolen``   ``ResultStore.try_lease`` outcomes
``lease.renewed``                heartbeat TTL extensions (``Lease.renew``)
``arena.cells_deferred``         cells skipped on first pass (foreign lease)
``service.jobs_*``               job server intake/outcomes (``repro.service``)
``backend.arch_dense_fallback``  ``REPRO_BACKEND=sparse`` downgraded for a
                                 non-GCN victim (``Attack.__init__``)
``locality.arch_fallback``       scenes declined for a victim without exact
                                 locality (GAT)
``explain.tape_fallback``        ``GNNExplainer.explain_node`` calls that keep
                                 the autodiff tape (a non-GCN victim or
                                 ``explain_features=True``)
``parallel.items/failures``      units of work through ``parallel_map``
``phase.<span>.seconds/calls``   every closed :class:`repro.obs.tracer.Span`,
                                 traced or not: ``arena-run``,
                                 ``table-run``, ``cell``, ``case-prep``,
                                 ``surrogate-training``, ``store-read``,
                                 ``store-write``, ``method``, ``unit``,
                                 ``attack``, ``explain``, ``defense``,
                                 ``lease-wait``
===============================  =============================================

``phase.*`` seconds are summed where the span ran: ``unit``, ``attack``,
``explain`` and ``defense`` (one per arena verdict, inside its victim's
unit) run inside pool workers, so under ``jobs > 1`` they add up worker
time and can exceed the run's wall-clock.
"""

from __future__ import annotations

import os
import threading

__all__ = [
    "incr",
    "add",
    "counters",
    "snapshot",
    "delta_since",
    "merge",
    "reset",
    "register_external",
]

_COUNTERS = {}
#: ``[(prefix, stats_dict), ...]`` — live views merged in at read time.
_EXTERNALS = []
_LOCK = threading.Lock()


def _reinit_lock_after_fork():
    """A fresh lock in forked children (the parent's may be held mid-fork)."""
    global _LOCK
    _LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reinit_lock_after_fork)


def incr(name, amount=1):
    """Add ``amount`` to counter ``name`` (created at zero)."""
    with _LOCK:
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
    with _LOCK:
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
    with _LOCK:
        for name, value in (delta or {}).items():
            _COUNTERS[name] = _COUNTERS.get(name, 0) + value


def reset():
    """Zero every counter owned by this module (externals untouched)."""
    with _LOCK:
        _COUNTERS.clear()
