"""Spans: the one timer, and the opt-in JSONL trace built from them.

Every :meth:`Tracer.span` times its block and adds the duration to the
always-on ``phase.<name>.seconds`` / ``.calls`` counters of
:mod:`repro.obs.metrics`; that is how ``RunManifest.phase_seconds()``
splits a run whether or not tracing is on.  Writing the spans out is
**off by default**: the process-global tracer is constructed from the
environment on first use (``REPRO_TRACE=1`` enables it, with the trace
path from ``REPRO_TRACE_PATH``, default ``repro_trace.jsonl``).  A
disabled tracer's spans carry id ``None``, join no span stack and write
nothing — the hot path pays two clock reads and two counter increments
(the overhead guard in ``tests/test_obs.py`` holds this honest).

Span identity is hierarchical and **deterministic across pool widths**:
ids are dotted paths (``"1"``, ``"1.2"``, ``"1.2.3"``) assigned from
per-span child counters.  :func:`repro.parallel.parallel_map` reserves
its items' span ids *before* forking (one counter bump per item, in
input order) and each forked worker opens its items' spans under those
reserved ids.  A worker keeps its records in memory; ``parallel_map``
ships each item's records back in the shard result, next to the counter
delta, and the parent appends them in input order.  ``jobs=1``
therefore produces the same spans, ids, parents and order as ``jobs=N``
— only timings and pids differ.

Records are one JSON object per line (see :mod:`repro.obs.schema`)::

    {"schema": 1, "span": "1.2", "parent": "1", "name": "cell",
     "start": 1699.5, "seconds": 0.42, "pid": 4242, "attrs": {...}}

A span's record is written when it *closes*, so a trace file lists
children before their parents; consumers rebuild the tree from the
``parent`` links, never from file order.
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro.obs import metrics

__all__ = ["Tracer", "Span", "get_tracer", "start_trace", "stop_trace"]

_ENV_ENABLE = "REPRO_TRACE"
_ENV_PATH = "REPRO_TRACE_PATH"
_DEFAULT_PATH = "repro_trace.jsonl"
_TRUTHY = {"1", "true", "yes", "on"}

_SCALARS = (str, int, float, bool, type(None))


def _clean_attrs(attrs):
    """JSON-scalar attribute values only; everything else stringifies."""
    return {
        key: value if isinstance(value, _SCALARS) else str(value)
        for key, value in attrs.items()
    }


class Span:
    """One span: times its block and, when traced, emits its record on exit.

    Every span adds its duration to the ``phase.<name>.seconds`` /
    ``.calls`` counters, traced or not.  A span of a disabled tracer has
    id ``None``: it joins no span stack and writes no record.
    """

    __slots__ = (
        "tracer", "name", "id", "parent", "attrs", "seconds",
        "_start", "_t0", "_children",
    )

    def __init__(self, tracer, name, span_id, parent_id, attrs):
        self.tracer = tracer
        self.name = name
        self.id = span_id
        self.parent = parent_id
        self.attrs = attrs
        #: The block's duration, set on exit.
        self.seconds = None
        self._children = 0
        self._start = None
        self._t0 = None

    def set(self, **attrs):
        """Attach attributes after entry (e.g. counts known only at exit)."""
        if self.id is not None:
            self.attrs.update(_clean_attrs(attrs))
        return self

    def next_child_id(self):
        self._children += 1
        return f"{self.id}.{self._children}"

    def __enter__(self):
        if self.id is not None:
            self._start = time.time()
            self.tracer._stack.append(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self._t0
        metrics.incr(f"phase.{self.name}.seconds", self.seconds)
        metrics.incr(f"phase.{self.name}.calls")
        if self.id is None:
            return False
        stack = self.tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # tolerate out-of-order generator teardown
            stack.remove(self)
        self.tracer._emit(
            {
                "schema": 1,
                "span": self.id,
                "parent": self.parent,
                "name": self.name,
                "start": self._start,
                "seconds": self.seconds,
                "pid": os.getpid(),
                "attrs": self.attrs,
            }
        )
        return False


class Tracer:
    """Span factory + JSONL writer; disabled when constructed without a path."""

    def __init__(self, path=None):
        self.path = None if path is None else str(path)
        self.enabled = self.path is not None
        #: The open-span stack and the last map's item span ids are plain
        #: attributes: one thread per process runs Sessions, and forked
        #: pool workers inherit the forking thread's copies.  ``_lock``
        #: still serializes top-level span ids and file appends, so no
        #: other thread of the process can tear a record; forked children
        #: get a fresh one via the ``os.register_at_fork`` hook below.
        self._stack = []
        self._last_map_spans = None
        self._lock = threading.Lock()
        self._top_children = 0
        #: The pid that owns the trace file; forked children buffer their
        #: records in ``_worker_lines`` for ``parallel_map`` to ship back.
        self._origin_pid = os.getpid()
        self._worker_lines = []
        if self.enabled:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            open(self.path, "w").close()

    @classmethod
    def from_env(cls):
        """Enabled iff ``REPRO_TRACE`` is truthy; path from ``REPRO_TRACE_PATH``."""
        if os.environ.get(_ENV_ENABLE, "").strip().lower() in _TRUTHY:
            return cls(os.environ.get(_ENV_PATH) or _DEFAULT_PATH)
        return cls(None)

    # -- spans ---------------------------------------------------------------
    def span(self, name, **attrs):
        """A new child span of the innermost open span (untraced when disabled)."""
        if not self.enabled:
            return Span(self, name, None, None, attrs)
        if self._stack:
            parent = self._stack[-1]
            span_id, parent_id = parent.next_child_id(), parent.id
        else:
            span_id, parent_id = self._next_top_id(), None
        return Span(self, name, span_id, parent_id, _clean_attrs(attrs))

    def current_id(self):
        """Id of the innermost open span, or ``None``."""
        return self._stack[-1].id if self._stack else None

    def _next_top_id(self):
        with self._lock:
            self._top_children += 1
            return str(self._top_children)

    # -- the parallel_map protocol -------------------------------------------
    def reserve_item_spans(self, count):
        """Reserve ``count`` child ids under the current span, in order.

        Called by ``parallel_map`` *before* forking: the parent burns the
        child counter once per item, so the ids each item's span will use
        are fixed by input position — independent of which worker (or the
        serial loop) ends up executing the item.
        """
        if not self.enabled:
            return None
        if self._stack:
            parent = self._stack[-1]
            return [parent.next_child_id() for _ in range(count)]
        return [self._next_top_id() for _ in range(count)]

    def item_span(self, span_id):
        """An item's ``unit`` span under its pre-reserved id (or ``None``)."""
        parent_id = None
        if span_id is not None and self._stack:
            parent_id = self._stack[-1].id
        return Span(self, "unit", span_id, parent_id, {})

    def store_map_spans(self, spans):
        """Record the span ids of the most recent ``parallel_map``'s items."""
        self._last_map_spans = spans

    def pop_map_spans(self):
        """Take (and clear) the most recent map's item span ids, or ``None``."""
        spans, self._last_map_spans = self._last_map_spans, None
        return spans

    def take_worker_lines(self):
        """Take (and clear) the record lines a forked worker has buffered."""
        lines, self._worker_lines = self._worker_lines, []
        return lines

    # -- output --------------------------------------------------------------
    def _emit(self, record):
        line = json.dumps(record, sort_keys=True) + "\n"
        if os.getpid() != self._origin_pid:
            # Forked pool worker: parallel_map ships the line back.
            self._worker_lines.append(line)
        else:
            self.write_lines([line])

    def write_lines(self, lines):
        """Append record lines to the trace file."""
        if not self.enabled or not lines:
            return
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.writelines(lines)


# -- the process-global tracer ------------------------------------------------

_TRACER = None


def _reinit_lock_after_fork():
    """Replace the tracer's lock in forked children.

    A pool fork can land while another thread (an HTTP handler, a lease
    heartbeat) holds the tracer lock in the parent; the child would then
    deadlock on its copied, forever-held lock.  The child is
    single-threaded at birth, so a fresh lock is always correct.
    """
    tracer = _TRACER
    if tracer is not None:
        tracer._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reinit_lock_after_fork)


def get_tracer():
    """The process tracer, lazily constructed from the environment."""
    global _TRACER
    if _TRACER is None:
        _TRACER = Tracer.from_env()
    return _TRACER


def start_trace(path):
    """Enable tracing to ``path`` (truncates), replacing the global tracer."""
    global _TRACER
    _TRACER = Tracer(path)
    return _TRACER


def stop_trace():
    """Disable tracing; returns the finished trace's path (or ``None``)."""
    global _TRACER
    path = _TRACER.path if _TRACER is not None and _TRACER.enabled else None
    _TRACER = Tracer(None)
    return path
