"""Jobs and the lease-deduped worker pool behind the arena service.

A :class:`Job` is one submitted :class:`~repro.api.specs.ArenaExperiment`
plus its accumulated event log (the ``to_dict`` form of every
:mod:`repro.api.events` object the run yielded — exactly what the SSE
endpoint streams and what :func:`repro.api.events.event_from_dict`
decodes back into typed objects).

A :class:`JobQueue` owns N worker threads, each draining submitted jobs
through ``Session.run``.  Deduplication needs no scheduler logic: every
cell executes under the store's advisory lease (PR 7), so two queued
jobs over overlapping grids — or this server and any other process or
host sharing the store — execute each unique cell exactly once, with
the loser surfacing the standard ``CellDeferred`` events and loading the
winner's committed results.  Case preparation (model training) is
serialized across workers through one shared ``cases`` memo, so a model
is trained once per (dataset, hidden, seed, config) no matter how many
jobs need it.

Counter caveat: :mod:`repro.obs.metrics` is process-global, so the
counter deltas inside a job's ``RunManifest`` include any concurrently
running jobs' traffic.  Wall-clock, per-cell rows and the run's own
executed/loaded totals stay exact.
"""

from __future__ import annotations

import logging
import queue
import threading
import uuid

from repro.obs import metrics

__all__ = [
    "Job",
    "JobQueue",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
]

logger = logging.getLogger(__name__)

QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"
_TERMINAL = (DONE, FAILED)


class Job:
    """One submitted arena run: state, event log, final manifest."""

    def __init__(self, grid, options=None):
        self.id = uuid.uuid4().hex[:12]
        self.grid = grid
        #: ``ArenaExperiment`` keyword overrides (fresh/lease_ttl/…).
        self.options = dict(options or {})
        self._condition = threading.Condition()
        self._state = QUEUED
        self._events = []
        self.error = None
        #: ``RunManifest.to_dict()`` of the completed run (or ``None``).
        self.manifest = None
        #: ``{"executed", "loaded", "deferred"}`` from the ``ArenaRun``.
        self.stats = None

    # -- state ---------------------------------------------------------------
    @property
    def state(self):
        with self._condition:
            return self._state

    @property
    def done(self):
        with self._condition:
            return self._state in _TERMINAL

    def mark(self, state, error=None):
        """Transition the job and wake every waiting streamer."""
        with self._condition:
            self._state = state
            if error is not None:
                self.error = error
            self._condition.notify_all()

    # -- the event log -------------------------------------------------------
    def append_event(self, data):
        """Append one event dict and wake the SSE streamers."""
        with self._condition:
            self._events.append(data)
            self._condition.notify_all()

    def wait_events(self, index, timeout=None):
        """``(events[index:], state)`` — blocks until news or timeout.

        Returns as soon as at least one event past ``index`` exists or
        the job is terminal; on timeout it returns whatever is there
        (possibly nothing), so callers can emit keep-alives.
        """
        with self._condition:
            self._condition.wait_for(
                lambda: len(self._events) > index or self._state in _TERMINAL,
                timeout,
            )
            return list(self._events[index:]), self._state

    def events(self):
        with self._condition:
            return list(self._events)

    def snapshot(self):
        """The ``GET /jobs/<id>`` status payload."""
        with self._condition:
            data = {
                "job": self.id,
                "state": self._state,
                "cells": self.grid.num_cells,
                "events": len(self._events),
                "error": self.error,
                "manifest": self.manifest,
            }
            if self.stats is not None:
                data.update(self.stats)
            return data


class JobQueue:
    """N worker threads draining jobs through one shared-cache Session.

    Every worker builds its own :class:`~repro.api.Session` handle and
    :class:`~repro.arena.store.ResultStore` instance over the shared
    ``store_root`` — stores are multi-writer by design — while the
    prepared-case memo (``cases``) is shared across all workers and all
    jobs, with preparation serialized by a lock so each model trains
    exactly once per configuration.
    """

    def __init__(
        self,
        store_root,
        config=None,
        workers=2,
        jobs=1,
        cases=None,
    ):
        self.store_root = str(store_root)
        self.config = config
        self.session_jobs = max(1, int(jobs))
        self.cases = {} if cases is None else cases
        self._prep_lock = threading.RLock()
        self._jobs = {}
        self._jobs_lock = threading.Lock()
        self._queue = queue.Queue()
        self._accepting = True
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"arena-worker-{index}", daemon=True
            )
            for index in range(max(1, int(workers)))
        ]
        for thread in self._threads:
            thread.start()

    # -- intake --------------------------------------------------------------
    @property
    def accepting(self):
        return self._accepting

    def submit(self, grid, **options):
        """Queue one grid; returns the :class:`Job` (raises when closed)."""
        if not self._accepting:
            raise RuntimeError("job queue is closed (server shutting down)")
        job = Job(grid, options)
        with self._jobs_lock:
            self._jobs[job.id] = job
        metrics.incr("service.jobs_submitted")
        self._queue.put(job)
        return job

    def get(self, job_id):
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def jobs(self):
        with self._jobs_lock:
            return list(self._jobs.values())

    def state_counts(self):
        counts = {state: 0 for state in (QUEUED, RUNNING, DONE, FAILED)}
        for job in self.jobs():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    @property
    def workers(self):
        return len(self._threads)

    def depth(self):
        """Approximate number of jobs waiting for a worker."""
        return self._queue.qsize()

    # -- execution -----------------------------------------------------------
    def _worker(self):
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                self._run_job(job)
            finally:
                self._queue.task_done()

    def _session(self):
        return _shared_cache_session_class()(
            config=self.config,
            jobs=self.session_jobs,
            cases=self.cases,
            prep_lock=self._prep_lock,
        )

    def _run_job(self, job):
        from repro.api.events import RunCompleted
        from repro.api.specs import ArenaExperiment
        from repro.arena.store import ResultStore

        job.mark(RUNNING)
        try:
            session = self._session()
            experiment = ArenaExperiment(
                grid=job.grid,
                store=ResultStore(self.store_root),
                **job.options,
            )
            for event in session.run(experiment):
                if isinstance(event, RunCompleted):
                    run = event.result
                    job.stats = {
                        "executed": run.executed,
                        "loaded": run.loaded,
                        "deferred": run.deferred,
                    }
                    if run.manifest is not None:
                        job.manifest = run.manifest.to_dict()
                job.append_event(event.to_dict())
        except Exception as error:  # noqa: BLE001 — a job, not the server
            logger.exception("arena job %s failed", job.id)
            metrics.incr("service.jobs_failed")
            job.mark(FAILED, error=f"{type(error).__name__}: {error}")
            return
        metrics.incr("service.jobs_completed")
        job.mark(DONE)

    # -- shutdown ------------------------------------------------------------
    def close(self, drain=True, timeout=None):
        """Stop intake and shut the pool down.

        ``drain=True`` (the graceful path) lets every queued and running
        job finish — their leases are released by the normal execution
        path, so a restarted server over the same store resumes with
        zero re-executed cells.  ``drain=False`` fails jobs still
        waiting for a worker (running jobs always complete — attacks are
        not interruptible mid-cell) before joining the pool.
        """
        self._accepting = False
        if not drain:
            while True:
                try:
                    job = self._queue.get_nowait()
                except queue.Empty:
                    break
                job.mark(FAILED, error="server shut down before execution")
                self._queue.task_done()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout)


_SHARED_SESSION_CLASS = None


def _shared_cache_session_class():
    """The Session subclass that serializes case preparation across threads.

    Built lazily (``repro.api.session`` pulls in numpy and the whole
    stack) and memoized.  Preparation is deterministic and memoized in
    the shared ``cases`` dict; the lock prevents two workers from
    training the same model concurrently (wasted work, not wrong
    results).  All other Session behavior is inherited unchanged.
    """
    global _SHARED_SESSION_CLASS
    if _SHARED_SESSION_CLASS is None:
        from repro.api.session import Session

        class _SharedCacheSession(Session):
            def __init__(self, *args, prep_lock=None, **kwargs):
                super().__init__(*args, **kwargs)
                self._prep_lock = prep_lock or threading.RLock()

            def prepared(self, *args, **kwargs):
                with self._prep_lock:
                    return super().prepared(*args, **kwargs)

            def pg_explainer(self, *args, **kwargs):
                with self._prep_lock:
                    return super().pg_explainer(*args, **kwargs)

            def surrogate_case(self, *args, **kwargs):
                with self._prep_lock:
                    return super().surrogate_case(*args, **kwargs)

        _SHARED_SESSION_CLASS = _SharedCacheSession
    return _SHARED_SESSION_CLASS
