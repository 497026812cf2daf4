"""Jobs and the one-thread job queue behind the arena service.

A :class:`Job` is one submitted :class:`~repro.api.specs.ArenaExperiment`
plus its accumulated event log (the ``to_dict`` form of every
:mod:`repro.api.events` object the run yielded — exactly what the SSE
endpoint streams and what :func:`repro.api.events.event_from_dict`
decodes back into typed objects).

A :class:`JobQueue` owns one worker thread that drains submitted jobs
in FIFO order, each through a plain ``Session(config, jobs=workers,
cases=…)``: a job's parallelism is the fork pool its per-victim loops
fan out over, the same mechanism the CLI's ``--jobs`` uses.  One thread
per process runs Sessions; concurrent runs are processes.  So the
prepared-case memo (``cases``) is shared by every job without a lock
(each model trains once per configuration), and a job's ``RunManifest``
counters are exactly its own traffic.

Deduplication needs no scheduler logic: every cell executes under the
store's advisory lease, so a job over cells an earlier job already wrote
loads them, and this server and any other process or host sharing the
store execute each unique cell exactly once — the loser surfacing the
standard ``CellDeferred`` events and loading the winner's committed
results.
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
        #: ``ArenaExperiment`` keyword overrides (only ``fresh``).
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
    """One worker thread draining jobs, in FIFO order, through ``Session.run``.

    ``workers`` is the process count each job's per-victim loops fan out
    over (``Session(jobs=workers)``), not a number of concurrent jobs:
    one thread per process runs Sessions, and concurrent runs are
    processes (other servers or CLI runs sharing ``store_root`` — stores
    are multi-writer by design).  Every job gets a fresh
    :class:`~repro.arena.store.ResultStore` handle and shares the
    prepared-case memo ``cases`` with every other job.
    """

    def __init__(self, store_root, config=None, workers=2, cases=None):
        self.store_root = str(store_root)
        self.config = config
        self.workers = max(1, int(workers))
        self.cases = {} if cases is None else cases
        self._jobs = {}
        self._jobs_lock = threading.Lock()
        self._queue = queue.Queue()
        self._accepting = True
        self._thread = threading.Thread(
            target=self._worker, name="arena-worker", daemon=True
        )
        self._thread.start()

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

    def depth(self):
        """Approximate number of jobs waiting for the worker."""
        return self._queue.qsize()

    # -- execution -----------------------------------------------------------
    def _worker(self):
        while True:
            job = self._queue.get()
            if job is None:
                return
            self._run_job(job)

    def _run_job(self, job):
        from repro.api import Session
        from repro.api.events import RunCompleted
        from repro.api.specs import ArenaExperiment
        from repro.arena.store import ResultStore

        job.mark(RUNNING)
        try:
            session = Session(
                config=self.config, jobs=self.workers, cases=self.cases
            )
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
        """Stop intake and shut the worker thread down.

        ``drain=True`` (the graceful path) lets every queued and running
        job finish — their leases are released by the normal execution
        path, so a restarted server over the same store resumes with
        zero re-executed cells.  ``drain=False`` fails jobs still
        waiting in the queue (the running job always completes — attacks
        are not interruptible mid-cell) before joining the worker.
        """
        self._accepting = False
        if not drain:
            while True:
                try:
                    job = self._queue.get_nowait()
                except queue.Empty:
                    break
                job.mark(FAILED, error="server shut down before execution")
        self._queue.put(None)
        self._thread.join(timeout)

