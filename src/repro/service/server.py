"""The HTTP/SSE front end: :class:`ArenaService` on ``ThreadingHTTPServer``.

Standard library only — ``http.server`` + ``json`` + the platform's own
event/wire layer; starting a server adds zero dependencies.  Routes (the
canonical endpoint reference lives in ``repro.service.__doc__`` and is
surfaced by ``python -m repro describe``):

* ``POST /jobs`` — submit a grid (or a single canonical scenario dict);
  202 with the job id.
* ``GET /jobs/<id>`` — status snapshot + final ``RunManifest`` dict.
* ``GET /jobs/<id>/events`` — Server-Sent Events replay/stream of the
  run's typed :mod:`repro.api.events`, closing after ``RunCompleted``.
* ``GET /cells/<key>`` — raw cached store record (an attack result or a
  defense verdict), at store-read speed; 400 for a malformed key.
* ``GET /healthz`` — worker/queue/job/store counters.

The server owns a :class:`~repro.service.jobs.JobQueue`; every job its
worker thread executes goes through the public ``Session.run`` path, so SSE
streams carry byte-for-byte the events an in-process run would yield
(modulo span ids and timings).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs import metrics
from repro.service.jobs import DONE, FAILED, JobQueue

__all__ = ["ArenaService"]

logger = logging.getLogger(__name__)

#: SSE keep-alive cadence while a job is quiet (comment lines, ignored
#: by clients, keep read timeouts and proxies from dropping the stream).
KEEPALIVE_SECONDS = 5.0


class _BadRequest(ValueError):
    """A client error the handler maps to HTTP 400."""


def _grid_from_payload(payload, config):
    """Build the :class:`~repro.arena.grid.ScenarioGrid` a job will run.

    Accepts either ``{"grid": {axes...}}`` (threat entries may be CLI
    grammar strings or ``ThreatModel`` dicts) or ``{"scenario": {...}}``
    — one canonical :func:`~repro.arena.grid.cell_config` dict, which is
    validated by rebuilding the cell's config under *this server's*
    experiment config and demanding the same content key, so a client can
    never silently execute under different knobs than it hashed.
    """
    from repro.api.specs import ThreatModel
    from repro.arena.grid import (
        ScenarioGrid,
        cell_config,
        cell_from_config,
        content_key,
    )

    if "grid" in payload and "scenario" in payload:
        raise _BadRequest('submit either "grid" or "scenario", not both')
    if "grid" not in payload and "scenario" not in payload:
        raise _BadRequest('request body must contain "grid" or "scenario"')
    allowed = ["fresh", "grid"]
    if "scenario" in payload:
        allowed = ["defenses", "fresh", "scenario"]
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise _BadRequest(f"unknown body keys {unknown}; allowed: {allowed}")
    if "grid" in payload:
        axes = payload["grid"]
        if not isinstance(axes, dict):
            raise _BadRequest('"grid" must be an object of axis lists')
        options = [axis.name for axis in dataclasses.fields(ScenarioGrid)]
        unknown = sorted(set(axes) - set(options))
        if unknown:
            raise _BadRequest(
                f"unknown grid axes {unknown}; options: {options}"
            )
        kwargs = {}
        for axis, values in axes.items():
            _require_list(f'grid axis "{axis}"', values)
            if axis == "threats":
                values = [
                    ThreatModel.from_dict(entry)
                    if isinstance(entry, dict)
                    else entry
                    for entry in values
                ]
            kwargs[axis] = tuple(values)
        try:
            return ScenarioGrid(**kwargs)
        except (TypeError, ValueError) as error:
            raise _BadRequest(f"invalid grid: {error}") from error
    scenario = payload["scenario"]
    try:
        cell = cell_from_config(scenario)
        canonical = cell_config(cell, config)
    except (KeyError, TypeError, ValueError) as error:
        raise _BadRequest(f"invalid scenario: {error.args[0]}") from error
    if content_key(canonical) != content_key(scenario):
        raise _BadRequest(
            "scenario does not match this server's experiment config; "
            "fetch the canonical dict from a cell this server executed "
            "or submit a grid instead"
        )
    defenses = payload.get("defenses", ["none"])
    _require_list('"defenses"', defenses)
    return ScenarioGrid(
        datasets=(cell.dataset,),
        hidden_dims=(cell.hidden,),
        attacks=(cell.attack,),
        defenses=tuple(defenses),
        budget_caps=(cell.budget_cap,),
        seeds=(cell.seed,),
        threats=(cell.threat,),
        archs=(cell.arch,),
    )


def _require_list(what, values):
    """400 unless ``values`` is a non-empty JSON list."""
    if not isinstance(values, (list, tuple)) or not values:
        raise _BadRequest(f"{what} must be a non-empty list")


class ArenaService:
    """One arena job server over one result store.

    Jobs run one at a time, in submission order, on the queue's single
    worker thread; ``workers`` is the process count each job's
    per-victim loops fan out over (``Session(jobs=workers)``), the same
    fork pool the CLI's ``--jobs`` uses.  Concurrent runs are separate
    processes — another server or CLI run sharing ``store`` — which the
    store's leases keep to exactly one execution per cell.

    ``port=0`` binds an ephemeral port (read it back from ``.port`` —
    the tests and the quickstart example do).  Use as a context manager
    or call :meth:`start`/:meth:`close` explicitly; ``close(drain=True)``
    is the graceful path — intake stops, queued and running jobs finish
    (releasing their store leases through the normal execution path),
    then the listener shuts down.
    """

    def __init__(
        self, store, config=None, host="127.0.0.1", port=0, workers=2, cases=None
    ):
        self.queue = JobQueue(store, config=config, workers=workers, cases=cases)
        self.store_root = self.queue.store_root
        handler = type("_BoundHandler", (_Handler,), {"service": self})
        self.httpd = ThreadingHTTPServer((host, int(port)), handler)
        self.httpd.daemon_threads = True
        self.host, self.port = self.httpd.server_address[:2]
        self._thread = None
        self._closed = False

    @property
    def url(self):
        return f"http://{self.host}:{self.port}"

    def start(self):
        """Serve in a daemon thread; returns ``self`` (chainable)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.httpd.serve_forever,
                name="arena-service",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self, drain=True, timeout=None):
        """Stop intake, settle the job queue, shut the listener down."""
        if self._closed:
            return
        self._closed = True
        self.queue.close(drain=drain, timeout=timeout)
        if self._thread is not None:
            self.httpd.shutdown()
            self._thread.join(timeout)
        self.httpd.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.close()
        return False

    # -- payload builders (shared by the handler) ----------------------------
    def submit_payload(self, payload):
        """Validate a ``POST /jobs`` body and queue the job."""
        from repro.arena.grid import validate_grid

        if not isinstance(payload, dict):
            raise _BadRequest("request body must be a JSON object")
        grid = _grid_from_payload(payload, self.queue.config or _default_config())
        # The same axis-typo checks ``Session.run`` performs, at POST time:
        # the submitter learns about a typo from an immediate 400, not from
        # a failed job's error field.
        try:
            validate_grid(grid)
        except (KeyError, ValueError) as error:
            raise _BadRequest(error.args[0]) from error
        fresh = payload.get("fresh", False)
        if not isinstance(fresh, bool):
            raise _BadRequest('"fresh" must be a JSON boolean')
        try:
            job = self.queue.submit(grid, fresh=fresh)
        except RuntimeError as error:
            raise _Unavailable(str(error)) from error
        return {"job": job.id, "state": job.state, "cells": grid.num_cells}

    def health_payload(self):
        from repro.arena.store import ResultStore

        store = ResultStore(self.store_root)
        return {
            "status": "ok",
            "accepting": self.queue.accepting,
            "workers": self.queue.workers,
            "queued": self.queue.depth(),
            "jobs": self.queue.state_counts(),
            "store": {"root": self.store_root, "records": len(store)},
            "counters": metrics.counters(),
        }

    def cell_payload(self, key):
        """The stored record under ``key``; 400 unless it is a content key."""
        from repro.arena.store import ResultStore

        try:
            return ResultStore(self.store_root).get(key)
        except ValueError as error:
            raise _BadRequest(error.args[0]) from error


def _default_config():
    from repro.experiments.config import SCALE_PRESETS

    return SCALE_PRESETS["smoke"]


class _Unavailable(RuntimeError):
    """Mapped to HTTP 503 (intake closed during shutdown)."""


class _Handler(BaseHTTPRequestHandler):
    """Routes one request; the class is specialized per service instance."""

    service: ArenaService = None
    server_version = "repro-arena"

    # Route handler noise through logging instead of stderr.
    def log_message(self, fmt, *args):  # noqa: A003 - BaseHTTPRequestHandler API
        logger.debug("%s %s", self.address_string(), fmt % args)

    # -- plumbing ------------------------------------------------------------
    def _send_json(self, status, payload):
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status, message):
        self._send_json(status, {"error": message})

    def _read_body(self):
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            raise _BadRequest("Content-Length must be a non-negative integer")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise _BadRequest("empty request body")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            raise _BadRequest(f"request body is not JSON: {error}") from error

    # -- routes --------------------------------------------------------------
    def do_POST(self):  # noqa: N802 - BaseHTTPRequestHandler API
        metrics.incr("service.requests")
        parsed = urllib.parse.urlparse(self.path)
        if parsed.path.rstrip("/") != "/jobs":
            self._error(404, f"no such endpoint: POST {parsed.path}")
            return
        try:
            payload = self._read_body()
            accepted = self.service.submit_payload(payload)
        except _BadRequest as error:
            self._error(400, str(error))
            return
        except _Unavailable as error:
            self._error(503, str(error))
            return
        self._send_json(202, accepted)

    def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
        metrics.incr("service.requests")
        parsed = urllib.parse.urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        if parts == ["healthz"]:
            self._send_json(200, self.service.health_payload())
        elif len(parts) == 2 and parts[0] == "jobs":
            self._job_status(parts[1])
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
            self._job_events(parts[1], urllib.parse.parse_qs(parsed.query))
        elif len(parts) == 2 and parts[0] == "cells":
            self._cell(parts[1])
        else:
            self._error(404, f"no such endpoint: GET {parsed.path}")

    def _job_status(self, job_id):
        job = self.service.queue.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        self._send_json(200, job.snapshot())

    def _cell(self, key):
        try:
            payload = self.service.cell_payload(key)
        except _BadRequest as error:
            self._error(400, str(error))
            return
        if payload is None:
            self._error(404, f"no stored record for key {key!r}")
            return
        self._send_json(200, payload)

    def _job_events(self, job_id, query):
        job = self.service.queue.get(job_id)
        if job is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        try:
            index = int(query.get("since", ["0"])[0])
        except ValueError:
            index = -1
        if index < 0:
            self._error(400, '"since" must be a non-negative event index')
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        try:
            while True:
                events, state = job.wait_events(index, timeout=KEEPALIVE_SECONDS)
                for data in events:
                    name = data.get("event", "message")
                    self.wfile.write(
                        f"id: {index}\nevent: {name}\n"
                        f"data: {json.dumps(data)}\n\n".encode("utf-8")
                    )
                    index += 1
                if events:
                    self.wfile.flush()
                    continue
                if state in (DONE, FAILED):
                    break
                self.wfile.write(b": keep-alive\n\n")
                self.wfile.flush()
            if job.state == FAILED:
                self.wfile.write(
                    b"event: error\ndata: "
                    + json.dumps({"error": job.error}).encode("utf-8")
                    + b"\n\n"
                )
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream; nothing to clean up
