"""Typed, stdlib-only client for the arena service (``urllib`` + SSE).

The client speaks exactly the wire format the server emits: job
submissions serialize a :class:`~repro.arena.grid.ScenarioGrid` through
:func:`grid_payload`, and the SSE stream decodes back into the same
typed :mod:`repro.api.events` objects an in-process ``Session.run``
yields — compare them directly in tests.

    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8008")
    job = client.submit(grid=my_grid)
    for event in client.events(job):
        ...                       # typed events, RunCompleted last
    status = client.status(job)   # manifest, executed/loaded counts
"""

from __future__ import annotations

import dataclasses
import json
import urllib.error
import urllib.parse
import urllib.request

__all__ = ["ServiceClient", "ServiceError", "grid_payload"]


class ServiceError(RuntimeError):
    """An HTTP-level failure, carrying the server's status and message."""

    def __init__(self, message, status=None, payload=None):
        super().__init__(message)
        self.status = status
        self.payload = payload


def grid_payload(grid):
    """The JSON axis dict ``POST /jobs`` accepts for a ``ScenarioGrid``.

    One entry per ``ScenarioGrid`` field, threats as ``ThreatModel`` dicts.
    """
    return {
        axis.name: (
            [threat.to_dict() for threat in grid.threats]
            if axis.name == "threats"
            else list(getattr(grid, axis.name))
        )
        for axis in dataclasses.fields(grid)
    }


class ServiceClient:
    """One server, many requests; every method is a plain HTTP call."""

    def __init__(self, base_url, timeout=120.0):
        self.base_url = str(base_url).rstrip("/")
        self.timeout = float(timeout)

    # -- plumbing ------------------------------------------------------------
    def _request(self, path, payload=None):
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=data, headers=headers
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            body = error.read().decode("utf-8", "replace")
            try:
                parsed = json.loads(body)
                message = parsed.get("error", body)
            except ValueError:
                parsed, message = None, body
            raise ServiceError(
                f"{path}: HTTP {error.code}: {message}",
                status=error.code,
                payload=parsed,
            ) from error

    # -- the API -------------------------------------------------------------
    def submit(self, grid=None, scenario=None, defenses=None, fresh=False):
        """``POST /jobs``; returns the job id.

        ``grid`` may be a :class:`~repro.arena.grid.ScenarioGrid` or an
        axis dict; ``scenario`` is a canonical ``cell_config`` dict
        (optionally with evaluation ``defenses``, which the server rejects
        next to a grid).  ``fresh`` clears the store before the run.
        """
        payload = {}
        if grid is not None:
            payload["grid"] = grid if isinstance(grid, dict) else grid_payload(grid)
        if scenario is not None:
            payload["scenario"] = scenario
        if defenses is not None:
            payload["defenses"] = list(defenses)
        if fresh:
            payload["fresh"] = True
        return self._request("/jobs", payload)["job"]

    def status(self, job):
        """``GET /jobs/<id>`` — state, counts, final manifest dict."""
        return self._request(f"/jobs/{job}")

    def events(self, job, since=0, decode=True):
        """``GET /jobs/<id>/events`` — yield the job's events in order.

        Blocks on the live SSE stream until the job's terminal event;
        with ``decode=True`` (default) yields typed
        :mod:`repro.api.events` objects via
        :func:`repro.api.events.event_from_dict`, otherwise raw dicts.
        A server-reported job failure raises :class:`ServiceError`.
        """
        from repro.api.events import event_from_dict

        url = f"{self.base_url}/jobs/{job}/events?since={int(since)}"
        request = urllib.request.Request(url)
        try:
            response = urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as error:
            body = error.read().decode("utf-8", "replace")
            raise ServiceError(
                f"/jobs/{job}/events: HTTP {error.code}: {body}",
                status=error.code,
            ) from error
        with response:
            name, data_lines = None, []
            for raw in response:
                line = raw.decode("utf-8").rstrip("\r\n")
                if line.startswith(":"):
                    continue  # keep-alive comment
                if line.startswith("event:"):
                    name = line[len("event:"):].strip()
                elif line.startswith("data:"):
                    data_lines.append(line[len("data:"):].lstrip())
                elif line == "" and data_lines:
                    data = json.loads("\n".join(data_lines))
                    is_error = name == "error"
                    name, data_lines = None, []
                    if is_error:
                        raise ServiceError(str(data.get("error")), payload=data)
                    yield event_from_dict(data) if decode else data

    def wait(self, job):
        """Drain the event stream, then return the final status snapshot.

        Raises :class:`ServiceError` if the job failed.
        """
        for _ in self.events(job, decode=False):
            pass
        status = self.status(job)
        if status.get("state") != "done":
            raise ServiceError(
                f"job {job} finished in state {status.get('state')!r}: "
                f"{status.get('error')}",
                payload=status,
            )
        return status

    def cell(self, key):
        """``GET /cells/<key>`` — the stored record, or ``None`` if absent."""
        try:
            return self._request(f"/cells/{key}")
        except ServiceError as error:
            if error.status == 404:
                return None
            raise

    def health(self):
        """``GET /healthz``."""
        return self._request("/healthz")
