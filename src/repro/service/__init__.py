"""Arena-as-a-service: a zero-dependency HTTP/SSE job server.

Start a server over a result store (standard library only — no new
dependencies)::

    python -m repro serve --store arena-store --port 8008 --workers 2

or in-process::

    from repro.service import ArenaService

    with ArenaService("arena-store", workers=2) as service:
        ...  # service.url, service.port

Endpoint reference
------------------

``POST /jobs``
    Submit a job.  Body: ``{"grid": {<axes>}}`` — one list per
    :class:`~repro.arena.grid.ScenarioGrid` field (``datasets``,
    ``hidden_dims``, ``attacks``, ``defenses``, ``budget_caps``,
    ``seeds``, ``threats``, ``archs``; threat entries are CLI grammar
    strings like ``"surrogate+adaptive:jaccard"`` or ``ThreatModel``
    dicts) — or
    ``{"scenario": {<a canonical cell_config dict>}, "defenses": [...]}``
    for one cell.  Optional: ``fresh`` (a JSON boolean: clear the store
    first); no other body key is accepted.  Lease timing is fixed
    server-side (``repro.arena.store.LEASE_TTL``,
    ``repro.api.session.POLL_INTERVAL``).  Returns 202
    ``{"job", "state", "cells"}``; 400 on unknown axes, datasets,
    attacks, defenses, archs or threats, on adapted-defense params the
    defense does not declare, on non-integer or out-of-range
    ``hidden_dims``/``budget_caps``/``seeds`` entries, on a scenario
    that is malformed or hashes differently under the server's config,
    on a ``defenses`` that is not a non-empty list or comes with a grid,
    on a non-boolean ``fresh``, on any other body key, or on a malformed
    body or ``Content-Length``; 503 once shutdown has begun.
``GET /jobs/<id>``
    Status snapshot: state (``queued``/``running``/``done``/``failed``),
    event count, executed/loaded/deferred totals and the final
    ``RunManifest`` dict once done.  404 for unknown ids.
``GET /jobs/<id>/events``
    Server-Sent Events stream of the run's typed
    :mod:`repro.api.events` dicts (``event:`` is the class name,
    ``data:`` its ``to_dict`` JSON, ``id:`` the event index).  Replays
    from the start (or ``?since=<n>``, a non-negative index; 400
    otherwise), then follows live and closes after the terminal
    ``RunCompleted``; keep-alive comments flow while the job is quiet.  Decode with
    :func:`repro.api.events.event_from_dict` — or use
    :meth:`ServiceClient.events`, which does.
``GET /cells/<key>``
    The raw stored record for one content key, straight from the store
    (no job required): an attack result (``schema``, ``cell``,
    ``victim``, ``result``) or a defense's verdict on one
    (``evaded``, ``attacked_flag``, ``clean_flag``).  404 when absent;
    400 when the key is not 64 lowercase hex characters.
``GET /healthz``
    Liveness + introspection: pool width (``workers``), queue depth,
    per-state job counts, store record count, and the
    :mod:`repro.obs.metrics` counters.

Execution semantics: one worker thread drains jobs in submission order,
each through ``Session.run(ArenaExperiment)`` on a plain ``Session``
whose per-victim loops fan out over ``--workers`` forked processes (the
CLI's ``--jobs`` pool), so SSE event sequences match an in-process run
event-for-event (modulo span ids and timings) and each job's manifest
counts only its own work.  One thread per process runs Sessions;
concurrent runs are processes.  Jobs on *other* servers or hosts sharing
the store execute each unique cell exactly once via the store's advisory
leases; losers emit ``CellDeferred`` and load the winner's results, and
a later job on the same server loads cells an earlier one wrote.
"""

from repro.service.client import ServiceClient, ServiceError, grid_payload
from repro.service.jobs import Job, JobQueue
from repro.service.server import ArenaService

__all__ = [
    "ArenaService",
    "Job",
    "JobQueue",
    "ServiceClient",
    "ServiceError",
    "grid_payload",
]


def endpoint_lines():
    """The endpoint reference as plain text lines (for ``repro describe``)."""
    return [
        "POST /jobs            submit a grid or canonical scenario; 202 + job id",
        "GET  /jobs/<id>       status snapshot + final run manifest",
        "GET  /jobs/<id>/events  SSE stream of typed repro.api.events dicts",
        "GET  /cells/<key>     cached store record: attack result or verdict",
        "GET  /healthz         worker/queue/job/store + metrics counters",
    ]
