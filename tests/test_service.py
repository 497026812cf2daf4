"""End-to-end coverage for the arena job server (``repro.service``).

The acceptance bar from the PR issue, pinned as tests:

* SSE event sequences match an in-process ``Session.run`` sequence
  event-for-event (modulo span ids and timings).
* A warm resubmit reports ``executed 0`` with every victim loaded.
* Two queued jobs over overlapping grids — and a second server process
  sharing the store — execute each unique cell exactly once, and each
  job's manifest counts exactly its own store writes.
* Graceful shutdown drains in-flight jobs and releases every store
  lease, so a restarted server resumes with zero re-executed cells.
"""

from __future__ import annotations

import glob
import http.client
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.api import Session, ThreatModel
from repro.api import session as session_module
from repro.api.events import (
    CellDeferred,
    CellExecuted,
    CellScored,
    RunCompleted,
    VictimAttacked,
)
from repro.arena import ResultStore, ScenarioCell, ScenarioGrid, cell_config
from repro.experiments import SCALE_PRESETS
from repro.service import ArenaService, JobQueue, ServiceClient, ServiceError

#: Trimmed to seconds: tiny model, three victims, cheap attacks.
CONFIG = replace(
    SCALE_PRESETS["smoke"],
    epochs=60,
    num_victims=3,
    margin_group=1,
    explainer_epochs=20,
)
#: 2×2: two execution cells (attacks), each scored under two defenses.
GRID = ScenarioGrid(
    attacks=("FGA-T", "DICE"),
    defenses=("none", "jaccard"),
    budget_caps=(2,),
    seeds=(0,),
)

#: An adaptive threat, sent as a ``ThreatModel`` dict, whose adapted
#: defense params carry a typo.
ADAPTED_JACCARD_TYPO = {
    "knowledge": "white_box",
    "adaptivity": "preprocess_aware",
    "surrogate_hidden": None,
    "surrogate_seed": None,
    "defense": "jaccard",
    "defense_params": {"treshold": 0.1},
}


@pytest.fixture(scope="module")
def shared_cases():
    """One trained model shared by the servers and reference runs."""
    cases = {}
    Session(config=CONFIG, jobs=1, cases=cases).prepared("cora")
    return cases


@pytest.fixture()
def service(tmp_path, shared_cases):
    with ArenaService(
        tmp_path / "store", config=CONFIG, workers=2, cases=shared_cases
    ) as running:
        yield running


def _project(event):
    """An event's deterministic payload (drops spans/timings/arrays)."""
    kind = type(event).__name__
    if isinstance(event, VictimAttacked):
        return (kind, event.cell.label(), event.victim.node, event.loaded)
    if isinstance(event, CellDeferred):
        return (kind, event.cell.label(), event.missing)
    if isinstance(event, CellExecuted):
        return (kind, event.cell.label(), event.cached, event.executed)
    if isinstance(event, CellScored):
        ev = event.evaluation
        return (
            kind, ev.cell.label(), ev.defense, ev.victims,
            round(ev.evasion_rate, 12),
        )
    if isinstance(event, RunCompleted):
        return (kind, event.result.executed, event.result.loaded)
    return (kind,)


class TestEventParity:
    def test_sse_stream_matches_in_process_run(
        self, service, tmp_path, shared_cases
    ):
        client = ServiceClient(service.url)
        job = client.submit(grid=GRID)
        served = [_project(event) for event in client.events(job)]

        reference_store = ResultStore(tmp_path / "reference-store")
        session = Session(config=CONFIG, cases=shared_cases)
        from repro.api.specs import ArenaExperiment

        local = [
            _project(event)
            for event in session.run(
                ArenaExperiment(grid=GRID, store=reference_store)
            )
        ]
        assert served == local

    def test_typed_events_decode_with_real_classes(self, service):
        client = ServiceClient(service.url)
        job = client.submit(grid=GRID)
        events = list(client.events(job))
        assert isinstance(events[-1], RunCompleted)
        assert {type(e).__name__ for e in events} >= {
            "VictimAttacked", "CellExecuted", "CellScored", "RunCompleted",
        }


class TestWarmResubmit:
    def test_second_submission_executes_nothing(self, service):
        client = ServiceClient(service.url)
        cold = client.wait(client.submit(grid=GRID))
        assert cold["executed"] > 0

        job = client.submit(grid=GRID)
        events = list(client.events(job))
        warm = client.status(job)
        assert warm["executed"] == 0
        assert warm["loaded"] == cold["executed"]
        attacked = [e for e in events if isinstance(e, VictimAttacked)]
        assert attacked and all(e.loaded for e in attacked)

    def test_manifest_present_when_done(self, service):
        client = ServiceClient(service.url)
        status = client.wait(client.submit(grid=GRID))
        manifest = status["manifest"]
        assert manifest is not None
        assert manifest["wall_seconds"] > 0
        assert isinstance(manifest["cells"], list)


class TestEndpoints:
    def test_cells_served_at_store_speed(self, service):
        client = ServiceClient(service.url)
        client.wait(client.submit(grid=GRID))
        store = ResultStore(service.store_root)
        keys = store.keys()
        assert keys
        for key in keys[:3]:
            assert client.cell(key) == store.get(key)

    def test_unknown_cell_is_none(self, service):
        assert ServiceClient(service.url).cell("0" * 64) is None

    @pytest.mark.parametrize(
        "key", ["..x", "%2e%2e%2fx", "A" * 64, "0" * 63, "0" * 65]
    )
    def test_malformed_cell_key_is_400(self, service, key):
        """A key that is not a content key never reaches the filesystem."""
        outside = Path(service.store_root).parent / "..x.json"
        outside.write_bytes(b"not a record")
        conn = http.client.HTTPConnection(
            service.host, service.port, timeout=30
        )
        try:
            conn.request("GET", f"/cells/{key}")
            response = conn.getresponse()
            body = json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()
        assert response.status == 400
        assert "not a content key" in body["error"]
        assert outside.read_bytes() == b"not a record"
        assert not outside.with_name("..x.json.corrupt").exists()

    def test_healthz_reports_workers_jobs_and_store(self, service):
        client = ServiceClient(service.url)
        client.wait(client.submit(grid=GRID))
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["accepting"] is True
        assert health["jobs"]["done"] >= 1
        assert health["store"]["records"] > 0
        assert health["counters"]["service.jobs_submitted"] >= 1
        assert health["counters"]["service.jobs_completed"] >= 1

    def test_unknown_attack_rejected_at_post(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as err:
            client.submit(grid={"attacks": ["NoSuchAttack"]})
        assert err.value.status == 400
        assert "unknown attack" in str(err.value)

    def test_unknown_axis_rejected(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as err:
            client.submit(grid={"budget": [3]})
        assert err.value.status == 400

    def test_unknown_arch_rejected_at_post(self, service):
        """A bogus architecture dies at submit time, before any training."""
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as err:
            client.submit(grid={"archs": ["gcn", "bogus"]})
        assert err.value.status == 400
        assert "unknown architecture 'bogus'" in str(err.value)

    def test_unknown_surrogate_arch_rejected_at_post(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as err:
            client.submit(grid={"threats": ["surrogate:bogus"]})
        assert err.value.status == 400
        assert "unknown surrogate architecture 'bogus'" in str(err.value)

    def test_unknown_adapted_defense_rejected_at_post(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as err:
            client.submit(grid={"threats": ["adaptive:bogus"]})
        assert err.value.status == 400
        assert "unknown adapted defense 'bogus'" in str(err.value)

    @pytest.mark.parametrize(
        "axes, fragment",
        [
            ({"datasets": ["bogus"]}, "unknown dataset 'bogus'"),
            ({"datasets": ["CORA"]}, "unknown dataset 'CORA'"),
            ({"budget_caps": ["3"]}, "budget_caps entries must be integers"),
            ({"hidden_dims": [0]}, "hidden_dims entries must be >= 1"),
            ({"seeds": [1.5]}, "seeds entries must be integers"),
            ({"seeds": [-1]}, "seeds entries must be >= 0"),
            (
                {"threats": [ADAPTED_JACCARD_TYPO]},
                "defense 'jaccard' spec carries undeclared params "
                "['treshold']",
            ),
        ],
    )
    def test_bad_dataset_or_numeric_entry_rejected_at_post(
        self, service, axes, fragment
    ):
        """A grid that could only fail later is a 400 at submit time."""
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as err:
            client.submit(grid=axes)
        assert err.value.status == 400
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "extra, fragment",
        [
            ({"fresh": "false"}, '"fresh" must be a JSON boolean'),
            ({"fresh": 1}, '"fresh" must be a JSON boolean'),
            ({"fressh": True}, "unknown body keys ['fressh']"),
            ({"defenses": ["none"]}, "allowed: ['fresh', 'grid']"),
        ],
        ids=["fresh-string", "fresh-int", "typo", "defenses-with-grid"],
    )
    def test_malformed_grid_body_is_400(self, service, extra, fragment):
        """A body key the server would ignore or misread is a 400."""
        body = {"grid": {"attacks": ["DICE"]}, **extra}
        with pytest.raises(ServiceError) as err:
            ServiceClient(service.url)._request("/jobs", body)
        assert err.value.status == 400
        assert fragment in str(err.value)

    def test_client_forwards_defenses_next_to_a_grid(self, service):
        """``defenses`` belong in the grid; the client must not drop them."""
        with pytest.raises(ServiceError) as err:
            ServiceClient(service.url).submit(
                grid={"attacks": ["DICE"]}, defenses=["explainer"]
            )
        assert err.value.status == 400
        assert "unknown body keys ['defenses']" in str(err.value)

    def test_unknown_job_is_404(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as err:
            client.status("nonexistent")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            list(client.events("nonexistent"))
        assert err.value.status == 404

    def test_unknown_endpoint_is_404(self, service):
        with pytest.raises(ServiceError) as err:
            ServiceClient(service.url)._request("/nope")
        assert err.value.status == 404

    def test_events_since_resumes_mid_stream(self, service):
        client = ServiceClient(service.url)
        job = client.submit(grid=GRID)
        everything = [
            _project(e) for e in client.events(job)
        ]
        tail = [_project(e) for e in client.events(job, since=2)]
        assert tail == everything[2:]


def _dice_cell(**overrides):
    """The one-attack cell the scenario tests submit."""
    cell = ScenarioCell("cora", CONFIG.hidden, "DICE", 2, 0)
    return replace(cell, **overrides)


class TestScenarioSubmission:
    @pytest.mark.parametrize(
        "threat",
        [
            "white_box",
            "surrogate",
            "adaptive:jaccard",
            "surrogate+adaptive:svd",
        ],
    )
    def test_canonical_scenario_dict_runs(self, service, threat):
        cell = _dice_cell(threat=ThreatModel.parse(threat))
        scenario = cell_config(cell, CONFIG)
        client = ServiceClient(service.url)
        job = client.submit(scenario=scenario, defenses=["none"])
        status = client.wait(job)
        assert status["state"] == "done"
        assert status["cells"] == 1

    @pytest.mark.parametrize("entry", ["model", "schema"])
    def test_mismatched_scenario_rejected(self, service, entry):
        scenario = cell_config(_dice_cell(), CONFIG)
        if entry == "model":
            scenario["model"]["epochs"] = 99999  # not this server's config
        else:
            scenario["schema"] += 1  # not this server's store format
        with pytest.raises(ServiceError) as err:
            ServiceClient(service.url).submit(scenario=scenario)
        assert err.value.status == 400
        assert "does not match" in str(err.value)

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ({"scenario": [1, 2]}, "invalid scenario"),
            ({"scenario": "x"}, "invalid scenario"),
            ({"defenses": 5}, '"defenses" must be a non-empty list'),
            ({"defenses": "jaccard"}, '"defenses" must be a non-empty list'),
            ({"fresh": "false"}, '"fresh" must be a JSON boolean'),
            (
                {"fressh": True},
                "allowed: ['defenses', 'fresh', 'scenario']",
            ),
        ],
        ids=[
            "list", "string", "defenses-int", "defenses-string",
            "fresh-string", "typo",
        ],
    )
    def test_malformed_scenario_body_is_400(self, service, body, fragment):
        body = {"scenario": cell_config(_dice_cell(), CONFIG), **body}
        with pytest.raises(ServiceError) as err:
            ServiceClient(service.url)._request("/jobs", body)
        assert err.value.status == 400
        assert fragment in str(err.value)

    def test_scenario_with_arch_runs(self, service):
        """A non-default architecture rides the scenario POST path."""
        scenario = cell_config(_dice_cell(arch="sage"), CONFIG)
        assert scenario["model"]["arch"] == "sage"
        client = ServiceClient(service.url)
        status = client.wait(client.submit(scenario=scenario, defenses=["none"]))
        assert status["state"] == "done"
        assert status["cells"] == 1

    def test_scenario_with_unknown_arch_rejected(self, service):
        with pytest.raises(ServiceError) as err:
            ServiceClient(service.url).submit(
                scenario=cell_config(_dice_cell(arch="bogus"), CONFIG)
            )
        assert err.value.status == 400
        assert "unknown architecture 'bogus'" in str(err.value)


class TestExactlyOnce:
    def test_concurrent_overlapping_jobs_execute_each_cell_once(
        self, tmp_path, shared_cases, monkeypatch
    ):
        """Two jobs over overlapping grids queued on one server."""
        monkeypatch.setattr(session_module, "POLL_INTERVAL", 0.05)
        overlap = ScenarioGrid(
            attacks=("FGA-T", "DICE"), defenses=("none",),
            budget_caps=(2,), seeds=(0,),
        )
        with ArenaService(
            tmp_path / "store", config=CONFIG, workers=2, cases=shared_cases
        ) as service:
            client = ServiceClient(service.url)
            first = client.submit(grid=overlap)
            second = client.submit(grid=overlap)
            a, b = client.wait(first), client.wait(second)
        # Unique work: 2 cells × 3 victims; every attack ran exactly once,
        # and each attack record carries one verdict per defense.
        assert a["executed"] + b["executed"] == 6
        assert a["executed"] + a["loaded"] == 6
        assert b["executed"] + b["loaded"] == 6
        assert len(ResultStore(tmp_path / "store").keys()) == 6 * (
            1 + len(overlap.defenses)
        )

    def test_per_job_manifests_are_exact(
        self, tmp_path, shared_cases, monkeypatch
    ):
        """Overlapping duplicate jobs: each manifest counts only its writes."""
        monkeypatch.setattr(session_module, "POLL_INTERVAL", 0.05)
        overlap = ScenarioGrid(
            attacks=("FGA-T", "DICE"), defenses=("none",),
            budget_caps=(2,), seeds=(0,),
        )
        subset = ScenarioGrid(
            attacks=("DICE",), defenses=("none",),
            budget_caps=(2,), seeds=(0,),
        )
        store_root = tmp_path / "store"
        with ArenaService(
            store_root, config=CONFIG, workers=2, cases=shared_cases
        ) as service:
            client = ServiceClient(service.url)
            jobs = [
                client.submit(grid=grid) for grid in (overlap, subset, overlap)
            ]
            statuses = [client.wait(job) for job in jobs]
        writes = [
            status["manifest"]["counters"].get("store.writes", 0)
            for status in statuses
        ]
        # Every grid scores the same defenses, so each executed attack
        # writes its record plus one verdict per defense.
        assert writes == [
            status["executed"] * (1 + len(overlap.defenses))
            for status in statuses
        ]
        assert sum(writes) == len(ResultStore(store_root).keys())

    def test_second_server_process_shares_the_store(
        self, tmp_path, shared_cases, monkeypatch
    ):
        """Two *servers* (separate processes) over one store, same grid."""
        # Patched before forking, so both server processes poll quickly.
        monkeypatch.setattr(session_module, "POLL_INTERVAL", 0.05)
        store_root = tmp_path / "store"
        ctx = multiprocessing.get_context("fork")
        urls = ctx.Queue()
        stop = ctx.Event()

        def serve():
            # The forked child inherits the parent's trained cases.
            with ArenaService(
                store_root, config=CONFIG, workers=1, cases=shared_cases
            ) as server:
                urls.put(server.url)
                stop.wait(300)

        servers = [ctx.Process(target=serve) for _ in range(2)]
        for process in servers:
            process.start()
        try:
            one, two = urls.get(timeout=60), urls.get(timeout=60)
            job_a = ServiceClient(one).submit(grid=GRID)
            job_b = ServiceClient(two).submit(grid=GRID)
            a = ServiceClient(one).wait(job_a)
            b = ServiceClient(two).wait(job_b)
        finally:
            stop.set()
            for process in servers:
                process.join(timeout=120)
        assert [process.exitcode for process in servers] == [0, 0]
        assert a["executed"] + b["executed"] == 6
        assert a["loaded"] + b["loaded"] == 6
        # Every attack record and every verdict was written exactly once.
        writes = sum(
            status["manifest"]["counters"].get("store.writes", 0)
            for status in (a, b)
        )
        assert writes == len(ResultStore(store_root).keys()) == 6 * (
            1 + len(GRID.defenses)
        )


class TestJobQueue:
    def test_one_job_thread_for_any_pool_width(self, tmp_path):
        """``workers`` is the fork-pool width, never a thread count."""

        def job_threads():
            return sum(
                thread.name == "arena-worker"
                for thread in threading.enumerate()
            )

        before = job_threads()
        queue = JobQueue(tmp_path / "store", config=CONFIG, workers=4)
        try:
            assert queue.workers == 4
            assert job_threads() == before + 1
        finally:
            queue.close()
        assert job_threads() == before

    def test_serve_rejects_the_global_jobs_flag(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--workers"):
            main(["--jobs", "2", "serve", "--port", "0"])


class TestGracefulShutdown:
    def test_drain_finishes_jobs_and_releases_leases(
        self, tmp_path, shared_cases
    ):
        store_root = tmp_path / "store"
        service = ArenaService(
            store_root, config=CONFIG, workers=2, cases=shared_cases
        ).start()
        client = ServiceClient(service.url)
        job = client.submit(grid=GRID)
        service.close(drain=True)  # returns only once the job settled

        assert service.queue.get(job).state == "done"
        assert glob.glob(str(store_root / "**" / "*.lease"), recursive=True) == []

        # Intake is closed: a late submit is a clean 503, not a hang.
        # (The listener is down too, so the request itself must fail.)
        with pytest.raises((ServiceError, OSError)):
            client.submit(grid=GRID)

        # A restarted server over the drained store re-executes nothing.
        with ArenaService(
            store_root, config=CONFIG, workers=1, cases=shared_cases
        ) as restarted:
            warm = ServiceClient(restarted.url).wait(
                ServiceClient(restarted.url).submit(grid=GRID)
            )
        assert warm["executed"] == 0
        assert warm["loaded"] == 6

    def test_no_drain_fails_queued_jobs(self, tmp_path, shared_cases):
        service = ArenaService(
            tmp_path / "store", config=CONFIG, workers=1, cases=shared_cases
        ).start()
        # One worker: with three submissions at least one is still queued
        # when close() lands; whichever ran (or runs) must finish cleanly.
        client = ServiceClient(service.url)
        jobs = [client.submit(grid=GRID) for _ in range(3)]
        service.close(drain=False)
        states = {service.queue.get(job).state for job in jobs}
        assert states <= {"done", "failed"}
        assert "failed" in states


class TestServeSubprocess:
    def test_sigterm_drains_and_store_resumes_warm(self, tmp_path):
        """``python -m repro serve`` + SIGTERM: the CLI graceful path."""
        store_root = tmp_path / "store"
        env = dict(
            os.environ,
            PYTHONPATH=os.path.abspath("src"),
            PYTHONUNBUFFERED="1",
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", str(store_root), "--port", "0", "--workers", "1",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "repro service listening on " in banner
            url = banner.split("listening on ", 1)[1].split()[0]

            client = ServiceClient(url)
            # Smoke scale (the subprocess default): DICE alone runs in
            # seconds; SIGTERM lands while the job may still be running.
            job = client.submit(
                grid={
                    "attacks": ["DICE"],
                    "defenses": ["none"],
                    "budget_caps": [2],
                }
            )
            time.sleep(0.2)
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=180)
            assert process.returncode == 0
            assert "draining" in out and "stopped" in out

            # The drain completed the job and released every lease...
            assert glob.glob(
                str(store_root / "**" / "*.lease"), recursive=True
            ) == []
            store = ResultStore(store_root)
            assert len(store.keys()) > 0
            # ...so a fresh in-process run over the store is fully warm.
            grid = ScenarioGrid(
                attacks=("DICE",), defenses=("none",),
                budget_caps=(2,), seeds=(0,),
            )
            warm = Session(config=SCALE_PRESETS["smoke"]).arena(grid, store)
            assert warm.executed == 0
            # One attack record plus one verdict per defense per victim.
            assert warm.loaded * (1 + len(grid.defenses)) == len(store.keys())
            assert "executed 0 attacks" in warm.stats_line()
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=30)


def _http_get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


class TestGridPayload:
    def test_every_axis_round_trips(self):
        """``grid_payload`` → ``_grid_from_payload`` rebuilds an equal grid."""
        from repro.service import grid_payload
        from repro.service.server import _grid_from_payload

        grid = ScenarioGrid(
            datasets=("citeseer",),
            hidden_dims=(8,),
            attacks=("Nettack",),
            defenses=("svd",),
            budget_caps=(2,),
            seeds=(1,),
            threats=(ThreatModel(knowledge="surrogate", surrogate_hidden=8),),
            archs=("sage",),
        )
        default = ScenarioGrid()
        for axis in fields(ScenarioGrid):
            assert getattr(grid, axis.name) != getattr(default, axis.name)
        payload = json.loads(json.dumps({"grid": grid_payload(grid)}))
        assert _grid_from_payload(payload, CONFIG) == grid


class TestRawWire:
    def test_sse_frames_are_well_formed(self, service):
        """Parse the raw SSE bytes (no client library) frame by frame."""
        client = ServiceClient(service.url)
        job = client.submit(grid=GRID)
        client.wait(job)
        with urllib.request.urlopen(
            f"{service.url}/jobs/{job}/events", timeout=60
        ) as response:
            body = response.read().decode("utf-8")
        frames = [f for f in body.split("\n\n") if f and not f.startswith(":")]
        ids = []
        for frame in frames:
            lines = dict(
                line.split(": ", 1) for line in frame.splitlines() if line
            )
            assert {"id", "event", "data"} <= set(lines)
            payload = json.loads(lines["data"])
            assert payload["event"] == lines["event"]
            ids.append(int(lines["id"]))
        assert ids == list(range(len(ids)))
        assert json.loads(
            dict(
                line.split(": ", 1) for line in frames[-1].splitlines()
            )["data"]
        )["event"] == "RunCompleted"

    def _raw_post(self, service, length):
        """POST /jobs with a hand-written ``Content-Length`` header."""
        conn = http.client.HTTPConnection(
            service.host, service.port, timeout=30
        )
        try:
            conn.putrequest("POST", "/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def test_malformed_content_length_is_400(self, service):
        status, body = self._raw_post(service, "abc")
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_negative_content_length_is_400(self, service):
        status, body = self._raw_post(service, "-1")
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_negative_since_is_400(self, service):
        job = ServiceClient(service.url).submit(grid=GRID)
        conn = http.client.HTTPConnection(
            service.host, service.port, timeout=30
        )
        try:
            conn.request("GET", f"/jobs/{job}/events?since=-1")
            response = conn.getresponse()
            assert response.status == 400
            assert "since" in json.loads(response.read())["error"]
        finally:
            conn.close()
