"""Lease renewal: a slow cell heartbeats its lease and is never stolen.

PR 7 gave leases a TTL so dead writers free their cells; the flip side is
that a *live* writer slower than the TTL used to look dead.  The renewal
heartbeat (``Lease.renew`` / ``Lease.keep_alive``) closes that hole:
these tests pin the unit semantics (renew extends, steal invalidates)
and the arena-level regression — a cell whose execution outlives its
TTL still executes exactly once under contention.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import replace

import pytest

from repro import threat as threat_module
from repro.api import Session
from repro.api import session as session_module
from repro.arena import ResultStore, ScenarioGrid
from repro.arena import store as store_module
from repro.experiments import SCALE_PRESETS


class TestRenew:
    def test_renew_restarts_the_ttl(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        lease = store.try_lease("cell-a", ttl=0.4)
        time.sleep(0.25)
        assert lease.renew()
        time.sleep(0.25)
        # 0.5s after acquisition but only 0.25s after renewal: not
        # expired, so a rival must still see the cell as busy.
        assert store.try_lease("cell-a", ttl=60) is None
        lease.release()

    def test_without_renewal_the_lease_expires(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        stale = store.try_lease("cell-a", ttl=0.2)
        time.sleep(0.3)
        thief = store.try_lease("cell-a", ttl=60)
        assert thief is not None
        thief.release()
        assert not stale.renew()  # the token changed hands

    def test_renew_after_release_fails(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        lease = store.try_lease("cell-a", ttl=60)
        lease.release()
        assert not lease.renew()

    def test_renew_increments_counter(self, tmp_path):
        from repro.obs import metrics

        store = ResultStore(tmp_path / "store")
        lease = store.try_lease("cell-a", ttl=60)
        before = metrics.counters().get("lease.renewed", 0)
        assert lease.renew()
        assert metrics.counters()["lease.renewed"] == before + 1
        lease.release()


class TestKeepAlive:
    def test_heartbeat_outlives_the_ttl(self, tmp_path):
        """A 0.3s-TTL lease held alive for 1s is never stolen."""
        store = ResultStore(tmp_path / "store")
        lease = store.try_lease("cell-a", ttl=0.3)
        deadline = time.time() + 1.0
        with lease.keep_alive():
            while time.time() < deadline:
                assert store.try_lease("cell-a", ttl=60) is None
                time.sleep(0.05)
        lease.release()
        fresh = store.try_lease("cell-a", ttl=60)
        assert fresh is not None
        fresh.release()

    def test_heartbeat_stops_on_exit(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        lease = store.try_lease("cell-a", ttl=0.2)
        with lease.keep_alive():
            time.sleep(0.3)
        # Heartbeat gone: the lease expires like any abandoned one.
        time.sleep(0.5)
        stolen = store.try_lease("cell-a", ttl=60)
        assert stolen is not None
        stolen.release()


#: Trimmed to seconds: tiny model, three victims, one cheap attack.
CONFIG = replace(
    SCALE_PRESETS["smoke"],
    epochs=60,
    num_victims=3,
    margin_group=1,
    explainer_epochs=20,
)
GRID = ScenarioGrid(
    attacks=("FGA-T",), defenses=("none",), budget_caps=(2,), seeds=(0,)
)


class TestSlowCellExecutesOnce:
    def test_execution_outliving_ttl_is_not_double_run(
        self, tmp_path, monkeypatch
    ):
        """Two contending processes, execution slower than the lease TTL.

        The winner's heartbeat keeps renewing the 0.3s lease through a
        ~1s attack per victim; the loser defers, polls, and loads the
        committed results — each victim is attacked exactly once across
        both runs.
        """
        cases = {}
        Session(config=CONFIG, cases=cases).prepared("cora")  # pre-train

        original = threat_module.execute_with_threat

        def slow_execute(*args, **kwargs):
            time.sleep(1.0)  # > 3 full TTLs under the lease
            return original(*args, **kwargs)

        monkeypatch.setattr(threat_module, "execute_with_threat", slow_execute)
        monkeypatch.setattr(store_module, "LEASE_TTL", 0.3)
        monkeypatch.setattr(session_module, "POLL_INTERVAL", 0.05)

        store_root = tmp_path / "store"
        ctx = multiprocessing.get_context("fork")
        outcomes = ctx.Queue()

        def contend(slot):
            # The forked child inherits the pre-trained cases and the
            # slowed-down ``execute_with_threat``.
            session = Session(config=CONFIG, cases=cases)
            run = session.arena(GRID, ResultStore(store_root))
            outcomes.put((slot, run))

        processes = [
            ctx.Process(target=contend, args=(slot,)) for slot in (0, 1)
        ]
        for process in processes:
            process.start()
        runs = dict(outcomes.get(timeout=300) for _ in processes)
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0

        total_executed = runs[0].executed + runs[1].executed
        total_loaded = runs[0].loaded + runs[1].loaded
        assert total_executed == 3  # the victim set, exactly once
        assert total_loaded == 3  # the loser served entirely from the store
        assert runs[0].deferred + runs[1].deferred >= 1

        monkeypatch.setattr(threat_module, "execute_with_threat", original)
        warm = Session(config=CONFIG, cases=cases).arena(
            GRID, ResultStore(store_root)
        )
        assert warm.executed == 0
        assert warm.loaded == 3
