"""Concurrent writers: N processes, one store, each cell exactly once.

The multi-writer contract behind arena-as-a-service (ROADMAP open item 2):
advisory per-cell leases let concurrent ``Session.arena`` calls share a store
and split overlapping grids — a cell's lease winner executes it, losers
re-poll the store and load the winner's results.  Tested here end-to-end
with two forked processes over overlapping ``ScenarioGrid``s, plus direct
store-level lease semantics and a racing-writer torn-record check.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import replace

from repro.api import Session
from repro.api import session as session_module
from repro.arena import (
    ResultStore,
    ScenarioGrid,
    content_key,
    render_arena_matrices,
)
from repro.experiments import SCALE_PRESETS

#: Trimmed to seconds, mirroring the resume suite's operating point.
CONFIG = replace(
    SCALE_PRESETS["smoke"],
    epochs=60,
    num_victims=3,
    margin_group=1,
    explainer_epochs=20,
    geattack_inner_steps=2,
)

#: The union grid, and a strict-subset grid sharing its DICE cell — the
#: overlap is where exactly-once coordination actually gets exercised.
UNION_GRID = ScenarioGrid(
    attacks=("FGA-T", "DICE"),
    defenses=("none", "jaccard"),
    budget_caps=(2,),
    seeds=(0,),
)
SUBSET_GRID = ScenarioGrid(
    attacks=("DICE",),
    defenses=("none", "jaccard"),
    budget_caps=(2,),
    seeds=(0,),
)


class TestLeases:
    def test_exclusive_until_released(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        lease = store.try_lease("cell-a", ttl=60)
        assert lease is not None
        assert store.try_lease("cell-a", ttl=60) is None
        lease.release()
        again = store.try_lease("cell-a", ttl=60)
        assert again is not None
        again.release()

    def test_names_are_independent(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        a = store.try_lease("cell-a", ttl=60)
        b = store.try_lease("cell-b", ttl=60)
        assert a is not None and b is not None
        a.release()
        b.release()

    def test_expired_lease_is_stolen(self, tmp_path):
        """A dead writer's lease frees itself after its TTL."""
        store = ResultStore(tmp_path / "store")
        dead = store.try_lease("cell-a", ttl=0.05)
        assert dead is not None
        time.sleep(0.1)
        stolen = store.try_lease("cell-a", ttl=60)
        assert stolen is not None
        stolen.release()

    def test_stale_release_cannot_clobber_the_new_holder(self, tmp_path):
        """release() after a steal is a no-op: tokens must match."""
        store = ResultStore(tmp_path / "store")
        dead = store.try_lease("cell-a", ttl=0.05)
        time.sleep(0.1)
        stolen = store.try_lease("cell-a", ttl=60)
        assert stolen is not None
        dead.release()  # stale holder wakes up late
        assert store.try_lease("cell-a", ttl=60) is None  # still held
        stolen.release()

    def test_release_survives_missing_file(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        lease = store.try_lease("cell-a", ttl=60)
        lease.path.unlink()
        lease.release()  # must not raise


def test_racing_writers_never_tear_records(tmp_path):
    """Two forked processes bulk-write the SAME key set simultaneously.

    Keys are content hashes of the payload's determinants, so racing
    writers write identical bytes; last rename wins and every surviving
    record must parse, checksum and match — no torn files, no duplicates,
    no leftover temp files.
    """
    root = tmp_path / "store"
    count = 150
    keys = [content_key({"record": i}) for i in range(count)]

    def writer():
        store = ResultStore(root)
        with store.bulk():
            for i, key in enumerate(keys):
                store.put(key, {"record": i, "blob": "x" * 200})

    ctx = multiprocessing.get_context("fork")
    workers = [ctx.Process(target=writer) for _ in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
        assert worker.exitcode == 0
    store = ResultStore(root)
    assert store.compact() == count  # dedupes the two writers' manifests
    assert sorted(store.keys()) == sorted(keys)
    for i, key in enumerate(keys):
        assert store.get(key) == {"record": i, "blob": "x" * 200}
    assert list(root.rglob("*.tmp")) == []
    assert list(root.rglob("*.corrupt")) == []


def test_two_arena_writers_execute_each_cell_exactly_once(
    tmp_path, monkeypatch
):
    """Two forked ``Session.arena`` calls over overlapping grids, one store.

    Accepts exactly the ISSUE contract: the union of work executes once
    (summed execution counters equal a serial run's), no torn or
    duplicate records, and the merged store serves a warm run with zero
    re-execution and a byte-identical matrix.
    """
    cases = {}
    ref_store = ResultStore(tmp_path / "reference")
    session = Session(CONFIG, cases=cases)
    reference = session.arena(UNION_GRID, ref_store)
    reference_text = render_arena_matrices(reference)
    subset_text = render_arena_matrices(session.arena(SUBSET_GRID, ref_store))

    shared_root = tmp_path / "shared"
    # Patched before forking, so the deferred writer re-polls quickly.
    monkeypatch.setattr(session_module, "POLL_INTERVAL", 0.05)
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    barrier = ctx.Barrier(2)

    def worker(tag, grid):
        # Forked children inherit the parent's trained cases via COW, so
        # both runs reach attack execution (the contended phase) fast.
        barrier.wait()
        run = Session(CONFIG, cases=dict(cases)).arena(
            grid, ResultStore(shared_root)
        )
        queue.put((tag, run.executed, run.loaded, render_arena_matrices(run)))

    workers = [
        ctx.Process(target=worker, args=("union", UNION_GRID)),
        ctx.Process(target=worker, args=("subset", SUBSET_GRID)),
    ]
    for process in workers:
        process.start()
    outcomes = {}
    for _ in workers:
        tag, executed, loaded, text = queue.get(timeout=300)
        outcomes[tag] = (executed, loaded, text)
    for process in workers:
        process.join(timeout=120)
        assert process.exitcode == 0

    # Exactly-once: every unique victim-result executed by exactly one of
    # the two writers (each exists, and the sum leaves no room for twice).
    total_executed = outcomes["union"][0] + outcomes["subset"][0]
    assert total_executed == reference.executed
    # Both writers see the complete matrices for their own grids, byte-
    # identical to the serial reference.
    assert outcomes["union"][2] == reference_text
    assert outcomes["subset"][2] == subset_text

    # No torn or duplicate records: the merged store equals the serial
    # store byte-for-byte, record by record.
    merged = ResultStore(shared_root)
    assert sorted(merged.keys()) == sorted(ref_store.keys())
    for key in merged.keys():
        assert merged.path(key).read_bytes() == ref_store.path(key).read_bytes()
    assert list(shared_root.rglob("*.tmp")) == []
    assert list(shared_root.rglob("*.corrupt")) == []

    # The merged store resumes with zero execution at full width.
    warm = session.arena(UNION_GRID, merged)
    assert warm.executed == 0
    assert warm.loaded == reference.executed
    assert render_arena_matrices(warm) == reference_text
