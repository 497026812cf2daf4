"""Arena resume semantics: kill the store mid-way, resume, match bytes.

The resume contract: after any interruption, ``Session.arena`` against
the same store re-executes *only* the missing victims and renders a matrix
byte-identical to an uninterrupted run — at ``jobs=1`` and ``jobs=4``.

The grid deliberately includes DICE so resume also exercises the
history-replay path (edge *removals* reconstructed from the store), not
just added edges.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import Session
from repro.arena import ResultStore, ScenarioGrid, render_arena_matrices
from repro.experiments import SCALE_PRESETS

#: Trimmed to seconds: tiny model, three victims, cheap defenses.
CONFIG = replace(
    SCALE_PRESETS["smoke"],
    epochs=60,
    num_victims=3,
    margin_group=1,
    explainer_epochs=20,
    geattack_inner_steps=2,
)

GRID = ScenarioGrid(
    attacks=("FGA-T", "DICE"),
    defenses=("none", "jaccard"),
    budget_caps=(2,),
    seeds=(0,),
)


def replace_grid(**overrides):
    return ScenarioGrid(**{**GRID.__dict__, **overrides})


def attack_keys(store):
    """The store's attack records in key order (verdicts carry no result)."""
    return [key for key in store.keys() if "result" in store.get(key)]


@pytest.fixture(scope="module")
def shared_cases():
    """Trained models shared across every run in this module."""
    return {}


@pytest.fixture(scope="module")
def session(shared_cases):
    return Session(CONFIG, cases=shared_cases)


@pytest.fixture(scope="module")
def cold(tmp_path_factory, session):
    """One uninterrupted cold run: the reference store and matrix."""
    store = ResultStore(tmp_path_factory.mktemp("arena") / "store")
    run = session.arena(GRID, store)
    return store, run, render_arena_matrices(run)


class TestResume:
    def test_cold_run_executes_everything(self, cold):
        _, run, _ = cold
        assert run.executed > 0
        assert run.loaded == 0

    def test_warm_run_executes_zero_attacks(self, cold, session):
        store, reference, text = cold
        warm = session.arena(GRID, store)
        assert warm.executed == 0
        assert warm.loaded == reference.executed
        assert render_arena_matrices(warm) == text

    def test_killed_store_resumes_exactly(self, cold, session):
        """Delete half the records (a 'kill'), resume, match bytes."""
        store, reference, text = cold
        keys = attack_keys(store)
        killed = keys[: len(keys) // 2]
        for key in killed:
            store.path(key).unlink()
        resumed = session.arena(GRID, store)
        assert resumed.executed == len(killed)
        assert resumed.loaded == len(keys) - len(killed)
        assert render_arena_matrices(resumed) == text

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_fresh_store_any_jobs_matches_reference(
        self, cold, shared_cases, tmp_path, jobs
    ):
        """A from-scratch run at any pool width reproduces the matrix."""
        _, reference, text = cold
        run = Session(CONFIG, jobs=jobs, cases=shared_cases).arena(
            GRID, ResultStore(tmp_path / f"store-{jobs}")
        )
        assert run.executed == reference.executed
        assert render_arena_matrices(run) == text

    def test_store_payloads_are_self_describing(self, cold):
        store, _, _ = cold
        payload = store.get(attack_keys(store)[0])
        assert payload["schema"] == 1
        assert {"cell", "victim", "result"} <= set(payload)
        assert payload["cell"]["attack"]["name"] in GRID.attacks

    def test_axis_typos_fail_before_any_compute(self, tmp_path):
        """Unknown attack/defense names raise upfront, not mid-sweep."""
        session = Session(CONFIG)
        with pytest.raises(KeyError, match="unknown attack"):
            session.arena(replace_grid(attacks=("FGA-X",)), tmp_path / "s")
        with pytest.raises(KeyError, match="unknown defense"):
            session.arena(replace_grid(defenses=("jacard",)), tmp_path / "s")

    def test_truncated_record_quarantined_and_reexecuted(self, cold, session):
        """A record torn mid-store is a cache miss, not a dead sweep.

        Truncate one stored record (simulating a writer killed between
        the data write and its durability), resume, and require: the
        sweep completes, exactly that one victim re-executes, the bad
        file is quarantined as ``*.corrupt``, and the matrix stays
        byte-identical to the uninterrupted reference.
        """
        store, reference, text = cold
        key = attack_keys(store)[0]
        path = store.path(key)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        resumed = session.arena(GRID, store)
        assert resumed.executed == 1
        assert resumed.loaded == reference.executed - 1
        assert render_arena_matrices(resumed) == text
        corrupt = path.with_name(path.name + ".corrupt")
        assert corrupt.exists()
        # The re-executed record landed byte-identical to the original.
        assert store.path(key).read_bytes() == data
        corrupt.unlink()  # leave the store whole for sibling tests

    def test_progress_reports_cache_state(self, cold, session):
        store, reference, _ = cold
        lines = []
        session.arena(GRID, store, progress=lines.append)
        assert len(lines) == GRID.num_cells
        assert all("0 executed" in line for line in lines)
