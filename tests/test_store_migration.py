"""v1-store migration: old layouts resume untouched through the v2 store.

``tests/data/v1_store`` is a committed store produced by the pre-manifest
``ResultStore`` (shard dirs only — no MANIFEST, no lease dir).  The v2
store must adopt it transparently: first index access rebuilds the
manifest from the shard tree, a resume executes zero attacks, and every
record — and the rendered matrix — stays byte-identical.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.arena import ResultStore, ScenarioGrid, render_arena_matrices
from repro.attacks.base import Attack
from repro.experiments import SCALE_PRESETS
from repro.nn import GCN

FIXTURE = Path(__file__).parent / "data" / "v1_store"

#: Must match the exact configuration the fixture was generated with.
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


def dense_kernels():
    """Whether attacks built now run the dense kernels.

    The fixture was generated on the dense backend; the sparse kernels
    agree on edge sets/ASR but wobble score-trace floats at the last ulp,
    so byte-equality against a fresh run only holds on dense.  Decided by
    the same ``REPRO_BACKEND`` resolution every attack makes at
    construction, not by re-parsing the variable here.
    """
    return not Attack(GCN(2, 2, 2, np.random.default_rng(0))).sparse


@pytest.mark.parametrize(
    "value, dense",
    [
        (None, True),
        ("", True),
        ("dense", True),
        ("DENSE", True),
        (" Dense ", True),
        ("sparse", False),
        ("SPARSE", False),
    ],
)
def test_byte_exactness_follows_attack_resolution(monkeypatch, value, dense):
    if value is None:
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
    else:
        monkeypatch.setenv("REPRO_BACKEND", value)
    assert dense_kernels() is dense


@pytest.fixture(scope="module")
def session():
    """One session for the module, so its trained cases are shared."""
    return Session(CONFIG)


@pytest.fixture(scope="module")
def cold(tmp_path_factory, session):
    """A fresh cold run: the byte-level reference the fixture must match."""
    store = ResultStore(tmp_path_factory.mktemp("migration") / "cold")
    run = session.arena(GRID, store)
    return store, run, render_arena_matrices(run), dense_kernels()


@pytest.fixture()
def v1_store(tmp_path):
    """A scratch copy of the committed v1 fixture (never mutate the repo)."""
    root = tmp_path / "v1"
    shutil.copytree(FIXTURE, root)
    return root


def test_fixture_is_a_pure_v1_layout():
    """The committed fixture must stay manifest-free, or this suite tests
    nothing — regenerate it with v2 artifacts stripped if it ever churns."""
    assert FIXTURE.is_dir()
    assert not (FIXTURE / ResultStore.MANIFEST_NAME).exists()
    assert not (FIXTURE / ResultStore.LEASE_DIR).exists()
    records = list(FIXTURE.rglob("*.json"))
    assert records, "fixture has no records"
    assert all(p.parent.name == p.name[:2] for p in records)


def test_v1_store_resumes_with_zero_executed(cold, session, v1_store):
    _, reference, text, _ = cold
    run = session.arena(GRID, ResultStore(v1_store))
    assert run.executed == 0
    assert run.loaded == reference.executed
    assert "executed 0 attacks" in run.stats_line()
    assert render_arena_matrices(run) == text


def test_migration_builds_manifest_and_keeps_records_untouched(
    cold, v1_store
):
    cold_store, reference, _, byte_exact = cold
    before = {
        p.relative_to(v1_store): p.read_bytes()
        for p in v1_store.rglob("*.json")
    }
    store = ResultStore(v1_store)
    # Index access (len here) triggers the in-place rebuild.
    assert len(store) == reference.executed
    manifest = v1_store / ResultStore.MANIFEST_NAME
    assert manifest.is_file()
    assert len(manifest.read_text().splitlines()) == reference.executed
    after = {
        p.relative_to(v1_store): p.read_bytes()
        for p in v1_store.rglob("*.json")
    }
    assert after == before  # migration never rewrites records
    # ...and they are the same records a fresh v2 run produces (whose
    # store also holds verdict records, which carry no result).
    assert store.keys() == [
        key for key in cold_store.keys() if "result" in cold_store.get(key)
    ]
    # Byte-equality holds when the cold run used the dense kernels.
    for key in store.keys():
        mine = store.path(key).read_bytes()
        cold_bytes = cold_store.path(key).read_bytes()
        if byte_exact:
            assert mine == cold_bytes
        else:
            payload, cold_payload = json.loads(mine), json.loads(cold_bytes)
            assert payload["cell"] == cold_payload["cell"]
            assert payload["victim"] == cold_payload["victim"]
            assert (
                payload["result"]["added_edges"]
                == cold_payload["result"]["added_edges"]
            )


def test_migrated_store_is_a_full_v2_citizen(cold, session, v1_store):
    """Post-migration stores support the whole v2 surface: O(1) reopen,
    corruption quarantine, and further resumable writes."""
    _, reference, text, _ = cold
    store = ResultStore(v1_store)
    keys = store.keys()
    # Warm reopen reads the manifest, not the shard tree.
    reopened = ResultStore(v1_store)
    assert reopened.keys() == keys
    # Kill one record; the resume heals it and still matches bytes.
    victim_key = keys[0]
    reopened.path(victim_key).unlink()
    healed = session.arena(GRID, ResultStore(v1_store))
    assert healed.executed == 1
    assert healed.loaded == reference.executed - 1
    assert render_arena_matrices(healed) == text
