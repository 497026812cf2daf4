"""Reading gzip-compressed records written by earlier store versions.

``put`` always writes plain JSON, but stores written by earlier versions
may hold gzip records, so they are outside input the store must keep
reading.  The contract: ``get`` sniffs the gzip magic (plain and
compressed records coexist in one store), the manifest's length/sha cover
the *stored* bytes (integrity is checked before decompression), a corrupt
gzip stream is quarantined like any torn record, and a mixed store
resumes an arena run with zero re-executed attacks.

Each test plants gzip records directly at ``store.path(key)`` — the bytes
an earlier version wrote (``mtime=0``) — and lets ``compact`` index them.
"""

from __future__ import annotations

import gzip
import hashlib
from dataclasses import replace

from repro.api import Session
from repro.arena import ResultStore, ScenarioGrid
from repro.arena.grid import canonical_json
from repro.experiments import SCALE_PRESETS

PAYLOAD = {"answer": 42, "text": "gzip " * 64}  # compressible


def _gzip_record(payload):
    return gzip.compress(canonical_json(payload).encode(), mtime=0)


def _plant_gzip(root, key, payload):
    """Write ``payload`` as a gzip record and index it; return the store."""
    store = ResultStore(root)
    path = store.path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(_gzip_record(payload))
    store.compact()
    return store


def test_put_writes_plain_json(tmp_path):
    store = ResultStore(tmp_path / "store")
    store.put("a" * 64, PAYLOAD)
    raw = store.path("a" * 64).read_bytes()
    assert raw == canonical_json(PAYLOAD).encode("utf-8")


class TestTransparentReads:
    def test_round_trip(self, tmp_path):
        store = _plant_gzip(tmp_path / "store", "a" * 64, PAYLOAD)
        assert store.get("a" * 64) == PAYLOAD

    def test_mixed_store_reads_both(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root).put("a" * 64, {"kind": "plain"})
        _plant_gzip(root, "b" * 64, {"kind": "gzip"})
        reader = ResultStore(root)
        assert reader.get("a" * 64) == {"kind": "plain"}
        assert reader.get("b" * 64) == {"kind": "gzip"}
        assert len(reader) == 2

    def test_manifest_covers_stored_bytes(self, tmp_path):
        root = tmp_path / "store"
        store = _plant_gzip(root, "a" * 64, PAYLOAD)
        raw = store.path("a" * 64).read_bytes()
        line = next(
            entry
            for entry in (root / "MANIFEST").read_text().splitlines()
            if entry.startswith("v2\t")
        )
        _, _, _, length, digest = line.split("\t")
        assert int(length) == len(raw)
        assert digest == hashlib.sha256(raw).hexdigest()

    def test_checksum_precedes_decompression(self, tmp_path):
        # A well-formed gzip stream of a *different* payload: only the
        # manifest checksum over the stored bytes can tell it is wrong.
        root = tmp_path / "store"
        store = _plant_gzip(root, "a" * 64, PAYLOAD)
        path = store.path("a" * 64)
        path.write_bytes(_gzip_record({"answer": 0}))
        assert ResultStore(root).get("a" * 64) is None
        assert path.with_name(path.name + ".corrupt").exists()

    def test_rebuilt_index_serves_compressed_records(self, tmp_path):
        root = tmp_path / "store"
        _plant_gzip(root, "a" * 64, PAYLOAD)
        (root / "MANIFEST").unlink()  # force the shard-walk rebuild
        assert ResultStore(root).get("a" * 64) == PAYLOAD

    def test_compact_keeps_mixed_records(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root).put("a" * 64, {"kind": "plain"})
        _plant_gzip(root, "b" * 64, {"kind": "gzip"})
        store = ResultStore(root)
        store.compact()
        assert store.get("a" * 64) == {"kind": "plain"}
        assert store.get("b" * 64) == {"kind": "gzip"}

    def test_corrupt_gzip_quarantined(self, tmp_path):
        root = tmp_path / "store"
        path = _plant_gzip(root, "a" * 64, PAYLOAD).path("a" * 64)
        raw = path.read_bytes()
        path.write_bytes(raw[:2] + b"\x00" * 8)  # magic intact, body garbage
        ResultStore(root).compact()  # the manifest now vouches for it
        # Checksum passes, so the failure is in decompression — still a
        # miss + quarantine, not a crash.
        fresh = ResultStore(root)
        assert fresh.get("a" * 64) is None
        assert path.with_name(path.name + ".corrupt").exists()


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


class TestArenaResumeAcrossCompression:
    def test_mixed_store_resumes_with_zero_executions(self, tmp_path):
        """Half plain + half gzip records resume as one warm store."""
        session = Session(CONFIG, cases={})
        root = tmp_path / "store"
        cold = session.arena(GRID, ResultStore(root))
        assert cold.executed > 0

        # Rewrite half the records as an earlier version's gzip records.
        keys = sorted(ResultStore(root).keys())
        half = keys[: len(keys) // 2] or keys[:1]
        store = ResultStore(root)
        for key in half:
            payload = store.get(key)
            store.path(key).write_bytes(_gzip_record(payload))
        store.compact()

        kinds = {
            ResultStore(root).path(key).read_bytes()[:2] == b"\x1f\x8b"
            for key in keys
        }
        assert kinds == {True, False}  # genuinely mixed on disk

        warm = session.arena(GRID, ResultStore(root))
        assert warm.executed == 0
        assert warm.loaded == cold.executed
        assert "executed 0 attacks" in warm.stats_line()
