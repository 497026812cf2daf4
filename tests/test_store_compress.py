"""Optional gzip compression in the result store.

The contract: compression is opt-in on ``put`` (``REPRO_STORE_COMPRESS=1``
or ``ResultStore(compress=True)``), transparent on ``get`` (records are
sniffed by the gzip magic, so plain and compressed records coexist in one
store), the manifest's length/sha cover the *stored* bytes (integrity is
checked before decompression), and a mixed store resumes an arena run
with zero re-executed attacks.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import replace

import pytest

from repro.api import Session
from repro.arena import ResultStore, ScenarioGrid
from repro.arena.grid import canonical_json
from repro.experiments import SCALE_PRESETS

PAYLOAD = {"answer": 42, "text": "gzip " * 64}  # compressible


def _record_bytes(store, key):
    return store.path(key).read_bytes()


class TestCompressToggle:
    def test_default_store_writes_plain_json(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put("a" * 64, PAYLOAD)
        raw = _record_bytes(store, "a" * 64)
        assert raw == canonical_json(PAYLOAD).encode("utf-8")

    def test_constructor_flag_compresses(self, tmp_path):
        store = ResultStore(tmp_path / "store", compress=True)
        store.put("a" * 64, PAYLOAD)
        raw = _record_bytes(store, "a" * 64)
        assert raw[:2] == b"\x1f\x8b"
        assert json.loads(gzip.decompress(raw)) == PAYLOAD
        assert len(raw) < len(canonical_json(PAYLOAD).encode("utf-8"))

    def test_env_flag_compresses(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_COMPRESS", "1")
        store = ResultStore(tmp_path / "store")
        store.put("a" * 64, PAYLOAD)
        assert _record_bytes(store, "a" * 64)[:2] == b"\x1f\x8b"

    def test_constructor_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_COMPRESS", "1")
        store = ResultStore(tmp_path / "store", compress=False)
        store.put("a" * 64, PAYLOAD)
        assert _record_bytes(store, "a" * 64)[:2] != b"\x1f\x8b"

    def test_compressed_bytes_deterministic(self, tmp_path):
        # gzip with mtime=0: same payload, same bytes, every time.
        first = ResultStore(tmp_path / "one", compress=True)
        second = ResultStore(tmp_path / "two", compress=True)
        first.put("a" * 64, PAYLOAD)
        second.put("a" * 64, PAYLOAD)
        assert _record_bytes(first, "a" * 64) == _record_bytes(second, "a" * 64)


class TestTransparentReads:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store", compress=True)
        store.put("a" * 64, PAYLOAD)
        assert store.get("a" * 64) == PAYLOAD

    def test_mixed_store_reads_both(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root, compress=False).put("a" * 64, {"kind": "plain"})
        ResultStore(root, compress=True).put("b" * 64, {"kind": "gzip"})
        reader = ResultStore(root)
        assert reader.get("a" * 64) == {"kind": "plain"}
        assert reader.get("b" * 64) == {"kind": "gzip"}
        assert len(reader) == 2

    def test_manifest_covers_stored_bytes(self, tmp_path):
        import hashlib

        store = ResultStore(tmp_path / "store", compress=True)
        store.put("a" * 64, PAYLOAD)
        raw = _record_bytes(store, "a" * 64)
        line = next(
            entry
            for entry in (tmp_path / "store" / "MANIFEST")
            .read_text()
            .splitlines()
            if entry.startswith("v2\t")
        )
        _, _, _, length, digest = line.split("\t")
        assert int(length) == len(raw)
        assert digest == hashlib.sha256(raw).hexdigest()

    def test_rebuilt_index_serves_compressed_records(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root, compress=True).put("a" * 64, PAYLOAD)
        (root / "MANIFEST").unlink()  # force the shard-walk rebuild
        assert ResultStore(root).get("a" * 64) == PAYLOAD

    def test_compact_keeps_mixed_records(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(root, compress=False).put("a" * 64, {"kind": "plain"})
        ResultStore(root, compress=True).put("b" * 64, {"kind": "gzip"})
        store = ResultStore(root)
        store.compact()
        assert store.get("a" * 64) == {"kind": "plain"}
        assert store.get("b" * 64) == {"kind": "gzip"}

    def test_corrupt_gzip_quarantined(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(root, compress=True)
        store.put("a" * 64, PAYLOAD)
        path = store.path("a" * 64)
        raw = path.read_bytes()
        path.write_bytes(raw[:2] + b"\x00" * 8)  # magic intact, body garbage
        # Fresh handle: the manifest length/sha no longer match either,
        # and either failure mode must be a miss + quarantine, not a crash.
        fresh = ResultStore(root)
        assert fresh.get("a" * 64) is None
        assert path.with_name(path.name + ".corrupt").exists()

    def test_counter_increments_on_compressed_put(self, tmp_path):
        from repro.obs import metrics

        before = metrics.counters().get("store.compressed_writes", 0)
        ResultStore(tmp_path / "store", compress=True).put("a" * 64, PAYLOAD)
        assert metrics.counters()["store.compressed_writes"] == before + 1


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
    def test_mixed_store_resumes_with_zero_executions(
        self, tmp_path, monkeypatch
    ):
        """Half plain + half gzip records resume as one warm store."""
        session = Session(CONFIG, cases={})
        root = tmp_path / "store"
        cold = session.arena(GRID, ResultStore(root))
        assert cold.executed > 0

        # Drop half the records and re-execute them compressed.
        keys = sorted(ResultStore(root).keys())
        half = keys[: len(keys) // 2] or keys[:1]
        store = ResultStore(root)
        for key in half:
            store.path(key).unlink()
            store._drop(key)
        monkeypatch.setenv("REPRO_STORE_COMPRESS", "1")
        repaired = session.arena(GRID, ResultStore(root))
        assert repaired.executed == len(half)
        monkeypatch.delenv("REPRO_STORE_COMPRESS")

        kinds = {
            ResultStore(root).path(key).read_bytes()[:2] == b"\x1f\x8b"
            for key in keys
        }
        assert kinds == {True, False}  # genuinely mixed on disk

        warm = session.arena(GRID, ResultStore(root))
        assert warm.executed == 0
        assert warm.loaded == cold.executed
        assert "executed 0 attacks" in warm.stats_line()
