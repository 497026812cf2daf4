"""Arena store + serialization: exact round-trips and canonical keys.

The arena's resume guarantee reduces to three properties tested here:

* ``AttackResult.to_dict``/``from_dict`` round-trips *exactly* through
  JSON (edges stay canonical tuples, score-trace floats keep every bit,
  history replays DICE-style edge removals);
* the content-addressed :class:`ResultStore` returns byte-equal payloads;
* cell/victim keys are canonical — independent of dict ordering, sensitive
  to every config knob that changes results.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.arena import (
    ResultStore,
    ScenarioCell,
    ScenarioGrid,
    canonical_json,
    cell_config,
    content_key,
    victim_key,
)
from repro.attacks import AttackResult, VictimSpec
from repro.experiments import SCALE_PRESETS
from repro.graph import Graph
from repro.obs import metrics


def random_attack_result(rng, with_history=False):
    """A randomized result shaped like real attack output."""
    num_edges = int(rng.integers(0, 5))
    added = [
        tuple(sorted((int(rng.integers(0, 40)), int(rng.integers(40, 80)))))
        for _ in range(num_edges)
    ]
    trace = []
    for _ in range(int(rng.integers(0, 4))):
        width = int(rng.integers(1, 7))
        trace.append(
            {
                "choice": int(rng.integers(0, 80)),
                "candidates": rng.integers(0, 80, size=width).astype(np.int64),
                # Scale wildly so shortest-repr round-tripping is stressed.
                "scores": rng.standard_normal(width) * 10.0 ** rng.integers(-8, 8),
            }
        )
    history = []
    if with_history:
        history = [
            ("removed", tuple(sorted((int(rng.integers(0, 40)), int(rng.integers(40, 80))))))
            for _ in range(int(rng.integers(1, 3)))
        ]
    return AttackResult(
        perturbed_graph=None,
        added_edges=added,
        target_node=int(rng.integers(0, 80)),
        target_label=None if rng.random() < 0.3 else int(rng.integers(0, 5)),
        original_prediction=int(rng.integers(0, 5)),
        final_prediction=int(rng.integers(0, 5)),
        history=history,
        score_trace=trace,
    )


class TestAttackResultRoundTrip:
    def test_property_exact_round_trip(self, rng):
        """50 random results survive to_dict → JSON → from_dict bit-exactly."""
        for index in range(50):
            result = random_attack_result(rng, with_history=index % 3 == 0)
            payload = json.loads(json.dumps(result.to_dict()))
            back = AttackResult.from_dict(payload)
            assert back.added_edges == result.added_edges
            assert all(isinstance(e, tuple) for e in back.added_edges)
            assert back.target_node == result.target_node
            assert back.target_label == result.target_label
            assert back.original_prediction == result.original_prediction
            assert back.final_prediction == result.final_prediction
            assert back.misclassified == result.misclassified
            assert back.hit_target == result.hit_target
            assert back.history == result.history
            assert len(back.score_trace) == len(result.score_trace)
            for step_in, step_out in zip(result.score_trace, back.score_trace):
                assert step_out["choice"] == step_in["choice"]
                assert step_out["candidates"].dtype == np.int64
                assert step_out["scores"].dtype == np.float64
                assert np.array_equal(step_out["candidates"], step_in["candidates"])
                # Bit-exact floats (shortest-repr JSON round-trip).
                assert np.array_equal(step_out["scores"], step_in["scores"])

    def test_perturbed_graph_replay_adds_and_removes(self):
        """from_dict(graph=...) replays removals before additions."""
        base = Graph(
            np.array(
                [
                    [0, 1, 1, 0],
                    [1, 0, 0, 0],
                    [1, 0, 0, 1],
                    [0, 0, 1, 0],
                ]
            ),
            np.eye(4),
            [0, 1, 0, 1],
        )
        result = AttackResult(
            perturbed_graph=None,
            added_edges=[(1, 3)],
            target_node=1,
            target_label=0,
            original_prediction=1,
            final_prediction=0,
            history=[("removed", (0, 2))],
        )
        back = AttackResult.from_dict(
            json.loads(json.dumps(result.to_dict())), graph=base
        )
        assert back.perturbed_graph.edge_set() == {(0, 1), (1, 3), (2, 3)}
        # The base graph is untouched (immutability convention).
        assert base.edge_set() == {(0, 1), (0, 2), (2, 3)}

    def test_without_graph_perturbed_is_none(self):
        result = random_attack_result(np.random.default_rng(3))
        assert AttackResult.from_dict(result.to_dict()).perturbed_graph is None


#: Strings that are not content keys; ``"..x"`` would name ``<root>/../..x.json``.
BAD_KEYS = ["..x", "A" * 64, "0" * 63, "0" * 65, "../" + "0" * 61, "g" * 64]


class TestResultStore:
    @pytest.mark.parametrize("key", BAD_KEYS)
    def test_non_content_key_is_rejected(self, tmp_path, key):
        outside = tmp_path / "..x.json"
        outside.write_bytes(b"not a record")
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ValueError, match="not a content key"):
            store.path(key)
        with pytest.raises(ValueError, match="not a content key"):
            store.get(key)
        with pytest.raises(ValueError, match="not a content key"):
            store.put(key, {"v": 1})
        assert outside.read_bytes() == b"not a record"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["..x.json"]

    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = content_key({"probe": 1})
        payload = {"result": {"x": [1.5, -2.25e-30]}, "schema": 1}
        assert key not in store
        assert store.get(key) is None
        store.put(key, payload)
        assert key in store
        assert store.get(key) == payload

    def test_sharded_layout_and_keys(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        keys = [content_key({"i": i}) for i in range(8)]
        for key in keys:
            store.put(key, {"i": key})
        assert len(store) == 8
        assert sorted(store.keys()) == sorted(keys)
        for key in keys:
            assert store.path(key).parent.name == key[:2]

    def test_overwrite_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = content_key({"again": True})
        store.put(key, {"v": 1})
        store.put(key, {"v": 1})
        assert len(store) == 1
        assert store.get(key) == {"v": 1}

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(content_key({"a": 1}), {})
        store.put(content_key({"b": 2}), {})
        store.clear()
        assert len(store) == 0

    def test_clear_removes_empty_shard_directories(self, tmp_path):
        """--fresh leaves no empty two-level shard dirs behind."""
        store = ResultStore(tmp_path / "store")
        keys = [content_key({"i": i}) for i in range(6)]
        for key in keys:
            store.put(key, {"i": key})
        store.clear()
        assert store.root.is_dir()
        assert [entry for entry in store.root.iterdir()] == []
        # The cleared store resumes cleanly.
        store.put(keys[0], {"again": True})
        assert store.get(keys[0]) == {"again": True}

    def test_failed_put_leaves_no_temp_orphan(self, tmp_path, monkeypatch):
        """A put that dies mid-write cleans its temp file up and re-raises."""
        from pathlib import Path

        store = ResultStore(tmp_path / "store")
        key = content_key({"fault": 1})
        real_write_bytes = Path.write_bytes

        def failing_write_bytes(self, *args, **kwargs):
            if self.name.endswith(".tmp"):
                real_write_bytes(self, b"torn")
                raise OSError("disk full")
            return real_write_bytes(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_bytes", failing_write_bytes)
        try:
            store.put(key, {"v": 1})
        except OSError as error:
            assert "disk full" in str(error)
        else:  # pragma: no cover - the fault must propagate
            raise AssertionError("put swallowed the write failure")
        monkeypatch.undo()
        # No torn record, no orphaned temp file anywhere under the root.
        assert key not in store
        assert list(store.root.rglob("*.tmp")) == []
        assert list(store.root.rglob(".*.tmp")) == []
        # And the store resumes cleanly after the fault.
        store.put(key, {"v": 2})
        assert store.get(key) == {"v": 2}

    def test_clear_removes_orphaned_temp_files(self, tmp_path):
        """A writer killed mid-put leaves a .tmp; --fresh must remove it."""
        store = ResultStore(tmp_path / "store")
        key = content_key({"kill": 1})
        store.put(key, {})
        orphan = store.path(key).with_name(f".{key}.json.999.tmp")
        orphan.write_text("{}")
        store.clear()
        assert not orphan.exists()
        assert len(store) == 0

    def test_missing_root_is_empty(self, tmp_path):
        store = ResultStore(tmp_path / "never-created")
        assert len(store) == 0
        assert store.keys() == []


class TestFill:
    """``ResultStore.fill``: read, lease, re-check, compute, write, read back."""

    KEYS = [content_key({"fill": i}) for i in range(3)]

    @staticmethod
    def compute_recording(calls):
        def compute(missing):
            calls.append(list(missing))
            return [{"computed": key} for key in missing]

        return compute

    def test_all_cached_computes_nothing_and_takes_no_lease(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        for key in self.KEYS:
            store.put(key, {"cached": key})
        calls = []
        before = metrics.snapshot()
        payloads, written = store.fill(
            "cell", self.KEYS, self.compute_recording(calls)
        )
        assert calls == []
        assert written == frozenset()
        assert payloads == {key: {"cached": key} for key in self.KEYS}
        assert "lease.acquired" not in metrics.delta_since(before)

    def test_foreign_lease_defers_without_computing(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(self.KEYS[0], {"cached": 0})
        holder = ResultStore(tmp_path / "store").try_lease("cell", ttl=60)
        calls = []
        payloads, written = store.fill(
            "cell", self.KEYS, self.compute_recording(calls)
        )
        holder.release()
        assert written is None
        assert calls == []
        assert payloads == {
            self.KEYS[0]: {"cached": 0}, self.KEYS[1]: None, self.KEYS[2]: None
        }
        assert len(store) == 1

    def test_key_committed_before_the_lease_is_not_recomputed(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path / "store")
        other = ResultStore(tmp_path / "store")
        real_try_lease = store.try_lease

        def racing_try_lease(name, ttl=None):
            # The previous holder commits between our read and our lease.
            other.put(self.KEYS[0], {"by": "other"})
            return real_try_lease(name, ttl)

        monkeypatch.setattr(store, "try_lease", racing_try_lease)
        calls = []
        payloads, written = store.fill(
            "cell", self.KEYS, self.compute_recording(calls)
        )
        assert calls == [self.KEYS[1:]]
        assert written == frozenset(self.KEYS[1:])
        assert payloads[self.KEYS[0]] == {"by": "other"}

    def test_failing_compute_releases_the_lease_and_writes_nothing(
        self, tmp_path
    ):
        store = ResultStore(tmp_path / "store")

        def compute(missing):
            raise ValueError("attack failed")

        with pytest.raises(ValueError, match="attack failed"):
            store.fill("cell", self.KEYS, compute)
        lease = ResultStore(tmp_path / "store").try_lease("cell", ttl=60)
        assert lease is not None
        lease.release()
        assert len(store) == 0
        assert all(store.get(key) is None for key in self.KEYS)

    def test_payloads_are_what_the_store_holds(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(self.KEYS[1], {"cached": 1})
        calls = []
        payloads, written = store.fill(
            "cell", self.KEYS, self.compute_recording(calls)
        )
        assert calls == [[self.KEYS[0], self.KEYS[2]]]
        assert written == frozenset([self.KEYS[0], self.KEYS[2]])
        fresh = ResultStore(tmp_path / "store")
        assert payloads == {key: fresh.get(key) for key in self.KEYS}


class TestManifest:
    """The v2 append-only manifest: index, migration, crash tolerance."""

    def test_one_fsynced_line_per_record(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        keys = [content_key({"i": i}) for i in range(5)]
        for key in keys:
            store.put(key, {"i": key})
        manifest = (store.root / "MANIFEST").read_text().splitlines()
        assert len(manifest) == 5
        for line in manifest:
            tag, key, relpath, length, digest = line.split("\t")
            assert tag == "v2"
            assert key in keys
            assert relpath == f"{key[:2]}/{key}.json"
            data = (store.root / relpath).read_bytes()
            assert int(length) == len(data)
            import hashlib

            assert digest == hashlib.sha256(data).hexdigest()

    def test_warm_reopen_serves_from_manifest(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        keys = [content_key({"i": i}) for i in range(8)]
        for key in keys:
            store.put(key, {"i": key})
        warm = ResultStore(store.root)
        assert len(warm) == 8
        assert sorted(warm.keys()) == sorted(keys)
        assert all(key in warm for key in keys)
        assert warm.get(keys[3]) == {"i": keys[3]}

    def test_v1_store_migrates_in_place(self, tmp_path):
        """A manifest-less (v1) record tree rebuilds its manifest on open."""
        store = ResultStore(tmp_path / "store")
        keys = [content_key({"i": i}) for i in range(6)]
        for key in keys:
            store.put(key, {"i": key})
        (store.root / "MANIFEST").unlink()
        migrated = ResultStore(store.root)
        assert sorted(migrated.keys()) == sorted(keys)
        assert (store.root / "MANIFEST").is_file()
        # The records themselves were never rewritten.
        for key in keys:
            assert migrated.get(key) == {"i": key}

    def test_torn_manifest_tail_is_ignored(self, tmp_path):
        """A writer killed mid-append leaves a partial last line: skip it."""
        store = ResultStore(tmp_path / "store")
        keys = [content_key({"i": i}) for i in range(4)]
        for key in keys:
            store.put(key, {"i": key})
        manifest = store.root / "MANIFEST"
        with open(manifest, "a", encoding="utf-8") as handle:
            handle.write("v2\tdeadbeef")  # no newline: torn mid-write
        warm = ResultStore(store.root)
        assert sorted(warm.keys()) == sorted(keys)

    def test_record_without_manifest_line_still_readable(self, tmp_path):
        """Crash between record write and manifest append: get still hits."""
        store = ResultStore(tmp_path / "store")
        key = content_key({"unindexed": 1})
        store.put(key, {"v": 1})
        # Simulate the crash window by dropping the manifest line only.
        (store.root / "MANIFEST").write_text("")
        warm = ResultStore(store.root)
        assert len(warm) == 0  # invisible to the index...
        assert key in warm  # ...but found by the path probe
        assert warm.get(key) == {"v": 1}
        # Compaction adopts it back into the manifest.
        assert warm.compact() == 1
        assert warm.keys() == [key]

    def test_compact_folds_duplicates_and_tombstones(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = content_key({"dup": 1})
        store.put(key, {"v": 1})
        store.put(key, {"v": 1})
        other = content_key({"dup": 2})
        store.put(other, {"v": 2})
        store.path(other).write_bytes(b"{torn")
        assert store.get(other) is None  # quarantined → tombstone line
        lines = (store.root / "MANIFEST").read_text().splitlines()
        assert len(lines) == 4  # 2 puts + 1 put + 1 drop
        assert store.compact() == 1
        assert (store.root / "MANIFEST").read_text().count("\n") == 1
        assert store.keys() == [key]


class TestCorruptRecords:
    """Unreadable records are cache misses, quarantined — never crashes."""

    def test_truncated_record_is_a_miss_and_quarantined(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = content_key({"x": 1})
        store.put(key, {"result": {"deep": [1, 2, 3]}})
        path = store.path(key)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert store.get(key) is None
        assert not path.exists()
        corrupt = path.with_name(path.name + ".corrupt")
        assert corrupt.exists()
        assert key not in store.keys()
        # The store heals on re-put.
        store.put(key, {"result": {"deep": [1, 2, 3]}})
        assert store.get(key) == {"result": {"deep": [1, 2, 3]}}

    def test_checksum_mismatch_is_a_miss(self, tmp_path):
        """Valid JSON with the wrong bytes (disk rot) fails the manifest."""
        store = ResultStore(tmp_path / "store")
        key = content_key({"x": 2})
        store.put(key, {"v": 1})
        store.path(key).write_text('{"v":2}')
        assert store.get(key) is None
        assert store.path(key).with_name(
            store.path(key).name + ".corrupt"
        ).exists()

    def test_quarantine_survives_reopen(self, tmp_path):
        """The drop tombstone keeps a reloaded index from resurrecting it."""
        store = ResultStore(tmp_path / "store")
        key = content_key({"x": 3})
        store.put(key, {"v": 1})
        store.path(key).write_bytes(b"\xff\xfe garbage")
        assert store.get(key) is None
        warm = ResultStore(store.root)
        assert key not in warm.keys()
        assert warm.get(key) is None

    def test_clear_sweeps_quarantined_files(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = content_key({"x": 4})
        store.put(key, {"v": 1})
        store.path(key).write_bytes(b"{")
        assert store.get(key) is None
        store.clear()
        assert list(store.root.iterdir()) == []


class TestNoDirectoryWalks:
    """Warm-store lookups run off the manifest index, not directory scans."""

    @staticmethod
    def _counting(monkeypatch):
        import os as os_module

        calls = {"n": 0}
        real_scandir, real_listdir = os_module.scandir, os_module.listdir

        def scandir(*args, **kwargs):
            calls["n"] += 1
            return real_scandir(*args, **kwargs)

        def listdir(*args, **kwargs):
            calls["n"] += 1
            return real_listdir(*args, **kwargs)

        monkeypatch.setattr(os_module, "scandir", scandir)
        monkeypatch.setattr(os_module, "listdir", listdir)
        return calls

    def test_len_keys_contains_get_never_scan(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "store")
        keys = [content_key({"i": i}) for i in range(16)]
        for key in keys:
            store.put(key, {"i": key})
        warm = ResultStore(store.root)
        assert len(warm) == 16  # loads the index (a file read, no walk)
        calls = self._counting(monkeypatch)
        assert len(warm) == 16
        assert sorted(warm.keys()) == sorted(keys)
        assert all(key in warm for key in keys)
        assert warm.get(keys[0]) == {"i": keys[0]}
        assert calls["n"] == 0

    def test_clear_is_one_sweep_not_two_walks(self, tmp_path, monkeypatch):
        """v1 cleared via keys()-walk + per-key unlink + a second glob walk;
        v2 unlinks straight from the index and sweeps the tree once."""
        store = ResultStore(tmp_path / "store")
        keys = [content_key({"i": i}) for i in range(16)]
        for key in keys:
            store.put(key, {"i": key})
        shards = sum(1 for entry in store.root.iterdir() if entry.is_dir())
        calls = self._counting(monkeypatch)
        store.clear()
        # One listing of the root plus one per shard directory — bounded
        # by the tree's directory count, never by the record count twice.
        assert calls["n"] <= shards + 1
        assert len(store) == 0


class TestCanonicalKeys:
    def test_content_key_ignores_dict_order(self):
        assert content_key({"a": 1, "b": [2.5, 3]}) == content_key(
            {"b": [2.5, 3], "a": 1}
        )

    def test_canonical_json_is_compact_and_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_victim_key_sensitive_to_every_axis(self):
        config = SCALE_PRESETS["smoke"]
        cell = ScenarioCell("cora", 16, "GEAttack", 3, 0)
        spec = VictimSpec(5, 1, 3)
        base = victim_key(cell_config(cell, config), spec)
        variants = [
            victim_key(cell_config(cell, config), VictimSpec(6, 1, 3)),
            victim_key(cell_config(cell, config), VictimSpec(5, 2, 3)),
            victim_key(cell_config(cell, config), VictimSpec(5, 1, 2)),
            victim_key(
                cell_config(ScenarioCell("cora", 16, "Nettack", 3, 0), config),
                spec,
            ),
            victim_key(
                cell_config(ScenarioCell("cora", 16, "GEAttack", 3, 1), config),
                spec,
            ),
            victim_key(
                cell_config(ScenarioCell("cora", 32, "GEAttack", 3, 0), config),
                spec,
            ),
            victim_key(
                cell_config(cell, replace(config, geattack_lam=9.9)), spec
            ),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_attack_params_scoped_to_consumer(self):
        """Changing GEAttack's λ must not invalidate Nettack cells."""
        config = SCALE_PRESETS["smoke"]
        bumped = replace(config, geattack_lam=9.9)
        nettack = ScenarioCell("cora", 16, "Nettack", 3, 0)
        spec = VictimSpec(5, 1, 3)
        assert victim_key(cell_config(nettack, config), spec) == victim_key(
            cell_config(nettack, bumped), spec
        )

    def test_grid_enumeration_deterministic(self):
        grid = ScenarioGrid(
            datasets=("cora",),
            attacks=("FGA-T", "GEAttack"),
            defenses=("none", "jaccard"),
            budget_caps=(2, 3),
            seeds=(0, 1),
        )
        cells = grid.cells()
        assert len(cells) == grid.num_cells == 8
        assert cells == grid.cells()  # stable order
        assert cells[0] == ScenarioCell("cora", 16, "FGA-T", 2, 0)
