"""Result-store scale benchmark: manifest index vs v1 directory walks.

Drives the v2 :class:`~repro.arena.ResultStore` to ``10^5`` records and
prints write/read/resume throughput, alongside a head-to-head against the
v1 strategy (enumerate keys by walking the two-level shard tree) that the
manifest replaced.  Neither entry point writes a file.

Two entry points:

* ``test_bench_store_scale_smoke`` always runs at a few thousand records
  — a CI-sized guard that the manifest index stays faster than walking
  (on the median of interleaved timing pairs), plus the deterministic
  work behind it: the index resume scans no directory, the walk scans
  every shard.
* ``test_bench_store_scale_full`` is the full-size run (``100000``
  records by default).  It is skipped at smoke scale unless
  ``REPRO_STORE_BENCH_RECORDS`` sets the record count.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time

import pytest

from repro.arena import ResultStore, content_key
from repro.obs import metrics

from conftest import active_scale

# The directory-scan counter lives with the store's no-walk unit tests;
# appended (not prepended) so this directory's own conftest still wins.
sys.path.append(os.path.join(os.path.dirname(__file__), "..", "tests"))
import test_arena_store  # noqa: E402

#: Durable (per-record fsync) writes are benchmarked on a slice this size;
#: the bulk path covers the rest.  Arena sweeps write through ``bulk()``.
DURABLE_SLICE = 500
#: Timed resume pairs (index, walk — interleaved) after one warmup pair.
#: A single ~4 ms vs ~12 ms timing sits inside scheduler noise; the
#: contract is on the medians.
RESUME_PAIRS = 5


def _payload(i):
    """A record shaped like a (small) arena victim result."""
    return {
        "schema": 1,
        "cell": {"attack": {"name": "FGA-T"}, "bench_index": i},
        "victim": i % 997,
        "result": {"success": bool(i % 2), "budget_used": i % 5},
    }


def _v1_walk_keys(root):
    """Byte-for-byte the v1 ``keys()`` strategy: walk the shard tree."""
    found = []
    for shard in root.iterdir():
        if not (shard.is_dir() and len(shard.name) == 2):
            continue
        for record in shard.iterdir():
            if record.suffix == ".json" and not record.name.endswith(
                ".corrupt"
            ):
                found.append(record.stem)
    return sorted(found)


def _index_resume(root, keys):
    """v2 resume: a fresh open loads the manifest once, then every
    membership probe is an in-memory dict hit (seconds)."""
    fresh = ResultStore(root)
    begin = time.perf_counter()
    assert len(fresh) == len(keys)
    hits = sum(1 for key in keys if key in fresh)
    assert hits == len(keys)
    return time.perf_counter() - begin


def _walk_resume(root, keys):
    """v1 resume: enumerate keys by walking the shard tree (seconds)."""
    begin = time.perf_counter()
    walked = set(_v1_walk_keys(root))
    assert len(walked) == len(keys)
    hits = sum(1 for key in keys if key in walked)
    assert hits == len(keys)
    return time.perf_counter() - begin


def _run_store_benchmark(root, count):
    keys = [content_key({"bench": i}) for i in range(count)]
    counters_before = metrics.snapshot()
    store = ResultStore(root)

    start = time.perf_counter()
    for i in range(DURABLE_SLICE):
        store.put(keys[i], _payload(i))
    durable_seconds = time.perf_counter() - start

    start = time.perf_counter()
    with store.bulk():
        for i in range(DURABLE_SLICE, count):
            store.put(keys[i], _payload(i))
    bulk_seconds = time.perf_counter() - start

    # Resume cost: one warmup pair so both contenders get warm page
    # caches, then interleaved pairs so drift hits both sides alike.
    _index_resume(root, keys)
    _walk_resume(root, keys)
    index_runs, walk_runs = [], []
    for _ in range(RESUME_PAIRS):
        index_runs.append(_index_resume(root, keys))
        walk_runs.append(_walk_resume(root, keys))
    index_seconds = statistics.median(index_runs)
    walk_seconds = statistics.median(walk_runs)

    # Random reads through checksum verification.
    reader = ResultStore(root)
    sample = random.Random(0).sample(keys, min(1000, count))
    start = time.perf_counter()
    for key in sample:
        payload = reader.get(key)
        assert payload is not None
    read_seconds = time.perf_counter() - start

    # The run's own telemetry (repro.obs counters): fsync volume and the
    # read hit ratio put the throughput rows in context.
    delta = metrics.delta_since(counters_before)
    reads = delta.get("store.read_hits", 0) + delta.get("store.read_misses", 0)
    counters = {
        name: value
        for name, value in sorted(delta.items())
        if name.startswith("store.")
    }
    counters["store.read_hit_ratio"] = (
        round(delta.get("store.read_hits", 0) / reads, 4) if reads else None
    )

    return {
        "records": count,
        "durable_writes_per_second": round(DURABLE_SLICE / durable_seconds, 1),
        "bulk_writes_per_second": round(
            (count - DURABLE_SLICE) / bulk_seconds, 1
        ),
        "reads_per_second": round(len(sample) / read_seconds, 1),
        "resume_pairs": RESUME_PAIRS,
        "resume_index_seconds": round(index_seconds, 4),
        "resume_index_range_seconds": [
            round(min(index_runs), 4), round(max(index_runs), 4)
        ],
        "resume_v1_walk_seconds": round(walk_seconds, 4),
        "resume_v1_walk_range_seconds": [
            round(min(walk_runs), 4), round(max(walk_runs), 4)
        ],
        "resume_speedup_vs_v1_walk": round(walk_seconds / index_seconds, 2),
        "counters": counters,
    }


def test_bench_store_scale_smoke(tmp_path, monkeypatch):
    """CI-sized guard: the manifest index must beat the v1 walk it replaced."""
    root = tmp_path / "store"
    count = 2000
    record = _run_store_benchmark(root, count)
    print()
    print(json.dumps(record, indent=2, sort_keys=True))
    assert record["resume_index_seconds"] < record["resume_v1_walk_seconds"]
    # Sanity floors, far below any real machine, to catch pathologies.
    assert record["bulk_writes_per_second"] > 200
    assert record["reads_per_second"] > 200

    # The deterministic work behind the timing: the index resume scans no
    # directory at all; the walk lists the root and every shard directory.
    keys = [content_key({"bench": i}) for i in range(count)]
    shards = sum(
        1
        for entry in root.iterdir()
        if entry.is_dir() and len(entry.name) == 2
    )
    calls = test_arena_store.TestNoDirectoryWalks._counting(monkeypatch)
    _index_resume(root, keys)
    assert calls["n"] == 0
    _walk_resume(root, keys)
    assert calls["n"] >= shards > 0


def test_bench_store_scale_full(tmp_path):
    """The full-size run: 10^5 records (or the env count), printed."""
    env = os.environ.get("REPRO_STORE_BENCH_RECORDS")
    if env:
        count = int(env)
    elif active_scale() != "smoke":
        count = 100_000
    else:
        pytest.skip(
            "full store-scale bench runs with REPRO_STORE_BENCH_RECORDS set "
            "or REPRO_SCALE != smoke"
        )
    record = _run_store_benchmark(tmp_path / "store", count)
    print()
    print(json.dumps(record, indent=2, sort_keys=True))
    assert record["resume_index_seconds"] < record["resume_v1_walk_seconds"]
