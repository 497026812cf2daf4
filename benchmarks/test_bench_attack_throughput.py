"""Throughput benchmark: serial full-graph attacks vs the batched engine.

Times every explainer-aware attack of the locality engine — GEAttack,
IG-Attack, FGA-T&E and GEAttack-PG — over a victim set on the synthetic
Cora-like dataset (n≈400), twice per attack:

* **serial** — the seed path: one full-graph ``attack()`` per victim;
* **batched** — ``attack_many``: per-victim subgraph-locality execution
  with the shared frontier/normalization caches.

Prints one row per attack and asserts the engine's contract: *exactly*
matching attack-success
metrics and edge sets for every attack (the locality engine is exact), and
at least a 3× wall-clock speedup for the two pure-subgraph attacks
(GEAttack and IG-Attack; the explainer-in-the-loop attacks spend most of
their time inside mask/MLP optimization that is subgraph-sized on both
paths, so their speedup is printed but not thresholded).

A thresholded row runs one warmup serial/batched pair, then
``TIMED_PAIRS`` interleaved pairs, and asserts on the median ratio (the
min–max is printed next to it), so one noisy pair cannot fail the gate.
The same row also asserts the deterministic work contract behind the
speedup: Σn² / Σs² over the victims' locality views (``n`` the graph, ``s``
the view) must reach the same bound.  Repeatable timings with spread live
in ``perfbench/``; this test writes no file.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.attacks import FGATExplainerEvasion, GEAttack, GEAttackPG, IGAttack
from repro.attacks import ATTACKS
from repro.autodiff.tensor import Tensor, no_grad
from repro.datasets import load_dataset, random_split
from repro.explain import PGExplainer
from repro.graph import normalize_adjacency, reset_graph_cache
from repro.nn import GCN, train_node_classifier
from repro.obs import metrics

NUM_VICTIMS = 20
#: The explainer-in-the-loop attacks run a smaller victim set: their inner
#: optimization dominates wall-clock on both paths, so more victims only
#: stretch the benchmark without sharpening the contract.
NUM_VICTIMS_HEAVY = 8
BUDGET = 2
MIN_SPEEDUP = 3.0
#: Timed serial/batched pairs per thresholded row, after one warmup pair.
TIMED_PAIRS = 3


def _prepare():
    graph = load_dataset("cora", scale=0.17, seed=7)
    split = random_split(graph.num_nodes, seed=8)
    model = GCN(graph.num_features, 16, graph.num_classes, np.random.default_rng(9))
    train_node_classifier(
        model,
        normalize_adjacency(graph.adjacency),
        graph.features,
        graph.labels,
        split.train,
        split.val,
        split.test,
        epochs=150,
        patience=40,
    )
    with no_grad():
        logits = model(
            normalize_adjacency(graph.adjacency), Tensor(graph.features)
        ).data
    predictions = logits.argmax(axis=1)
    degrees = graph.degrees()
    eligible = np.flatnonzero(
        (predictions == graph.labels) & (degrees >= 2) & (degrees <= 5)
    )
    chosen = np.random.default_rng(10).choice(
        eligible, size=min(NUM_VICTIMS, eligible.size), replace=False
    )
    victims = []
    for node in sorted(int(v) for v in chosen):
        # Cheap deterministic target: the strongest wrong class.
        row = logits[node].copy()
        row[graph.labels[node]] = -np.inf
        victims.append((node, int(np.argmax(row)), BUDGET))
    return graph, model, victims


def _attack_success(results):
    return float(np.mean([r.misclassified for r in results]))


def _time_pair(attack, graph, victims):
    """One serial run and one batched run: results, seconds, cache counters."""
    reset_graph_cache()
    start = time.perf_counter()
    serial = [
        attack.attack(graph, node, label, budget)
        for node, label, budget in victims
    ]
    serial_seconds = time.perf_counter() - start

    reset_graph_cache()
    counters_before = metrics.snapshot()
    start = time.perf_counter()
    batched = attack.attack_many(graph, victims)
    batched_seconds = time.perf_counter() - start
    return serial, batched, serial_seconds, batched_seconds, (
        metrics.delta_since(counters_before)
    )


def _bench_one(attack, graph, victims, thresholded):
    """Serial vs batched timings plus the exactness row for one attack.

    A thresholded row times ``TIMED_PAIRS`` pairs after a warmup pair and
    reports their median ratio; any other row times a single pair.
    """
    pairs = [_time_pair(attack, graph, victims)]
    if thresholded:
        # The pair above was the warmup; the gate reads the pairs after it.
        pairs = [_time_pair(attack, graph, victims) for _ in range(TIMED_PAIRS)]
    serial, batched, _, _, delta = pairs[0]
    ratios = [one / many for _, _, one, many, _ in pairs]

    # The graph-cache hit ratio (repro.obs counters) is the locality
    # engine's whole speedup story.
    hits = delta.get("graph_cache.hits", 0)
    misses = delta.get("graph_cache.misses", 0)

    return {
        "num_victims": len(victims),
        "serial_seconds": float(np.median([p[2] for p in pairs])),
        "batched_seconds": float(np.median([p[3] for p in pairs])),
        "speedup": round(float(np.median(ratios)), 2),
        "speedup_range": (round(min(ratios), 2), round(max(ratios), 2)),
        "asr_serial": _attack_success(serial),
        "asr_batched": _attack_success(batched),
        "edges_identical": all(
            one.added_edges == many.added_edges
            for pair in pairs
            for one, many in zip(pair[0], pair[1])
        ),
        "graph_cache_hit_ratio": (
            round(hits / (hits + misses), 4) if hits + misses else None
        ),
    }


def _work_ratio(attack, graph, victims):
    """Σn² / Σs²: dense-math work of the full graph over the locality views."""
    full = graph.num_nodes**2 * len(victims)
    local = 0
    for node, label, _ in victims:
        scene = attack.build_locality_scene(graph, node, label)
        size = scene.view(graph).graph.num_nodes if scene else graph.num_nodes
        local += size**2
    return full / local


def test_bench_attack_throughput():
    graph, model, victims = _prepare()
    assert len(victims) >= 20, "benchmark needs at least 20 victims"
    heavy_victims = victims[:NUM_VICTIMS_HEAVY]
    pg = PGExplainer(model, epochs=6, seed=13).fit(graph, instances=10)

    rows = {}
    cases = [
        ("GEAttack", GEAttack(model, seed=21, inner_steps=3), victims, True),
        ("IG-Attack", IGAttack(model, seed=21, steps=10), victims, True),
        (
            "FGA-T&E",
            FGATExplainerEvasion(model, seed=21, explainer_epochs=20),
            heavy_victims,
            False,
        ),
        ("GEAttack-PG", GEAttackPG(model, pg, seed=21), heavy_victims, False),
    ]
    for name, attack, victim_set, thresholded in cases:
        # This benchmark measures the *locality engine* (serial full-graph
        # vs batched subgraph), so pin the dense backend: under
        # REPRO_BACKEND=sparse the serial path gets so fast that the
        # locality speedup threshold no longer means anything.
        attack.sparse = False
        rows[name] = _bench_one(attack, graph, victim_set, thresholded)
        if thresholded:
            rows[name]["work_ratio"] = round(
                _work_ratio(attack, graph, victim_set), 2
            )

    flagship = GEAttack(model, seed=21, inner_steps=3)
    subgraph_sizes = []
    for node, label, _ in victims:
        scene = flagship.build_locality_scene(graph, node, label)
        subgraph_sizes.append(
            scene.view(graph).graph.num_nodes if scene else graph.num_nodes
        )

    print()
    print(
        f"cora-like n={graph.num_nodes}, mean subgraph "
        f"{np.mean(subgraph_sizes):.1f} nodes "
        f"({np.mean(subgraph_sizes) / graph.num_nodes:.1%} of the graph)"
    )
    for name, row in rows.items():
        low, high = row["speedup_range"]
        work = (
            f", work ratio {row['work_ratio']:.2f}" if "work_ratio" in row else ""
        )
        print(
            f"{name}: {row['num_victims']} victims, serial "
            f"{row['serial_seconds']:.2f}s, batched {row['batched_seconds']:.2f}s, "
            f"{row['speedup']:.2f}x (min–max {low:.2f}–{high:.2f}x){work}, "
            f"graph-cache hit ratio {row['graph_cache_hit_ratio']}"
        )

    for name, row in rows.items():
        assert row["asr_batched"] == row["asr_serial"], (
            f"{name}: batched ASR must match the serial path"
        )
        assert row["edges_identical"], (
            f"{name}: locality execution must reproduce the edge sets"
        )
    for name, attack, victim_set, thresholded in cases:
        if thresholded:
            row = rows[name]
            assert row["work_ratio"] >= MIN_SPEEDUP, (
                f"{name}: locality views cut the dense work only "
                f"{row['work_ratio']:.2f}x (Σn²/Σs²)"
            )
            assert row["speedup"] >= MIN_SPEEDUP, (
                f"{name}: batched engine only {row['speedup']:.2f}x faster "
                f"in the median of {TIMED_PAIRS} pairs (min–max "
                f"{row['speedup_range'][0]:.2f}–{row['speedup_range'][1]:.2f}x; "
                f"serial {row['serial_seconds']:.2f}s, "
                f"batched {row['batched_seconds']:.2f}s)"
            )


# ---------------------------------------------------------------------------
# Full-scale dense vs sparse backend, with and without locality
# (REPRO_SCALE=full only)
# ---------------------------------------------------------------------------

#: Workloads for the full-scale backend comparison.  The thresholded
#: columns run full-graph (no locality) so the backend carries the whole
#: n × n vs O(nnz) delta; the locality columns (``attack_one``, dense by
#: default and sparse) complete the backend × locality 2×2.
FULL_SCALE_WORKLOADS = (
    ("FGA-T", {}),
    ("IG-Attack", {"steps": 5}),
    ("GEAttack", {"inner_steps": 2}),
)
FULL_SCALE_VICTIMS = 3
FULL_SCALE_MIN_SPEEDUP = 2.0

#: (column, sparse kernels, locality engine).  ``dense+locality`` is the
#: default execution path (``attack_one`` with the env var unset).
FULL_SCALE_PATHS = (
    ("dense", False, False),
    ("sparse", True, False),
    ("dense+locality", False, True),
    ("sparse+locality", True, True),
)


def _prepare_full_scale():
    """Full-size cora-like case (Table 3 scale: n ≈ 2.5k)."""
    graph = load_dataset("cora", scale=1.0, seed=7)
    split = random_split(graph.num_nodes, seed=8)
    model = GCN(graph.num_features, 16, graph.num_classes, np.random.default_rng(9))
    train_node_classifier(
        model,
        normalize_adjacency(graph.adjacency),
        graph.features,
        graph.labels,
        split.train,
        split.val,
        split.test,
        epochs=120,
        patience=30,
    )
    with no_grad():
        logits = model(
            normalize_adjacency(graph.adjacency), Tensor(graph.features)
        ).data
    predictions = logits.argmax(axis=1)
    degrees = graph.degrees()
    eligible = np.flatnonzero(
        (predictions == graph.labels) & (degrees >= 2) & (degrees <= 5)
    )
    chosen = np.random.default_rng(10).choice(
        eligible, size=min(FULL_SCALE_VICTIMS, eligible.size), replace=False
    )
    victims = []
    for node in sorted(int(v) for v in chosen):
        row = logits[node].copy()
        row[graph.labels[node]] = -np.inf
        victims.append((node, int(np.argmax(row)), 1))
    return graph, model, victims


def _bench_backends(name, kwargs, graph, model, victims):
    """Wall-clock of one attack over the victim set on every execution path."""
    timings = {}
    results = {}
    for column, sparse, locality in FULL_SCALE_PATHS:
        attack = ATTACKS[name](model, seed=21, **kwargs)
        attack.sparse = sparse
        reset_graph_cache()
        start = time.perf_counter()
        if locality:
            results[column] = [
                attack.attack_one(graph, victim) for victim in victims
            ]
        else:
            results[column] = [
                attack.attack(graph, node, label, budget)
                for node, label, budget in victims
            ]
        timings[column] = time.perf_counter() - start
    reference = results["dense"]
    return {
        "seconds": {column: round(t, 3) for column, t in timings.items()},
        "speedup": round(timings["dense"] / timings["sparse"], 2),
        "asr": {column: _attack_success(r) for column, r in results.items()},
        "edges_identical": {
            column: all(
                one.added_edges == two.added_edges
                for one, two in zip(reference, outcome)
            )
            for column, outcome in results.items()
        },
    }


def test_bench_full_scale():
    """Backend × locality at REPRO_SCALE=full: printed, sparse thresholded.

    Every path must reproduce the dense full-graph edge sets and ASR, and
    the sparse kernels must beat dense full-graph execution by at least
    ``FULL_SCALE_MIN_SPEEDUP`` on one workload.  Writes no file.
    """
    if os.environ.get("REPRO_SCALE") != "full":
        pytest.skip("full-scale backend benchmark runs only at REPRO_SCALE=full")
    graph, model, victims = _prepare_full_scale()
    assert len(victims) >= 1, "full-scale benchmark found no victims"

    rows = {}
    for name, kwargs in FULL_SCALE_WORKLOADS:
        rows[name] = _bench_backends(name, kwargs, graph, model, victims)

    print()
    print(
        f"cora-like (scale=1.0, seed=7) n={graph.num_nodes}, "
        f"{graph.num_edges} edges, {len(victims)} victims, budget 1"
    )
    for name, row in rows.items():
        columns = ", ".join(
            f"{column} {seconds:.2f}s" for column, seconds in row["seconds"].items()
        )
        print(f"{name}: {columns}; sparse vs dense {row['speedup']:.2f}x")

    for name, row in rows.items():
        for column, identical in row["edges_identical"].items():
            assert identical, (
                f"{name}: {column} must reproduce the dense edge sets"
            )
            assert row["asr"][column] == row["asr"]["dense"], (
                f"{name}: {column} ASR must match dense"
            )
    best = max(row["speedup"] for row in rows.values())
    assert best >= FULL_SCALE_MIN_SPEEDUP, (
        f"sparse backend best speedup only {best:.2f}x "
        f"(need ≥ {FULL_SCALE_MIN_SPEEDUP}x on at least one workload)"
    )
