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
paths, so their speedup is printed but not thresholded).  Repeatable
timings with spread live in ``perfbench/``; this test writes no file.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.attacks import FGATExplainerEvasion, GEAttack, GEAttackPG, IGAttack
from repro.attacks import ATTACKS
from repro.autodiff.backend import get_backend
from repro.autodiff.tensor import Tensor, no_grad
from repro.datasets import load_dataset, random_split
from repro.explain import PGExplainer
from repro.graph import normalize_adjacency, reset_graph_cache
from repro.nn import GCN, train_node_classifier
from repro.obs import metrics

FULL_SCALE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_full_scale.json",
)

NUM_VICTIMS = 20
#: The explainer-in-the-loop attacks run a smaller victim set: their inner
#: optimization dominates wall-clock on both paths, so more victims only
#: stretch the benchmark without sharpening the contract.
NUM_VICTIMS_HEAVY = 8
BUDGET = 2
MIN_SPEEDUP = 3.0


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


def _bench_one(attack, graph, victims):
    """Serial vs batched timings plus the exactness row for one attack."""
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

    # The graph-cache hit ratio (repro.obs counters) is the locality
    # engine's whole speedup story.
    delta = metrics.delta_since(counters_before)
    hits = delta.get("graph_cache.hits", 0)
    misses = delta.get("graph_cache.misses", 0)

    return {
        "num_victims": len(victims),
        "serial_seconds": serial_seconds,
        "batched_seconds": batched_seconds,
        "speedup": round(serial_seconds / batched_seconds, 2),
        "asr_serial": _attack_success(serial),
        "asr_batched": _attack_success(batched),
        "edges_identical": all(
            one.added_edges == many.added_edges
            for one, many in zip(serial, batched)
        ),
        "graph_cache_hit_ratio": (
            round(hits / (hits + misses), 4) if hits + misses else None
        ),
    }


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
        attack.backend = get_backend("dense")
        rows[name] = _bench_one(attack, graph, victim_set)

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
        print(
            f"{name}: {row['num_victims']} victims, serial "
            f"{row['serial_seconds']:.2f}s, batched {row['batched_seconds']:.2f}s, "
            f"{row['speedup']:.2f}x, graph-cache hit ratio "
            f"{row['graph_cache_hit_ratio']}"
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
            assert rows[name]["speedup"] >= MIN_SPEEDUP, (
                f"{name}: batched engine only {rows[name]['speedup']:.2f}x "
                f"faster (serial {rows[name]['serial_seconds']:.2f}s, "
                f"batched {rows[name]['batched_seconds']:.2f}s)"
            )


# ---------------------------------------------------------------------------
# Full-scale dense vs sparse backend (REPRO_SCALE=full only)
# ---------------------------------------------------------------------------

#: Workloads for the full-scale backend comparison.  Full-graph execution
#: (no locality) so the backend carries the whole n × n vs O(nnz) delta.
FULL_SCALE_WORKLOADS = (
    ("FGA-T", {}),
    ("IG-Attack", {"steps": 5}),
    ("GEAttack", {"inner_steps": 2}),
)
FULL_SCALE_VICTIMS = 3
FULL_SCALE_MIN_SPEEDUP = 2.0


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
    """Dense vs sparse wall-clock of one attack over the victim set."""
    timings = {}
    results = {}
    for backend in ("dense", "sparse"):
        attack = ATTACKS[name](model, seed=21, **kwargs)
        attack.backend = get_backend(backend)
        reset_graph_cache()
        start = time.perf_counter()
        results[backend] = [
            attack.attack(graph, node, label, budget)
            for node, label, budget in victims
        ]
        timings[backend] = time.perf_counter() - start
    return {
        "num_victims": len(victims),
        "budget_per_victim": 1,
        "dense_seconds": round(timings["dense"], 3),
        "sparse_seconds": round(timings["sparse"], 3),
        "speedup": round(timings["dense"] / timings["sparse"], 2),
        "asr_dense": _attack_success(results["dense"]),
        "asr_sparse": _attack_success(results["sparse"]),
        "edges_identical": all(
            one.added_edges == two.added_edges
            for one, two in zip(results["dense"], results["sparse"])
        ),
    }


def test_bench_full_scale():
    """Dense vs sparse backend at REPRO_SCALE=full, recorded + thresholded."""
    if os.environ.get("REPRO_SCALE") != "full":
        pytest.skip("full-scale backend benchmark runs only at REPRO_SCALE=full")
    graph, model, victims = _prepare_full_scale()
    assert len(victims) >= 1, "full-scale benchmark found no victims"

    rows = {}
    for name, kwargs in FULL_SCALE_WORKLOADS:
        rows[name] = _bench_backends(name, kwargs, graph, model, victims)

    record = {
        "dataset": "cora-like (scale=1.0, seed=7)",
        "graph_nodes": int(graph.num_nodes),
        "graph_edges": int(graph.num_edges),
        "min_speedup": FULL_SCALE_MIN_SPEEDUP,
        "attacks": rows,
    }
    with open(FULL_SCALE_PATH, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for name, row in rows.items():
        assert row["edges_identical"], (
            f"{name}: sparse backend must reproduce the dense edge sets"
        )
        assert row["asr_sparse"] == row["asr_dense"], (
            f"{name}: sparse ASR must match dense"
        )
    best = max(row["speedup"] for row in rows.values())
    assert best >= FULL_SCALE_MIN_SPEEDUP, (
        f"sparse backend best speedup only {best:.2f}x "
        f"(need ≥ {FULL_SCALE_MIN_SPEEDUP}x on at least one workload)"
    )
