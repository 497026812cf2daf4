"""Arena benchmark: warm-vs-cold resume timing + the joint-attack matrix.

Runs the calibrated acceptance grid — FGA / Nettack / GEAttack against all
four defenses on the synthetic Cora-like dataset, three seeds at a matched
budget — twice against one store:

* the **cold** run executes every attack and persists each per-victim
  result in the content-addressed store;
* the **warm** run must execute *zero* attacks (asserted on the engine's
  execution counter) and render a byte-identical matrix.

Both wall-clock times are printed (repeatable timings with spread live
in ``perfbench/``; this test writes no file).  The warm run still
retrains models and re-evaluates defenses — the printed speedup is the
honest cost of resumption, not a cache fantasy.

The matrix itself carries the paper's joint-attack claim, asserted here
deterministically: under the explainer defense, GEAttack's suspicion
flags separate attacked from clean victims *worse* than FGA's and
Nettack's — i.e. GEAttack evades the explanation-based detector at a
higher rate at matched budgets.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.api import Session
from repro.arena import (
    ResultStore,
    ScenarioGrid,
    arena_matrix,
    render_arena_matrices,
)
from repro.experiments import SCALE_PRESETS

#: The acceptance operating point: converged inspector (the config
#: docstring's 150-step / lr-0.05 setting) and GEAttack at λ = 1.0, where
#: the evasion penalty bites without collapsing ASR at this scale.
ARENA_CONFIG = replace(
    SCALE_PRESETS["smoke"],
    dataset_scale=0.1,
    num_victims=8,
    margin_group=2,
    explainer_epochs=150,
    explainer_lr=0.05,
    geattack_lam=1.0,
)

ARENA_GRID = ScenarioGrid(
    attacks=("FGA", "Nettack", "GEAttack"),
    defenses=("none", "jaccard", "svd", "explainer"),
    budget_caps=(4,),
    seeds=(0, 1, 2),
)


def test_bench_arena_resume(tmp_path):
    store = ResultStore(tmp_path / "arena-store")

    start = time.perf_counter()
    cold = Session(ARENA_CONFIG).arena(ARENA_GRID, store)
    cold_seconds = time.perf_counter() - start
    cold_text = render_arena_matrices(cold)

    start = time.perf_counter()
    warm = Session(ARENA_CONFIG).arena(ARENA_GRID, store)
    warm_seconds = time.perf_counter() - start
    warm_text = render_arena_matrices(warm)

    evasion = arena_matrix(cold, "evasion_rate")
    detection = arena_matrix(cold, "detection_auc")
    detector_evasion = {
        attack: round(1.0 - detection[attack]["explainer"], 6)
        for attack in ARENA_GRID.attacks
    }

    print()
    print(cold_text)
    print()
    print(
        f"cold {cold_seconds:.1f}s ({cold.executed} attacks) → "
        f"warm {warm_seconds:.1f}s ({warm.executed} attacks)"
    )

    # -- resume contract ----------------------------------------------------
    assert cold.executed > 0
    assert warm.executed == 0, "warm store must re-execute zero attacks"
    assert warm_text == cold_text, "resume must render a byte-identical matrix"

    # -- the paper's joint-attack claim, on the rendered matrix -------------
    # GEAttack slips past the explanation-based detector more often than
    # the pure attacks at the same budgets (lower detection AUC ⇔ higher
    # detector-evasion rate).
    assert detector_evasion["GEAttack"] > detector_evasion["FGA"]
    assert detector_evasion["GEAttack"] > detector_evasion["Nettack"]
    # Against the undefended model every attack keeps its full ASR, so the
    # control column is sane.
    assert evasion["FGA"]["none"] > 0.5
    assert evasion["Nettack"]["none"] > 0.5
