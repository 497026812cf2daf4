"""Robustness arena: the attack × defense scenario matrix.

A declarative :class:`ScenarioGrid` (dataset × model × attack × defense ×
budget × seed × threat model) is scheduled through the batched attack
engine, with every per-victim :class:`~repro.attacks.AttackResult`
persisted in a content-addressed :class:`ResultStore` — so an interrupted
sweep resumes with zero re-executed attacks and renders a byte-identical
matrix.  The threat axis (:class:`ThreatModel`, executed by
:mod:`repro.threat`) adds black-box surrogate transfer and
defense-in-the-loop adaptive execution per cell; default-threat cells
keep their historical store keys.

Quick start::

    from repro.api import Session
    from repro.arena import ScenarioGrid, ResultStore, render_arena_matrices

    grid = ScenarioGrid(attacks=("FGA-T", "GEAttack"),
                        defenses=("none", "explainer"))
    run = Session(jobs=4).arena(grid, ResultStore("arena-store"))
    print(render_arena_matrices(run))
    print(run.stats_line())  # "executed N attacks, M ... from the store"

CLI equivalent: ``python -m repro arena --store arena-store --resume``.
"""

from repro.api.specs import ThreatModel
from repro.arena.grid import (
    SCHEMA_VERSION,
    ScenarioCell,
    ScenarioGrid,
    canonical_json,
    cell_config,
    content_key,
    victim_key,
)
from repro.arena.report import arena_matrix, matrix_cells, render_arena_matrices
from repro.arena.runner import ArenaRun, CellEvaluation
from repro.arena.store import Lease, ResultStore

__all__ = [
    "SCHEMA_VERSION",
    "ArenaRun",
    "CellEvaluation",
    "Lease",
    "ResultStore",
    "ScenarioCell",
    "ScenarioGrid",
    "ThreatModel",
    "arena_matrix",
    "canonical_json",
    "cell_config",
    "content_key",
    "matrix_cells",
    "render_arena_matrices",
    "victim_key",
]
