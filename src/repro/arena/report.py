"""Matrix reports over an :class:`~repro.arena.runner.ArenaRun`.

Three attack × defense matrices tell the paper's joint-attack story:

* **evasion rate** — the fraction of victims still misclassified under
  each defense (against ``NoDefense`` this is plain ASR).
* **inspection evasion rate** — of the victims an attack actually
  flipped, how many slip past the defense unflagged.  This is the paper's
  central claim rendered as a matrix: GEAttack's ``explainer`` column
  should sit well above FGA's and Nettack's at matched budgets, because
  its edges hide below the inspection window.
* **detection AUC** — how well each defense's suspicion flags separate
  attacked victims from the same victims on the clean graph (chance is
  0.5; lower = the attack evades that detector).

A grid with a non-trivial threat axis renders the trio once per threat
model, then closes with the threat-model deltas:

* **surrogate transfer gap** — white-box evasion minus surrogate-transfer
  evasion for every surrogate threat whose white-box twin is on the grid
  (positive = the attack loses something crossing the model gap).
* **adaptive evasion delta** — preprocess-aware evasion minus oblivious
  evasion for every adaptive threat whose oblivious twin is on the grid
  (positive = optimizing through the defense pays).

Rendering is deterministic: cells aggregate with NaN-aware means, floats
format at fixed precision, and rows/columns follow the grid's declared
order — so a warm-store resume reproduces the matrix byte-for-byte, and a
single-default-threat grid renders the exact historical text.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.reporting import finite_mean, format_table

__all__ = ["matrix_cells", "arena_matrix", "render_arena_matrices"]


def matrix_cells(run, attack, defense, threat=None, arch=None):
    """All evaluations of one (attack, defense) pair across the grid.

    ``threat`` restricts to cells executed under that threat model and
    ``arch`` to cells with that victim architecture; ``None`` aggregates
    across the respective axis (the historical behavior, exact for
    single-threat / single-arch grids).
    """
    return [
        evaluation
        for evaluation in run.evaluations
        if evaluation.cell.attack == attack
        and evaluation.defense == defense
        and (threat is None or evaluation.cell.threat == threat)
        and (arch is None or getattr(evaluation.cell, "arch", "gcn") == arch)
    ]


def arena_matrix(run, metric, threat=None, arch=None):
    """``{attack: {defense: mean metric}}`` over datasets/budgets/seeds."""
    return {
        attack: {
            defense: finite_mean(
                getattr(evaluation, metric)
                for evaluation in matrix_cells(
                    run, attack, defense, threat, arch
                )
            )
            for defense in run.grid.defenses
        }
        for attack in run.grid.attacks
    }


def _render_rows(run, values, fmt="{:.3f}"):
    rows = []
    for attack in run.grid.attacks:
        row = [attack]
        for defense in run.grid.defenses:
            value = values[attack][defense]
            row.append("-" if np.isnan(value) else fmt.format(value))
        rows.append(row)
    return rows


def _format_matrix(run, metric, title, threat=None, arch=None):
    values = arena_matrix(run, metric, threat, arch)
    return format_table(
        ["Attack"] + list(run.grid.defenses),
        _render_rows(run, values),
        title=title,
    )


def _format_delta(run, minuend, subtrahend, title, arch=None):
    """Matrix of ``evasion(minuend threat) − evasion(subtrahend threat)``."""
    top = arena_matrix(run, "evasion_rate", minuend, arch)
    bottom = arena_matrix(run, "evasion_rate", subtrahend, arch)
    values = {
        attack: {
            defense: top[attack][defense] - bottom[attack][defense]
            for defense in run.grid.defenses
        }
        for attack in run.grid.attacks
    }
    return format_table(
        ["Attack"] + list(run.grid.defenses),
        _render_rows(run, values, fmt="{:+.3f}"),
        title=title,
    )


def _threat_trio(run, scope, threat=None, tag="", arch=None):
    return [
        _format_matrix(
            run,
            "evasion_rate",
            "Evasion rate (victims still misclassified under defense) — "
            f"{scope}{tag}",
            threat,
            arch,
        ),
        _format_matrix(
            run,
            "inspection_evasion_rate",
            "Inspection evasion rate (attacked victims the defense fails "
            f"to flag) — {scope}{tag}",
            threat,
            arch,
        ),
        _format_matrix(
            run,
            "detection_auc",
            f"Detection AUC (defense flags, attacked vs clean) — {scope}{tag}",
            threat,
            arch,
        ),
    ]


def _arch_blocks(run, scope, arch=None, arch_tag=""):
    """The per-threat trio (plus twin deltas) for one victim architecture.

    ``arch=None`` aggregates over the whole arch axis — the historical
    single-arch rendering, byte-identical for default grids.
    """
    threats = run.grid.threats
    if len(threats) == 1:
        tag = "" if threats[0].is_default else f" threat={threats[0].label()}"
        return _threat_trio(run, scope, tag=tag + arch_tag, arch=arch)

    blocks = []
    for threat in threats:
        blocks.extend(
            _threat_trio(
                run,
                scope,
                threat,
                tag=f" threat={threat.label()}{arch_tag}",
                arch=arch,
            )
        )
    for threat in threats:
        if threat.is_surrogate and threat.white_box_twin() in threats:
            blocks.append(
                _format_delta(
                    run,
                    threat.white_box_twin(),
                    threat,
                    "Surrogate transfer gap (white-box evasion − surrogate "
                    f"evasion) — {scope} threat={threat.label()}{arch_tag}",
                    arch,
                )
            )
        if threat.is_adaptive and threat.oblivious_twin() in threats:
            blocks.append(
                _format_delta(
                    run,
                    threat,
                    threat.oblivious_twin(),
                    "Adaptive evasion delta (preprocess-aware − oblivious) — "
                    f"{scope} threat={threat.label()}{arch_tag}",
                    arch,
                )
            )
    return blocks


def render_arena_matrices(run):
    """Every matrix as one deterministic text block.

    Single-threat grids (the historical shape) render exactly the
    three-matrix block they always did; multi-threat grids render the trio
    per threat model plus the transfer-gap / adaptive-delta matrices for
    every threat whose twin is on the grid.  Multi-arch grids repeat the
    whole per-threat block once per victim architecture (tagged
    ``arch=...``) instead of silently averaging across architectures.
    """
    grid = run.grid
    scope = (
        f"datasets={','.join(grid.datasets)} "
        f"hidden={','.join(str(h) for h in grid.hidden_dims)} "
        f"budgets={','.join(str(b) for b in grid.budget_caps)} "
        f"seeds={','.join(str(s) for s in grid.seeds)}"
    )
    archs = grid.archs
    if len(archs) == 1:
        arch_tag = "" if archs[0] == "gcn" else f" arch={archs[0]}"
        return "\n\n".join(_arch_blocks(run, scope, arch_tag=arch_tag))

    blocks = []
    for arch in archs:
        blocks.extend(_arch_blocks(run, scope, arch, f" arch={arch}"))
    return "\n\n".join(blocks)
