"""Arena result types.

The execution loop lives in the façade (:meth:`repro.api.Session.arena`,
or :meth:`~repro.api.Session.run` with an
:class:`~repro.api.specs.ArenaExperiment`): schedule cells, reuse stored
results and verdicts, and aggregate every defense from the verdicts read
back from the content-addressed store.
This module keeps the arena's result dataclasses, including the
``executed 0 attacks`` warm-resume contract line (asserted by the resume
tests, the benchmark and the CI smoke job on ``ArenaRun.stats_line``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.metrics import binary_auc

__all__ = ["CellEvaluation", "ArenaRun"]


@dataclass(frozen=True)
class CellEvaluation:
    """One (execution cell × defense) entry of the scenario matrix."""

    cell: object
    defense: str
    victims: int
    #: Fraction of victims still misclassified under the defense — the
    #: attack's surviving ASR (equals plain ASR against ``NoDefense``).
    evasion_rate: float
    #: Fraction of *successfully attacked* victims the defense fails to
    #: flag — i.e. whose suspicion on the perturbed graph does not exceed
    #: their own clean-graph suspicion (a per-victim calibration, so
    #: defenses with different flag scales compare fairly).  NaN when the
    #: attack flipped nobody.
    inspection_evasion_rate: float
    #: AUC of the defense's suspicion flags, attacked vs clean victims.
    detection_auc: float

    @classmethod
    def from_verdicts(cls, cell, defense, verdicts, misclassified):
        """Aggregate a cell's verdict records for one defense.

        ``verdicts`` holds one ``{"evaded", "attacked_flag", "clean_flag"}``
        record per victim, and ``misclassified`` whether each victim's
        attack changed its undefended prediction.
        """
        evaded = [verdict["evaded"] for verdict in verdicts]
        attacked_flags = [verdict["attacked_flag"] for verdict in verdicts]
        clean_flags = [verdict["clean_flag"] for verdict in verdicts]
        unflagged_hits = [
            attacked <= clean
            for attacked, clean, hit in zip(
                attacked_flags, clean_flags, misclassified
            )
            if hit
        ]
        return cls(
            cell=cell,
            defense=defense,
            victims=len(verdicts),
            evasion_rate=float(np.mean(evaded)) if evaded else float("nan"),
            inspection_evasion_rate=(
                float(np.mean(unflagged_hits)) if unflagged_hits else float("nan")
            ),
            detection_auc=binary_auc(
                attacked_flags + clean_flags,
                [True] * len(attacked_flags) + [False] * len(clean_flags),
            ),
        )


@dataclass
class ArenaRun:
    """Everything one arena sweep produced (results + bookkeeping)."""

    grid: object
    config: object
    executed: int = 0
    loaded: int = 0
    #: Cells found leased by another live run on the first pass (their
    #: results were later loaded, stolen-and-executed, or both).
    deferred: int = 0
    evaluations: list = field(default_factory=list)
    #: :class:`repro.obs.RunManifest` telemetry summary (wall-clock,
    #: per-cell timing, counter deltas).  Out-of-band: excluded from
    #: equality, never stored, never rendered into the matrix.
    manifest: object = field(default=None, compare=False, repr=False)

    def stats_line(self):
        """The resume contract, in greppable form (CI asserts on it)."""
        return (
            f"executed {self.executed} attacks, "
            f"{self.loaded} victim results served from the store"
        )
