"""Hyper-parameter sweeps: λ (Fig. 4/8), subgraph size L (Fig. 5), T (Fig. 6).

Each sweep runs GEAttack over the victim set at a grid of one knob and
reports the paper's metrics per grid point, reproducing the figure series.

Execution lives in the façade: :meth:`repro.api.Session.sweep` for a
session's own case, or :func:`repro.api.session.sweep_points` for a
caller-supplied case and victims (one shared attack→inspect engine,
streaming per-victim events, ``jobs``-aware).  This module keeps the
result type (:class:`SweepPoint`) and the paper's search grids.

The λ grid is interpreted on this implementation's λ scale (λ is coupled
to the inner step size η, so only the *shape* of Fig. 4/8 is
comparable).  The subgraph-size sweep runs GEAttack *once* per victim at
the operating point and truncates the inspector's explanation to each L
before the top-K metrics, so detection rises while L < K and plateaus
once L ≥ K.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "SweepPoint",
    "PAPER_LAMBDA_GRID",
    "PAPER_T_GRID",
    "PAPER_L_GRID",
]

#: The paper's search grids (Appendix A.1).
PAPER_LAMBDA_GRID = (0.001, 0.01, 1.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
PAPER_T_GRID = tuple(range(1, 11))
PAPER_L_GRID = (5, 10, 20, 40, 60, 80, 100)


@dataclass
class SweepPoint:
    """Aggregated metrics at one grid value."""

    value: float
    asr_t: float
    precision: float
    recall: float
    f1: float
    ndcg: float
    extras: dict = field(default_factory=dict)
