"""Table 1 / Table 2 result types.

Table 1 inspects with GNNExplainer on CITESEER / CORA / ACM; Table 2 swaps
the inspector (and GEAttack's simulated explainer) for PGExplainer on
CITESEER.  Aggregation is over ``config.num_seeds`` independent runs, as the
paper reports 5-run averages with standard deviations.

Execution lives in the façade: :meth:`repro.api.Session.table` builds
every method from the self-describing attack registry and streams
per-victim events.  This module keeps the result container
(:class:`ComparisonResult`), the paper's column/metric ordering, and the
aggregation helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "METHOD_ORDER",
    "ComparisonResult",
    "aggregate_runs",
]

#: Column order of the paper's tables.
METHOD_ORDER = ["FGA", "RNA", "FGA-T", "Nettack", "IG-Attack", "FGA-T&E", "GEAttack"]

#: Metric row order of the paper's tables.
METRIC_ORDER = ["ASR", "ASR-T", "Precision", "Recall", "F1", "NDCG"]


@dataclass
class ComparisonResult:
    """All per-seed evaluations for one dataset/explainer comparison."""

    dataset: str
    explainer: str
    runs: list = field(default_factory=list)  # list of {method: MethodEvaluation}
    #: :class:`repro.obs.RunManifest` telemetry summary for the producing
    #: run (out-of-band: excluded from equality, never rendered).
    manifest: object = field(default=None, compare=False, repr=False)

    def mean_std(self):
        """``{method: {metric: (mean, std)}}`` over the runs."""
        return {
            method: {
                metric: aggregate_runs(self.runs, method, metric)
                for metric in METRIC_ORDER
            }
            for method in METHOD_ORDER
        }


def aggregate_runs(runs, method, metric):
    """Mean ± std of one metric for one method across runs."""
    values = [
        run[method].row()[metric]
        for run in runs
        if method in run and not np.isnan(run[method].row()[metric])
    ]
    if not values:
        return float("nan"), float("nan")
    return float(np.mean(values)), float(np.std(values))
