"""Run manifests: the counter/timing summary attached to result objects.

A :class:`RunManifest` rides along on :class:`~repro.arena.ArenaRun` and
:class:`~repro.experiments.table_runner.ComparisonResult` (a
``compare=False`` field: two runs with different timings still compare
equal on their results).  It is built from always-on data — span
timings and the run's counter delta — so it exists whether or not
tracing is enabled: ``wall_seconds`` is the run's root span, each cell
row adds up its ``cell`` spans, and :meth:`RunManifest.phase_seconds`
reads the ``phase.<span>.seconds`` counters every span feeds.  It is
strictly descriptive: store keys, stored payloads and rendered matrices
never read it (the byte-identical golden contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RunManifest", "build_manifest"]


@dataclass
class RunManifest:
    """Totals, cache ratios and the slowest cells of one run."""

    #: Wall-clock of the whole run: its root span's seconds.
    wall_seconds: float
    #: One row per timed unit: ``{"label", "seconds", "cached", "executed"}``
    #: (arena cells, or table ``dataset/method`` units).
    cells: list = field(default_factory=list)
    #: Counter delta over the run (:func:`repro.obs.metrics.delta_since`).
    counters: dict = field(default_factory=dict)

    # -- derived -------------------------------------------------------------
    def store_hit_ratio(self):
        """Store read hit ratio over the run, or ``None`` without reads."""
        hits = self.counters.get("store.read_hits", 0)
        misses = self.counters.get("store.read_misses", 0)
        total = hits + misses
        return hits / total if total else None

    def graph_cache_hit_ratio(self):
        """Graph-memo hit ratio over the run, or ``None`` without lookups."""
        hits = self.counters.get("graph_cache.hits", 0)
        misses = self.counters.get("graph_cache.misses", 0)
        total = hits + misses
        return hits / total if total else None

    def slowest_cells(self, k=5):
        """The ``k`` slowest cell rows, slowest first."""
        return sorted(
            self.cells, key=lambda row: row.get("seconds", 0.0), reverse=True
        )[: int(k)]

    def phase_seconds(self):
        """``{span name: seconds}`` from the ``phase.*.seconds`` counters.

        Spans that run inside pool workers (``unit``, ``attack``,
        ``explain``, ``defense``) sum worker time, so under ``jobs > 1``
        they can exceed ``wall_seconds``.
        """
        phases = {}
        for name, value in self.counters.items():
            if name.startswith("phase.") and name.endswith(".seconds"):
                phases[name[len("phase."):-len(".seconds")]] = value
        return phases

    # -- presentation --------------------------------------------------------
    def summary_lines(self, top_k=3):
        """Human-readable summary (the examples and CLI print these)."""
        lines = [f"run wall-clock: {self.wall_seconds:.2f}s"]
        for label, ratio in (
            ("store hit ratio", self.store_hit_ratio()),
            ("graph-cache hit ratio", self.graph_cache_hit_ratio()),
        ):
            if ratio is not None:
                lines.append(f"{label}: {ratio:.1%}")
        phases = self.phase_seconds()
        for name in sorted(phases, key=phases.get, reverse=True):
            lines.append(f"phase {name}: {phases[name]:.2f}s")
        slowest = self.slowest_cells(top_k)
        if slowest:
            lines.append(f"slowest {len(slowest)} cell(s):")
            for row in slowest:
                lines.append(
                    f"  {row.get('label', '?')}: {row.get('seconds', 0.0):.2f}s"
                    f" (cached {row.get('cached', 0)},"
                    f" executed {row.get('executed', 0)})"
                )
        return lines

    def to_dict(self):
        """JSON-safe dict (the service front end's wire shape)."""
        return {
            "wall_seconds": float(self.wall_seconds),
            "cells": [dict(row) for row in self.cells],
            "counters": dict(self.counters),
            "store_hit_ratio": self.store_hit_ratio(),
            "graph_cache_hit_ratio": self.graph_cache_hit_ratio(),
        }


def build_manifest(wall_seconds, cells, counters):
    """Assemble a :class:`RunManifest` (rounding only presentation noise)."""
    return RunManifest(
        wall_seconds=float(wall_seconds),
        cells=[dict(row) for row in cells],
        counters=dict(counters),
    )
