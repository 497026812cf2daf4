"""repro.api — the typed Session/Spec façade, the library's one front door.

Three layers, importable à la carte:

* :mod:`repro.api.specs` — frozen, exactly-round-tripping spec dataclasses
  (``AttackSpec``, ``DefenseSpec``, ``ExplainerSpec``, ``ThreatModel``
  and the experiment descriptions).  An attack spec's dict and a
  resolved threat's dict are entries of the arena's canonical cell
  config (:func:`repro.arena.grid.cell_config`); specs are pure data
  with no construction methods.
* :mod:`repro.api.registry` — the one construction path
  (``build_attack`` / ``build_defense`` / ``build_explainer_factory``):
  each checks a spec's params against the component's declared
  ``config_params`` and calls the class directly.  Registering a
  component means: subclass, declare ``config_params``, register; it is
  built as ``cls(model, **kwargs)``.
* :mod:`repro.api.session` — :class:`Session`, owning the cross-call
  caches and executing every experiment (table, sweep, arena) through
  one streaming ``run(experiment)`` entry point.

Quick start::

    from repro.api import Session
    from repro.experiments import SCALE_PRESETS

    session = Session(config=SCALE_PRESETS["smoke"], jobs=4)
    table = session.table("cora")                  # Table 1
    points = session.sweep("lambda", "cora")       # Figure 4
    run = session.arena(grid, "arena-store")       # robustness matrix

Exports resolve lazily (PEP 562) so that low-level modules — e.g.
:mod:`repro.arena.grid`, which takes the cell's ``ThreatModel`` from the
specs — can import :mod:`repro.api.specs` without dragging in the heavy
session machinery or creating import cycles.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    # specs
    "AttackSpec": "repro.api.specs",
    "DefenseSpec": "repro.api.specs",
    "ExplainerSpec": "repro.api.specs",
    "ThreatModel": "repro.api.specs",
    "TableExperiment": "repro.api.specs",
    "SweepExperiment": "repro.api.specs",
    "ArenaExperiment": "repro.api.specs",
    # registry
    "EXPLAINERS": "repro.api.registry",
    "attack_class": "repro.api.registry",
    "attack_spec": "repro.api.registry",
    "attacker_case": "repro.api.registry",
    "build_attack": "repro.api.registry",
    "defense_spec": "repro.api.registry",
    "build_defense": "repro.api.registry",
    "build_explainer_factory": "repro.api.registry",
    "fit_pg_explainer": "repro.api.registry",
    "registry_schema": "repro.api.registry",
    # session + events
    "Session": "repro.api.session",
    "iter_method_events": "repro.api.session",
    "evaluate_method": "repro.api.session",
    "iter_sweep_events": "repro.api.session",
    "sweep_points": "repro.api.session",
    "events": "repro.api.events",
    "EVENT_TYPES": "repro.api.events",
    "event_from_dict": "repro.api.events",
    "wire": "repro.api.wire",
    # describe
    "describe_registries": "repro.api.describe",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        module = importlib.import_module(_EXPORTS[name])
        if name in ("events", "wire"):
            return module
        return getattr(module, name)
    raise AttributeError(f"module 'repro.api' has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
