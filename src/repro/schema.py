"""Declarative config-parameter schema shared across registries.

A :class:`ConfigParam` states, as pure data, how one knob of a registered
component (attack, defense, explainer) is fed from an
:class:`repro.experiments.ExperimentConfig`: the constructor-keyword name,
the config attribute that supplies it, and an optional cap applied to the
config value.  Components declare a ``config_params`` tuple on the class;
everything downstream is *generated* from those declarations:

* the content-addressed store keys of :mod:`repro.arena.grid` (the scoped
  per-attack parameter dict that used to be a hand-maintained ``if``
  ladder),
* constructor wiring in :mod:`repro.api.registry` (the ``build_*``
  functions, through :func:`spec_kwargs`),
* the ``python -m repro describe`` schema listing.

This module sits below every registry (stdlib-only imports) so attacks,
defenses and explainers can all declare schemas without layering cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ConfigParam", "resolve_params", "schema_rows", "spec_kwargs"]


@dataclass(frozen=True)
class ConfigParam:
    """One config-fed knob of a registered component.

    Attributes
    ----------
    name:
        The constructor keyword *and* the field name inside content-key
        parameter dicts (the two must agree so one serialization serves
        both construction and storage).
    config_key:
        The :class:`~repro.experiments.ExperimentConfig` attribute whose
        value feeds this knob.
    cap:
        Optional upper bound: the resolved value is ``min(config value,
        cap)``.  Used where a runner clamps the effective operating point
        (e.g. GEAttack-PG's unroll depth), so the content key hashes what
        actually ran.
    constructor:
        ``False`` for knobs that shape a *dependency* rather than the
        component's own constructor (e.g. the PGExplainer training
        schedule behind GEAttack-PG).  Such knobs still enter the content
        key — they determine results — but are never passed as kwargs.
    """

    name: str
    config_key: str
    cap: int | None = None
    constructor: bool = True

    def resolve(self, config):
        """The effective value of this knob under ``config``."""
        value = getattr(config, self.config_key)
        if self.cap is not None:
            value = min(value, self.cap)
        return value


def resolve_params(params, config):
    """``{name: resolved value}`` for a ``config_params`` declaration."""
    return {param.name: param.resolve(config) for param in params}


def spec_kwargs(label, params, values):
    """Constructor kwargs from a spec's ``values`` under a declaration.

    ``params`` is a component's ``config_params`` tuple and ``label``
    names the component in errors (e.g. ``"defense 'jaccard'"``).  A value
    the declaration does not name raises :class:`ValueError` listing the
    declared params, so a typo fails before any work instead of as a
    constructor ``TypeError`` mid-run.  Values of ``constructor=False``
    params shape a dependency and are left out of the kwargs.
    """
    values = dict(values)
    declared = {param.name: param for param in params}
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise ValueError(
            f"{label} spec carries undeclared params {unknown}; "
            f"declared: {sorted(declared)}"
        )
    return {
        name: value
        for name, value in values.items()
        if declared[name].constructor
    }


def schema_rows(params, config=None):
    """JSON-safe description of a declaration (for ``describe``)."""
    rows = []
    for param in params:
        row = {
            "name": param.name,
            "config_key": param.config_key,
            "constructor": param.constructor,
        }
        if param.cap is not None:
            row["cap"] = param.cap
        if config is not None:
            row["value"] = param.resolve(config)
        rows.append(row)
    return rows
