"""Self-describing construction recipes over the component registries.

The attack/defense/explainer registries already say *what* exists
(:data:`repro.attacks.ATTACKS`, :data:`repro.defense.DEFENSES`); the
classes themselves now declare *how* they are configured
(``config_params`` tuples of :class:`repro.schema.ConfigParam`).  This
module closes the loop: it derives typed specs from a config
(:func:`attack_spec`), instantiates components from specs
(:func:`build_attack`, :func:`build_defense`,
:func:`build_explainer_factory`) and exposes the generated parameter
schemas (:func:`registry_schema`) to ``python -m repro describe``.

It is the only code that turns a spec into a live component: each
``build_*`` checks the spec's params against the class's declaration
(:func:`repro.schema.spec_kwargs`) and calls the class directly —
``cls(case.model, seed=..., **kwargs)`` for an attack,
``cls(case.model, **kwargs, **runtime)`` for a defense.

Registering a new attack in :mod:`repro.attacks` — with an optional
``config_params`` declaration — is therefore enough to expose it to the
table runner, the sweeps, the arena axis, the CLI and the store keys,
with no hand-maintained ``if name == ...`` ladders anywhere.

Seed conventions (shared by every runner, historically duplicated):

* attacks are built with ``case.seed + SPEC_SEED_OFFSET`` (21);
* GNNExplainer inspectors with ``case.seed + INSPECTOR_SEED_OFFSET`` (41);
* PGExplainer fits with ``case.seed + PG_SEED_OFFSET`` (31).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from repro.api.specs import AttackSpec, DefenseSpec, ExplainerSpec, ThreatModel
from repro.attacks import ATTACKS, EXTENSION_ATTACKS, FEATURE_ATTACKS
from repro.defense import DEFENSES
from repro.explain import (
    GNNExplainer,
    GradExplainer,
    OcclusionExplainer,
    PGExplainer,
)
from repro.schema import ConfigParam, resolve_params, schema_rows, spec_kwargs

__all__ = [
    "INSPECTOR_SEED_OFFSET",
    "PG_SEED_OFFSET",
    "SPEC_SEED_OFFSET",
    "EXPLAINERS",
    "attack_class",
    "attack_spec",
    "attacker_case",
    "build_attack",
    "defense_spec",
    "build_defense",
    "build_explainer_factory",
    "fit_pg_explainer",
    "registry_schema",
]

#: Seed offset of every attack built at a spec
#: (``attack_seed = case.seed + SPEC_SEED_OFFSET``).
SPEC_SEED_OFFSET = 21
#: Seed offset of every freshly-constructed GNNExplainer inspector.
INSPECTOR_SEED_OFFSET = 41
#: Seed offset of every fitted PGExplainer.
PG_SEED_OFFSET = 31


def _lookup(kind, registry, name):
    """``registry[name]``, or a KeyError listing the registered names."""
    if name not in registry:
        raise KeyError(f"unknown {kind} {name!r}; options: {sorted(registry)}")
    return registry[name]


# -- attacks -----------------------------------------------------------------


def _attack_registry():
    """Full name → class surface (edge attacks first, then features)."""
    return {**ATTACKS, **EXTENSION_ATTACKS, **FEATURE_ATTACKS}


def attack_class(name):
    """Registered attack class for ``name`` (KeyError lists options)."""
    return _lookup("attack", _attack_registry(), name)


def attack_spec(name, config):
    """Typed spec of ``name`` at ``config``'s operating point.

    The spec's params are generated from the class's ``config_params``
    declaration, so they contain exactly the knobs that determine this
    attack's results — the scoping property the store keys rely on
    (changing ``geattack_lam`` must invalidate GEAttack cells but not
    Nettack's).
    """
    return AttackSpec(
        name, resolve_params(attack_class(name).config_params, config)
    )


def build_attack(spec, case, config=None, context=None, seed=None, threat=None):
    """Instantiate an attack from a spec (or name) for a prepared case.

    ``context`` is the :class:`repro.api.Session` whose caches serve
    dependencies (fitted PGExplainers, surrogate cases); without one they
    are fitted fresh per call.  ``seed`` overrides the shared
    ``case.seed + SPEC_SEED_OFFSET`` construction convention (the sweeps
    use their own historical offsets).

    ``threat`` (a :class:`~repro.api.specs.ThreatModel` or its string
    form) selects the attacker's model: under surrogate knowledge the
    attack — and every dependency it fits, e.g. GEAttack-PG's simulated
    PGExplainer — is built against an independently trained surrogate of
    ``case`` instead of the victim model itself.

    The compute backend is not a parameter: ``REPRO_BACKEND`` sets the
    attack's ``sparse`` flag at construction (see
    :class:`repro.attacks.base.Attack`).  It never enters specs or store
    keys.  Dense and sparse runs agree on edge sets, ASR and rendered
    matrices, but score-trace floats — and so stored record bytes — can
    differ in the last ulp.
    """
    config = case.config if config is None else config
    if isinstance(spec, str):
        spec = attack_spec(spec, config)
    cls = attack_class(spec.name)
    kwargs = spec_kwargs(
        f"attack {spec.name!r}", cls.config_params, spec.params
    )
    if threat is not None:
        case = attacker_case(case, threat, context=context)
    if "pg_explainer" in cls.requires:
        kwargs["pg_explainer"] = (
            context.pg_explainer(case)
            if context is not None
            else fit_pg_explainer(case, config)
        )
    seed = case.seed + SPEC_SEED_OFFSET if seed is None else int(seed)
    return cls(case.model, seed=seed, **kwargs)


def attacker_case(case, threat, context=None):
    """The case the attacker actually optimizes against under ``threat``.

    White-box threats return ``case`` itself; surrogate threats return a
    :func:`repro.threat.surrogate_case` (served from the ``context``
    Session's cache when one is given, so one surrogate training run
    covers every cell sharing the victim case and surrogate settings).
    """
    from repro.threat import surrogate_case

    threat = ThreatModel.parse(threat)
    if not threat.is_surrogate:
        return case
    train = surrogate_case if context is None else context.surrogate_case
    return train(
        case,
        hidden=threat.surrogate_hidden,
        seed=threat.surrogate_seed,
        arch=threat.surrogate_arch,
    )


def fit_pg_explainer(case, config, memo=None):
    """Fit the case's PGExplainer (the shared seed/fit convention).

    ``memo`` (a mutable dict, e.g. a Session's cache) holds one fitted
    explainer per prepared case; the case object is pinned in the value so
    its ``id`` key cannot be recycled while the entry is alive.
    """
    key = ("pg", id(case))
    if memo is not None and key in memo:
        return memo[key][1]
    explainer = PGExplainer(
        case.model, epochs=config.pg_epochs, seed=case.seed + PG_SEED_OFFSET
    ).fit(case.graph, instances=config.pg_instances)
    if memo is not None:
        memo[key] = (case, explainer)
    return explainer


# -- defenses ----------------------------------------------------------------


def defense_spec(name, config):
    """Typed spec of a registered defense at ``config``'s operating point."""
    cls = _lookup("defense", DEFENSES, name)
    return DefenseSpec(name, resolve_params(cls.config_params, config))


def build_defense(spec, case, config=None, context=None, **runtime):
    """Instantiate a defense from a spec (or name) for a prepared case.

    ``runtime`` kwargs carry case-level wiring a serialized spec cannot
    (trusted-edge snapshots, per-cell prune budgets).  Explanation-based
    defenses inspect with the default GNNExplainer recipe.
    """
    config = case.config if config is None else config
    if isinstance(spec, str):
        spec = defense_spec(spec, config)
    cls = _lookup("defense", DEFENSES, spec.name)
    kwargs = spec_kwargs(
        f"defense {spec.name!r}", cls.config_params, spec.params
    )
    if cls.requires_explainer:
        kwargs["explainer_factory"] = build_explainer_factory(
            "gnn", case, config=config, context=context
        )
    return cls(case.model, **kwargs, **runtime)


# -- explainers --------------------------------------------------------------


@dataclass(frozen=True)
class _ExplainerRecipe:
    """One registered inspector construction recipe."""

    cls: type
    params: tuple = ()
    #: Whether the factory fits once per case and then explains inductively
    #: (PGExplainer) instead of constructing fresh per inspected graph.
    fitted: bool = False
    #: Static constructor kwargs not exposed as config params.
    static: tuple = ()


#: The inspector registry: one construction recipe per explainer kind.
#: This is the single replacement for the per-runner factory helpers that
#: used to live in the table runner, the arena runner, the sweeps and the
#: CLI (all of which built "the same" GNNExplainer separately).
EXPLAINERS = {
    "gnn": _ExplainerRecipe(
        GNNExplainer,
        params=(
            ConfigParam("epochs", "explainer_epochs"),
            ConfigParam("lr", "explainer_lr"),
        ),
    ),
    "gnn-features": _ExplainerRecipe(
        GNNExplainer,
        params=(
            ConfigParam("epochs", "explainer_epochs"),
            ConfigParam("lr", "explainer_lr"),
        ),
        static=(("explain_features", True),),
    ),
    "pg": _ExplainerRecipe(
        PGExplainer,
        params=(
            ConfigParam("epochs", "pg_epochs"),
            ConfigParam("instances", "pg_instances", constructor=False),
        ),
        fitted=True,
    ),
    "grad": _ExplainerRecipe(GradExplainer),
    "occlusion": _ExplainerRecipe(OcclusionExplainer),
}


def build_explainer_factory(spec, case, config=None, context=None):
    """``callable(graph) -> explainer`` for a kind (or spec) and a case.

    ``spec`` is an :data:`EXPLAINERS` kind, or an
    :class:`~repro.api.specs.ExplainerSpec` whose params override the
    config's operating point.  GNNExplainer-style inspectors construct
    fresh (seeded) per call so inspection is independent of victim order
    and of ``jobs``; fitted inspectors (PGExplainer) train once per case —
    through the ``context`` Session's cache when one is given — and are
    returned as constants.
    """
    config = case.config if config is None else config
    if isinstance(spec, str):
        spec = ExplainerSpec(spec)
    recipe = _lookup("explainer", EXPLAINERS, spec.kind)
    defaults = resolve_params(recipe.params, config)
    resolved = {**defaults, **dict(spec.params)}
    kwargs = spec_kwargs(f"explainer {spec.kind!r}", recipe.params, resolved)
    kwargs.update(recipe.static)
    if recipe.fitted:
        # The session cache only serves the config-default operating point
        # (that is what fit_pg_explainer stores); explicit spec overrides
        # always fit fresh so they are honored, never silently dropped.
        if (
            context is not None
            and recipe.cls is PGExplainer
            and resolved == defaults
        ):
            explainer = context.pg_explainer(case)
        else:
            fit_kwargs = {
                param.name: resolved[param.name]
                for param in recipe.params
                if not param.constructor
            }
            explainer = recipe.cls(
                case.model, seed=case.seed + PG_SEED_OFFSET, **kwargs
            ).fit(case.graph, **fit_kwargs)
        return lambda _graph: explainer
    if recipe.cls is GNNExplainer:
        kwargs["seed"] = case.seed + INSPECTOR_SEED_OFFSET
    return lambda _graph: recipe.cls(case.model, **kwargs)


# -- generated schema (python -m repro describe) -----------------------------


def _constructor_defaults(cls):
    """Non-schema constructor kwargs and their defaults, by introspection."""
    try:
        signature = inspect.signature(cls.__init__)
    except (TypeError, ValueError):
        return {}
    return {
        name: parameter.default
        for name, parameter in signature.parameters.items()
        if parameter.default is not inspect.Parameter.empty
        and name not in ("self", "seed")
    }


def registry_schema(config=None):
    """JSON-safe description of every registered component.

    One entry per attack/defense/explainer: the class, its declared
    config-fed params (with resolved values when a ``config`` is given),
    its dependencies and its remaining constructor defaults — everything
    generated from the registries, nothing hand-maintained.
    """

    def entry(cls, params, extra=None):
        declared = {p.name for p in params}
        return {
            "class": f"{cls.__module__}.{cls.__qualname__}",
            "params": schema_rows(params, config),
            "defaults": {
                name: default
                for name, default in _constructor_defaults(cls).items()
                if name not in declared
            },
            **(extra or {}),
        }

    attacks = {
        name: entry(
            cls,
            cls.config_params,
            {
                "supports_locality": bool(cls.supports_locality),
                "requires": list(getattr(cls, "requires", ())),
                "registry": (
                    "ATTACKS"
                    if name in ATTACKS
                    else "EXTENSION_ATTACKS"
                    if name in EXTENSION_ATTACKS
                    else "FEATURE_ATTACKS"
                ),
            },
        )
        for name, cls in sorted(_attack_registry().items())
    }
    defenses = {
        name: entry(
            cls,
            cls.config_params,
            {"requires_explainer": bool(cls.requires_explainer)},
        )
        for name, cls in sorted(DEFENSES.items())
    }
    explainers = {
        kind: entry(recipe.cls, recipe.params, {"fitted": recipe.fitted})
        for kind, recipe in sorted(EXPLAINERS.items())
    }
    from repro.nn import ARCHITECTURES

    architectures = {
        name: {
            "class": f"{cls.__module__}.{cls.__qualname__}",
            "exact_locality": bool(cls.exact_locality),
        }
        for name, cls in sorted(ARCHITECTURES.items())
    }
    return {
        "attacks": attacks,
        "defenses": defenses,
        "explainers": explainers,
        "architectures": architectures,
    }
