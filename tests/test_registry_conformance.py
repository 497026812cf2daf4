"""Registry-wide construction conformance.

Every registered attack, defense and explainer builds through its
``repro.api.registry`` builder at the config operating point — the
declared ``config_params`` reach the constructor unchanged — and a spec
carrying a param the class does not declare is rejected with a
``ValueError`` naming the declared ones, before any work.  Registering a
new component puts it under these tests automatically.
"""

from __future__ import annotations

import re
from dataclasses import replace

import pytest

from repro.api import Session
from repro.api.registry import (
    EXPLAINERS,
    SPEC_SEED_OFFSET,
    attack_class,
    attack_spec,
    build_attack,
    build_defense,
    build_explainer_factory,
    defense_spec,
)
from repro.api.specs import ExplainerSpec
from repro.attacks import ATTACKS, EXTENSION_ATTACKS, FEATURE_ATTACKS
from repro.defense import DEFENSES
from repro.experiments import SCALE_PRESETS
from repro.schema import resolve_params

#: Trimmed to seconds: construction only, nothing is attacked.
CONFIG = replace(
    SCALE_PRESETS["smoke"], epochs=30, pg_epochs=2, pg_instances=2
)
ATTACK_NAMES = sorted({**ATTACKS, **EXTENSION_ATTACKS, **FEATURE_ATTACKS})


@pytest.fixture(scope="module")
def session():
    return Session(config=CONFIG, cases={})


@pytest.fixture(scope="module")
def case(session):
    return session.case("cora")


def _constructor_values(params, config):
    """The declared constructor knobs and their resolved values."""
    resolved = resolve_params(params, config)
    return {p.name: resolved[p.name] for p in params if p.constructor}


def _undeclared(label, params):
    """``pytest.raises`` for an undeclared ``bogus`` param of ``label``."""
    declared = sorted(p.name for p in params)
    message = (
        f"{label} spec carries undeclared params ['bogus']; "
        f"declared: {declared}"
    )
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


@pytest.mark.parametrize("name", ATTACK_NAMES)
class TestAttacks:
    def test_builds_at_operating_point(self, name, case, session):
        cls = attack_class(name)
        attack = build_attack(name, case, CONFIG, context=session)
        assert type(attack) is cls
        assert attack.model is case.model
        assert attack.seed == case.seed + SPEC_SEED_OFFSET
        for param, value in _constructor_values(
            cls.config_params, CONFIG
        ).items():
            assert getattr(attack, param) == value, param

    def test_undeclared_param_rejected(self, name, case, session):
        spec = attack_spec(name, CONFIG).with_params(bogus=1)
        with _undeclared(f"attack '{name}'", attack_class(name).config_params):
            build_attack(spec, case, CONFIG, context=session)


@pytest.mark.parametrize("name", sorted(DEFENSES))
class TestDefenses:
    def test_builds_at_operating_point(self, name, case, session):
        cls = DEFENSES[name]
        defense = build_defense(name, case, config=CONFIG, context=session)
        assert type(defense) is cls
        assert defense.model is case.model
        for param, value in _constructor_values(
            cls.config_params, CONFIG
        ).items():
            assert getattr(defense, param) == value, param

    def test_undeclared_param_rejected(self, name, case, session):
        spec = defense_spec(name, CONFIG).with_params(bogus=1)
        with _undeclared(f"defense '{name}'", DEFENSES[name].config_params):
            build_defense(spec, case, config=CONFIG, context=session)


@pytest.mark.parametrize("kind", sorted(EXPLAINERS))
class TestExplainers:
    def test_builds_at_operating_point(self, kind, case, session):
        recipe = EXPLAINERS[kind]
        factory = build_explainer_factory(kind, case, CONFIG, context=session)
        explainer = factory(case.graph)
        assert type(explainer) is recipe.cls
        assert explainer.model is case.model
        for param, value in _constructor_values(
            recipe.params, CONFIG
        ).items():
            assert getattr(explainer, param) == value, param

    def test_undeclared_param_rejected(self, kind, case, session):
        spec = ExplainerSpec(kind, {"bogus": 1})
        with _undeclared(f"explainer '{kind}'", EXPLAINERS[kind].params):
            build_explainer_factory(spec, case, CONFIG, context=session)
