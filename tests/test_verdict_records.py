"""Verdict records: a warm arena resume scores no defense.

Every (attack record × defense) verdict — ``evaded``, ``attacked_flag``,
``clean_flag`` — is stored under :func:`repro.arena.grid.verdict_key`, so:

* a warm run over the golden grid runs no explainer and no attack, and
  still renders ``tests/data/golden_arena.txt`` byte for byte at
  ``jobs=1`` and ``jobs=4``;
* widening a warm grid by one defense scores only that defense;
* a torn verdict is quarantined and recomputed once, matrix unchanged;
* the key moves with every knob a defense reads (declared in the
  registry), with the budget cap, and with nothing else.
"""

from __future__ import annotations

import multiprocessing
import shutil
from dataclasses import replace

import pytest

from repro.api import session as session_module
from repro.api.registry import EXPLAINERS
from repro.arena import ResultStore, ScenarioCell, cell_config
from repro.arena.grid import defense_point, verdict_key, victim_key
from repro.attacks import ATTACKS, EXTENSION_ATTACKS, VictimSpec
from repro.defense import DEFENSES
from repro.experiments import SCALE_PRESETS
from repro.explain import GNNExplainer
from repro.obs import metrics

from test_arena_golden import GOLDEN_GRID, GOLDEN_PATH, run_golden_arena


def _golden():
    with open(GOLDEN_PATH) as handle:
        return handle.read()


class _Counted:
    """Counts calls to one method, across forked pool workers too."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = multiprocessing.Value("i", 0)
        original = getattr(owner, name)
        calls = self.calls

        def counted(*args, **kwargs):
            with calls.get_lock():
                calls.value += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    @property
    def value(self):
        return self.calls.value


def _verdict_keys(store):
    return [key for key in store.keys() if "evaded" in store.get(key)]


@pytest.fixture(scope="module")
def shared_cases():
    return {}


@pytest.fixture(scope="module")
def widened(tmp_path_factory, shared_cases):
    """A store filled by the golden grid minus ``explainer``, then widened.

    Returns the store root, the widening run, the defenses it built and
    the explanations it made (at ``jobs=4``, so the counter is shown to
    see forked workers).
    """
    root = tmp_path_factory.mktemp("verdicts") / "store"
    narrow = replace(GOLDEN_GRID, defenses=("jaccard",))
    run_golden_arena(root, jobs=1, cases=shared_cases, grid=narrow)
    with pytest.MonkeyPatch.context() as patch:
        built = []
        original = session_module.build_defense

        def recording(spec, *args, **kwargs):
            built.append(spec)
            return original(spec, *args, **kwargs)

        patch.setattr(session_module, "build_defense", recording)
        explained = _Counted(patch, GNNExplainer, "explain_node")
        run, text = run_golden_arena(root, jobs=4, cases=shared_cases)
        return root, run, text, built, explained.value


class TestWarmResume:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_warm_run_scores_nothing_and_matches_golden(
        self, widened, shared_cases, monkeypatch, jobs
    ):
        root, _, _, _, _ = widened
        explained = _Counted(monkeypatch, GNNExplainer, "explain_node")
        before = metrics.snapshot()
        run, text = run_golden_arena(root, jobs=jobs, cases=shared_cases)
        delta = metrics.delta_since(before)
        assert explained.value == 0
        assert run.executed == 0
        assert delta.get("store.writes", 0) == 0
        assert text == _golden()

    def test_widening_scores_only_the_new_defense(self, widened):
        _, run, text, built, explained = widened
        assert run.executed == 0
        assert built == ["explainer"] * GOLDEN_GRID.num_cells
        assert explained > 0
        assert text == _golden()


class TestTornVerdict:
    def test_truncated_verdict_is_recomputed_exactly_once(
        self, widened, shared_cases, tmp_path
    ):
        root, _, _, _, _ = widened
        copy = tmp_path / "store"
        shutil.copytree(root, copy)
        store = ResultStore(copy)
        verdicts = _verdict_keys(store)
        records = len(store) - len(verdicts)
        assert len(verdicts) == records * len(GOLDEN_GRID.defenses)
        key = verdicts[0]
        path = store.path(key)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])

        before = metrics.snapshot()
        run, text = run_golden_arena(copy, jobs=1, cases=shared_cases)
        delta = metrics.delta_since(before)
        assert run.executed == 0
        assert delta["store.quarantined"] == 1
        assert delta["store.writes"] == 1
        assert text == _golden()
        assert path.with_name(path.name + ".corrupt").exists()
        assert path.read_bytes() == data

        before = metrics.snapshot()
        run_golden_arena(copy, jobs=1, cases=shared_cases)
        assert metrics.delta_since(before).get("store.writes", 0) == 0


# -- key scoping, driven by the registry ------------------------------------

CONFIG = SCALE_PRESETS["smoke"]
CELL = ScenarioCell("cora", 16, "FGA-T", 3, 0)
SPEC = VictimSpec(5, 1, 3)
ALL_ATTACKS = {**ATTACKS, **EXTENSION_ATTACKS}


def _keys(config, cell=CELL):
    record = victim_key(cell_config(cell, config), SPEC)
    return {
        name: verdict_key(record, defense_point(name, config))
        for name in DEFENSES
    }


def _read_fields(name):
    """Config fields one defense's verdicts read, per the registry."""
    cls = DEFENSES[name]
    params = list(cls.config_params)
    if cls.requires_explainer:
        params += EXPLAINERS["gnn"].params
    return {param.config_key for param in params}


DEFENSE_FIELDS = sorted(set().union(*map(_read_fields, DEFENSES)))
OTHER_ATTACK_FIELDS = sorted(
    {
        param.config_key
        for name, cls in ALL_ATTACKS.items()
        if name != CELL.attack
        for param in cls.config_params
    }
    - {param.config_key for param in ALL_ATTACKS[CELL.attack].config_params}
    - set(DEFENSE_FIELDS)
)


def _bumped(field):
    value = getattr(CONFIG, field)
    return replace(CONFIG, **{field: value * 2 + 1})


class TestVerdictKeyScoping:
    def test_registry_declares_the_inspector_knobs(self):
        assert {"explainer_epochs", "explainer_lr", "explanation_size"} <= set(
            DEFENSE_FIELDS
        )
        assert "geattack_lam" in OTHER_ATTACK_FIELDS

    @pytest.mark.parametrize("field", DEFENSE_FIELDS)
    def test_defense_knob_moves_exactly_its_readers(self, field):
        config = _bumped(field)
        # The attack record itself does not move, so any change below is
        # the defense point's.
        assert victim_key(cell_config(CELL, config), SPEC) == victim_key(
            cell_config(CELL, CONFIG), SPEC
        )
        base, moved = _keys(CONFIG), _keys(config)
        for name in DEFENSES:
            assert (moved[name] != base[name]) == (field in _read_fields(name))

    def test_budget_cap_moves_every_verdict(self):
        base = _keys(CONFIG)
        moved = _keys(CONFIG, replace(CELL, budget_cap=CELL.budget_cap + 1))
        assert all(moved[name] != base[name] for name in DEFENSES)

    @pytest.mark.parametrize("field", OTHER_ATTACK_FIELDS)
    def test_other_attacks_knob_moves_no_verdict(self, field):
        assert _keys(_bumped(field)) == _keys(CONFIG)

    def test_backend_moves_no_verdict(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        base = _keys(CONFIG)
        for backend in ("dense", "sparse"):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            assert _keys(CONFIG) == base

    def test_verdicts_differ_per_defense_and_from_the_record(self):
        keys = _keys(CONFIG)
        record = victim_key(cell_config(CELL, CONFIG), SPEC)
        assert len({record, *keys.values()}) == len(DEFENSES) + 1

