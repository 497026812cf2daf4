"""Declarative scenario grids and canonical content-addressed cell keys.

A :class:`ScenarioGrid` spans the arena's eight axes — dataset × model
(hidden width) × architecture × attack × defense × budget × seed × threat
model.  The
defense axis is evaluation-only for *oblivious* threats: such attacks
never see the defense, so the unit of *execution* (and of storage) is the
defense-free :class:`ScenarioCell` plus one victim.  A
``preprocess_aware`` threat folds its adapted defense into the execution
itself, which is why the threat model lives on the cell (and in the key),
not on the evaluation axis.

Every stored result is keyed by a SHA-256 over the **canonical JSON** of
everything that determines it: dataset generator settings, model
architecture and training hyperparameters, attack name and operating
point, victim-selection protocol, budget cap, seed, threat model (only
when non-default — the historical keys must not move), and the victim
itself.  Two configs that would produce different results can never
collide on a key, and a key is reproducible across processes and dict
orderings — the property that makes ``--resume`` sound.

A defense's verdict on one stored result is keyed the same way
(:func:`verdict_key`): the result's own key plus the defense's operating
point, so a warm resume reads every verdict back and scores no defense.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

from repro.api.specs import ThreatModel
from repro.schema import spec_kwargs

__all__ = [
    "SCHEMA_VERSION",
    "ScenarioCell",
    "ScenarioGrid",
    "canonical_json",
    "content_key",
    "cell_config",
    "cell_from_config",
    "defense_point",
    "validate_grid",
    "verdict_key",
    "victim_dict",
    "victim_key",
]

#: Bump when the stored record layout or the key schema changes; old store
#: entries then simply miss (never mis-hit).
SCHEMA_VERSION = 1

#: Tags every verdict key; bump when the verdict record layout changes.
VERDICT_SCHEMA = "verdict-1"


def canonical_json(payload):
    """Deterministic JSON: sorted keys, no whitespace, default floats.

    ``json`` serializes floats via shortest-round-trip ``repr``, so equal
    doubles always produce identical bytes — the store's hashing and the
    byte-identical-matrix guarantee both lean on this.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_key(payload):
    """SHA-256 hex digest of the canonical JSON of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ScenarioCell:
    """One attack-execution cell of the grid.

    ``threat`` defaults to the historical white-box oblivious setting, so
    every pre-threat-axis construction site (and every stored key) is
    untouched; non-default threats change the execution — and therefore
    the content key.  ``arch`` works the same way: the default ``"gcn"``
    is invisible in labels and keys, any other architecture enters both.
    """

    dataset: str
    hidden: int
    attack: str
    budget_cap: int
    seed: int
    threat: ThreatModel = field(default_factory=ThreatModel)
    arch: str = "gcn"

    def label(self):
        arch = "" if self.arch == "gcn" else f"/{self.arch}"
        base = (
            f"{self.dataset}/h{self.hidden}{arch}/{self.attack}"
            f"/Δ{self.budget_cap}/s{self.seed}"
        )
        if self.threat.is_default:
            return base
        return f"{base}/{self.threat.label()}"


@dataclass(frozen=True)
class ScenarioGrid:
    """The declarative attack × defense scenario matrix.

    Axes are tuples so grids are hashable and order is explicit — the
    matrix renders rows/columns in the declared order, and ``cells()``
    enumerates deterministically (dataset-major, seed-minor).
    """

    datasets: tuple = ("cora",)
    hidden_dims: tuple = (16,)
    attacks: tuple = ("FGA-T", "Nettack", "GEAttack")
    defenses: tuple = ("none", "jaccard", "svd", "explainer")
    budget_caps: tuple = (3,)
    seeds: tuple = (0,)
    #: Threat-model axis; entries may be :class:`ThreatModel` instances or
    #: CLI-grammar strings (``"surrogate"``, ``"adaptive:jaccard"``, …).
    threats: tuple = (ThreatModel(),)
    #: Victim-architecture axis (:data:`repro.nn.ARCHITECTURES` names).
    archs: tuple = ("gcn",)

    def __post_init__(self):
        for axis in fields(self):
            values = tuple(getattr(self, axis.name))
            if axis.name == "threats":
                values = tuple(ThreatModel.parse(threat) for threat in values)
            object.__setattr__(self, axis.name, values)

    def cells(self):
        """All execution cells in deterministic enumeration order."""
        return [
            ScenarioCell(
                dataset, hidden, attack, budget_cap, seed, threat, arch
            )
            for dataset in self.datasets
            for hidden in self.hidden_dims
            for arch in self.archs
            for attack in self.attacks
            for budget_cap in self.budget_caps
            for seed in self.seeds
            for threat in self.threats
        ]

    @property
    def num_cells(self):
        return (
            len(self.datasets)
            * len(self.hidden_dims)
            * len(self.archs)
            * len(self.attacks)
            * len(self.budget_caps)
            * len(self.seeds)
            * len(self.threats)
        )


#: Numeric axes and the smallest value each admits.
_NUMERIC_AXES = (("hidden_dims", 1), ("budget_caps", 1), ("seeds", 0))


def validate_grid(grid):
    """Reject axis typos before any cell has trained or attacked.

    Checks every registry name on the grid — datasets, attacks,
    defenses, architectures, adapted defenses and surrogate architectures
    — and raises :class:`KeyError` naming the first unknown one with its
    options.  Names are case-sensitive, like the store keys they hash
    into: ``"CORA"`` would load cora's graph under a different key.  Then
    every ``hidden_dims``/``budget_caps``/``seeds`` entry must be a plain
    ``int`` (not a ``bool`` or a string, which would hash to a different
    store key or fail mid-run), widths and budgets at least 1 and seeds
    non-negative, and an adapted defense's params must be ones
    it declares (:func:`repro.schema.spec_kwargs`); anything else raises
    :class:`ValueError`.
    ``Session`` lets both propagate, the job server answers 400 and the
    CLI exits with a one-line ``error:``.
    """
    from repro.attacks import ATTACKS, EXTENSION_ATTACKS
    from repro.datasets import DATASET_SPECS
    from repro.defense import DEFENSES
    from repro.nn import ARCHITECTURES

    for name in grid.datasets:
        if not isinstance(name, str) or name not in DATASET_SPECS:
            raise KeyError(
                f"unknown dataset {name!r}; options: {sorted(DATASET_SPECS)}"
            )
    known_attacks = {**ATTACKS, **EXTENSION_ATTACKS}
    for name in grid.attacks:
        if name not in known_attacks:
            raise KeyError(
                f"unknown attack {name!r}; options: {sorted(known_attacks)}"
            )
    for name in grid.defenses:
        if name not in DEFENSES:
            raise KeyError(
                f"unknown defense {name!r}; options: {sorted(DEFENSES)}"
            )
    for arch in grid.archs:
        if arch not in ARCHITECTURES:
            raise KeyError(
                f"unknown architecture {arch!r}; "
                f"options: {sorted(ARCHITECTURES)}"
            )
    for threat in grid.threats:
        if threat.is_adaptive:
            if threat.defense not in DEFENSES:
                raise KeyError(
                    f"unknown adapted defense {threat.defense!r}; "
                    f"options: {sorted(DEFENSES)}"
                )
            spec_kwargs(
                f"defense {threat.defense!r}",
                DEFENSES[threat.defense].config_params,
                threat.defense_params,
            )
        if (
            threat.surrogate_arch is not None
            and threat.surrogate_arch not in ARCHITECTURES
        ):
            raise KeyError(
                f"unknown surrogate architecture "
                f"{threat.surrogate_arch!r}; "
                f"options: {sorted(ARCHITECTURES)}"
            )
    for axis, minimum in _NUMERIC_AXES:
        for value in getattr(grid, axis):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"{axis} entries must be integers, got {value!r}"
                )
            if value < minimum:
                raise ValueError(
                    f"{axis} entries must be >= {minimum}, got {value!r}"
                )


def cell_config(cell, config):
    """Canonical dict of everything that determines a cell's results.

    This and :func:`cell_from_config` are the only code that knows the
    store's cell format.  The attack entry is the attack's
    :class:`~repro.api.specs.AttackSpec` dict, whose params come from the
    class's declared ``config_params`` schema — only knobs the attack
    actually consumes enter the key, so changing ``geattack_lam``
    invalidates GEAttack cells but not Nettack's.  Two entries appear only
    off their defaults, so keys written before their axes existed still
    resolve: ``model.arch`` unless it is ``"gcn"``, and ``threat`` — the
    resolved threat model, so open and spelled-out defaults share keys —
    unless it is the white-box oblivious default.
    """
    from repro.api.registry import attack_spec
    from repro.threat import resolve_threat

    model = {
        "hidden": int(cell.hidden),
        "epochs": config.epochs,
        "learning_rate": config.learning_rate,
        "weight_decay": config.weight_decay,
        "dropout": config.dropout,
    }
    if cell.arch != "gcn":
        model["arch"] = str(cell.arch)  # pre-model-zoo keys stay warm
    data = {
        "schema": SCHEMA_VERSION,
        "dataset": {"name": cell.dataset, "scale": config.dataset_scale},
        "model": model,
        "victim_protocol": {
            "num_victims": config.num_victims,
            "margin_group": config.margin_group,
            "min_degree": config.min_degree,
            "max_degree": config.max_degree,
        },
        "attack": attack_spec(cell.attack, config).to_dict(),
        "budget_cap": cell.budget_cap,
        "seed": cell.seed,
    }
    threat = resolve_threat(cell.threat, config, cell.seed, arch=cell.arch)
    if not threat.is_default:
        data["threat"] = threat.to_dict()  # pre-threat-axis keys stay warm
    return data


def cell_from_config(data):
    """The :class:`ScenarioCell` a :func:`cell_config` dict describes.

    Reads only the cell's own fields; whether the config-fed entries match
    a given config is the caller's check (compare :func:`content_key` of
    ``cell_config(cell, config)`` with that of ``data``).  Raises
    :class:`ValueError` when ``data`` is not a dict of that shape or names
    another schema version.
    """
    if not isinstance(data, dict):
        raise ValueError(f"a cell config is a JSON object, got {data!r}")
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"cell config schema {data.get('schema')!r} does not match "
            f"version {SCHEMA_VERSION}"
        )
    try:
        model = data["model"]
        return ScenarioCell(
            dataset=data["dataset"]["name"],
            hidden=model["hidden"],
            attack=data["attack"]["name"],
            budget_cap=data["budget_cap"],
            seed=data["seed"],
            threat=(
                ThreatModel.from_dict(data["threat"])
                if "threat" in data
                else ThreatModel()
            ),
            arch=model.get("arch", "gcn"),
        )
    except (AttributeError, KeyError, TypeError) as error:
        raise ValueError(f"malformed cell config: {error!r}") from error


def victim_dict(spec):
    """Canonical JSON-safe dict of one victim spec.

    Shared by the content key and the stored payload so the two
    serializations can never drift apart.
    """
    return {
        "node": int(spec.node),
        "target_label": (
            None if spec.target_label is None else int(spec.target_label)
        ),
        "budget": int(spec.budget),
    }


def victim_key(cell_cfg, spec):
    """Content key of one (cell, victim) attack result."""
    return content_key({"cell": cell_cfg, "victim": victim_dict(spec)})


def defense_point(name, config):
    """Canonical dict of a defense's operating point under ``config``.

    The defense's :class:`~repro.api.specs.DefenseSpec` dict (its declared
    config-fed params) under ``"spec"``, plus the resolved GNNExplainer
    ``epochs``/``lr`` under ``"explainer"`` for a defense that inspects
    with one.  Its runtime wiring — the clean-graph snapshot and
    ``prune_k`` — is pinned by the victim record's key (dataset and
    budget cap).
    """
    from repro.api.registry import EXPLAINERS, defense_spec
    from repro.defense import DEFENSES
    from repro.schema import resolve_params

    point = {"spec": defense_spec(name, config).to_dict()}
    if DEFENSES[name].requires_explainer:
        point["explainer"] = resolve_params(EXPLAINERS["gnn"].params, config)
    return point


def verdict_key(record_key, defense_point):
    """Content key of one defense's verdict on one stored attack result.

    ``record_key`` (a :func:`victim_key`) pins dataset, model, seed,
    attack, threat, budget cap and the victim; ``defense_point`` is
    :func:`defense_point`'s dict.
    """
    return content_key(
        {"verdict": VERDICT_SCHEMA, "record": record_key, "defense": defense_point}
    )
