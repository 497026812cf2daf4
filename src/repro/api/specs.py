"""Typed, frozen specs: the façade's declarative vocabulary.

Every spec is a frozen dataclass with an exact ``to_dict``/``from_dict``
round-trip.  An :class:`AttackSpec`'s dict is the ``"attack"`` entry of
the arena's content-addressed cell config and a resolved
:class:`ThreatModel`'s dict its ``"threat"`` entry (see
:func:`repro.arena.grid.cell_config`, which owns the rest of that
format), so construction and storage keys read the same params.

Specs are pure data (this module imports only the stdlib); the recipes
that turn them into live objects — :func:`~repro.api.registry.build_attack`,
:func:`~repro.api.registry.build_defense` and
:func:`~repro.api.registry.build_explainer_factory` — live in
:mod:`repro.api.registry`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

__all__ = [
    "AttackSpec",
    "DefenseSpec",
    "ExplainerSpec",
    "ThreatModel",
    "TableExperiment",
    "SweepExperiment",
    "ArenaExperiment",
]


def _params_tuple(params):
    """Canonicalize a params mapping to a sorted tuple of (name, value)."""
    items = params.items() if isinstance(params, dict) else params
    return tuple(sorted((str(name), value) for name, value in items))


class _NamedParamsSpec:
    """A registry name plus canonicalized operating-point params.

    ``to_dict`` flattens the params next to the identifying field —
    exactly the shape the arena's content keys hash (``{"name": ...,
    **params}``) — and ``from_dict`` inverts it, so the spec round-trip
    and the store-key serialization are the same bytes.
    """

    _id_field = "name"

    def __post_init__(self):
        object.__setattr__(self, "params", _params_tuple(self.params))

    def to_dict(self):
        return {
            self._id_field: getattr(self, self._id_field),
            **dict(self.params),
        }

    @classmethod
    def from_dict(cls, data):
        identity = data[cls._id_field]
        params = {
            name: value for name, value in data.items() if name != cls._id_field
        }
        return cls(identity, params)

    def with_params(self, **overrides):
        """Copy of this spec with some params overridden."""
        return type(self)(
            getattr(self, self._id_field), {**dict(self.params), **overrides}
        )


@dataclass(frozen=True)
class AttackSpec(_NamedParamsSpec):
    """One registered attack at a concrete operating point.

    ``name`` is a :data:`repro.attacks.ATTACKS` /
    :data:`~repro.attacks.EXTENSION_ATTACKS` key; ``params`` hold only the
    knobs the attack's declared ``config_params`` schema scopes to it (so
    the spec hashes exactly what determines the attack's results).
    """

    name: str
    params: tuple = ()


@dataclass(frozen=True)
class DefenseSpec(_NamedParamsSpec):
    """One registered defense (a :data:`repro.defense.DEFENSES` key)."""

    name: str
    params: tuple = ()


@dataclass(frozen=True)
class ExplainerSpec(_NamedParamsSpec):
    """One registered explainer/inspector construction recipe.

    ``kind`` is a :data:`repro.api.registry.EXPLAINERS` key (``"gnn"``,
    ``"pg"``, ``"gnn-features"``, ``"grad"``, ``"occlusion"``); ``params``
    override the kind's config-fed operating point.
    """

    _id_field = "kind"

    kind: str = "gnn"
    params: tuple = ()


#: Legal values of :attr:`ThreatModel.knowledge`.
KNOWLEDGE_LEVELS = ("white_box", "surrogate")
#: Legal values of :attr:`ThreatModel.adaptivity`.
ADAPTIVITY_LEVELS = ("oblivious", "preprocess_aware")


@dataclass(frozen=True)
class ThreatModel:
    """What the attacker knows and what it optimizes through.

    Two orthogonal axes:

    * ``knowledge`` — ``"white_box"`` (the attacker holds the victim
      model itself; the historical setting) or ``"surrogate"`` (the
      attacker only holds an independently trained GCN with its own
      ``surrogate_hidden``/``surrogate_seed``; attacks are built against
      the surrogate and evaluated on the true victim, so every cell
      carries a real transfer gap).
    * ``adaptivity`` — ``"oblivious"`` (the attacker optimizes against
      the raw graph; the historical setting) or ``"preprocess_aware"``
      (the attacker runs its inner optimization through the named
      ``defense``'s sanitization view, so Jaccard/SVD purification — or
      the explainer inspector's anticipated pruning — is part of the
      attacked objective).

    ``surrogate_hidden``/``surrogate_seed`` may be ``None`` (resolve to
    the config's hidden width and the cell seed plus the shared surrogate
    offset; see :func:`repro.threat.resolve_threat`).  ``defense_params``
    is the adapted defense's scoped operating point, canonicalized like
    every named-params spec.

    The default instance is the exact historical threat model, and it is
    *omitted* from :func:`repro.arena.grid.cell_config` — so every store
    key ever written before the threat axis existed still resolves
    bit-for-bit.
    """

    knowledge: str = "white_box"
    adaptivity: str = "oblivious"
    surrogate_hidden: int | None = None
    surrogate_seed: int | None = None
    surrogate_arch: str | None = None
    defense: str | None = None
    defense_params: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "defense_params", _params_tuple(self.defense_params)
        )
        if self.knowledge not in KNOWLEDGE_LEVELS:
            raise ValueError(
                f"unknown knowledge level {self.knowledge!r}; "
                f"options: {list(KNOWLEDGE_LEVELS)}"
            )
        if self.adaptivity not in ADAPTIVITY_LEVELS:
            raise ValueError(
                f"unknown adaptivity level {self.adaptivity!r}; "
                f"options: {list(ADAPTIVITY_LEVELS)}"
            )
        if self.knowledge == "white_box" and (
            self.surrogate_hidden is not None
            or self.surrogate_seed is not None
            or self.surrogate_arch is not None
        ):
            raise ValueError(
                "white_box threat models carry no surrogate fields"
            )
        if self.adaptivity == "oblivious" and (
            self.defense is not None or self.defense_params
        ):
            raise ValueError("oblivious threat models carry no adapted defense")
        if self.adaptivity == "preprocess_aware" and self.defense is None:
            raise ValueError(
                "preprocess_aware threat models must name the adapted defense"
            )

    # -- convenience ---------------------------------------------------------
    @property
    def is_default(self):
        """Whether this is the exact historical (key-invisible) setting."""
        return self == ThreatModel()

    @property
    def is_surrogate(self):
        return self.knowledge == "surrogate"

    @property
    def is_adaptive(self):
        return self.adaptivity == "preprocess_aware"

    def oblivious_twin(self):
        """The same knowledge level with the adaptivity stripped."""
        return replace(
            self, adaptivity="oblivious", defense=None, defense_params=()
        )

    def white_box_twin(self):
        """The same adaptivity with full (white-box) model knowledge."""
        return replace(
            self,
            knowledge="white_box",
            surrogate_hidden=None,
            surrogate_seed=None,
            surrogate_arch=None,
        )

    def to_dict(self):
        """JSON-safe dict; exact inverse of :meth:`from_dict`."""
        data = asdict(self)
        if data["surrogate_arch"] is None:
            del data["surrogate_arch"]  # pre-model-zoo threat keys stay warm
        return data

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        data.setdefault("surrogate_arch", None)
        return cls(**{f.name: data[f.name] for f in fields(cls)})

    def label(self):
        """Compact axis label, e.g. ``surrogate(gcn,h8,s61)+adaptive(jaccard)``."""
        parts = []
        if self.is_surrogate:
            inner = ",".join(
                text
                for text, value in (
                    (str(self.surrogate_arch), self.surrogate_arch),
                    (f"h{self.surrogate_hidden}", self.surrogate_hidden),
                    (f"s{self.surrogate_seed}", self.surrogate_seed),
                )
                if value is not None
            )
            parts.append(f"surrogate({inner})" if inner else "surrogate")
        else:
            parts.append("white_box")
        if self.is_adaptive:
            parts.append(f"adaptive({self.defense})")
        else:
            parts.append("oblivious")
        return "+".join(parts)

    @classmethod
    def parse(cls, text):
        """Parse a CLI threat token into a :class:`ThreatModel`.

        Grammar — ``+``-joined parts, each one of:

        * ``white_box`` / ``oblivious`` — explicit defaults (no-ops);
        * ``surrogate`` / ``surrogate:h<H>`` / ``surrogate:s<S>`` /
          ``surrogate:h<H>,s<S>`` — surrogate knowledge, optionally
          pinning the surrogate's hidden width and/or training seed; a
          bare-identifier token (``surrogate:gcn``) pins the surrogate's
          *architecture* (validated against the registry at submit time);
        * ``adaptive:<defense>`` (alias ``preprocess_aware:<defense>``) —
          preprocess-aware adaptivity against a registered defense.

        Examples: ``surrogate``, ``adaptive:jaccard``,
        ``surrogate:h8,s3+adaptive:svd``, ``surrogate:gcn,h8``.

        Each axis may be set at most once: ``surrogate+surrogate:h8`` (or
        ``white_box+surrogate``, ``oblivious+adaptive:jaccard``) is
        rejected rather than silently letting the later part win.
        """
        if isinstance(text, cls):
            return text
        fields = {}
        claimed = set()

        def claim(axis, part):
            if axis in claimed:
                raise ValueError(
                    f"duplicate {axis} axis in threat {text!r}: "
                    f"part {part!r} conflicts with an earlier part"
                )
            claimed.add(axis)

        for part in str(text).split("+"):
            part = part.strip()
            if part == "":
                continue
            if part == "white_box":
                claim("knowledge", part)
                continue
            if part == "oblivious":
                claim("adaptivity", part)
                continue
            head, _, arg = part.partition(":")
            if head == "surrogate":
                claim("knowledge", part)
                fields["knowledge"] = "surrogate"
                for token in filter(None, (t.strip() for t in arg.split(","))):
                    if token[0] == "h" and token[1:].isdigit():
                        fields["surrogate_hidden"] = int(token[1:])
                    elif token[0] == "s" and token[1:].isdigit():
                        fields["surrogate_seed"] = int(token[1:])
                    elif token.isidentifier() and token not in ("h", "s"):
                        # A bare "h" or "s" is a malformed hidden/seed
                        # token, not an architecture name.
                        if "surrogate_arch" in fields:
                            raise ValueError(
                                f"duplicate surrogate arch token {token!r} "
                                f"in threat {text!r}"
                            )
                        fields["surrogate_arch"] = token
                    else:
                        raise ValueError(
                            f"bad surrogate token {token!r} in threat {text!r}"
                            " (expected an arch name, h<int> or s<int>)"
                        )
            elif head in ("adaptive", "preprocess_aware") and arg:
                claim("adaptivity", part)
                fields["adaptivity"] = "preprocess_aware"
                fields["defense"] = arg
            else:
                raise ValueError(
                    f"bad threat part {part!r} in {text!r}; expected "
                    "white_box | oblivious | surrogate[:h<H>,s<S>] | "
                    "adaptive:<defense>"
                )
        return cls(**fields)


# -- experiment descriptions (inputs to Session.run) -------------------------


@dataclass(frozen=True)
class TableExperiment:
    """A Table 1 / Table 2 comparison: all methods × all metrics × seeds."""

    dataset: str = "cora"
    #: ``"gnn"`` (Table 1) or ``"pg"`` (Table 2) — the inspector *and* the
    #: simulated explainer GEAttack unrolls.
    explainer: str = "gnn"
    #: Optional subset of :data:`repro.experiments.METHOD_ORDER`.
    methods: tuple | None = None

    def __post_init__(self):
        if self.methods is not None:
            object.__setattr__(self, "methods", tuple(self.methods))


@dataclass(frozen=True)
class SweepExperiment:
    """A one-knob GEAttack sweep (λ / inner steps T / explanation size L)."""

    kind: str  # "lambda" | "inner-steps" | "subgraph-size"
    dataset: str = "cora"
    values: tuple | None = None

    def __post_init__(self):
        if self.values is not None:
            object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class ArenaExperiment:
    """An attack × defense scenario matrix against a result store.

    The store holds one attack record per (cell, victim) and one verdict
    record per (attack record, defense); a cell computes only what is
    missing, so a warm run executes no attack and scores no defense.
    Multi-writer coordination uses two constants: a cell with missing
    records computes them under an advisory store lease
    (:meth:`repro.arena.store.ResultStore.fill`), cells leased by
    another live run are deferred and re-polled every
    :data:`repro.api.session.POLL_INTERVAL` seconds, and a lease older
    than :data:`repro.arena.store.LEASE_TTL` (a dead writer) is stolen.
    A single-writer run acquires every lease uncontested, so neither
    changes anything about its results or ordering.
    """

    grid: object  # repro.arena.ScenarioGrid
    store: object  # repro.arena.ResultStore or a path for one
    fresh: bool = False
