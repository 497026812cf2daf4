"""Render the generated registry schemas (``python -m repro describe``).

Everything printed here is derived from the registries and the classes'
declared ``config_params`` — registering a new attack/defense/explainer
makes it appear with its parameter schema, with no doc to hand-maintain.
"""

from __future__ import annotations

import json

from repro.api.registry import registry_schema

__all__ = ["describe_registries"]


def _format_param(row):
    pieces = [f"{row['name']} <- config.{row['config_key']}"]
    if "cap" in row:
        pieces.append(f"(capped at {row['cap']})")
    if not row["constructor"]:
        pieces.append("[dependency knob]")
    if "value" in row:
        pieces.append(f"= {row['value']!r}")
    return " ".join(pieces)


def _format_section(title, entries, flags):
    lines = [title, "=" * len(title)]
    for name, entry in entries.items():
        badges = [
            label for attr, label in flags if entry.get(attr)
        ]
        suffix = f"  [{', '.join(badges)}]" if badges else ""
        lines.append(f"{name}  ({entry['class']}){suffix}")
        for row in entry["params"]:
            lines.append(f"    {_format_param(row)}")
        if entry.get("requires"):
            lines.append(f"    requires: {', '.join(entry['requires'])}")
        if entry["defaults"]:
            defaults = ", ".join(
                f"{key}={value!r}" for key, value in entry["defaults"].items()
            )
            lines.append(f"    static defaults: {defaults}")
        if not entry["params"] and not entry["defaults"]:
            lines.append("    (no tunable parameters)")
    return lines


def describe_registries(config=None, as_json=False):
    """Every registered attack/defense/explainer with its param schema.

    With ``as_json`` the raw schema dict is serialized instead of the
    human-readable listing; ``config`` adds the resolved value of each
    config-fed knob.
    """
    schema = registry_schema(config)
    if as_json:
        return json.dumps(schema, indent=2, sort_keys=True, default=repr)
    lines = []
    lines += _format_section(
        "Attacks",
        schema["attacks"],
        flags=[("supports_locality", "locality")],
    )
    lines.append("")
    lines += _format_section(
        "Defenses",
        schema["defenses"],
        flags=[("requires_explainer", "needs explainer")],
    )
    lines.append("")
    lines += _format_section(
        "Explainers",
        schema["explainers"],
        flags=[("fitted", "fitted per case")],
    )
    lines.append("")
    lines += _architecture_lines(schema["architectures"])
    lines.append("")
    lines += _backend_lines()
    lines.append("")
    lines += _service_lines()
    return "\n".join(lines)


def _architecture_lines(entries):
    """The registered victim architectures (the arena's ``--archs`` axis)."""
    title = "Architectures"
    lines = [title, "=" * len(title)]
    for name, entry in entries.items():
        locality = (
            "exact locality"
            if entry.get("exact_locality")
            else "full-graph fallback (no exact locality)"
        )
        lines.append(f"{name}  ({entry['class']})  [{locality}]")
    return lines


def _backend_lines():
    """The active compute backend, text listing only.

    Deliberately kept out of the ``--json`` schema: the backend is an
    execution detail (never part of results or store keys), and the JSON
    top-level shape is a compatibility contract.
    """
    from repro.attacks.base import backend_from_env

    title = "Compute backend"
    return [
        title,
        "=" * len(title),
        f"active: {backend_from_env()}  (select with REPRO_BACKEND=dense|sparse)",
        "dense: dense adjacency tensors (default; the historical path)",
        "sparse: CSR adjacency with fused scatter kernels"
        " (FGA, FGA-T, FGA-T&E's step, Nettack, IG-Attack, GEAttack)",
    ]


def _service_lines():
    """The arena service's endpoint reference, text listing only.

    Like the backend section, deliberately absent from ``--json``: the
    JSON top-level shape (attacks/defenses/explainers) is a
    compatibility contract, and the service is an execution front end,
    not a registry.
    """
    from repro.service import endpoint_lines

    title = "Arena service (python -m repro serve)"
    return [title, "=" * len(title), *endpoint_lines()]
