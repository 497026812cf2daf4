"""Golden regression snapshot: the rendered Table-1 fixture is byte-stable.

Two contracts in one test file:

* **Parallel determinism** — ``Session(..., jobs=1).table(...)`` and
  ``jobs=4`` must render the *byte-identical* table (per-victim seeding is
  the engine's determinism guarantee; see ``repro/parallel.py``).
* **Regression snapshot** — the rendered table must equal the committed
  golden file ``tests/data/golden_table1.txt``.  Any change to attack
  maths, victim selection, explainer optimization or table formatting shows
  up as a diff here; regenerate deliberately with::

      PYTHONPATH=src python tests/test_table_golden.py --regen

The fixture is deliberately tiny (a ~130-node cora-like graph, one seed,
four victims, three methods) so both renders finish in seconds.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.api import Session
from repro.experiments import ExperimentConfig
from repro.experiments.reporting import format_comparison_table

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "golden_table1.txt"
)

#: Small deterministic Table-1-style fixture: every knob pinned explicitly
#: so preset drift can never silently change the snapshot.
GOLDEN_CONFIG = ExperimentConfig(
    dataset_scale=0.05,
    seed=12,
    num_seeds=1,
    hidden=12,
    epochs=120,
    num_victims=4,
    margin_group=1,
    budget_cap=3,
    explainer_epochs=40,
    geattack_inner_steps=3,
)

#: Cheap method subset covering the random baseline, the plain gradient
#: attack, and the locality-engine flagship.
GOLDEN_METHODS = ["RNA", "FGA-T", "GEAttack"]


def render_golden_table(jobs):
    comparison = Session(GOLDEN_CONFIG, jobs=jobs).table(
        "cora", explainer="gnn", methods=GOLDEN_METHODS
    )
    return (
        format_comparison_table(comparison, method_order=GOLDEN_METHODS) + "\n"
    )


@pytest.fixture(scope="module")
def serial_render():
    return render_golden_table(jobs=1)


def test_jobs_one_and_four_render_byte_identical(serial_render):
    assert render_golden_table(jobs=4) == serial_render


def test_render_matches_committed_golden(serial_render):
    assert os.path.exists(GOLDEN_PATH), (
        "golden snapshot missing; regenerate with "
        "`PYTHONPATH=src python tests/test_table_golden.py --regen`"
    )
    with open(GOLDEN_PATH) as handle:
        golden = handle.read()
    assert serial_render == golden, (
        "rendered Table-1 fixture diverged from the committed snapshot; "
        "if the change is intentional, regenerate with "
        "`PYTHONPATH=src python tests/test_table_golden.py --regen`"
    )


if __name__ == "__main__":
    if "--regen" in sys.argv:
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        table = render_golden_table(jobs=1)
        with open(GOLDEN_PATH, "w") as handle:
            handle.write(table)
        print(f"wrote {GOLDEN_PATH}:\n{table}")
    else:
        print(__doc__)
