"""Golden regression snapshot for the arena's rendered matrices.

The arena mirror of ``tests/test_table_golden.py``, three contracts in one:

* **Parallel determinism** — the same grid rendered at ``jobs=1`` and
  ``jobs=4`` must produce the byte-identical text (per-victim seeding).
* **Regression snapshot** — the rendered matrices must equal the
  committed golden ``tests/data/golden_arena.txt``.  The grid covers the
  legacy oblivious path *and* an adaptive (defense-aware) threat, so any
  change to attack maths, threat execution, defense scoring or matrix
  formatting shows up as a diff here; regenerate deliberately with::

      PYTHONPATH=src python tests/test_arena_golden.py --regen

* **The adaptive axis bites** — the adaptive threat's explainer-defense
  cell reports *strictly different* evasion than its oblivious twin (the
  threat-axis acceptance criterion: optimizing through a sanitizer
  changes what survives the inspector).

The fixture is deliberately tiny (a ~130-node cora-like graph, one seed,
six victims, two attacks × two defenses × two threats).
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.api import Session
from repro.api.specs import ThreatModel
from repro.arena import (
    ResultStore,
    ScenarioGrid,
    arena_matrix,
    render_arena_matrices,
)
from repro.experiments import ExperimentConfig

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "golden_arena.txt"
)

#: Every knob pinned explicitly so preset drift can never silently change
#: the snapshot.  ``explanation_size=5`` keeps the inspection window
#: tighter than the victims' subgraph rankings, so window-evasion (and
#: hence the adaptive-vs-oblivious gap) is actually expressible at this
#: scale.
GOLDEN_CONFIG = ExperimentConfig(
    dataset_scale=0.06,
    seed=0,
    num_seeds=1,
    hidden=16,
    epochs=80,
    num_victims=6,
    margin_group=1,
    budget_cap=3,
    explainer_epochs=40,
    explanation_size=5,
    geattack_inner_steps=3,
    pg_epochs=6,
    pg_instances=6,
)

GOLDEN_GRID = ScenarioGrid(
    attacks=("FGA-T", "GEAttack"),
    defenses=("jaccard", "explainer"),
    budget_caps=(3,),
    seeds=(0,),
    threats=("white_box+oblivious", "adaptive:jaccard"),
)

#: The architecture-axis golden: the same attack crossing the model zoo,
#: rendered per-arch (never silently averaged across architectures).
ARCH_GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "data",
    "golden_arena_archs.txt",
)

ARCH_GOLDEN_GRID = ScenarioGrid(
    attacks=("FGA-T",),
    defenses=("none", "jaccard"),
    budget_caps=(3,),
    seeds=(0,),
    threats=("white_box+oblivious",),
    archs=("gcn", "sage"),
)


def run_golden_arena(store_root, jobs, cases=None, grid=GOLDEN_GRID):
    session = Session(GOLDEN_CONFIG, jobs=jobs, cases=cases)
    run = session.arena(grid, ResultStore(store_root))
    return run, render_arena_matrices(run) + "\n"


@pytest.fixture(scope="module")
def shared_cases():
    return {}


@pytest.fixture(scope="module")
def serial(tmp_path_factory, shared_cases):
    root = tmp_path_factory.mktemp("arena-golden") / "store"
    run, text = run_golden_arena(root, jobs=1, cases=shared_cases)
    return root, run, text


def test_jobs_one_and_four_render_byte_identical(
    serial, tmp_path, shared_cases
):
    _, _, text = serial
    _, parallel_text = run_golden_arena(
        tmp_path / "store-j4", jobs=4, cases=shared_cases
    )
    assert parallel_text == text


def test_render_matches_committed_golden(serial):
    _, _, text = serial
    assert os.path.exists(GOLDEN_PATH), (
        "golden snapshot missing; regenerate with "
        "`PYTHONPATH=src python tests/test_arena_golden.py --regen`"
    )
    with open(GOLDEN_PATH) as handle:
        golden = handle.read()
    assert text == golden, (
        "rendered arena matrices diverged from the committed snapshot; "
        "if the change is intentional, regenerate with "
        "`PYTHONPATH=src python tests/test_arena_golden.py --regen`"
    )


def test_adaptive_cell_reports_strictly_different_evasion(serial):
    """The acceptance criterion: the adaptive threat's explainer-defense
    cell must not coincide with its oblivious twin's."""
    _, run, _ = serial
    adaptive = ThreatModel.parse("adaptive:jaccard")
    ours = arena_matrix(run, "evasion_rate", adaptive)
    twins = arena_matrix(run, "evasion_rate", adaptive.oblivious_twin())
    deltas = {
        (attack, defense): ours[attack][defense] - twins[attack][defense]
        for attack in run.grid.attacks
        for defense in run.grid.defenses
    }
    assert any(
        deltas[(attack, "explainer")] != 0.0 for attack in run.grid.attacks
    ), f"adaptive explainer-defense cells tied their oblivious twins: {deltas}"


def test_warm_resume_executes_zero_and_matches(serial, shared_cases):
    """Threat-axis cells obey the store contract like every other cell."""
    root, _, text = serial
    warm, warm_text = run_golden_arena(root, jobs=1, cases=shared_cases)
    assert warm.executed == 0
    assert warm_text == text


def run_arch_golden_arena(store_root, jobs, cases=None):
    return run_golden_arena(store_root, jobs, cases, grid=ARCH_GOLDEN_GRID)


@pytest.fixture(scope="module")
def arch_shared_cases():
    return {}


@pytest.fixture(scope="module")
def arch_serial(tmp_path_factory, arch_shared_cases):
    root = tmp_path_factory.mktemp("arena-arch-golden") / "store"
    run, text = run_arch_golden_arena(root, jobs=1, cases=arch_shared_cases)
    return root, run, text


class TestArchGolden:
    """The architecture axis honours all three golden contracts."""

    def test_jobs_one_and_four_render_byte_identical(
        self, arch_serial, tmp_path, arch_shared_cases
    ):
        _, _, text = arch_serial
        _, parallel_text = run_arch_golden_arena(
            tmp_path / "store-j4", jobs=4, cases=arch_shared_cases
        )
        assert parallel_text == text

    def test_render_matches_committed_golden(self, arch_serial):
        _, _, text = arch_serial
        assert os.path.exists(ARCH_GOLDEN_PATH), (
            "arch golden snapshot missing; regenerate with "
            "`PYTHONPATH=src python tests/test_arena_golden.py --regen`"
        )
        with open(ARCH_GOLDEN_PATH) as handle:
            golden = handle.read()
        assert text == golden, (
            "rendered multi-arch matrices diverged from the committed "
            "snapshot; if intentional, regenerate with "
            "`PYTHONPATH=src python tests/test_arena_golden.py --regen`"
        )

    def test_each_arch_renders_its_own_block(self, arch_serial):
        _, _, text = arch_serial
        assert "arch=gcn" in text
        assert "arch=sage" in text

    def test_warm_resume_executes_zero_and_matches(
        self, arch_serial, arch_shared_cases
    ):
        root, _, text = arch_serial
        warm, warm_text = run_arch_golden_arena(
            root, jobs=1, cases=arch_shared_cases
        )
        assert warm.executed == 0
        assert warm_text == text


if __name__ == "__main__":
    if "--regen" in sys.argv:
        import tempfile

        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        for path, runner in (
            (GOLDEN_PATH, run_golden_arena),
            (ARCH_GOLDEN_PATH, run_arch_golden_arena),
        ):
            with tempfile.TemporaryDirectory() as tmp:
                _, text = runner(os.path.join(tmp, "store"), jobs=1)
            with open(path, "w") as handle:
                handle.write(text)
            print(f"wrote {path}:\n{text}")
    else:
        print(__doc__)
