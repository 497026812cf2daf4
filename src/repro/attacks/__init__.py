"""Adversarial attacks on GNNs: the paper's baselines and GEAttack.

=============  ====================================  ===========================
Name           Class                                 Paper role
=============  ====================================  ===========================
``RNA``        :class:`RandomAttack`                 weakest attacker baseline
``FGA``        :class:`FGA`                          untargeted gradient attack
``FGA-T``      :class:`FGATargeted`                  targeted gradient attack
``FGA-T&E``    :class:`FGATExplainerEvasion`         heuristic joint baseline
``Nettack``    :class:`Nettack`                      strongest classic attacker
``IG-Attack``  :class:`IGAttack`                     integrated gradients
``GEAttack``   :class:`GEAttack`                     the paper's contribution
=============  ====================================  ===========================

Extensions beyond the paper's table: :class:`GEAttackPG` (Section 5.3's
PGExplainer variant), :class:`Metattack` (global poisoning),
:class:`DICE` (label heuristic), and the feature-space pair
:class:`FeatureFGA` / :class:`GEFAttack` (the paper's named future work).
"""

from repro.attacks.base import (
    Attack,
    AttackResult,
    DenseGCNForward,
    VictimSpec,
    candidate_nodes,
    coerce_victim,
    record_trace,
    targeted_loss,
)
from repro.attacks.locality import (
    IdentityScene,
    LocalityScene,
    build_locality_scene,
)
from repro.attacks.dice import DICE
from repro.attacks.feature import (
    FeatureAttackResult,
    FeatureFGA,
    GEFAttack,
    graph_with_features_flipped,
)
from repro.attacks.fga import FGA, FGATargeted
from repro.attacks.fga_te import FGATExplainerEvasion
from repro.attacks.geattack import GEAttack, GEAttackPG, evasion_matrix
from repro.attacks.ig_attack import IGAttack
from repro.attacks.metattack import Metattack
from repro.attacks.nettack import (
    Nettack,
    degree_preserving_candidates,
    degree_test_statistic,
    estimate_powerlaw_alpha,
    powerlaw_log_likelihood,
)
from repro.attacks.random_attack import RandomAttack

#: Registry keyed by the names used in the paper's tables.
ATTACKS = {
    "RNA": RandomAttack,
    "FGA": FGA,
    "FGA-T": FGATargeted,
    "FGA-T&E": FGATExplainerEvasion,
    "Nettack": Nettack,
    "IG-Attack": IGAttack,
    "GEAttack": GEAttack,
}

#: Extension attacks beyond the paper's Table-1 columns.  Together with
#: :data:`ATTACKS` this is the full edge-attack surface of the library; the
#: differential locality harness (``tests/test_attack_locality.py``)
#: iterates ``{**ATTACKS, **EXTENSION_ATTACKS}``, so registering a new
#: attack here is enough to put it under equivalence and interface tests.
EXTENSION_ATTACKS = {
    "DICE": DICE,
    "GEAttack-PG": GEAttackPG,
    "Metattack": Metattack,
}

#: Feature-space attacks (same registration contract as above).
FEATURE_ATTACKS = {
    "FeatureFGA": FeatureFGA,
    "GEF-Attack": GEFAttack,
}


__all__ = [
    "ATTACKS",
    "EXTENSION_ATTACKS",
    "FEATURE_ATTACKS",
    "Attack",
    "AttackResult",
    "DICE",
    "DenseGCNForward",
    "IdentityScene",
    "LocalityScene",
    "VictimSpec",
    "build_locality_scene",
    "coerce_victim",
    "FGA",
    "FGATargeted",
    "FGATExplainerEvasion",
    "FeatureAttackResult",
    "FeatureFGA",
    "GEAttack",
    "GEFAttack",
    "GEAttackPG",
    "IGAttack",
    "Metattack",
    "Nettack",
    "RandomAttack",
    "candidate_nodes",
    "degree_preserving_candidates",
    "degree_test_statistic",
    "estimate_powerlaw_alpha",
    "evasion_matrix",
    "graph_with_features_flipped",
    "powerlaw_log_likelihood",
    "record_trace",
    "targeted_loss",
]
