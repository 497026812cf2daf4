"""Defenses against the attacks in :mod:`repro.attacks`.

Three philosophies from the literature, so the benchmarks can ask which
ones GEAttack's explainer-evasion does and does not bypass:

* explanation-based inspection (paper Section 3) — :class:`ExplainerDefense`
* feature-similarity filtering (GCN-Jaccard) — :class:`JaccardDefense`
* spectral purification (GCN-SVD) — :class:`SVDDefense`

All of them implement the shared :class:`Defense` protocol
(``preprocess(graph)`` / ``flag(graph, node)`` / defended ``predict``) and
are registered in :data:`DEFENSES` next to the identity
:class:`NoDefense` — so the robustness arena (:mod:`repro.arena`)
enumerates defenses exactly the way the differential harness enumerates
:data:`repro.attacks.ATTACKS`.  The registration contract: subclass
:class:`Defense`, declare ``config_params``, register; the registry
(:func:`repro.api.build_defense`) builds every entry as
``cls(model, **kwargs)``.
"""

from repro.defense.base import Defense, NoDefense
from repro.defense.inspector import ExplainerDefense, InspectionOutcome
from repro.defense.jaccard import JaccardDefense, jaccard_similarity
from repro.defense.svd import SVDDefense, low_rank_adjacency

#: Registry keyed by each defense's ``name`` attribute.  Registering a new
#: :class:`Defense` subclass here is enough to put it on the arena's
#: defense axis (and under the registry conformance tests); every entry
#: takes the model as its first constructor argument.
DEFENSES = {
    cls.name: cls
    for cls in (NoDefense, JaccardDefense, SVDDefense, ExplainerDefense)
}


__all__ = [
    "DEFENSES",
    "Defense",
    "ExplainerDefense",
    "InspectionOutcome",
    "JaccardDefense",
    "NoDefense",
    "SVDDefense",
    "jaccard_similarity",
    "low_rank_adjacency",
]
