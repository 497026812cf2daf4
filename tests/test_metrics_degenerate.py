"""Degenerate-input hardening for the detection metrics.

The arena feeds :func:`repro.metrics.binary_auc` whatever a defense's
flags happen to be — including an empty victim set, a constant scorer
(``NoDefense``), or a cell where every victim is attacked (single-class
labels).  All of those must yield *defined* values the NaN-aware
aggregation can drop, never an exception.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics import binary_auc, detection_report
from repro.metrics.detection import average_ranks


class _EmptyExplanation:
    def ranking(self):
        return []


class TestBinaryAUC:
    def test_perfect_separation(self):
        assert binary_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_reversed_separation(self):
        assert binary_auc([0.1, 0.2, 0.9, 0.8], [1, 1, 0, 0]) == 0.0

    def test_constant_scores_are_chance(self):
        """NoDefense flags everything 0.0 → AUC must be exactly 0.5."""
        assert binary_auc([0.0] * 6, [1, 1, 1, 0, 0, 0]) == 0.5

    def test_partial_ties_average_ranks(self):
        # scores [1, 1, 0]: the positive ties one negative → rank 2.5.
        assert binary_auc([1.0, 1.0, 0.0], [1, 0, 0]) == pytest.approx(0.75)

    def test_known_mixed_value(self):
        auc = binary_auc([0.9, 0.3, 0.8, 0.1], [1, 1, 0, 0])
        assert auc == pytest.approx(0.75)  # 3 of 4 pairs concordant

    # -- degenerate inputs return defined values, never raise ---------------
    def test_empty_flag_set_is_nan(self):
        assert np.isnan(binary_auc([], []))

    def test_all_positive_labels_is_nan(self):
        assert np.isnan(binary_auc([0.4, 0.9], [1, 1]))

    def test_all_negative_labels_is_nan(self):
        assert np.isnan(binary_auc([0.4, 0.9], [0, 0]))

    def test_single_item_is_nan(self):
        assert np.isnan(binary_auc([0.7], [1]))

    def test_misaligned_inputs_raise(self):
        with pytest.raises(ValueError, match="align"):
            binary_auc([0.1, 0.2], [1])

    def test_accepts_generators(self):
        assert binary_auc(iter([1.0, 0.0]), iter([True, False])) == 1.0

    def test_numpy_inputs(self):
        scores = np.array([0.9, 0.1])
        labels = np.array([True, False])
        assert binary_auc(scores, labels) == 1.0


class TestAverageRanks:
    """``binary_auc``'s ranks are scipy's ``rankdata``, float for float."""

    @pytest.mark.parametrize(
        "values",
        [
            [0.3, -1.0, 2.5, 0.0, 7.0],
            [0.5, 0.1, 0.5, 0.9, 0.1, 0.5, 0.0],
            [0.0] * 6,
            [4.0],
            [],
            [1.0, np.nan, 0.0],
            np.random.default_rng(0).integers(0, 5, size=200).astype(float),
            np.random.default_rng(1).random(200),
        ],
        ids=[
            "untied",
            "tied",
            "all-equal",
            "single",
            "empty",
            "nan",
            "many-ties",
            "random",
        ],
    )
    def test_identical_to_scipy_rankdata(self, values):
        from scipy.stats import rankdata

        expected = rankdata(values)
        got = average_ranks(values)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected, equal_nan=True)


class TestDetectionReportDegenerate:
    def test_empty_explanation_is_defined(self):
        """A victim with no ranked edges yields finite/NaN values, no raise."""
        report = detection_report(_EmptyExplanation(), [(0, 1)], k=15)
        assert report["precision"] == 0.0
        assert report["recall"] == 0.0
        assert report["f1"] == 0.0
        assert report["ndcg"] == 0.0

    def test_no_adversarial_edges_is_nan_not_error(self):
        report = detection_report(_EmptyExplanation(), [], k=15)
        assert np.isnan(report["recall"])
        assert np.isnan(report["ndcg"])
