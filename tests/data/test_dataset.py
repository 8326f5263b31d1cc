"""Tests for the FairnessDataset container."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.data.dataset import FairnessDataset
from repro.data.schema import TableSchema
from repro.exceptions import DataError, ValidationError


class TestConstruction:
    def test_basic(self, tiny_dataset):
        assert len(tiny_dataset) == 8
        assert tiny_dataset.n_features == 2
        assert tiny_dataset.feature_names == ("x0", "x1")

    def test_label_alignment_enforced(self):
        with pytest.raises(DataError, match="misaligned"):
            FairnessDataset(np.zeros((3, 1)), [0, 1], [0, 0, 1])

    def test_nonbinary_s_rejected(self):
        with pytest.raises(DataError, match="binary"):
            FairnessDataset(np.zeros((2, 1)), [0, 2], [0, 1])

    def test_negative_u_rejected(self):
        with pytest.raises(DataError, match="non-negative"):
            FairnessDataset(np.zeros((2, 1)), [0, 1], [0, -1])

    def test_y_validation(self):
        with pytest.raises(DataError, match="binary"):
            FairnessDataset(np.zeros((2, 1)), [0, 1], [0, 1], y=[0, 3])
        with pytest.raises(DataError, match="misaligned"):
            FairnessDataset(np.zeros((2, 1)), [0, 1], [0, 1], y=[0])

    def test_schema_arity_checked(self):
        schema = TableSchema.from_names(["a"])
        with pytest.raises(DataError, match="schema"):
            FairnessDataset(np.zeros((2, 2)), [0, 1], [0, 1], schema=schema)

    def test_multigroup_u_allowed(self):
        data = FairnessDataset(np.zeros((3, 1)), [0, 1, 0], [0, 1, 2])
        np.testing.assert_array_equal(data.u_values, [0, 1, 2])

    @pytest.mark.parametrize("labels", [
        {"s": [0.5, 1]}, {"s": [0, 1.9]}, {"u": [2.5, 0]},
        {"y": [0.5, 1]}, {"s": [np.nan, 1]},
    ], ids=["s=0.5", "s=1.9", "u=2.5", "y=0.5", "s=nan"])
    def test_fractional_or_nan_labels_rejected(self, labels):
        # Truncating them would repair the row with another group's plan.
        kwargs = {"s": [0, 1], "u": [0, 0], **labels}
        with pytest.raises(DataError, match="whole numbers"):
            FairnessDataset(np.zeros((2, 1)), **kwargs)

    def test_label_validation_allocates_little(self):
        # Checking 1M binary labels must not allocate ~17 bytes of
        # temporaries per label (np.isin did: 18 MB here).
        n = 1_000_000
        s = np.tile([0, 1], n // 2)
        u = np.zeros(n, dtype=int)
        features = np.zeros((n, 1))
        tracemalloc.start()
        try:
            data = FairnessDataset(features, s, u, y=s)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(data) == n
        assert peak - retained < 4 * 2**20

    def test_whole_float_labels_accepted(self):
        data = FairnessDataset(np.zeros((2, 1)), np.array([0.0, 1.0]),
                               np.array([2.0, 0.0]), y=np.array([1.0, 0.0]))
        for labels, expected in ((data.s, [0, 1]), (data.u, [2, 0]),
                                 (data.y, [1, 0])):
            assert labels.dtype.kind == "i"
            np.testing.assert_array_equal(labels, expected)


class TestSubsetting:
    def test_take_preserves_everything(self, tiny_dataset):
        subset = tiny_dataset.take([0, 2, 4])
        assert len(subset) == 3
        np.testing.assert_array_equal(subset.s, [0, 0, 0])
        np.testing.assert_array_equal(subset.y, [0, 1, 0])
        assert subset.schema is tiny_dataset.schema

    def test_with_features_swaps_matrix(self, tiny_dataset):
        new = tiny_dataset.with_features(tiny_dataset.features + 1.0)
        np.testing.assert_allclose(new.features,
                                   tiny_dataset.features + 1.0)
        np.testing.assert_array_equal(new.s, tiny_dataset.s)

    def test_concat(self, tiny_dataset):
        combined = tiny_dataset.concat(tiny_dataset)
        assert len(combined) == 16
        np.testing.assert_array_equal(combined.y[:8], tiny_dataset.y)

    def test_concat_arity_mismatch(self, tiny_dataset):
        other = FairnessDataset(np.zeros((2, 3)), [0, 1], [0, 1])
        with pytest.raises(DataError, match="arity"):
            tiny_dataset.concat(other)

    def test_concat_drops_y_if_one_side_missing(self, tiny_dataset):
        other = FairnessDataset(tiny_dataset.features, tiny_dataset.s,
                                tiny_dataset.u)  # no y
        combined = tiny_dataset.concat(other)
        assert combined.y is None


class TestGroups:
    def test_group_mask(self, tiny_dataset):
        mask = tiny_dataset.group_mask(0, 1)
        np.testing.assert_array_equal(
            mask, [False, True, False, True, False, False, False, False])

    def test_group_subset(self, tiny_dataset):
        group = tiny_dataset.group(1)
        assert len(group) == 4
        assert np.all(group.u == 1)

    def test_group_sizes(self, tiny_dataset):
        sizes = tiny_dataset.group_sizes()
        assert sizes == {(0, 0): 2, (0, 1): 2, (1, 0): 2, (1, 1): 2}

    def test_group_weights_sum_to_one(self, small_dataset):
        weights = small_dataset.group_weights()
        assert sum(weights.values()) == pytest.approx(1.0)


class TestSplit:
    def test_split_sizes(self, small_dataset, rng):
        split = small_dataset.split(n_research=60, rng=rng)
        assert split.n_research == 60
        assert split.n_archive == len(small_dataset) - 60
        assert split.research_fraction == pytest.approx(0.25)

    def test_split_fraction(self, small_dataset, rng):
        split = small_dataset.split(research_fraction=0.1, rng=rng)
        assert split.n_research == 24

    def test_split_is_partition(self, small_dataset, rng):
        split = small_dataset.split(n_research=50, rng=rng)
        total = np.vstack([split.research.features,
                           split.archive.features])
        original = np.sort(small_dataset.features, axis=0)
        np.testing.assert_allclose(np.sort(total, axis=0), original)

    def test_stratified_split_covers_groups(self, small_dataset, rng):
        split = small_dataset.split(n_research=40, stratify=True, rng=rng)
        original_groups = set(small_dataset.group_sizes())
        research_groups = set(split.research.group_sizes())
        assert research_groups == original_groups

    def test_stratified_proportions_approximate(self, rng):
        from repro.data.simulated import paper_simulation_spec
        data = paper_simulation_spec().sample(4000, rng=rng)
        split = data.split(n_research=400, stratify=True, rng=rng)
        for key, count in data.group_sizes().items():
            fraction = split.research.group_sizes()[key] / 400
            assert fraction == pytest.approx(count / 4000, abs=0.02)

    def test_unstratified_split(self, small_dataset, rng):
        split = small_dataset.split(n_research=30, stratify=False, rng=rng)
        assert split.n_research == 30

    def test_both_args_rejected(self, small_dataset):
        with pytest.raises(ValidationError, match="exactly one"):
            small_dataset.split(n_research=10, research_fraction=0.5)

    def test_no_args_rejected(self, small_dataset):
        with pytest.raises(ValidationError, match="exactly one"):
            small_dataset.split()

    def test_out_of_range_n_rejected(self, small_dataset):
        with pytest.raises(ValidationError):
            small_dataset.split(n_research=len(small_dataset))

    def test_deterministic_with_seed(self, small_dataset):
        a = small_dataset.split(n_research=50, rng=7)
        b = small_dataset.split(n_research=50, rng=7)
        np.testing.assert_allclose(a.research.features,
                                   b.research.features)
