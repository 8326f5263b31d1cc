"""Tests for archival streaming."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.repair import DistributionalRepairer, repair_dataset
from repro.data.dataset import FairnessDataset
from repro.data.schema import TableSchema
from repro.data.simulated import paper_simulation_spec
from repro.data.streaming import ArchiveStream, stream_batches
from repro.exceptions import ValidationError


class TestStreamBatches:
    def test_batch_sizes(self, small_dataset):
        batches = list(stream_batches(small_dataset, 100))
        assert [len(b) for b in batches] == [100, 100, 40]

    def test_order_preserved(self, small_dataset):
        batches = list(stream_batches(small_dataset, 64))
        rebuilt = np.vstack([b.features for b in batches])
        np.testing.assert_allclose(rebuilt, small_dataset.features)

    def test_single_giant_batch(self, small_dataset):
        batches = list(stream_batches(small_dataset, 10_000))
        assert len(batches) == 1
        assert len(batches[0]) == len(small_dataset)

    def test_invalid_batch_size(self, small_dataset):
        with pytest.raises(ValidationError):
            list(stream_batches(small_dataset, 0))


class TestArchiveStream:
    def test_dataset_source(self, small_dataset):
        stream = ArchiveStream(small_dataset, batch_size=50)
        batches = list(stream)
        assert sum(len(b) for b in batches) == len(small_dataset)

    def test_dataset_source_respects_max_batches(self, small_dataset):
        stream = ArchiveStream(small_dataset, batch_size=50, max_batches=2)
        assert len(list(stream)) == 2

    def test_reiterable_dataset_stream(self, small_dataset):
        stream = ArchiveStream(small_dataset, batch_size=100)
        assert len(list(stream)) == len(list(stream))

    def test_callable_source(self, rng):
        spec = paper_simulation_spec()

        def feed():
            return spec.sample(32, rng=rng)

        stream = ArchiveStream(feed, max_batches=5)
        batches = list(stream)
        assert len(batches) == 5
        assert all(len(b) == 32 for b in batches)

    def test_callable_requires_max_batches(self):
        with pytest.raises(ValidationError, match="max_batches"):
            ArchiveStream(lambda: None)

    def test_callable_must_return_dataset(self):
        stream = ArchiveStream(lambda: "nope", max_batches=1)
        with pytest.raises(ValidationError, match="FairnessDataset"):
            list(stream)

    def test_invalid_source_type(self):
        with pytest.raises(ValidationError, match="source"):
            ArchiveStream([1, 2, 3])


class TestZeroCopyBatches:
    """Batches of a materialised archive are read-only views of it: the
    archive was validated when it was built, so nothing is copied or
    checked again per batch."""

    @pytest.fixture
    def labelled(self, small_dataset):
        return FairnessDataset(
            small_dataset.features, small_dataset.s, small_dataset.u,
            small_dataset.features[:, 0] > 0,
            TableSchema.from_names(["income", "tenure"]))

    def test_batches_share_memory_with_the_archive(self, labelled):
        for batch in ArchiveStream(labelled, batch_size=64):
            for name in ("features", "s", "u", "y"):
                assert np.shares_memory(getattr(batch, name),
                                        getattr(labelled, name))

    def test_writes_through_a_batch_raise(self, labelled):
        batch = next(iter(stream_batches(labelled, 64)))
        for array in (batch.features, batch.s, batch.u, batch.y):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        # The archive itself stays writable.
        assert labelled.features.flags.writeable

    def test_labels_outcomes_and_schema_survive(self, labelled):
        batches = list(stream_batches(labelled, 64))
        for name in ("features", "s", "u", "y"):
            rebuilt = np.concatenate([getattr(b, name) for b in batches])
            np.testing.assert_array_equal(rebuilt, getattr(labelled, name))
            assert rebuilt.dtype == getattr(labelled, name).dtype
        assert all(b.schema is labelled.schema for b in batches)
        assert batches[0].feature_names == ("income", "tenure")

    def test_repair_over_views_matches_the_copying_path(self, rng):
        # transform_stream over the views against repair_dataset over
        # take() copies of the same rows, both driven by one generator:
        # every repaired value equal bitwise.  Batches of 2,048 rows put
        # each (u, s) subgroup past the crossover (the guide-table draw);
        # the last, short batch stays below it (the binary search).
        spec = paper_simulation_spec()
        research = spec.sample(500, rng=rng)
        archive = spec.sample(7_000, rng=rng)
        repairer = DistributionalRepairer(n_states=30).fit(research)
        viewed = np.vstack([
            batch.features for batch in repairer.transform_stream(
                ArchiveStream(archive, batch_size=2048), rng=11)])
        generator = np.random.default_rng(11)
        copied = np.vstack([
            repair_dataset(archive.take(np.arange(start,
                                                  min(start + 2048,
                                                      len(archive)))),
                           repairer.plan, rng=generator).features
            for start in range(0, len(archive), 2048)])
        assert viewed.shape == archive.features.shape
        np.testing.assert_array_equal(viewed.view(np.uint64),
                                      copied.view(np.uint64))
