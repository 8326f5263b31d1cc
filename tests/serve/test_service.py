"""Tests for the RepairService engine (bit-identity, caching, errors)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.design import design_repair
from repro.core.repair import repair_dataset
from repro.core.serialize import save_plan
from repro.data.dataset import FairnessDataset
from repro.exceptions import DataError, ValidationError
from repro.serve.service import RepairRequest, RepairService


@pytest.fixture(scope="module")
def designed():
    """One plan + matching query data, shared across the module."""
    rng = np.random.default_rng(42)
    n = 900
    u = rng.integers(0, 3, size=n)
    s = rng.integers(0, 2, size=n)
    features = rng.normal(size=(n, 2)) + s[:, None] * 0.8 + u[:, None] * 0.3
    research = FairnessDataset(features[:600], s[:600], u[:600])
    queries = FairnessDataset(features[600:], s[600:], u[600:])
    plan = design_repair(research, 16, t=0.5)
    return plan, queries


class TestBitIdentity:
    @pytest.mark.parametrize("rounding,output", [
        ("stochastic", "sample"),
        ("nearest", "sample"),
        ("stochastic", "barycentric"),
        ("stochastic", "interpolated"),
    ])
    def test_single_request_matches_offline(self, designed, rounding,
                                            output):
        plan, queries = designed
        service = RepairService(plan, rounding=rounding, output=output)
        reference = repair_dataset(queries, plan,
                                   rng=np.random.default_rng(7),
                                   rounding=rounding,
                                   output=output).features
        got = service.repair(queries, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(got, reference)

    def test_batched_requests_match_their_solo_references(self, designed):
        # The property the whole tier rests on: merging concurrent
        # requests into shared per-cell dispatches must not change any
        # response bit.
        plan, queries = designed
        service = RepairService(plan)
        slices = [slice(0, 80), slice(80, 210), slice(210, 300)]
        requests, references = [], []
        for seed, rows in enumerate(slices, start=1):
            subset = FairnessDataset(queries.features[rows],
                                     queries.s[rows], queries.u[rows])
            requests.append(RepairRequest(
                subset, np.random.default_rng(seed)))
            references.append(repair_dataset(
                subset, plan, rng=np.random.default_rng(seed)).features)
        results = service.repair_many(requests)
        for got, reference in zip(results, references):
            np.testing.assert_array_equal(got, reference)
        stats = service.stats()
        # Cells shared by several requests dispatched once, not thrice.
        assert stats["cell_items"] > stats["cell_dispatches"]

    def test_batched_equals_sequential(self, designed):
        plan, queries = designed
        batched = RepairService(plan)
        sequential = RepairService(plan)
        subsets = [FairnessDataset(queries.features[a:b], queries.s[a:b],
                                   queries.u[a:b])
                   for a, b in ((0, 100), (100, 250))]
        requests = [RepairRequest(subset, np.random.default_rng(seed))
                    for seed, subset in enumerate(subsets)]
        merged = batched.repair_many(requests)
        solo = [sequential.repair(subset, rng=np.random.default_rng(seed))
                for seed, subset in enumerate(subsets)]
        for a, b in zip(merged, solo):
            np.testing.assert_array_equal(a, b)


class TestFromPath:
    def test_plain_archive(self, designed, tmp_path):
        plan, queries = designed
        path = save_plan(plan, tmp_path / "plan.npz")
        service = RepairService.from_path(path, mmap=True)
        reference = repair_dataset(queries, plan,
                                   rng=np.random.default_rng(3)).features
        got = service.repair(queries, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(got, reference)

    def test_shard_manifest(self, designed, tmp_path):
        plan, queries = designed
        manifest = save_plan(plan, tmp_path / "sharded.npz", shard_by="u")
        service = RepairService.from_path(manifest, mmap=True,
                                          max_shards=2)
        reference = repair_dataset(queries, plan,
                                   rng=np.random.default_rng(3)).features
        got = service.repair(queries, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(got, reference)
        assert "shards" in service.stats()

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            RepairService.from_path(tmp_path / "nope.npz")


class TestCacheBehaviour:
    def test_cells_cached_across_requests(self, designed):
        plan, queries = designed
        service = RepairService(plan)
        service.repair(queries, rng=np.random.default_rng(0))
        first = service.stats()["cache"]
        service.repair(queries, rng=np.random.default_rng(1))
        second = service.stats()["cache"]
        assert second["misses"] == first["misses"]  # all warm now
        assert second["hits"] > first["hits"]

    def test_tiny_cache_evicts_and_still_answers_identically(self,
                                                             designed):
        plan, queries = designed
        roomy = RepairService(plan, cache_size=256)
        tiny = RepairService(plan, cache_size=1)
        a = roomy.repair(queries, rng=np.random.default_rng(5))
        b = tiny.repair(queries, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)
        assert tiny.stats()["cache"]["evictions"] > 0
        assert tiny.stats()["cache"]["size"] == 1


class TestValidationAndErrors:
    def test_feature_count_mismatch_is_isolated(self, designed):
        plan, queries = designed
        service = RepairService(plan)
        narrow = FairnessDataset(queries.features[:10, :1],
                                 queries.s[:10], queries.u[:10])
        good = FairnessDataset(queries.features[:10], queries.s[:10],
                               queries.u[:10])
        results = service.repair_many([
            RepairRequest(narrow, np.random.default_rng(0)),
            RepairRequest(good, np.random.default_rng(1))])
        assert isinstance(results[0], ValidationError)
        assert isinstance(results[1], np.ndarray)
        assert service.stats()["errors"] == 1

    def test_uncovered_group_rejected(self, designed):
        plan, queries = designed
        service = RepairService(plan)
        alien = FairnessDataset(queries.features[:6], queries.s[:6],
                                np.full(6, 99))
        with pytest.raises(ValidationError, match="u=\\[99\\]"):
            service.repair(alien)

    def test_bad_modes_rejected(self, designed):
        plan, _ = designed
        with pytest.raises(ValidationError, match="rounding"):
            RepairService(plan, rounding="psychic")
        with pytest.raises(ValidationError, match="output"):
            RepairService(plan, output="hologram")

    def test_non_plan_rejected(self):
        with pytest.raises(ValidationError, match="RepairPlan"):
            RepairService({"not": "a plan"})


class TestRequestPayloads:
    def test_round_trip(self, designed):
        _, queries = designed
        payload = {"features": queries.features[:5].tolist(),
                   "s": queries.s[:5].tolist(),
                   "u": queries.u[:5].tolist(), "seed": 11}
        request = RepairRequest.from_payload(payload)
        assert len(request.dataset) == 5
        # Seeded payloads must reproduce the seeded offline stream.
        expected = np.random.default_rng(11).random(4)
        np.testing.assert_array_equal(request.rng.random(4), expected)

    @pytest.mark.parametrize("payload,match", [
        ("not a dict", "JSON object"),
        ({"features": [[1.0]]}, "missing keys"),
        ({"features": [[1.0]], "s": [0], "u": [0], "seed": "x"}, "seed"),
        ({"features": [[1.0]], "s": [0], "u": [0], "seed": True}, "seed"),
        ({"features": [[np.nan]], "s": [0], "u": [0]}, "invalid"),
        ({"features": [[1.0], [2.0]], "s": [0], "u": [0]}, "invalid"),
    ])
    def test_bad_payloads_rejected(self, payload, match):
        with pytest.raises(DataError, match=match):
            RepairRequest.from_payload(payload)
