"""Tests for the RepairService engine (bit-identity, kernel reuse,
errors)."""

from __future__ import annotations

import re
import sys
import threading

import numpy as np
import pytest

from repro.core.design import design_repair
from repro.core.plan import FeaturePlan, RepairPlan
from repro.core.repair import repair_dataset
from repro.core.serialize import save_plan
from repro.data.dataset import FairnessDataset
from repro.density.grid import GUESS_CROSSOVER
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

    @pytest.mark.parametrize("rounding,output", [
        ("stochastic", "sample"),
        ("nearest", "sample"),
        ("stochastic", "barycentric"),
        ("stochastic", "interpolated"),
    ])
    def test_merged_dispatch_past_the_crossover(self, rounding, output):
        # Requests of 400+ rows whose cells merge past GUESS_CROSSOVER,
        # so the merged dispatch runs the guess-and-check kernels; the
        # offline references run them only where a request's own cell
        # crosses (the 1,200-row one), and the binary search elsewhere.
        rng = np.random.default_rng(11)
        n = 2650
        u = rng.integers(0, 2, size=n)
        s = rng.integers(0, 2, size=n)
        features = (rng.normal(size=(n, 2)) + s[:, None] * 0.8
                    + u[:, None] * 0.3)
        plan = design_repair(FairnessDataset(features[:600], s[:600],
                                             u[:600]), 40, t=0.5)
        bounds = (600, 1000, 1450, 2650)
        subsets = [FairnessDataset(features[a:b], s[a:b], u[a:b])
                   for a, b in zip(bounds, bounds[1:])]
        cells = [np.bincount(2 * d.u + d.s, minlength=4) for d in subsets]
        assert min(c.min() for c in cells) < GUESS_CROSSOVER
        assert max(c.min() for c in cells) >= GUESS_CROSSOVER
        assert sum(cells).min() >= GUESS_CROSSOVER
        service = RepairService(plan, rounding=rounding, output=output)
        requests = [RepairRequest(subset, np.random.default_rng(seed))
                    for seed, subset in enumerate(subsets)]
        results = service.repair_many(requests)
        assert service.stats()["cell_dispatches"] == 4 * plan.n_features
        for seed, (got, subset) in enumerate(zip(results, subsets)):
            reference = repair_dataset(
                subset, plan, rng=np.random.default_rng(seed),
                rounding=rounding, output=output).features
            np.testing.assert_array_equal(got.view(np.uint64),
                                          reference.view(np.uint64))

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


class TestMergedSubgroups:
    def test_requests_over_different_subgroups_match_lone_repairs(
            self, designed):
        # The shared loop walks the union of the batch's (u, s, k)
        # cells; a request missing some of them must still consume its
        # generator as a lone repair_dataset call does, and a bad
        # request anywhere in the batch fails alone.
        plan, queries = designed
        assert len(plan.u_values) == 3
        labels = 2 * queries.u + queries.s
        subgroups = np.unique(labels)
        rng = np.random.default_rng(2024)
        for trial in range(20):
            requests, references, cells = [], [], set()
            for seed in range(int(rng.integers(3, 7))):
                chosen = rng.choice(subgroups, replace=False,
                                    size=int(rng.integers(1, 4)))
                pool = np.flatnonzero(np.isin(labels, chosen))
                size = 1 if seed == 1 else int(rng.integers(2, 60))
                subset = queries.take(np.sort(rng.choice(
                    pool, size=min(size, pool.size), replace=False)))
                requests.append(RepairRequest(
                    subset, np.random.default_rng(100 * trial + seed)))
                references.append(repair_dataset(
                    subset, plan,
                    rng=np.random.default_rng(100 * trial + seed)).features)
                cells |= {(u, s, k) for u, s in zip(subset.u, subset.s)
                          for k in range(plan.n_features)}
            bad_at = int(rng.integers(len(requests) + 1))
            if trial % 2:
                bad = FairnessDataset(queries.features[:5], queries.s[:5],
                                      np.full(5, 99))
            else:
                bad = FairnessDataset(queries.features[:5, :1],
                                      queries.s[:5], queries.u[:5])
            requests.insert(bad_at, RepairRequest(bad))
            references.insert(bad_at, None)
            service = RepairService(plan)
            results = service.repair_many(requests)
            for got, reference in zip(results, references):
                if reference is None:
                    assert isinstance(got, ValidationError)
                else:
                    np.testing.assert_array_equal(
                        got.view(np.uint64), reference.view(np.uint64))
            assert service.stats()["cell_dispatches"] == len(cells)


class TestFromPath:
    def test_plain_archive(self, designed, tmp_path):
        plan, queries = designed
        path = save_plan(plan, tmp_path / "plan.npz")
        service = RepairService.from_path(path, mmap=True)
        reference = repair_dataset(queries, plan,
                                   rng=np.random.default_rng(3)).features
        got = service.repair(queries, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(got, reference)

    def test_corrupt_cell_fails_only_its_requests(self, designed,
                                                  tmp_path):
        # A mapped archive builds each cell on its first request, so a
        # cell whose plan mass is NaN fails the requests that touch it
        # with the cell's DataError, and every other group still serves
        # bitwise like the offline repair.
        plan, queries = designed
        path = save_plan(plan, tmp_path / "plan.npz")
        bad_u = plan.u_values[0]
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        corrupt = [key for key in arrays if re.fullmatch(
            rf"cell_{bad_u}_0_plan_\d+(_data)?", key)]
        assert corrupt
        for key in corrupt:
            arrays[key] = np.full_like(arrays[key], np.nan)
        np.savez(path, **arrays)
        service = RepairService.from_path(path, mmap=True)
        touched = queries.u == bad_u
        bad = queries.take(np.flatnonzero(touched)[:40])
        good = queries.take(np.flatnonzero(~touched)[:40])
        for _ in range(2):
            results = service.repair_many([
                RepairRequest(bad, np.random.default_rng(0)),
                RepairRequest(good, np.random.default_rng(1))])
            assert isinstance(results[0], DataError)
            assert "non-finite" in str(results[0])
            offline = repair_dataset(good, plan,
                                     rng=np.random.default_rng(1)).features
            np.testing.assert_array_equal(results[1].view(np.uint64),
                                          offline.view(np.uint64))
        stats = service.stats()
        assert (stats["requests"], stats["errors"]) == (4, 2)

    def test_corrupt_csr_cell_fails_only_its_requests(self, designed,
                                                      tmp_path):
        # A column index past the grid used to pass the load and the
        # cell build, then raise IndexError inside the merged dispatch
        # and fail every request in it.  The cell is now a DataError
        # when first built, before any request's randomness is drawn.
        plan, queries = designed
        path = save_plan(plan, tmp_path / "plan.npz")
        bad_u = plan.u_values[0]
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        key = f"cell_{bad_u}_0_plan_0_indices"
        arrays[key] = arrays[key].copy()
        arrays[key][-1] = 10_000
        np.savez(path, **arrays)
        service = RepairService.from_path(path, mmap=True)
        touched = (queries.u == bad_u) & (queries.s == 0)
        bad = queries.take(np.flatnonzero(touched))
        good = queries.take(np.flatnonzero(queries.u != bad_u))
        results = service.repair_many([
            RepairRequest(bad, np.random.default_rng(0)),
            RepairRequest(good, np.random.default_rng(1))])
        assert isinstance(results[0], DataError)
        assert "column indices" in str(results[0])
        offline = repair_dataset(good, plan,
                                 rng=np.random.default_rng(1)).features
        np.testing.assert_array_equal(results[1].view(np.uint64),
                                      offline.view(np.uint64))

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


class TestConcurrency:
    def test_threads_on_cold_kernels_match_offline_and_count_exactly(
            self, designed):
        # Kernels come from the plan's own memo, which takes no lock:
        # threads racing on a cold cell may each build its kernel, but
        # every response must stay bitwise the offline repair, and no
        # counter update may be lost.
        plan, queries = designed
        cold = RepairPlan(
            {key: FeaturePlan(cell.grid, cell.marginals, cell.barycenter,
                              cell.transports)
             for key, cell in plan.feature_plans.items()},
            plan.n_features, plan.t)
        subsets = [queries.take(np.arange(i, len(queries), 5))
                   for i in range(5)]
        references = [repair_dataset(subset, plan,
                                     rng=np.random.default_rng(i)).features
                      for i, subset in enumerate(subsets)]
        service = RepairService(cold)
        n_threads, rounds, failures = 4, 12, []

        def client(thread):
            for step in range(rounds):
                i = (thread + step) % len(subsets)
                try:
                    got = service.repair(subsets[i],
                                         rng=np.random.default_rng(i))
                except Exception as exc:  # recorded, then asserted on
                    failures.append(exc)
                    continue
                if not np.array_equal(got.view(np.uint64),
                                      references[i].view(np.uint64)):
                    failures.append((thread, step))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(n,))
                       for n in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        stats = service.stats()
        assert stats["requests"] == n_threads * rounds
        lookups = sum(
            len(set(zip(subsets[(n + step) % len(subsets)].u,
                        subsets[(n + step) % len(subsets)].s)))
            for n in range(n_threads) for step in range(rounds))
        lookups *= plan.n_features
        cache = stats["cache"]
        assert cache["hits"] + cache["misses"] == lookups
        assert cache["misses"] >= 6 * plan.n_features  # every cell built


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

    def test_missing_transport_is_isolated(self, designed):
        # Hand-built plans and loaded archives can lack a protected
        # class: here group u = 1 has no transport for s = 1.  A request
        # with rows in that cell fails alone; the request merged with it
        # is served bitwise like the offline repair.
        plan, queries = designed
        partial = RepairPlan(
            {(u, k): (FeaturePlan(cell.grid, cell.marginals,
                                  cell.barycenter, {0: cell.transports[0]})
                      if u == 1 else cell)
             for (u, k), cell in plan.feature_plans.items()},
            plan.n_features, plan.t, plan.metadata)
        uncovered = (queries.u == 1) & (queries.s == 1)
        bad = queries.take(np.arange(40))
        good = queries.take(np.flatnonzero(~uncovered)[:40])
        assert uncovered[:40].any()
        service = RepairService(partial)
        results = service.repair_many([
            RepairRequest(bad, np.random.default_rng(0)),
            RepairRequest(good, np.random.default_rng(1))])
        assert isinstance(results[0], ValidationError)
        assert "no transport plan for s=1" in str(results[0])
        offline = repair_dataset(good, partial,
                                 rng=np.random.default_rng(1)).features
        np.testing.assert_array_equal(results[1].view(np.uint64),
                                      offline.view(np.uint64))
        stats = service.stats()
        assert (stats["requests"], stats["errors"]) == (2, 1)

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
        ({"features": [[1.0], [2.0]], "s": [0.5, 0.99], "u": [0, 1]},
         "whole numbers"),
        ({"features": [[1.0], [2.0]], "s": [0, 1], "u": [0.2, 1.7]},
         "whole numbers"),
    ])
    def test_bad_payloads_rejected(self, payload, match):
        with pytest.raises(DataError, match=match):
            RepairRequest.from_payload(payload)
