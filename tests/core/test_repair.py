"""Tests for Algorithm 2 (off-sample repair) and the estimator API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.design import design_feature_plan, design_repair
from repro.core.repair import (DistributionalRepairer,
                               prepare_feature_repair, repair_dataset,
                               repair_feature_values)
from repro.data.simulated import paper_simulation_spec
from repro.data.streaming import ArchiveStream
from repro.exceptions import NotFittedError, ValidationError
from repro.metrics.fairness import conditional_dependence_energy

from _dense import dense_feature_plan


@pytest.fixture(params=["csr", "dense"])
def fitted_feature_plan(rng, request):
    """The exact design (CSR transports) and its dense copy: both
    storages must pass every Algorithm-2 check."""
    samples = {0: rng.normal(-1.0, 1.0, size=150),
               1: rng.normal(1.0, 1.0, size=200)}
    plan = design_feature_plan(samples, 40)
    if request.param == "dense":
        plan = dense_feature_plan(plan)
    assert all(transport.is_sparse == (request.param == "csr")
               for transport in plan.transports.values())
    return plan


class TestRepairFeatureValues:
    def test_output_on_grid_nodes(self, fitted_feature_plan, rng):
        values = rng.normal(-1.0, 1.0, size=50)
        repaired = repair_feature_values(values, fitted_feature_plan, 0,
                                         rng=rng)
        nodes = fitted_feature_plan.grid.nodes
        assert np.all(np.isin(repaired, nodes))

    def test_cardinality_preserved(self, fitted_feature_plan, rng):
        values = rng.normal(size=77)
        repaired = repair_feature_values(values, fitted_feature_plan, 1,
                                         rng=rng)
        assert repaired.shape == values.shape

    def test_empty_input(self, fitted_feature_plan, rng):
        out = repair_feature_values(np.array([]), fitted_feature_plan, 0,
                                    rng=rng)
        assert out.size == 0

    def test_repaired_distributions_converge(self, fitted_feature_plan,
                                             rng):
        # Both subgroups must be pushed toward the same barycentre.
        xs0 = rng.normal(-1.0, 1.0, size=4000)
        xs1 = rng.normal(1.0, 1.0, size=4000)
        rep0 = repair_feature_values(xs0, fitted_feature_plan, 0, rng=rng)
        rep1 = repair_feature_values(xs1, fitted_feature_plan, 1, rng=rng)
        assert abs(xs0.mean() - xs1.mean()) > 1.5
        assert abs(rep0.mean() - rep1.mean()) < 0.2

    def test_out_of_range_values_repaired_via_boundary(
            self, fitted_feature_plan, rng):
        values = np.array([-50.0, 50.0])
        repaired = repair_feature_values(values, fitted_feature_plan, 0,
                                         rng=rng)
        nodes = fitted_feature_plan.grid.nodes
        assert np.all(np.isin(repaired, nodes))

    def test_stochastic_rounding_uses_tau(self, rng):
        # With a two-row plan mapping row0 -> node0 and row1 -> node1, a
        # point at tau = 0.25 must choose row1 about 25% of the time.
        samples = {0: np.array([0.0] * 30 + [1.0] * 30),
                   1: np.array([0.0] * 30 + [1.0] * 30)}
        plan = design_feature_plan(samples, 2,
                                   marginal_estimator="linear")
        values = np.full(8000, 0.25)
        repaired = repair_feature_values(values, plan, 0, rng=rng)
        fraction_upper = np.mean(repaired == 1.0)
        # Symmetric marginals -> identity-ish plans; row choice shows
        # through directly.
        assert fraction_upper == pytest.approx(0.25, abs=0.05)

    def test_nearest_rounding_deterministic_rows(self, fitted_feature_plan,
                                                 rng):
        values = rng.normal(size=30)
        a = repair_feature_values(values, fitted_feature_plan, 0,
                                  rng=np.random.default_rng(0),
                                  rounding="nearest")
        b = repair_feature_values(values, fitted_feature_plan, 0,
                                  rng=np.random.default_rng(0),
                                  rounding="nearest")
        np.testing.assert_allclose(a, b)

    def test_barycentric_output_is_deterministic(self, fitted_feature_plan,
                                                 rng):
        values = rng.normal(size=25)
        a = repair_feature_values(values, fitted_feature_plan, 0,
                                  rounding="nearest", output="barycentric")
        b = repair_feature_values(values, fitted_feature_plan, 0,
                                  rounding="nearest", output="barycentric")
        np.testing.assert_allclose(a, b)

    def test_barycentric_output_not_restricted_to_nodes(
            self, fitted_feature_plan, rng):
        values = rng.normal(size=200)
        repaired = repair_feature_values(values, fitted_feature_plan, 0,
                                         rng=rng, output="barycentric")
        on_node = np.isin(repaired, fitted_feature_plan.grid.nodes)
        assert not np.all(on_node)

    def test_invalid_modes_rejected(self, fitted_feature_plan):
        with pytest.raises(ValidationError, match="rounding"):
            repair_feature_values([0.0], fitted_feature_plan, 0,
                                  rounding="round-robin")
        with pytest.raises(ValidationError, match="output"):
            repair_feature_values([0.0], fitted_feature_plan, 0,
                                  output="expectation")


class TestRepairDataset:
    def test_labels_untouched(self, paper_split, rng):
        plan = design_repair(paper_split.research, 30)
        repaired = repair_dataset(paper_split.archive, plan, rng=rng)
        np.testing.assert_array_equal(repaired.s, paper_split.archive.s)
        np.testing.assert_array_equal(repaired.u, paper_split.archive.u)
        assert len(repaired) == len(paper_split.archive)

    def test_feature_arity_checked(self, paper_split, rng):
        from repro.data.dataset import FairnessDataset
        plan = design_repair(paper_split.research, 30)
        bad = FairnessDataset(rng.normal(size=(10, 3)),
                              rng.integers(0, 2, 10),
                              rng.integers(0, 2, 10))
        with pytest.raises(ValidationError, match="features"):
            repair_dataset(bad, plan, rng=rng)

    def test_unknown_group_rejected(self, paper_split, rng):
        from repro.data.dataset import FairnessDataset
        plan = design_repair(paper_split.research, 30)
        alien = FairnessDataset(rng.normal(size=(6, 2)),
                                [0, 1, 0, 1, 0, 1],
                                [2, 2, 2, 2, 2, 2])
        with pytest.raises(ValidationError, match="no design"):
            repair_dataset(alien, plan, rng=rng)

    def test_reduces_conditional_dependence(self, rng):
        spec = paper_simulation_spec()
        split = spec.sample(4000, rng=rng).split(n_research=800, rng=rng)
        plan = design_repair(split.research, 40)
        repaired = repair_dataset(split.archive, plan, rng=rng)
        before = conditional_dependence_energy(
            split.archive.features, split.archive.s,
            split.archive.u).total
        after = conditional_dependence_energy(
            repaired.features, repaired.s, repaired.u).total
        assert after < before / 3.0


class TestDistributionalRepairer:
    def test_not_fitted_errors(self, paper_split):
        repairer = DistributionalRepairer()
        assert not repairer.is_fitted
        with pytest.raises(NotFittedError):
            repairer.transform(paper_split.archive)
        with pytest.raises(NotFittedError):
            _ = repairer.plan
        with pytest.raises(NotFittedError):
            list(repairer.transform_stream([paper_split.archive]))

    def test_fit_transform_round_trip(self, paper_split):
        repairer = DistributionalRepairer(n_states=25, rng=0)
        repaired = repairer.fit_transform(paper_split.research)
        assert repairer.is_fitted
        assert len(repaired) == len(paper_split.research)

    def test_transform_rng_override_reproducible(self, paper_split):
        repairer = DistributionalRepairer(n_states=25, rng=0)
        repairer.fit(paper_split.research)
        a = repairer.transform(paper_split.archive, rng=5)
        b = repairer.transform(paper_split.archive, rng=5)
        np.testing.assert_allclose(a.features, b.features)

    def test_invalid_modes_rejected_at_init(self):
        with pytest.raises(ValidationError):
            DistributionalRepairer(rounding="bogus")
        with pytest.raises(ValidationError):
            DistributionalRepairer(output="bogus")

    def test_transform_stream_matches_batchwise(self, paper_split):
        repairer = DistributionalRepairer(n_states=25, rng=0)
        repairer.fit(paper_split.research)
        stream = ArchiveStream(paper_split.archive, batch_size=256)
        batches = list(repairer.transform_stream(stream, rng=9))
        rebuilt = np.vstack([b.features for b in batches])
        assert rebuilt.shape == paper_split.archive.features.shape
        # Streaming is reproducible under the same seed ...
        again = np.vstack([
            b.features for b in repairer.transform_stream(
                ArchiveStream(paper_split.archive, batch_size=256),
                rng=9)])
        np.testing.assert_allclose(rebuilt, again)
        # ... and statistically consistent with the one-shot repair (the
        # RNG consumption order differs, so only distributions agree).
        direct = repairer.transform(paper_split.archive, rng=9)
        np.testing.assert_allclose(rebuilt.mean(axis=0),
                                   direct.features.mean(axis=0),
                                   atol=0.15)

    def test_transform_stream_accepts_plain_iterable(self, paper_split):
        repairer = DistributionalRepairer(n_states=25, rng=0)
        repairer.fit(paper_split.research)
        batches = list(repairer.transform_stream(
            [paper_split.archive.take(range(10))]))
        assert len(batches) == 1 and len(batches[0]) == 10

    def test_plan_metadata_via_estimator(self, paper_split):
        repairer = DistributionalRepairer(
            n_states=12, solver="exact", marginal_estimator="linear")
        repairer.fit(paper_split.research)
        assert repairer.plan.metadata["marginal_estimator"] == "linear"
        assert repairer.plan.feature_plan(0, 0).grid.n_states == 12


class TestPreparedFeatureRepair:
    """The pre-validated fast path: validate once, repair many times,
    bit-identical to ``repair_feature_values`` call-for-call."""

    @pytest.mark.parametrize("rounding,output", [
        ("stochastic", "sample"),
        ("nearest", "sample"),
        ("stochastic", "barycentric"),
        ("stochastic", "interpolated"),
        ("nearest", "interpolated"),
    ])
    def test_matches_slow_path_bitwise(self, fitted_feature_plan, rng,
                                       rounding, output):
        values = rng.normal(size=300)
        prepared = prepare_feature_repair(fitted_feature_plan, 0,
                                          rounding=rounding, output=output)
        fast = prepared(values, np.random.default_rng(17))
        slow = repair_feature_values(values, fitted_feature_plan, 0,
                                     rng=np.random.default_rng(17),
                                     rounding=rounding, output=output)
        np.testing.assert_array_equal(fast, slow)

    def test_sparse_plan_matches_slow_path(self, rng):
        # Screened designs produce CSR transports; the prepared sampler
        # must agree with the slow path there too.
        research = paper_simulation_spec().sample(400, rng=rng)
        plan = design_repair(research, 30, solver="screened")
        feature_plan = next(iter(plan.feature_plans.values()))
        values = rng.normal(size=120)
        prepared = prepare_feature_repair(feature_plan, 1)
        np.testing.assert_array_equal(
            prepared(values, np.random.default_rng(4)),
            repair_feature_values(values, feature_plan, 1,
                                  rng=np.random.default_rng(4)))

    def test_merged_apply_equals_separate_applies(self,
                                                  fitted_feature_plan,
                                                  rng):
        # The property micro-batching rests on: applying the kernel to a
        # concatenation of per-request (values, variates) equals the
        # per-request applications — the kernel is element-wise.
        prepared = prepare_feature_repair(fitted_feature_plan, 0,
                                          output="interpolated")
        chunks = [rng.normal(size=n) for n in (40, 25, 60)]
        variates = [prepared.draw(np.random.default_rng(seed), chunk.size)
                    for seed, chunk in enumerate(chunks)]
        separate = [prepared.apply(chunk, draw)
                    for chunk, draw in zip(chunks, variates)]
        merged = prepared.apply(
            np.concatenate(chunks),
            tuple(np.concatenate([draw[j] for draw in variates])
                  for j in range(3)))
        np.testing.assert_array_equal(merged, np.concatenate(separate))

    @pytest.mark.parametrize("rounding,output", [
        ("stochastic", "sample"),
        ("nearest", "sample"),
        ("stochastic", "barycentric"),
        ("nearest", "interpolated"),
    ])
    @pytest.mark.parametrize("size", [40, 600])
    def test_values_off_the_grid_repair_as_if_clipped(
            self, fitted_feature_plan, rng, rounding, output, size):
        # The kernel clips neither values nor tau: a value off the grid
        # must select the row its clipped value selects, on both sides
        # of the search crossover and as far out as a float goes.
        grid = fitted_feature_plan.grid
        span = grid.high - grid.low
        values = rng.uniform(grid.low - span, grid.high + span, size)
        values[:4] = [-1e300, 1e300, np.nextafter(grid.low, -np.inf),
                      np.nextafter(grid.high, np.inf)]
        prepared = prepare_feature_repair(fitted_feature_plan, 0,
                                          rounding=rounding, output=output)
        np.testing.assert_array_equal(
            prepared(values, np.random.default_rng(5)),
            prepared(np.clip(values, grid.low, grid.high),
                     np.random.default_rng(5)))

    def test_draw_consumes_stream_like_slow_path(self,
                                                 fitted_feature_plan):
        # Same generator state afterwards => drop-in inside the
        # repair_dataset loop without perturbing later cells.
        n = 64
        prepared = prepare_feature_repair(fitted_feature_plan, 0)
        fast_rng = np.random.default_rng(8)
        slow_rng = np.random.default_rng(8)
        prepared.draw(fast_rng, n)
        repair_feature_values(np.zeros(n), fitted_feature_plan, 0,
                              rng=slow_rng)
        assert fast_rng.random() == slow_rng.random()

    def test_seed_feeds_one_stream(self, fitted_feature_plan, rng):
        # An integer seed makes one generator for the whole call, so the
        # Bernoulli trial and the row draw take different uniforms.
        values = rng.normal(size=300)
        prepared = prepare_feature_repair(fitted_feature_plan, 0)
        np.testing.assert_array_equal(
            repair_feature_values(values, fitted_feature_plan, 0, rng=3),
            prepared(values, np.random.default_rng(3)))

    def test_empty_values(self, fitted_feature_plan):
        prepared = prepare_feature_repair(fitted_feature_plan, 0)
        out = prepared(np.array([]), np.random.default_rng(0))
        assert out.size == 0

    def test_nbytes_reports_owned_state(self, fitted_feature_plan):
        sample = prepare_feature_repair(fitted_feature_plan, 0)
        barycentric = prepare_feature_repair(fitted_feature_plan, 0,
                                             output="barycentric")
        assert sample.nbytes > 0
        # The sampler's running sums and row bounds outweigh the
        # expected-target vector.
        assert sample.nbytes > barycentric.nbytes

    def test_validation_happens_at_prepare_time(self,
                                                fitted_feature_plan):
        with pytest.raises(ValidationError, match="rounding"):
            prepare_feature_repair(fitted_feature_plan, 0,
                                   rounding="psychic")
        with pytest.raises(ValidationError, match="output"):
            prepare_feature_repair(fitted_feature_plan, 0,
                                   output="hologram")
        with pytest.raises(ValidationError):
            prepare_feature_repair(fitted_feature_plan, 7)


class TestConditionalCdfCaching:
    """Regression: Algorithm 2 must never write into the FeaturePlan's
    cached conditional-CDF array, and repeated repairs must not drift."""

    def test_repair_does_not_mutate_cached_cdfs(self, fitted_feature_plan,
                                                rng):
        snapshot = fitted_feature_plan.conditional_cdfs(0).copy()
        values = rng.normal(-1.0, 1.0, size=200)
        repair_feature_values(values, fitted_feature_plan, 0, rng=rng)
        repair_feature_values(values, fitted_feature_plan, 0, rng=rng)
        np.testing.assert_array_equal(
            fitted_feature_plan.conditional_cdfs(0), snapshot)

    def test_cdfs_cached_per_s(self, fitted_feature_plan):
        first = fitted_feature_plan.conditional_cdfs(1)
        assert fitted_feature_plan.conditional_cdfs(1) is first

    def test_repeated_repairs_are_distribution_identical(
            self, fitted_feature_plan):
        # Mutated cached CDFs would skew later draws; identical seeds must
        # keep producing identical repairs run after run.
        values = np.linspace(-2.0, 2.0, 100)
        first = repair_feature_values(
            values, fitted_feature_plan, 0,
            rng=np.random.default_rng(7))
        for _ in range(3):
            again = repair_feature_values(
                values, fitted_feature_plan, 0,
                rng=np.random.default_rng(7))
            np.testing.assert_array_equal(first, again)


class TestOneSamplingState:
    """A dense transport has one sampling state, kept with the plan: the
    Algorithm-2 kernels and ``sample_targets`` share it, and no kernel
    holds an ``(n_Q, n_Q)`` table."""

    def test_dense_design_shares_the_transport_sampler(self, paper_split):
        n_states = 30
        plan = design_repair(paper_split.research, n_states,
                             solver="sinkhorn")
        repair_dataset(paper_split.archive, plan,
                       rng=np.random.default_rng(0))
        rows = np.arange(n_states)
        for feature_plan in plan.feature_plans.values():
            for s, transport in feature_plan.transports.items():
                assert not transport.is_sparse
                feature_plan.sample_targets(s, rows, np.full(n_states, 0.5))
                kernel = feature_plan._kernels[(s, "stochastic", "sample")]
                assert kernel._sampler is transport.conditional_sampler()
                held = [getattr(kernel, name)
                        for name in type(kernel).__slots__]
                assert not any(np.ndim(value) == 2 for value in held)
                assert feature_plan._cdfs == {}


class TestSolverSpecs:
    def test_screened_solver_end_to_end(self, paper_split, rng):
        repairer = DistributionalRepairer(n_states=24, solver="screened",
                                          rng=rng)
        repaired = repairer.fit_transform(paper_split.research)
        before = conditional_dependence_energy(
            paper_split.research.features, paper_split.research.s,
            paper_split.research.u)
        after = conditional_dependence_energy(
            repaired.features, repaired.s, repaired.u)
        assert after.total < before.total

    def test_callable_solver_accepted(self, paper_split, rng):
        from repro.ot import solve

        def my_solver(problem):
            return solve(problem, method="exact")

        repairer = DistributionalRepairer(n_states=16, solver=my_solver,
                                          rng=rng)
        repairer.fit(paper_split.research)
        assert repairer.plan.metadata["solver"] == "my_solver"

    def test_unknown_solver_fails_at_construction(self):
        with pytest.raises(ValidationError, match="unknown solver"):
            DistributionalRepairer(solver="quantum")
