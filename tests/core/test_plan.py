"""Tests for the repair-plan containers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.design import design_feature_plan
from repro.core.plan import FeaturePlan, RepairPlan
from repro.density.grid import InterpolationGrid
from repro.exceptions import ValidationError
from repro.ot.coupling import TransportPlan

from _dense import dense_feature_plan


@pytest.fixture
def feature_plan(rng):
    samples = {0: rng.normal(-1.0, 1.0, size=60),
               1: rng.normal(1.0, 1.0, size=80)}
    return design_feature_plan(samples, 20)


class TestFeaturePlan:
    def test_structure(self, feature_plan):
        assert feature_plan.grid.n_states == 20
        assert feature_plan.s_values == (0, 1)
        assert feature_plan.barycenter.sum() == pytest.approx(1.0)
        for s in (0, 1):
            assert feature_plan.marginals[s].sum() == pytest.approx(1.0)

    def test_conditional_cdfs(self, feature_plan):
        cdfs = feature_plan.conditional_cdfs(0)
        assert cdfs.shape == (20, 20)
        np.testing.assert_allclose(cdfs[:, -1], 1.0, atol=1e-9)
        assert np.all(np.diff(cdfs, axis=1) >= -1e-12)

    def test_conditional_cdfs_unknown_s(self, feature_plan):
        with pytest.raises(ValidationError, match="no transport plan"):
            feature_plan.conditional_cdfs(2)

    def test_sparse_conditional_cdfs_match_dense_and_memoise(self, rng):
        samples = {0: rng.normal(-1.0, 1.0, size=60),
                   1: rng.normal(1.0, 1.0, size=80)}
        sparse = design_feature_plan(samples, 20)
        dense = dense_feature_plan(sparse)
        for s in (0, 1):
            np.testing.assert_allclose(sparse.conditional_cdfs(s),
                                       dense.conditional_cdfs(s),
                                       atol=1e-12)
        # Repeated inspection queries reuse one memo entry per s, for
        # either storage, instead of rebuilding the table.
        for plan in (sparse, dense):
            first = plan.conditional_cdfs(0)
            assert plan.conditional_cdfs(0) is first
            assert set(plan._cdfs) == {0, 1}  # one entry per s queried
            assert plan._cdfs[0] is first

    def test_sampling_never_builds_cdf_tables(self, rng):
        samples = {0: rng.normal(-1.0, 1.0, size=60),
                   1: rng.normal(1.0, 1.0, size=80)}
        for plan in (design_feature_plan(samples, 20),
                     dense_feature_plan(design_feature_plan(samples, 20))):
            plan.sample_targets(0, rng.integers(0, 20, 100),
                                rng.random(100))
            assert plan._cdfs == {}

    def test_expected_targets_within_grid(self, feature_plan):
        targets = feature_plan.expected_targets(1)
        assert targets.shape == (20,)
        assert np.all(targets >= feature_plan.grid.low - 1e-9)
        assert np.all(targets <= feature_plan.grid.high + 1e-9)

    def test_expected_targets_monotone_for_exact_plans(self, feature_plan):
        # Monotone couplings yield monotone conditional-mean maps.
        for s in (0, 1):
            targets = feature_plan.expected_targets(s)
            assert np.all(np.diff(targets) >= -1e-9)

    def test_wrong_barycenter_length_rejected(self, feature_plan):
        with pytest.raises(ValidationError, match="barycenter"):
            FeaturePlan(grid=feature_plan.grid,
                        marginals=feature_plan.marginals,
                        barycenter=np.ones(3) / 3,
                        transports=feature_plan.transports)

    def test_wrong_transport_shape_rejected(self, feature_plan):
        bad = TransportPlan(np.ones((3, 3)) / 9, np.arange(3.0),
                            np.arange(3.0))
        with pytest.raises(ValidationError, match="transport"):
            FeaturePlan(grid=feature_plan.grid,
                        marginals=feature_plan.marginals,
                        barycenter=feature_plan.barycenter,
                        transports={0: bad, 1: bad})

    def test_non_plan_transport_rejected(self, feature_plan):
        with pytest.raises(ValidationError, match="TransportPlan"):
            FeaturePlan(grid=feature_plan.grid,
                        marginals=feature_plan.marginals,
                        barycenter=feature_plan.barycenter,
                        transports={0: np.eye(20), 1: np.eye(20)})


class TestRepairPlan:
    def test_structure(self, feature_plan):
        plan = RepairPlan(feature_plans={(0, 0): feature_plan,
                                         (1, 0): feature_plan},
                          n_features=1)
        assert plan.u_values == (0, 1)
        assert plan.covers(0) and plan.covers(1)
        assert not plan.covers(2)
        assert plan.total_states() == 40

    def test_feature_plan_lookup(self, feature_plan):
        plan = RepairPlan(feature_plans={(0, 0): feature_plan},
                          n_features=1)
        assert plan.feature_plan(0, 0) is feature_plan
        with pytest.raises(ValidationError, match="no plan designed"):
            plan.feature_plan(1, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            RepairPlan(feature_plans={}, n_features=1)

    def test_bad_key_rejected(self, feature_plan):
        with pytest.raises(ValidationError, match=r"\(u, k\)"):
            RepairPlan(feature_plans={"bad": feature_plan}, n_features=1)

    def test_incomplete_feature_coverage_rejected(self, feature_plan):
        with pytest.raises(ValidationError, match="cover"):
            RepairPlan(feature_plans={(0, 1): feature_plan},
                       n_features=2)
