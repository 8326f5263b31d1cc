"""Tests for the joint (multivariate) distributional repair."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from repro.core.joint import (JointDistributionalRepairer,
                              design_joint_repair)
from repro.core.repair import DistributionalRepairer
from repro.data.simulated import GaussianMixtureSpec, paper_simulation_spec
from repro.exceptions import NotFittedError, ValidationError
from repro.metrics.fairness import conditional_dependence_energy
from repro.metrics.multivariate import correlation_gap, sliced_dependence


@pytest.fixture(scope="module")
def copula_split():
    """Unfairness hidden entirely in the correlation structure."""
    rho = 0.8
    spec = GaussianMixtureSpec(
        means={(u, s): [0.0, 0.0] for u in (0, 1) for s in (0, 1)},
        p_u0=0.5, p_s0_given_u={0: 0.4, 1: 0.4},
        covariances={(0, 0): [[1, rho], [rho, 1]],
                     (1, 0): [[1, rho], [rho, 1]],
                     (0, 1): [[1, -rho], [-rho, 1]],
                     (1, 1): [[1, -rho], [-rho, 1]]})
    return spec.sample(4000, rng=0).split(n_research=1500, rng=0)


class TestDesign:
    def test_plan_structure(self, copula_split):
        plan = design_joint_repair(copula_split.research, 8)
        assert plan.n_features == 2
        for u in (0, 1):
            group_plan = plan.group_plan(u)
            assert group_plan.shape == (8, 8)
            assert group_plan.n_states == 64
            assert group_plan.nodes.shape == (64, 2)
            for s in (0, 1):
                assert group_plan.marginals[s].sum() == pytest.approx(1.0)
                rows = group_plan.conditionals[s].sum(axis=1)
                np.testing.assert_allclose(rows, 1.0, atol=1e-9)

    def test_state_budget_enforced(self, copula_split):
        with pytest.raises(ValidationError, match="product grid"):
            design_joint_repair(copula_split.research, 200)

    def test_unknown_group_lookup(self, copula_split):
        plan = design_joint_repair(copula_split.research, 6)
        with pytest.raises(ValidationError, match="no joint plan"):
            plan.group_plan(9)


class TestRepair:
    def test_quenches_copula_dependence(self, copula_split):
        joint = JointDistributionalRepairer(n_states=12, rng=1)
        repaired = joint.fit(copula_split.research).transform(
            copula_split.archive)
        before = sliced_dependence(copula_split.archive.features,
                                   copula_split.archive.s,
                                   copula_split.archive.u, rng=0)
        after = sliced_dependence(repaired.features, repaired.s,
                                  repaired.u, rng=0)
        assert after < before / 2.0

    def test_collapses_correlation_gap(self, copula_split):
        joint = JointDistributionalRepairer(n_states=12, rng=1)
        repaired = joint.fit(copula_split.research).transform(
            copula_split.archive)
        gaps = correlation_gap(repaired.features, repaired.s, repaired.u)
        assert all(v < 0.3 for v in gaps.values())

    def test_per_feature_repair_cannot(self, copula_split):
        # The contrast that motivates the extension: per-feature repair
        # leaves the copula untouched.
        per_feature = DistributionalRepairer(n_states=30, rng=1)
        repaired = per_feature.fit(copula_split.research).transform(
            copula_split.archive)
        gaps = correlation_gap(repaired.features, repaired.s, repaired.u)
        assert all(v > 1.0 for v in gaps.values())

    def test_also_fixes_mean_shift_data(self):
        split = paper_simulation_spec().sample(2500, rng=3).split(
            n_research=900, rng=3)
        joint = JointDistributionalRepairer(n_states=12, rng=1)
        repaired = joint.fit(split.research).transform(split.archive)
        before = conditional_dependence_energy(
            split.archive.features, split.archive.s,
            split.archive.u).total
        after = conditional_dependence_energy(
            repaired.features, repaired.s, repaired.u).total
        assert after < before / 2.0

    def test_outputs_on_product_grid(self, copula_split):
        joint = JointDistributionalRepairer(n_states=8, rng=1)
        repaired = joint.fit(copula_split.research).transform(
            copula_split.archive)
        plan = joint.plan
        for u in (0, 1):
            group_nodes = plan.group_plan(u).nodes
            mask = repaired.u == u
            rows = repaired.features[mask]
            # Every repaired vector is one of the product-grid points.
            node_set = {tuple(np.round(node, 9)) for node in group_nodes}
            sample = rows[:: max(1, len(rows) // 50)]
            for row in sample:
                assert tuple(np.round(row, 9)) in node_set

    def test_labels_preserved(self, copula_split):
        joint = JointDistributionalRepairer(n_states=8, rng=1)
        repaired = joint.fit_transform(copula_split.research)
        np.testing.assert_array_equal(repaired.s,
                                      copula_split.research.s)
        np.testing.assert_array_equal(repaired.u,
                                      copula_split.research.u)


class TestApiContract:
    def test_not_fitted(self, copula_split):
        joint = JointDistributionalRepairer()
        assert not joint.is_fitted
        with pytest.raises(NotFittedError):
            joint.transform(copula_split.archive)
        with pytest.raises(NotFittedError):
            _ = joint.plan

    def test_feature_mismatch_rejected(self, copula_split, rng):
        from repro.data.dataset import FairnessDataset
        joint = JointDistributionalRepairer(n_states=6, rng=1)
        joint.fit(copula_split.research)
        bad = FairnessDataset(rng.normal(size=(5, 3)),
                              rng.integers(0, 2, 5),
                              rng.integers(0, 2, 5))
        with pytest.raises(ValidationError, match="features"):
            joint.transform(bad)

    def test_missing_class_rejected(self, rng):
        from repro.data.dataset import FairnessDataset
        data = FairnessDataset(rng.normal(size=(20, 2)),
                               np.ones(20, dtype=int),
                               np.zeros(20, dtype=int))
        with pytest.raises(ValidationError, match="lacks"):
            design_joint_repair(data, 6)

    def test_dense_conditionals_draw_like_their_csr_copy(self,
                                                          copula_split):
        # Entropic joint plans are dense; they sample through a
        # CSRSampler too, which only draws states with mass.
        group_plan = design_joint_repair(copula_split.research,
                                         8).group_plan(0)
        conditionals = group_plan.conditionals[0]
        assert not sparse.issparse(conditionals)
        csr_copy = replace(group_plan, conditionals={
            0: sparse.csr_array(conditionals)})
        rng = np.random.default_rng(3)
        rows = rng.integers(0, group_plan.n_states, 5000)
        draws = rng.random(5000)
        states = group_plan.sample_states(0, rows, draws)
        np.testing.assert_array_equal(
            states, csr_copy.sample_states(0, rows, draws))
        assert np.all(conditionals[rows, states] > 0.0)

    def test_reproducible_with_seed(self, copula_split):
        joint = JointDistributionalRepairer(n_states=8, rng=1)
        joint.fit(copula_split.research)
        a = joint.transform(copula_split.archive, rng=4)
        b = joint.transform(copula_split.archive, rng=4)
        np.testing.assert_allclose(a.features, b.features)
