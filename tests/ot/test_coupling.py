"""Tests for the TransportPlan container."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import ValidationError
from repro.ot.coupling import (SPARSE_DENSITY_THRESHOLD, CSRSampler,
                               TransportPlan, is_coupling, is_sparse_enough,
                               marginal_residual)


@pytest.fixture
def simple_plan():
    matrix = np.array([[0.2, 0.1], [0.0, 0.7]])
    return TransportPlan(matrix, [0.0, 1.0], [0.0, 1.0])


@pytest.fixture
def banded_matrix(rng):
    """A 30x30 near-monotone plan with ~3 entries per row."""
    n = 30
    matrix = np.zeros((n, n))
    for i in range(n):
        cols = np.clip(np.arange(i - 1, i + 2), 0, n - 1)
        matrix[i, cols] = rng.random(cols.size) + 0.05
    return matrix / matrix.sum()


class TestConstruction:
    def test_marginals(self, simple_plan):
        np.testing.assert_allclose(simple_plan.source_weights, [0.3, 0.7])
        np.testing.assert_allclose(simple_plan.target_weights, [0.2, 0.8])

    def test_supports_promoted_to_2d(self, simple_plan):
        assert simple_plan.source_support.shape == (2, 1)
        assert simple_plan.target_support.shape == (2, 1)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            TransportPlan(np.array([[-0.5, 0.5], [0.5, 0.5]]),
                          [0.0, 1.0], [0.0, 1.0])

    def test_support_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="points"):
            TransportPlan(np.eye(2) / 2, [0.0, 1.0, 2.0], [0.0, 1.0])

    def test_non_2d_matrix_rejected(self):
        with pytest.raises(ValidationError, match="2-D"):
            TransportPlan(np.zeros(3), [0.0, 1.0, 2.0], [0.0])

    def test_nonfinite_support_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            TransportPlan(np.eye(2) / 2, [0.0, np.nan], [0.0, 1.0])


class TestVerify:
    def test_verify_accepts_true_marginals(self, simple_plan):
        simple_plan.verify([0.3, 0.7], [0.2, 0.8])

    def test_verify_rejects_wrong_marginals(self, simple_plan):
        with pytest.raises(ValidationError, match="coupling constraints"):
            simple_plan.verify([0.5, 0.5], [0.2, 0.8])

    def test_verify_rejects_wrong_shape(self, simple_plan):
        with pytest.raises(ValidationError, match="incompatible"):
            simple_plan.verify([0.3, 0.4, 0.3], [0.2, 0.8])


class TestOperations:
    def test_conditional_row_normalised(self, simple_plan):
        row = simple_plan.conditional_row(0)
        np.testing.assert_allclose(row.sum(), 1.0)
        np.testing.assert_allclose(row, [2.0 / 3.0, 1.0 / 3.0])

    def test_conditional_row_zero_mass_falls_back_to_nearest(self):
        matrix = np.array([[0.0, 0.0], [0.5, 0.5]])
        plan = TransportPlan(matrix, [0.0, 10.0], [1.0, 9.0])
        row = plan.conditional_row(0)
        np.testing.assert_allclose(row, [1.0, 0.0])  # 1.0 is nearest to 0.0

    def test_conditional_matrix_rows_sum_to_one(self, simple_plan):
        conditionals = simple_plan.conditional_matrix()
        np.testing.assert_allclose(conditionals.sum(axis=1), 1.0)

    def test_barycentric_projection(self, simple_plan):
        projected = simple_plan.barycentric_projection()
        # Row 0: (0.2 * 0 + 0.1 * 1) / 0.3; row 1: all mass on target 1.
        np.testing.assert_allclose(projected.ravel(), [1.0 / 3.0, 1.0])

    def test_expected_cost(self, simple_plan):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert simple_plan.expected_cost(cost) == pytest.approx(0.1)

    def test_expected_cost_shape_mismatch(self, simple_plan):
        with pytest.raises(ValidationError, match="cost shape"):
            simple_plan.expected_cost(np.zeros((3, 3)))

    def test_transpose_swaps_marginals(self, simple_plan):
        reverse = simple_plan.transpose()
        np.testing.assert_allclose(reverse.source_weights,
                                   simple_plan.target_weights)
        np.testing.assert_allclose(reverse.matrix, simple_plan.matrix.T)


class TestSparseStorage:
    """The CSR-backed mode must agree operation-for-operation with dense."""

    @pytest.fixture
    def pair(self, banded_matrix):
        nodes = np.linspace(0.0, 1.0, banded_matrix.shape[0])
        dense = TransportPlan(banded_matrix, nodes, nodes, 0.25)
        return dense, dense.to_sparse()

    def test_storage_flags(self, pair):
        dense, sparse_plan = pair
        assert not dense.is_sparse and sparse_plan.is_sparse
        assert sparse_plan.nnz == dense.nnz
        assert sparse_plan.density == pytest.approx(dense.density)
        assert sparse_plan.density < SPARSE_DENSITY_THRESHOLD
        assert not sparse_plan.to_dense().is_sparse
        np.testing.assert_array_equal(sparse_plan.toarray(), dense.matrix)

    def test_from_sparse_triplet(self, pair):
        dense, sparse_plan = pair
        m = sparse_plan.matrix
        rebuilt = TransportPlan.from_sparse(
            (m.data, m.indices, m.indptr), sparse_plan.source_support,
            sparse_plan.target_support, 0.25, shape=m.shape)
        assert rebuilt.is_sparse
        np.testing.assert_array_equal(rebuilt.toarray(), dense.matrix)

    def test_from_sparse_triplet_needs_shape(self, pair):
        _, sparse_plan = pair
        m = sparse_plan.matrix
        with pytest.raises(ValidationError, match="shape"):
            TransportPlan.from_sparse((m.data, m.indices, m.indptr),
                                      sparse_plan.source_support,
                                      sparse_plan.target_support)

    def test_marginals_match(self, pair):
        dense, sparse_plan = pair
        np.testing.assert_allclose(sparse_plan.source_weights,
                                   dense.source_weights)
        np.testing.assert_allclose(sparse_plan.target_weights,
                                   dense.target_weights)
        sparse_plan.verify(dense.source_weights, dense.target_weights)

    def test_conditionals_match_and_stay_sparse(self, pair):
        dense, sparse_plan = pair
        conditionals = sparse_plan.conditional_matrix()
        assert sparse.issparse(conditionals)
        np.testing.assert_allclose(np.asarray(conditionals.todense()),
                                   dense.conditional_matrix(), atol=1e-15)
        for i in (0, 7, 29):
            np.testing.assert_allclose(sparse_plan.conditional_row(i),
                                       dense.conditional_row(i))

    def test_zero_row_fallback_matches(self, rng):
        matrix = np.array([[0.0, 0.0, 0.0], [0.2, 0.3, 0.0],
                           [0.0, 0.1, 0.4]])
        nodes = np.array([0.0, 5.0, 10.0])
        dense = TransportPlan(matrix, nodes, nodes)
        sparse_plan = dense.to_sparse()
        np.testing.assert_allclose(
            np.asarray(sparse_plan.conditional_matrix().todense()),
            dense.conditional_matrix())
        # Row 0 is empty: both point-mass on the nearest target (node 0).
        np.testing.assert_allclose(dense.conditional_matrix()[0],
                                   [1.0, 0.0, 0.0])

    def test_conditional_matrix_leaves_the_plan_intact(self):
        # Row 0 holds only an explicitly stored zero, so it takes the
        # zero-mass fallback, whose compaction must run on copies and
        # never on the plan's own arrays.
        matrix = sparse.csr_array(
            (np.array([0.0, 0.5, 0.5]), np.array([1, 0, 2]),
             np.array([0, 1, 2, 3])), shape=(3, 3))
        nodes = np.array([0.0, 5.0, 10.0])
        plan = TransportPlan(matrix, nodes, nodes)
        arrays = (plan.matrix.data, plan.matrix.indices, plan.matrix.indptr)
        before = [array.copy() for array in arrays]
        conditionals = plan.conditional_matrix()
        for array, saved in zip(arrays, before):
            np.testing.assert_array_equal(array, saved)
        np.testing.assert_array_equal(
            plan.toarray(), [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0],
                             [0.0, 0.0, 0.5]])
        np.testing.assert_array_equal(
            conditionals.toarray(), [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                     [0.0, 0.0, 1.0]])

    def test_read_only_plan_supports_every_operation(self):
        # A plan over read-only arrays (a mapped archive's views) must
        # serve every operation without writing them.
        matrix = sparse.csr_array(
            (np.array([0.0, 0.5, 0.5]), np.array([1, 0, 2]),
             np.array([0, 1, 2, 3])), shape=(3, 3))
        nodes = np.array([0.0, 5.0, 10.0])
        plan = TransportPlan(matrix, nodes, nodes)
        for array in (plan.matrix.data, plan.matrix.indices,
                      plan.matrix.indptr):
            array.flags.writeable = False
        np.testing.assert_array_equal(
            plan.conditional_matrix().toarray(),
            [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(plan.barycentric_projection().ravel(),
                                      [0.0, 0.0, 10.0])
        np.testing.assert_array_equal(
            plan.sample_conditional([0, 1, 2], [0.5, 0.5, 0.5]), [0, 0, 2])
        np.testing.assert_array_equal(plan.conditional_row(0),
                                      [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(plan.source_weights, [0.0, 0.5, 0.5])

    def test_dense_projection_is_its_csr_copys_bitwise(self, rng):
        # Both storages project through the CSR conditionals, so the
        # barycentric output never depends on how a plan is stored.
        matrix = rng.random((64, 64))
        nodes = np.linspace(-1.0, 3.0, 64)
        dense = TransportPlan(matrix / matrix.sum(), nodes, nodes)
        got = dense.barycentric_projection()
        want = dense.to_sparse().barycentric_projection()
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64))

    def test_barycentric_projection_matches(self, pair):
        dense, sparse_plan = pair
        np.testing.assert_allclose(sparse_plan.barycentric_projection(),
                                   dense.barycentric_projection(),
                                   atol=1e-15)

    def test_expected_cost_matches(self, pair, rng):
        dense, sparse_plan = pair
        cost = rng.random(dense.shape)
        assert sparse_plan.expected_cost(cost) == pytest.approx(
            dense.expected_cost(cost))

    def test_transpose_keeps_sparsity(self, pair):
        dense, sparse_plan = pair
        reverse = sparse_plan.transpose()
        assert reverse.is_sparse
        np.testing.assert_array_equal(reverse.toarray(), dense.matrix.T)

    def test_negative_sparse_entries_rejected(self):
        matrix = sparse.csr_array(np.array([[-0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValidationError, match="non-negative"):
            TransportPlan(matrix, [0.0, 1.0], [0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_non_finite_mass_rejected(self, bad, storage):
        # NaN slips through a `< -atol` test (it compares false), so
        # finiteness is checked on its own, in both storages.
        matrix = np.array([[0.25, 0.25], [bad, 0.5]])
        if storage == "csr":
            matrix = sparse.csr_array(matrix)
        with pytest.raises(ValidationError, match="non-finite"):
            TransportPlan(matrix, [0.0, 1.0], [0.0, 1.0])

    def test_helpers_accept_sparse(self, pair):
        dense, sparse_plan = pair
        mu, nu = dense.source_weights, dense.target_weights
        assert marginal_residual(sparse_plan.matrix, mu,
                                 nu) == pytest.approx(0.0)
        assert is_coupling(sparse_plan.matrix, mu, nu)
        assert not is_coupling(sparse_plan.matrix, np.roll(mu, 1), nu)


class TestConditionalSampling:
    def test_dense_draws_what_its_csr_copy_draws(self, banded_matrix, rng):
        nodes = np.linspace(0.0, 1.0, banded_matrix.shape[0])
        dense = TransportPlan(banded_matrix, nodes, nodes)
        sparse_plan = dense.to_sparse()
        rows = rng.integers(0, 30, size=500)
        draws = rng.random(500)
        np.testing.assert_array_equal(
            dense.sample_conditional(rows, draws),
            sparse_plan.sample_conditional(rows, draws))

    def test_sampler_kept_with_the_plan(self, banded_matrix):
        nodes = np.linspace(0.0, 1.0, banded_matrix.shape[0])
        for plan in (TransportPlan(banded_matrix, nodes, nodes),
                     TransportPlan(banded_matrix, nodes, nodes).to_sparse()):
            assert plan.conditional_sampler() is plan.conditional_sampler()

    def test_extreme_draws_stay_in_row_support(self, banded_matrix):
        nodes = np.linspace(0.0, 1.0, banded_matrix.shape[0])
        plan = TransportPlan(banded_matrix, nodes, nodes)
        rows = np.arange(30)
        lo_states = plan.sample_conditional(rows, np.full(30, 1e-12))
        hi_states = plan.sample_conditional(rows, np.ones(30) - 1e-12)
        for r, state in zip(rows, lo_states):
            assert banded_matrix[r, state] > 0.0
        for r, state in zip(rows, hi_states):
            assert banded_matrix[r, state] > 0.0

    def test_sampler_accepts_dense_conditionals(self, banded_matrix, rng):
        nodes = np.linspace(0.0, 1.0, banded_matrix.shape[0])
        conditionals = TransportPlan(banded_matrix, nodes,
                                     nodes).conditional_matrix()
        rows = rng.integers(0, 30, size=200)
        draws = rng.random(200)
        np.testing.assert_array_equal(
            CSRSampler(conditionals).sample(rows, draws),
            CSRSampler(sparse.csr_array(conditionals)).sample(rows, draws))

    def test_empty_rows_rejected(self):
        conditionals = sparse.csr_array(
            np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValidationError, match="empty rows"):
            CSRSampler(conditionals)


class TestStoragePredicate:
    def test_threshold_is_inclusive(self):
        matrix = np.zeros((4, 4))
        matrix.flat[:4] = 1.0  # density exactly at the threshold
        assert 4 / 16 == SPARSE_DENSITY_THRESHOLD
        assert is_sparse_enough(matrix)
        assert is_sparse_enough(sparse.csr_array(matrix))
        matrix.flat[4] = 1.0
        assert not is_sparse_enough(matrix)
        assert not is_sparse_enough(sparse.csr_array(matrix))


class TestHelpers:
    def test_marginal_residual_zero_for_exact(self, simple_plan):
        assert marginal_residual(simple_plan.matrix, [0.3, 0.7],
                                 [0.2, 0.8]) == pytest.approx(0.0)

    def test_is_coupling_true(self, simple_plan):
        assert is_coupling(simple_plan.matrix, np.array([0.3, 0.7]),
                           np.array([0.2, 0.8]))

    def test_is_coupling_false_on_negative(self):
        matrix = np.array([[-0.1, 0.6], [0.3, 0.2]])
        assert not is_coupling(matrix, np.array([0.5, 0.5]),
                               np.array([0.2, 0.8]))

    def test_is_coupling_false_on_marginal_violation(self, simple_plan):
        assert not is_coupling(simple_plan.matrix, np.array([0.5, 0.5]),
                               np.array([0.2, 0.8]))
