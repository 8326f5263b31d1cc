"""Tests for the network-simplex exact solver behind ``"simplex"``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InfeasibleProblemError, ValidationError
from repro.ot import solve
from repro.ot.cost import squared_euclidean_cost
from repro.ot.lp import transport_lp
from repro.ot.network_simplex import solve_transport, transport_simplex
from repro.ot.onedim import wasserstein_1d


class TestBasics:
    def test_identity_problem(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = transport_simplex(cost, [0.5, 0.5], [0.5, 0.5])
        np.testing.assert_allclose(plan, np.eye(2) * 0.5, atol=1e-12)

    def test_anti_identity_problem(self):
        cost = np.array([[1.0, 0.0], [0.0, 1.0]])
        plan = transport_simplex(cost, [0.5, 0.5], [0.5, 0.5])
        np.testing.assert_allclose(plan, (1 - np.eye(2)) * 0.5, atol=1e-12)

    def test_rectangular_problem(self, rng):
        cost = rng.random((4, 7))
        mu = rng.dirichlet(np.ones(4))
        nu = rng.dirichlet(np.ones(7))
        plan = transport_simplex(cost, mu, nu)
        np.testing.assert_allclose(plan.sum(axis=1), mu, atol=1e-9)
        np.testing.assert_allclose(plan.sum(axis=0), nu, atol=1e-9)
        assert np.all(plan >= -1e-12)

    def test_marginals_with_zeros(self):
        cost = np.arange(9.0).reshape(3, 3)
        mu = np.array([0.5, 0.0, 0.5])
        nu = np.array([0.0, 1.0, 0.0])
        plan = transport_simplex(cost, mu, nu)
        np.testing.assert_allclose(plan.sum(axis=1), mu, atol=1e-9)
        np.testing.assert_allclose(plan.sum(axis=0), nu, atol=1e-9)

    def test_bad_cost_shape_rejected(self):
        with pytest.raises(ValidationError, match="2-D"):
            transport_simplex(np.zeros(3), [1.0], [1.0])

    def test_size_mismatch_rejected(self):
        with pytest.raises(InfeasibleProblemError, match="incompatible"):
            transport_simplex(np.zeros((2, 2)), [0.5, 0.5],
                              [0.3, 0.3, 0.4])

    def test_dense_plan_of_the_simplex_solver(self, rng):
        # The solver keeps this plan CSR (at most 39 of 400 entries);
        # the legacy entry point still hands back a dense array.
        cost = rng.random((20, 20))
        mu = rng.dirichlet(np.ones(20))
        nu = rng.dirichlet(np.ones(20))
        plan = transport_simplex(cost, mu, nu)
        result = solve(cost, mu, nu, method="simplex")
        assert type(plan) is np.ndarray
        assert result.plan.is_sparse
        np.testing.assert_array_equal(plan, result.plan.toarray())

    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValidationError, match="tol"):
            transport_simplex(np.eye(2), [0.5, 0.5], [0.5, 0.5], tol=tol)


class TestOptimality:
    @pytest.mark.parametrize("n,m", [(3, 3), (5, 8), (10, 6), (12, 12)])
    def test_matches_linprog_oracle(self, rng, n, m):
        cost = rng.random((n, m))
        mu = rng.dirichlet(np.ones(n))
        nu = rng.dirichlet(np.ones(m))
        simplex_plan = transport_simplex(cost, mu, nu)
        oracle_plan = transport_lp(cost, mu, nu)
        assert np.sum(cost * simplex_plan) == pytest.approx(
            np.sum(cost * oracle_plan), rel=1e-7, abs=1e-10)

    def test_matches_1d_closed_form(self, rng):
        xs = np.sort(rng.normal(size=9))
        ys = np.sort(rng.normal(size=9))
        mu = rng.dirichlet(np.ones(9))
        nu = rng.dirichlet(np.ones(9))
        cost = squared_euclidean_cost(xs.reshape(-1, 1), ys.reshape(-1, 1))
        plan = transport_simplex(cost, mu, nu)
        w2_sq = wasserstein_1d(xs, mu, ys, nu, p=2) ** 2
        assert np.sum(cost * plan) == pytest.approx(w2_sq, rel=1e-8)

    def test_degenerate_uniform_cost(self):
        # Any coupling is optimal; solver must terminate and be feasible.
        cost = np.ones((5, 5))
        mu = np.full(5, 0.2)
        plan = transport_simplex(cost, mu, mu)
        np.testing.assert_allclose(plan.sum(axis=1), mu, atol=1e-9)
        assert np.sum(cost * plan) == pytest.approx(1.0)

    def test_zero_tolerance_terminates_at_lp_value(self):
        # Pinned draw: at tol=0 a tree arc's reduced cost rounds to
        # -5.7e-14 here, so pricing must skip tree arcs or it selects
        # that arc forever without entering it.
        rng = np.random.default_rng(0)
        for _ in range(52):
            n = rng.integers(3, 40)
            x = rng.normal(size=(n, 2))
            y = rng.normal(size=(n, 2))
            mu = rng.random(n)
            nu = rng.random(n)
        assert n == 6
        cost = squared_euclidean_cost(x, y)
        result = solve(cost, mu, nu, method="simplex", tol=0.0)
        oracle = solve(cost, mu, nu, method="lp")
        assert result.value == pytest.approx(oracle.value, abs=1e-12)

    def test_integer_costs_with_ties(self, rng):
        cost = rng.integers(0, 3, size=(6, 6)).astype(float)
        mu = rng.dirichlet(np.ones(6))
        nu = rng.dirichlet(np.ones(6))
        plan = transport_simplex(cost, mu, nu)
        oracle = transport_lp(cost, mu, nu)
        assert np.sum(cost * plan) == pytest.approx(
            np.sum(cost * oracle), rel=1e-7, abs=1e-10)


class TestSolveTransportWrapper:
    def test_returns_transport_plan_with_cost(self, rng):
        cost = rng.random((3, 4))
        mu = rng.dirichlet(np.ones(3))
        nu = rng.dirichlet(np.ones(4))
        plan = solve_transport(cost, mu, nu)
        assert plan.shape == (3, 4)
        assert plan.cost == pytest.approx(np.sum(cost * plan.matrix))

    def test_default_integer_supports(self, rng):
        plan = solve_transport(rng.random((2, 3)), [0.5, 0.5],
                               [0.4, 0.3, 0.3])
        np.testing.assert_allclose(plan.source_support.ravel(), [0.0, 1.0])
        np.testing.assert_allclose(plan.target_support.ravel(),
                                   [0.0, 1.0, 2.0])

    def test_explicit_supports_attached(self, rng):
        xs = rng.normal(size=(3, 2))
        ys = rng.normal(size=(3, 2))
        cost = squared_euclidean_cost(xs, ys)
        plan = solve_transport(cost, np.full(3, 1 / 3), np.full(3, 1 / 3),
                               xs, ys)
        np.testing.assert_allclose(plan.source_support, xs)
