"""Tests for the unified ``repro.ot.solve`` API.

Covers the four contract areas of the redesign: the solver registry
round-trip, cross-solver agreement against the LP oracle, the
``OTResult`` invariants, and the legacy entry points' shim equivalence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.ot import (OTProblem, OTResult, Solver, TransportPlan,
                      auto_method, available_solvers, north_west_corner,
                      register_solver, resolve_solver, sinkhorn, solve,
                      solve_1d, solve_sinkhorn, solve_transport,
                      solve_transport_lp, solver_descriptions,
                      squared_euclidean_cost, transport_lp,
                      transport_simplex, unregister_solver)

#: Cost-value agreement tolerance against the LP oracle, per solver.
#: Exact methods must match tightly; entropic methods are biased by
#: design (regularisation blurs the plan) so only closeness is required.
VALUE_RTOL = {
    "exact": 1e-9,
    "simplex": 1e-9,
    "lp": 1e-9,
    "screened": 1e-9,
    "multiscale": 1e-9,
    "auto": 1e-9,
    "sinkhorn": 0.5,
    "sinkhorn_log": 0.5,
}

#: Marginal-residual ceiling per solver: exact plans must satisfy the
#: coupling constraints to solver precision; entropic plans to their
#: reported tolerance.
RESIDUAL_ATOL = {
    "exact": 1e-8,
    "simplex": 1e-8,
    "lp": 1e-8,
    "screened": 1e-8,
    "multiscale": 1e-8,
    "auto": 1e-8,
    "sinkhorn": 1e-6,
    "sinkhorn_log": 1e-6,
}


@pytest.fixture
def shared_problem(rng):
    """A small dense 1-D problem every registered solver can handle."""
    n, m = 14, 11
    xs = np.sort(rng.normal(size=n))
    ys = np.sort(rng.normal(size=m))
    mu = rng.dirichlet(np.ones(n))
    nu = rng.dirichlet(np.ones(m))
    return OTProblem(source_weights=mu, target_weights=nu,
                     source_support=xs, target_support=ys)


class TestRegistry:
    def test_builtins_registered(self):
        names = available_solvers()
        for expected in ("exact", "simplex", "lp", "sinkhorn",
                         "sinkhorn_log", "screened", "multiscale", "auto"):
            assert expected in names

    def test_every_solver_has_a_description(self):
        for name, description in solver_descriptions().items():
            assert description, f"solver {name} lacks a description"

    def test_register_resolve_solve_round_trip(self, shared_problem):
        @register_solver("test-uniform", description="independent coupling")
        def uniform_solver(problem):
            mu, nu = problem.source_weights, problem.target_weights
            return np.outer(mu, nu)

        try:
            assert "test-uniform" in available_solvers()
            solver = resolve_solver("test-uniform")
            assert solver.name == "test-uniform"
            result = solve(shared_problem, method="test-uniform")
            assert isinstance(result, OTResult)
            assert result.solver == "test-uniform"
            # The independent coupling is feasible, hence tiny residuals.
            assert result.marginal_residual <= 1e-12
        finally:
            unregister_solver("test-uniform")
        assert "test-uniform" not in available_solvers()
        with pytest.raises(ValidationError, match="unknown solver"):
            resolve_solver("test-uniform")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValidationError, match="already registered"):
            register_solver("exact")(lambda problem: None)

    def test_overwrite_evicts_stale_aliases(self, shared_problem):
        register_solver("test-shadowed", aliases=("test-alias",),
                        description="first")(
            lambda problem: np.outer(problem.source_weights,
                                     problem.target_weights))
        try:
            register_solver("test-shadowed", overwrite=True,
                            description="second")(
                lambda problem: np.outer(problem.source_weights,
                                         problem.target_weights))
            # The old alias must not keep resolving to the shadowed entry.
            with pytest.raises(ValidationError, match="unknown solver"):
                resolve_solver("test-alias")
            assert resolve_solver("test-shadowed").description == "second"
        finally:
            unregister_solver("test-shadowed")

    def test_resolution_accepts_callable(self, shared_problem):
        def my_solver(problem):
            return np.outer(problem.source_weights, problem.target_weights)

        result = solve(shared_problem, method=my_solver)
        assert result.solver == "my_solver"
        assert result.marginal_residual <= 1e-12

    def test_resolution_accepts_solver_instance(self, shared_problem):
        solver = Solver(
            name="inline",
            fn=lambda problem: np.outer(problem.source_weights,
                                        problem.target_weights),
            description="inline test solver")
        result = solve(shared_problem, method=solver)
        assert result.solver == "inline"

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValidationError, match="expected one of"):
            resolve_solver("quantum")

    def test_unresolvable_spec_rejected(self):
        with pytest.raises(ValidationError, match="cannot resolve"):
            resolve_solver(42)

    def test_aliases_resolve_to_primary(self):
        assert resolve_solver("monotone").name == "exact"
        assert resolve_solver("highs").name == "lp"

    def test_one_simplex_behind_three_names(self):
        solver = resolve_solver("simplex")
        for alias in ("network_simplex", "netsimplex"):
            assert resolve_solver(alias) is solver
        names = available_solvers()
        assert names.count("simplex") == 1
        assert "network_simplex" not in names
        assert "netsimplex" not in names


class TestCrossSolverAgreement:
    def test_all_registered_solvers_near_lp_oracle(self, shared_problem):
        cost = squared_euclidean_cost(shared_problem.source_support,
                                      shared_problem.target_support)
        oracle = float(np.sum(cost * transport_lp(
            cost, shared_problem.source_weights,
            shared_problem.target_weights)))
        for name in available_solvers():
            if name not in VALUE_RTOL:  # solver registered by other tests
                continue
            result = solve(shared_problem, method=name)
            assert result.value == pytest.approx(
                oracle, rel=VALUE_RTOL[name], abs=1e-9), name
            assert result.marginal_residual <= RESIDUAL_ATOL[name], name

    def test_screened_matches_oracle_on_larger_problem(self, rng):
        n = 120
        nodes = np.linspace(-3.0, 3.0, n)
        mu = np.exp(-0.5 * (nodes + 1.0) ** 2)
        nu = np.exp(-0.5 * (nodes - 1.0) ** 2)
        mu /= mu.sum()
        nu /= nu.sum()
        cost = squared_euclidean_cost(nodes.reshape(-1, 1),
                                      nodes.reshape(-1, 1))
        oracle = float(np.sum(cost * transport_lp(cost, mu, nu)))
        result = solve(cost, mu, nu, method="screened")
        assert result.value == pytest.approx(oracle, rel=1e-6)
        assert result.marginal_residual <= 1e-8
        assert result.extras["support_density"] < 0.5

    def test_lp_mask_is_hard_restriction_when_feasible(self,
                                                       shared_problem):
        # A feasible mask (monotone support + a band) must confine the
        # plan: no mass outside it, and no silent widening.
        n, m = shared_problem.shape
        mask = np.zeros((n, m), dtype=bool)
        from repro.ot import north_west_corner
        mask |= north_west_corner(shared_problem.source_weights,
                                  shared_problem.target_weights) > 0.0
        problem = OTProblem(
            source_weights=shared_problem.source_weights,
            target_weights=shared_problem.target_weights,
            source_support=shared_problem.source_support,
            target_support=shared_problem.target_support,
            support_mask=mask)
        result = solve(problem, method="lp")
        assert result.extras["mask_widened"] is False
        assert np.all(result.matrix[~mask] == 0.0)
        assert result.marginal_residual <= 1e-8

    def test_lp_infeasible_mask_widened_and_reported(self,
                                                     shared_problem):
        mask = np.zeros(shared_problem.shape, dtype=bool)
        mask[0, 0] = True  # cannot couple the full marginals
        problem = OTProblem(
            source_weights=shared_problem.source_weights,
            target_weights=shared_problem.target_weights,
            source_support=shared_problem.source_support,
            target_support=shared_problem.target_support,
            support_mask=mask)
        result = solve(problem, method="lp")
        assert result.extras["mask_widened"] is True
        assert result.marginal_residual <= 1e-8

    @pytest.mark.parametrize("feasible", [True, False])
    def test_simplex_honours_support_mask(self, shared_problem, rng,
                                          feasible):
        # A restrictive random mask: with the staircase unioned in it is
        # feasible and binding; with its first column emptied it admits
        # no coupling, and both solvers widen it.
        mask = rng.random(shared_problem.shape) < 0.3
        if feasible:
            mask |= north_west_corner(shared_problem.source_weights,
                                      shared_problem.target_weights) > 0.0
        else:
            mask[:, 0] = False
        problem = OTProblem(
            source_weights=shared_problem.source_weights,
            target_weights=shared_problem.target_weights,
            source_support=shared_problem.source_support,
            target_support=shared_problem.target_support,
            support_mask=mask)
        simplex = solve(problem, method="simplex")
        lp = solve(problem, method="lp")
        assert simplex.value == pytest.approx(lp.value, abs=1e-10)
        assert simplex.extras["mask_widened"] is (not feasible)
        assert lp.extras["mask_widened"] is (not feasible)
        if feasible:
            assert np.all(simplex.plan.toarray()[~mask] == 0.0)
        assert simplex.marginal_residual <= 1e-12

    @pytest.mark.parametrize("method", ["lp", "simplex", "auto"])
    def test_all_false_mask_widens_to_staircase(self, rng, method):
        # The staircase is the support of exactly one coupling, the
        # north-west corner one, so the widened solve must return it.
        n = 5
        mu = rng.dirichlet(np.ones(n))
        nu = rng.dirichlet(np.ones(n))
        cost = rng.random((n, n))
        problem = OTProblem(source_weights=mu, target_weights=nu,
                            cost=cost,
                            support_mask=np.zeros((n, n), dtype=bool))
        result = solve(problem, method=method)
        assert result.extras["mask_widened"] is True
        assert result.value == pytest.approx(
            float(np.sum(cost * north_west_corner(mu, nu))), abs=1e-10)
        assert result.marginal_residual <= 1e-12

    def test_screened_honours_support_mask_union(self, shared_problem):
        mask = np.zeros(shared_problem.shape, dtype=bool)
        mask[0, :] = True
        problem = OTProblem(
            source_weights=shared_problem.source_weights,
            target_weights=shared_problem.target_weights,
            source_support=shared_problem.source_support,
            target_support=shared_problem.target_support,
            support_mask=mask)
        result = solve(problem, method="screened")
        assert result.converged
        assert result.marginal_residual <= 1e-8


class TestOTResultInvariants:
    @pytest.mark.parametrize("method", ["exact", "simplex", "lp",
                                        "sinkhorn", "screened"])
    def test_residuals_match_recomputation(self, shared_problem, method):
        result = solve(shared_problem, method=method)
        matrix = result.matrix
        row = float(np.abs(matrix.sum(axis=1)
                           - shared_problem.source_weights).max())
        col = float(np.abs(matrix.sum(axis=0)
                           - shared_problem.target_weights).max())
        assert result.residual_source == pytest.approx(row, abs=1e-15)
        assert result.residual_target == pytest.approx(col, abs=1e-15)
        assert result.marginal_residual == max(result.residual_source,
                                               result.residual_target)

    @pytest.mark.parametrize("method", ["exact", "simplex", "lp",
                                        "sinkhorn", "screened"])
    def test_diagnostics_populated(self, shared_problem, method):
        result = solve(shared_problem, method=method)
        assert result.solver == method
        assert result.converged
        assert result.n_iter >= 0
        assert result.wall_time >= 0.0
        assert np.isfinite(result.value)
        assert isinstance(result.plan, TransportPlan)
        summary = result.summary()
        assert summary["solver"] == method
        assert summary["converged"] is True

    def test_unconverged_sinkhorn_reports_honestly(self, shared_problem):
        result = solve(shared_problem, method="sinkhorn", epsilon=1e-4,
                       max_iter=3, tol=1e-14)
        assert not result.converged
        assert result.n_iter == 3
        assert result.marginal_residual > 1e-14

    def test_auto_dispatch_records_target(self, shared_problem):
        result = solve(shared_problem, method=resolve_solver("auto"))
        assert result.solver == "auto"
        assert result.extras["dispatched_to"] == "exact"


class TestAutoDispatch:
    def test_one_dimensional_goes_monotone(self, shared_problem):
        assert auto_method(shared_problem) == "exact"
        assert solve(shared_problem).solver == "exact"

    def test_explicit_cost_disables_monotone(self, shared_problem, rng):
        problem = OTProblem(
            source_weights=shared_problem.source_weights,
            target_weights=shared_problem.target_weights,
            cost=rng.random(shared_problem.shape))
        assert auto_method(problem) == "simplex"

    def test_medium_problems_go_lp(self, rng):
        n = 128
        problem = OTProblem(source_weights=np.full(n, 1.0 / n),
                            target_weights=np.full(n, 1.0 / n),
                            cost=rng.random((n, n)))
        assert auto_method(problem) == "lp"

    def test_large_problems_go_screened(self):
        n = 512
        problem = OTProblem(source_weights=np.full(n, 1.0 / n),
                            target_weights=np.full(n, 1.0 / n),
                            cost=np.zeros((n, n)))
        assert auto_method(problem) == "screened"

    def test_masked_problems_avoid_mask_blind_solvers(self, rng):
        # Small + masked dispatches to the LP, not the simplex: both
        # honour a mask, but auto keeps masked problems on the LP up to
        # LP_AUTO_LIMIT.  It must solve under the mask.
        n = 6
        problem = OTProblem(source_weights=np.full(n, 1.0 / n),
                            target_weights=np.full(n, 1.0 / n),
                            cost=rng.random((n, n)),
                            support_mask=np.eye(n, dtype=bool))
        assert auto_method(problem) == "lp"
        result = solve(problem)
        assert result.solver == "lp"
        assert result.marginal_residual <= 1e-8

    def test_auto_string_filters_opts_like_registered_auto(
            self, shared_problem):
        # epsilon alongside the default method="auto" must be dropped
        # when dispatch lands on the exact solver, not crash.
        result = solve(shared_problem, epsilon=1e-3)
        assert result.solver == "exact"


class TestProblemValidation:
    def test_needs_cost_or_supports(self):
        with pytest.raises(ValidationError, match="cost matrix or both"):
            OTProblem(source_weights=[0.5, 0.5], target_weights=[1.0])

    def test_marginals_not_repeated_alongside_problem(self, shared_problem):
        with pytest.raises(ValidationError, match="do not pass them"):
            solve(shared_problem, shared_problem.source_weights,
                  shared_problem.target_weights)

    def test_cost_shape_checked(self):
        with pytest.raises(ValidationError, match="incompatible"):
            OTProblem(source_weights=[0.5, 0.5],
                      target_weights=[0.5, 0.5], cost=np.zeros((3, 2)))

    def test_mask_shape_checked(self):
        with pytest.raises(ValidationError, match="support_mask"):
            OTProblem(source_weights=[0.5, 0.5],
                      target_weights=[0.5, 0.5], cost=np.zeros((2, 2)),
                      support_mask=np.ones((3, 3), dtype=bool))

    def test_exact_rejects_non_1d(self, rng):
        problem = OTProblem(source_weights=[0.5, 0.5],
                            target_weights=[0.5, 0.5],
                            cost=rng.random((2, 2)))
        with pytest.raises(ValidationError, match="1-D"):
            solve(problem, method="exact")

    def test_lazy_cost_caches(self, shared_problem):
        first = shared_problem.cost_matrix()
        assert shared_problem.cost_matrix() is first
        expected = squared_euclidean_cost(shared_problem.source_support,
                                          shared_problem.target_support)
        np.testing.assert_allclose(first, expected)


class TestLegacyShimEquivalence:
    """The five historical entry points must agree with solve()."""

    @pytest.fixture
    def dense_problem(self, rng):
        n, m = 9, 12
        cost = rng.random((n, m))
        mu = rng.dirichlet(np.ones(n))
        nu = rng.dirichlet(np.ones(m))
        return cost, mu, nu

    def test_solve_1d(self, rng):
        xs = rng.normal(size=10)
        ys = rng.normal(size=13)
        mu = rng.dirichlet(np.ones(10))
        nu = rng.dirichlet(np.ones(13))
        legacy = solve_1d(xs, mu, ys, nu, p=2)
        unified = solve(OTProblem(source_weights=mu, target_weights=nu,
                                  source_support=xs, target_support=ys),
                        method="exact")
        np.testing.assert_allclose(legacy.toarray(), unified.plan.toarray())
        assert legacy.cost == pytest.approx(unified.value)

    def test_transport_simplex(self, dense_problem):
        cost, mu, nu = dense_problem
        legacy = transport_simplex(cost, mu, nu)
        unified = solve(cost, mu, nu, method="simplex")
        np.testing.assert_allclose(legacy, unified.plan.toarray())

    def test_solve_transport(self, dense_problem):
        cost, mu, nu = dense_problem
        legacy = solve_transport(cost, mu, nu)
        unified = solve(cost, mu, nu, method="simplex")
        np.testing.assert_allclose(legacy.toarray(), unified.plan.toarray())
        assert legacy.cost == pytest.approx(unified.value)

    def test_solve_transport_lp(self, dense_problem):
        cost, mu, nu = dense_problem
        legacy = solve_transport_lp(cost, mu, nu)
        unified = solve(cost, mu, nu, method="lp")
        np.testing.assert_allclose(legacy.matrix, unified.matrix)
        assert legacy.cost == pytest.approx(unified.value)

    def test_solve_sinkhorn(self, dense_problem):
        cost, mu, nu = dense_problem
        legacy = solve_sinkhorn(cost, mu, nu, epsilon=0.1)
        unified = solve(cost, mu, nu, method="sinkhorn", epsilon=0.1)
        np.testing.assert_allclose(legacy.matrix, unified.matrix,
                                   atol=1e-12)
        assert legacy.cost == pytest.approx(unified.value)

    def test_sinkhorn_impl_matches_facade(self, dense_problem):
        cost, mu, nu = dense_problem
        impl = sinkhorn(cost, mu, nu, epsilon=0.1)
        facade = solve(cost, mu, nu, method="sinkhorn", epsilon=0.1)
        np.testing.assert_allclose(impl.plan, facade.matrix, atol=1e-12)
        assert facade.n_iter == impl.iterations


class TestScreenedEpsilonScaling:
    """The annealed Sinkhorn screen: epsilon_scaling=True runs a
    geometric epsilon schedule with warm-started scales."""

    @pytest.fixture
    def hard_problem(self, rng):
        n = 120
        xs = np.sort(rng.normal(size=n))
        ys = np.sort(rng.normal(size=n)) + 0.5
        return OTProblem(source_weights=rng.dirichlet(np.ones(n) * 2.0),
                         target_weights=rng.dirichlet(np.ones(n) * 2.0),
                         source_support=xs, target_support=ys)

    def test_matches_dense_lp_value(self, hard_problem):
        reference = solve(hard_problem, method="lp")
        scaled = solve(hard_problem, method="screened", epsilon=1e-3,
                       screen_tol=1e-7, epsilon_scaling=True, n_scales=4)
        assert scaled.value == pytest.approx(reference.value, abs=1e-8)
        assert scaled.extras["epsilon_scaling"] is True
        assert scaled.extras["n_scales"] == 4
        assert scaled.extras["screen_iterations"] > 0

    def test_converges_where_cold_start_stalls(self, hard_problem):
        """The scaling loop's reason to exist: at small epsilon the cold
        screen burns its whole budget, the annealed one converges."""
        budget = 800
        cold = solve(hard_problem, method="screened", epsilon=1e-3,
                     screen_max_iter=budget, screen_tol=1e-7)
        scaled = solve(hard_problem, method="screened", epsilon=1e-3,
                       screen_max_iter=budget, screen_tol=1e-7,
                       epsilon_scaling=True, n_scales=4)
        assert scaled.extras["screen_converged"]
        assert not cold.extras["screen_converged"]

    def test_single_scale_equals_direct_screen(self, hard_problem):
        direct = solve(hard_problem, method="screened", epsilon=1e-2,
                       screen_tol=1e-7)
        single = solve(hard_problem, method="screened", epsilon=1e-2,
                       screen_tol=1e-7, epsilon_scaling=True, n_scales=1)
        assert single.value == pytest.approx(direct.value, abs=1e-10)
        assert single.extras["screen_iterations"] == \
            direct.extras["screen_iterations"]

    def test_invalid_n_scales_rejected(self, hard_problem):
        with pytest.raises(ValidationError, match="n_scales"):
            solve(hard_problem, method="screened", epsilon_scaling=True,
                  n_scales=0)

    def test_reachable_through_solver_opts(self, rng):
        """The design layer's solver_opts path (and hence the CLI's
        --solver-opt epsilon_scaling=true) reaches the knob."""
        from repro.ot.registry import filter_opts, resolve_solver

        opts = filter_opts(resolve_solver("screened"),
                           {"epsilon_scaling": True, "n_scales": 3,
                            "coarsen": 4})
        assert opts == {"epsilon_scaling": True, "n_scales": 3}

    @staticmethod
    def _tall_problem(rng, n, m=8):
        xs = np.sort(rng.normal(size=n))
        ys = np.sort(rng.normal(size=m))
        return OTProblem(source_weights=rng.dirichlet(np.ones(n)),
                         target_weights=rng.dirichlet(np.ones(m)),
                         source_support=xs, target_support=ys)

    def test_auto_switches_on_exactly_at_the_limit(self, rng):
        """epsilon_scaling="auto" keys on max(n, m) crossing
        EPSILON_SCALING_AUTO_LIMIT — inclusive at the limit, off one
        state below it."""
        from repro.ot.solve import EPSILON_SCALING_AUTO_LIMIT

        at_limit = solve(self._tall_problem(rng, EPSILON_SCALING_AUTO_LIMIT),
                         method="screened", epsilon=1e-1,
                         screen_max_iter=200)
        assert at_limit.extras["epsilon_scaling"] is True
        assert at_limit.extras["n_scales"] >= 1
        below = solve(self._tall_problem(rng, EPSILON_SCALING_AUTO_LIMIT - 1),
                      method="screened", epsilon=1e-1,
                      screen_max_iter=200)
        assert "epsilon_scaling" not in below.extras

    def test_auto_rejects_other_strings(self, rng):
        with pytest.raises(ValidationError, match="epsilon_scaling"):
            solve(self._tall_problem(rng, 64), method="screened",
                  epsilon_scaling="always")


class TestDefaultScreenK:
    """``default_screen_k`` must sit at the elbow of the accuracy-vs-k
    curve measured by ``benchmarks/test_screened_k_sweep.py`` (committed
    table in ``benchmarks/results/screened_k_sweep.txt``): on metric
    design cells every k is staircase-certified exact, and on the
    adversarial scrambled-grid regime the default clears the steep
    region (sub-0.1% error) where tiny k is off a cliff.  This pins
    both at one small size so a formula regression cannot land
    silently."""

    N = 300

    def _scrambled_problem(self, rng):
        n = self.N
        xs = np.sort(rng.normal(size=n))
        ys = rng.permutation(np.sort(rng.normal(size=n)) + 0.4)
        return OTProblem(source_weights=rng.dirichlet(np.ones(n) * 2.0),
                         target_weights=rng.dirichlet(np.ones(n) * 2.0),
                         source_support=xs, target_support=ys)

    def test_workload_regime_exact_at_the_default(self, rng):
        from repro.ot import default_screen_k

        n = self.N
        xs = np.sort(rng.normal(size=n))
        ys = np.sort(rng.normal(size=n)) + 0.4
        problem = OTProblem(source_weights=rng.dirichlet(np.ones(n) * 2.0),
                            target_weights=rng.dirichlet(np.ones(n) * 2.0),
                            source_support=xs, target_support=ys)
        oracle = solve(problem, method="lp")
        at_default = solve(problem, method="screened",
                           k=default_screen_k(n, n))
        assert at_default.value == pytest.approx(oracle.value, rel=1e-9)
        assert at_default.extras["support_density"] < 0.12

    def test_adversarial_regime_default_clears_the_elbow(self, rng):
        from repro.ot import default_screen_k

        problem = self._scrambled_problem(rng)
        oracle = solve(problem, method="lp")
        screen_opts = dict(epsilon=1e-3, epsilon_scaling=True)
        tiny = solve(problem, method="screened", k=3, **screen_opts)
        at_default = solve(problem, method="screened",
                           k=default_screen_k(self.N, self.N),
                           **screen_opts)
        tiny_err = (tiny.value - oracle.value) / oracle.value
        default_err = (at_default.value - oracle.value) / oracle.value
        assert tiny_err > 1e-1, "k=3 should be far off the optimum"
        assert -5e-8 <= default_err < 1e-3, (
            f"default k off the elbow ({default_err:.3e})")

    def test_formula_floor_and_growth(self):
        from repro.ot import default_screen_k

        assert default_screen_k(2, 2) == 9
        assert default_screen_k(300, 300) == 17
        assert default_screen_k(300, 4) == 17  # keyed on the max side
        assert default_screen_k(100_000, 100_000) == 25


class TestReviewRegressions:
    def test_overwriting_an_alias_keeps_the_shadowed_builtin(self):
        register_solver("test-mymono", aliases=("monotone",),
                        overwrite=True, description="alias thief")(
            lambda problem: np.outer(problem.source_weights,
                                     problem.target_weights))
        try:
            # The builtin must survive under its primary name...
            assert resolve_solver("exact").name == "exact"
            # ...and default 1-D solves must still work process-wide.
            xs = np.array([0.0, 1.0])
            result = solve(OTProblem(source_weights=[0.5, 0.5],
                                     target_weights=[0.5, 0.5],
                                     source_support=xs, target_support=xs))
            assert result.solver == "exact"
            assert resolve_solver("monotone").name == "test-mymono"
        finally:
            unregister_solver("test-mymono")
            # Restore the builtin's alias for later tests.
            _exact = resolve_solver("exact")
            from repro.ot.registry import _REGISTRY
            _REGISTRY["monotone"] = _exact

    def test_screened_full_support_is_converged(self):
        # k >= n makes the mask all-True: the restricted LP is the dense
        # LP, so the result is provably optimal even if the tiny screen
        # budget ran out.
        result = solve(OTProblem(source_weights=[0.5, 0.5],
                                 target_weights=[0.5, 0.5],
                                 source_support=[0.0, 1.0],
                                 target_support=[0.0, 2.0]),
                       method="screened", screen_max_iter=1,
                       screen_tol=1e-300)
        assert result.extras["support_density"] == 1.0
        assert result.converged
