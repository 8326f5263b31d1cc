"""Tests for the multiscale coarsen-solve-refine solver.

Covers the four layers of the tentpole: the coarsening step (grid
binning, marginal aggregation, cost handling), the support-mask helpers,
the registered ``"multiscale"`` solver's contract (near-LP value, CSR
plan, mask semantics, validation), and the auto-dispatch rule for very
large 1-D problems.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.ot import (OTProblem, auto_method, available_solvers,
                      coarsen_problem, default_coarsen_factor, dilate_mask,
                      north_west_corner, north_west_corner_support,
                      refine_mask, solve)
from repro.ot.solve import MULTISCALE_AUTO_LIMIT


def gaussian_grid_problem(n, *, explicit_cost=False, support_mask=None):
    """A smooth two-bump/one-bump pair on a shared uniform grid."""
    nodes = np.linspace(-3.0, 3.0, n)
    mu = (np.exp(-0.5 * (nodes + 1.0) ** 2)
          + 0.3 * np.exp(-2.0 * (nodes - 0.5) ** 2))
    nu = np.exp(-0.5 * (nodes - 1.0) ** 2)
    mu /= mu.sum()
    nu /= nu.sum()
    kwargs = dict(source_weights=mu, target_weights=nu,
                  source_support=nodes, target_support=nodes,
                  support_mask=support_mask)
    if explicit_cost:
        kwargs["cost"] = np.square(nodes[:, None] - nodes[None, :])
    return OTProblem(**kwargs)


class TestMaskHelpers:
    def test_dilate_spreads_to_neighbourhood(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        out = dilate_mask(mask, radius=1)
        assert out[1:4, 1:4].all()
        assert out.sum() == 9

    def test_dilate_clips_at_edges(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = True
        out = dilate_mask(mask, radius=2)
        assert out.all()  # radius 2 from a corner covers a 3x3 matrix

    def test_dilate_radius_zero_is_copy(self):
        mask = np.eye(4, dtype=bool)
        out = dilate_mask(mask, radius=0)
        assert np.array_equal(out, mask)
        assert out is not mask

    def test_dilate_validates(self):
        with pytest.raises(ValidationError, match="2-D"):
            dilate_mask(np.zeros(3, dtype=bool))
        with pytest.raises(ValidationError, match="radius"):
            dilate_mask(np.zeros((2, 2), dtype=bool), radius=-1)

    def test_refine_expands_by_bins(self):
        coarse = np.array([[True, False], [False, True]])
        fine = refine_mask(coarse, [0, 0, 1, 1], [0, 1])
        expected = np.array([[True, False], [True, False],
                             [False, True], [False, True]])
        assert np.array_equal(fine, expected)

    def test_refine_validates_bin_range(self):
        coarse = np.zeros((2, 2), dtype=bool)
        with pytest.raises(ValidationError, match="out of range"):
            refine_mask(coarse, [0, 2], [0])

    def test_nw_support_matches_dense_nw_plan(self, rng):
        mu = rng.dirichlet(np.ones(9))
        nu = rng.dirichlet(np.ones(13))
        rows, cols = north_west_corner_support(mu, nu)
        dense = north_west_corner(mu, nu)
        mask = np.zeros(dense.shape, dtype=bool)
        mask[rows, cols] = True
        # Every mass-carrying entry of the dense staircase is covered.
        assert mask[dense > 0.0].all()
        # And the staircase stays O(n + m).
        assert rows.size <= mu.size + nu.size


class TestCoarsening:
    def test_coarse_marginals_conserve_mass(self):
        problem = gaussian_grid_problem(160)
        coarse, source_bins, target_bins = coarsen_problem(problem, 8)
        assert coarse.shape == (20, 20)
        assert coarse.source_weights.sum() == pytest.approx(1.0)
        assert source_bins.shape == (160,)
        assert source_bins.min() == 0 and source_bins.max() == 19
        # Bin centres are mass-weighted means, so they stay in range.
        assert coarse.source_support.min() >= -3.0
        assert coarse.source_support.max() <= 3.0

    def test_explicit_cost_is_aggregated(self):
        problem = gaussian_grid_problem(64, explicit_cost=True)
        coarse, _, _ = coarsen_problem(problem, 4)
        assert coarse.cost is not None
        assert coarse.cost.shape == (16, 16)
        # Aggregated squared-distance cost keeps the diagonal cheapest.
        assert np.all(np.argmin(coarse.cost, axis=1)
                      == np.arange(16))

    def test_metric_cost_passes_through(self):
        problem = gaussian_grid_problem(64)
        coarse, _, _ = coarsen_problem(problem, 4)
        assert coarse.cost is None
        assert coarse.is_monotone_solvable

    def test_needs_one_dimensional_supports(self, rng):
        problem = OTProblem(source_weights=[0.5, 0.5],
                            target_weights=[0.5, 0.5],
                            cost=rng.random((2, 2)))
        with pytest.raises(ValidationError, match="1-D"):
            coarsen_problem(problem, 2)

    def test_factor_validated(self):
        problem = gaussian_grid_problem(16)
        with pytest.raises(ValidationError, match="coarsen"):
            coarsen_problem(problem, 1)

    def test_default_factor(self):
        assert default_coarsen_factor(500) == 4
        assert default_coarsen_factor(5000) == 4


class TestMultiscaleSolver:
    def test_registered(self):
        assert "multiscale" in available_solvers()

    def test_matches_lp_oracle_within_one_percent(self):
        problem = gaussian_grid_problem(300)
        multiscale = solve(problem, method="multiscale")
        lp = solve(problem, method="lp")
        # The acceptance bound is 1%; in practice the restricted LP is
        # exact to solver precision on monotone-structured problems.
        assert multiscale.value <= lp.value * 1.01
        assert multiscale.value == pytest.approx(lp.value, rel=1e-6)
        assert multiscale.marginal_residual <= 1e-8
        assert multiscale.converged

    def test_returns_csr_plan_with_sparse_support(self):
        problem = gaussian_grid_problem(300)
        result = solve(problem, method="multiscale")
        assert result.plan.is_sparse
        assert result.extras["support_density"] < 0.25
        assert result.extras["coarse_solver"] == "exact"
        assert result.extras["coarsen"] == default_coarsen_factor(300)

    def test_explicit_cost_path(self):
        problem = gaussian_grid_problem(120, explicit_cost=True)
        lp = solve(problem, method="lp")
        result = solve(problem, method="multiscale", coarsen=4)
        assert result.value == pytest.approx(lp.value, rel=1e-6)
        # Explicit cost disables the monotone shortcut at the coarse
        # level; dispatch picks an exact general solver instead.
        assert result.extras["coarse_solver"] in ("simplex", "lp")

    def test_support_mask_unioned_in(self):
        n = 80
        mask = np.zeros((n, n), dtype=bool)
        mask[0, :] = True
        problem = gaussian_grid_problem(n, support_mask=mask)
        result = solve(problem, method="multiscale", coarsen=4)
        unmasked = solve(gaussian_grid_problem(n), method="multiscale",
                         coarsen=4)
        assert result.extras["support_size"] \
            >= unmasked.extras["support_size"]
        assert result.marginal_residual <= 1e-8

    def test_radius_zero_still_feasible(self):
        problem = gaussian_grid_problem(100)
        result = solve(problem, method="multiscale", radius=0)
        assert result.marginal_residual <= 1e-8

    def test_wider_radius_never_worse(self):
        problem = gaussian_grid_problem(150)
        narrow = solve(problem, method="multiscale", radius=1)
        wide = solve(problem, method="multiscale", radius=3)
        assert wide.value <= narrow.value + 1e-12
        assert wide.extras["support_size"] > narrow.extras["support_size"]

    def test_rejects_problems_without_supports(self, rng):
        problem = OTProblem(source_weights=[0.5, 0.5],
                            target_weights=[0.5, 0.5],
                            cost=rng.random((2, 2)))
        with pytest.raises(ValidationError, match="1-D"):
            solve(problem, method="multiscale")

    def test_value_reported_without_densifying_cost(self):
        # The value shortcut must agree with the recomputed <C, plan>.
        problem = gaussian_grid_problem(200)
        result = solve(problem, method="multiscale")
        recomputed = result.plan.expected_cost(problem.cost_matrix())
        assert result.value == pytest.approx(recomputed, abs=1e-12)


class TestAutoDispatch:
    """Auto picks multiscale only for large 1-D *metric-cost* problems —
    in practice masked ones, since unmasked metric 1-D problems are
    monotone-solvable and dispatch to the closed form first."""

    @staticmethod
    def _large_1d(n, **kwargs):
        nodes = np.linspace(0.0, 1.0, n)
        weights = np.full(n, 1.0 / n)
        return OTProblem(source_weights=weights, target_weights=weights,
                         source_support=nodes, target_support=nodes,
                         **kwargs)

    def test_masked_large_metric_goes_multiscale(self):
        n = MULTISCALE_AUTO_LIMIT
        problem = self._large_1d(n, support_mask=np.eye(n, dtype=bool))
        assert auto_method(problem) == "multiscale"

    def test_large_explicit_cost_stays_screened(self):
        # The coarse support heuristic is only geometry-certified for
        # metric costs; an arbitrary explicit cost — even with 1-D
        # supports — must keep routing to the screened hybrid, whose
        # Sinkhorn screen works on the true cost.
        n = MULTISCALE_AUTO_LIMIT
        problem = self._large_1d(n, cost=np.zeros((n, n)))
        assert auto_method(problem) == "screened"

    def test_large_without_supports_stays_screened(self):
        n = MULTISCALE_AUTO_LIMIT
        problem = OTProblem(source_weights=np.full(n, 1.0 / n),
                            target_weights=np.full(n, 1.0 / n),
                            cost=np.zeros((n, n)))
        assert auto_method(problem) == "screened"

    def test_monotone_still_wins_at_any_size(self):
        problem = self._large_1d(MULTISCALE_AUTO_LIMIT)
        assert auto_method(problem) == "exact"

    def test_explicit_cost_reports_unconverged(self):
        # Exact restricted LP, but the support heuristic is uncertified
        # off the metric family: the result must not claim convergence.
        problem = gaussian_grid_problem(120, explicit_cost=True)
        result = solve(problem, method="multiscale", coarsen=4)
        assert not result.converged
        assert result.extras["geometry_aligned"] is False
        metric = solve(gaussian_grid_problem(120), method="multiscale",
                       coarsen=4)
        assert metric.converged
        assert metric.extras["geometry_aligned"] is True


class TestDesignIntegration:
    def test_design_feature_plan_with_multiscale(self, rng):
        samples = {0: rng.normal(-0.5, 1.0, size=120),
                   1: rng.normal(0.5, 1.2, size=140)}
        from repro.core.design import design_feature_plan
        plan = design_feature_plan(samples, 96, solver="multiscale",
                                   solver_opts={"coarsen": 4, "radius": 2})
        for s in (0, 1):
            assert plan.diagnostics[s]["solver"] == "multiscale"
            assert plan.diagnostics[s]["coarsen"] == 4
            assert plan.diagnostics[s]["radius"] == 2
            plan.transports[s].verify(plan.marginals[s], plan.barycenter)

    def test_solver_opts_filtered_for_other_solvers(self, rng):
        # Multiscale-only knobs offered alongside the exact solver are
        # dropped by signature filtering, not crash-inducing.
        samples = {0: rng.normal(size=60), 1: rng.normal(size=60)}
        from repro.core.design import design_feature_plan
        plan = design_feature_plan(samples, 32, solver="exact",
                                   solver_opts={"coarsen": 4})
        assert plan.diagnostics[0]["solver"] == "exact"

    def test_design_repair_records_solver_opts(self):
        from repro.core.design import design_repair
        from repro.data.simulated import simulate_paper_data
        split = simulate_paper_data(n_research=80, n_archive=80, rng=5)
        plan = design_repair(split.research, 48, solver="multiscale",
                             solver_opts={"coarsen": 6})
        assert plan.metadata["solver"] == "multiscale"
        assert plan.metadata["solver_opts"] == {"coarsen": 6}


class TestRestrictedEngine:
    """The restricted solve's two engines (native network simplex vs the
    scipy LP oracle) and the index-sparse refine path must be
    interchangeable on the observable contract."""

    def test_engines_agree_on_value_and_plan(self):
        problem = gaussian_grid_problem(150)
        native = solve(problem, method="multiscale", coarsen=5,
                       restricted_engine="network_simplex")
        oracle = solve(problem, method="multiscale", coarsen=5,
                       restricted_engine="lp")
        assert native.extras["restricted_engine"] == "network_simplex"
        assert oracle.extras["restricted_engine"] == "lp"
        assert native.value == pytest.approx(oracle.value, abs=1e-9)
        assert np.allclose(native.plan.toarray(), oracle.plan.toarray(),
                           atol=1e-9)

    def test_engine_validated(self):
        problem = gaussian_grid_problem(80)
        with pytest.raises(ValidationError, match="restricted_engine"):
            solve(problem, method="multiscale",
                  restricted_engine="simplex")

    def test_sparse_support_path_matches_dense_mask_path(self):
        # Forcing the index-sparse refine at a size where the dense-mask
        # path also runs: both must restrict to the same support and
        # reach the same optimum.
        problem = gaussian_grid_problem(140)
        sparse_path = solve(problem, method="multiscale", coarsen=4,
                            sparse_support=True)
        dense_path = solve(problem, method="multiscale", coarsen=4,
                           sparse_support=False)
        assert sparse_path.extras["sparse_support"] is True
        assert dense_path.extras["sparse_support"] is False
        assert sparse_path.value == pytest.approx(dense_path.value,
                                                  abs=1e-11)
        assert np.allclose(sparse_path.plan.toarray(),
                           dense_path.plan.toarray(), atol=1e-9)

    def test_pyramid_levels_warm_start_the_fine_solve(self):
        # With two pyramid levels the intermediate restricted solve
        # leaves a NetworkSimplexState in its extras; the finest level
        # must lift that basis via refine_state and report the warm
        # start in its per-level diagnostics.  The coarsest solve (the
        # network simplex, by auto dispatch) leaves one too, so the
        # intermediate level is warm-started as well.  Basis lifts only
        # apply off the monotone-certified family (an explicit cost
        # here) — on certified problems the cold staircase basis is
        # already optimal and the lift is deliberately skipped.
        problem = gaussian_grid_problem(240, explicit_cost=True)
        stacked = solve(problem, method="multiscale", coarsen=4,
                        levels=2, restricted_engine="network_simplex")
        assert stacked.extras["levels"] == 2
        assert stacked.extras["coarse_solver"] == "simplex"
        pyramid = stacked.extras["pyramid"]
        assert [info["warm_started"] for info in pyramid] == [True, True]
        assert stacked.extras["warm_started"] is True
        from repro.ot import NetworkSimplexState
        assert isinstance(stacked.extras["state"], NetworkSimplexState)
        cold = solve(problem, method="multiscale", coarsen=4, levels=1,
                     restricted_engine="network_simplex")
        assert stacked.value == pytest.approx(cold.value, abs=1e-9)

    def test_certified_pyramid_skips_the_basis_lift(self):
        # Metric cost + sorted supports: the staircase init is optimal,
        # so no level reports a warm start even on the simplex engine.
        result = solve(gaussian_grid_problem(240), method="multiscale",
                       coarsen=4, levels=2,
                       restricted_engine="network_simplex")
        assert all(info["warm_started"] is False
                   for info in result.extras["pyramid"])

    def test_lp_engine_reports_no_state(self):
        result = solve(gaussian_grid_problem(90), method="multiscale",
                       coarsen=4, restricted_engine="lp")
        assert "state" not in result.extras
        assert "warm_started" not in result.extras

    def test_banded_engine_matches_simplex_and_lp(self):
        problem = gaussian_grid_problem(150)
        banded = solve(problem, method="multiscale", coarsen=5,
                       restricted_engine="banded")
        native = solve(problem, method="multiscale", coarsen=5,
                       restricted_engine="network_simplex")
        oracle = solve(problem, method="multiscale", coarsen=5,
                       restricted_engine="lp")
        assert banded.extras["restricted_engine"] == "banded"
        assert banded.value == pytest.approx(native.value, abs=1e-9)
        assert banded.value == pytest.approx(oracle.value, abs=1e-9)
        assert np.allclose(banded.plan.toarray(), native.plan.toarray(),
                           atol=1e-9)
        assert banded.marginal_residual <= 1e-9

    def test_auto_engine_selects_banded_on_metric_cells(self):
        # Sorted supports + metric cost certify monotone optimality, so
        # the default engine="auto" must route the refine to the banded
        # kernel (no simplex pivots) and report it.
        result = solve(gaussian_grid_problem(200), method="multiscale")
        assert result.extras["restricted_engine"] == "banded"
        assert "state" not in result.extras

    def test_auto_engine_keeps_simplex_off_the_metric_family(self):
        # An explicit cost matrix voids the monotone certificate: auto
        # must stay on the exact simplex engine.
        result = solve(gaussian_grid_problem(120, explicit_cost=True),
                       method="multiscale", coarsen=4)
        assert result.extras["restricted_engine"] == "network_simplex"

    def test_banded_engine_falls_back_without_certificate(self):
        # Asking for "banded" outright on an uncertified problem is not
        # an error — the dispatcher silently falls back to the simplex
        # and reports the engine that actually ran.
        result = solve(gaussian_grid_problem(100, explicit_cost=True),
                       method="multiscale", coarsen=4,
                       restricted_engine="banded")
        assert result.extras["restricted_engine"] == "network_simplex"
        lp = solve(gaussian_grid_problem(100, explicit_cost=True),
                   method="lp")
        assert result.value == pytest.approx(lp.value, rel=1e-6)


class TestPyramid:
    """The automatic multi-level pyramid: depth control, per-level
    diagnostics, and equivalence with the historical single-level
    solve at ``levels=1``."""

    def test_auto_depth_coarsens_below_leaf_size(self):
        from repro.ot.multiscale import PYRAMID_LEAF_SIZE

        problem = gaussian_grid_problem(2400)
        result = solve(problem, method="multiscale", coarsen=4)
        assert result.extras["levels"] >= 2
        assert max(result.extras["coarse_shape"]) <= PYRAMID_LEAF_SIZE
        assert result.extras["coarse_solver"] == "exact"
        assert result.converged

    def test_pyramid_diagnostics_per_level(self):
        result = solve(gaussian_grid_problem(1600), method="multiscale",
                       coarsen=4)
        pyramid = result.extras["pyramid"]
        assert len(pyramid) == result.extras["levels"]
        # Levels are reported coarse-to-fine and end at the full shape.
        shapes = [info["shape"] for info in pyramid]
        assert shapes[-1] == (1600, 1600)
        assert all(s_prev < s_next for (s_prev, _), (s_next, _)
                   in zip(shapes, shapes[1:]))
        for info in pyramid:
            assert info["engine"] in ("network_simplex", "lp", "banded")
            assert 0.0 < info["support_density"] <= 1.0
            assert info["support_size"] > 0
        # The finest level's engine is what the result reports.
        assert result.extras["restricted_engine"] == pyramid[-1]["engine"]

    def test_levels_one_matches_historical_single_level(self):
        # levels=1 must reproduce the pre-pyramid solver exactly: one
        # coarsening, one restricted solve on the dilated support.
        problem = gaussian_grid_problem(300)
        pinned = solve(problem, method="multiscale", coarsen=4, levels=1,
                       restricted_engine="network_simplex")
        assert pinned.extras["levels"] == 1
        assert pinned.extras["coarse_shape"] == (75, 75)
        auto = solve(problem, method="multiscale", coarsen=4,
                     restricted_engine="network_simplex")
        assert pinned.value == pytest.approx(auto.value, abs=1e-9)

    def test_deeper_pyramids_agree_with_exact_oracle(self):
        # The problem is monotone-solvable, so the closed-form solver
        # is a free exactness oracle at any size.
        problem = gaussian_grid_problem(900)
        oracle = solve(problem, method="exact")
        for levels in (1, 2, 3):
            result = solve(problem, method="multiscale", coarsen=4,
                           levels=levels)
            assert result.extras["levels"] == levels
            assert result.value == pytest.approx(oracle.value,
                                                 rel=1e-9), levels
            assert result.marginal_residual <= 1e-8

    def test_levels_validated(self):
        problem = gaussian_grid_problem(80)
        with pytest.raises(ValidationError, match="levels"):
            solve(problem, method="multiscale", levels=0)
        with pytest.raises(ValidationError, match="levels"):
            solve(problem, method="multiscale", levels="deep")

    def test_depth_capped_when_reduction_stalls(self):
        # A tiny problem cannot coarsen below the minimum coarse size;
        # the pyramid must stop instead of stacking no-op levels.
        result = solve(gaussian_grid_problem(24), method="multiscale",
                       coarsen=4, levels=6)
        assert result.extras["levels"] < 6
        assert result.marginal_residual <= 1e-8


class TestTuningPins:
    """Pins for the v2-tuned dispatch constants, measured by
    ``benchmarks/test_multiscale_scaling.py`` (committed tables in
    ``benchmarks/results/multiscale.txt`` / ``BENCH_multiscale.json``).
    The banded pyramid keeps per-level work linear, so small factors
    and an early handoff from the LP remain optimal; a silent formula
    change must fail here, next to the sweep that justifies it."""

    def test_auto_limit_pinned_to_sweep(self):
        assert MULTISCALE_AUTO_LIMIT == 2000

    def test_default_coarsen_factor_pinned_to_sweep(self):
        for n in (500, 2000, 10_000, 1_000_000):
            assert default_coarsen_factor(n) == 4
