"""Tests for Algorithm 1 (repair-plan design)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.design import design_feature_plan, design_repair
from repro.exceptions import ValidationError
from repro.ot import OTProblem, solve
from repro.ot.coupling import is_sparse_enough, marginal_residual
from repro.ot.onedim import wasserstein_1d

from _dense import dense_repair_plan


@pytest.fixture
def samples_by_s(rng):
    return {0: rng.normal(-1.0, 1.0, size=70),
            1: rng.normal(1.0, 1.0, size=90)}


class TestDesignFeaturePlan:
    def test_grid_spans_combined_range(self, samples_by_s):
        plan = design_feature_plan(samples_by_s, 30)
        combined = np.concatenate([samples_by_s[0], samples_by_s[1]])
        assert plan.grid.low == pytest.approx(combined.min())
        assert plan.grid.high == pytest.approx(combined.max())

    def test_transports_couple_marginal_to_barycenter(self, samples_by_s):
        plan = design_feature_plan(samples_by_s, 30)
        for s in (0, 1):
            residual = marginal_residual(plan.transports[s].matrix,
                                         plan.marginals[s],
                                         plan.barycenter)
            assert residual < 1e-8

    def test_barycenter_is_w2_midpoint(self, samples_by_s):
        plan = design_feature_plan(samples_by_s, 60)
        nodes = plan.grid.nodes
        d0 = wasserstein_1d(nodes, plan.marginals[0], nodes,
                            plan.barycenter, p=2)
        d1 = wasserstein_1d(nodes, plan.marginals[1], nodes,
                            plan.barycenter, p=2)
        assert d0 == pytest.approx(d1, rel=0.1, abs=0.02)

    def test_t_zero_target_is_mu0(self, samples_by_s):
        plan = design_feature_plan(samples_by_s, 60, t=0.0)
        nodes = plan.grid.nodes
        gap = wasserstein_1d(nodes, plan.barycenter, nodes,
                             plan.marginals[0], p=2)
        assert gap < 0.1

    def test_t_one_target_is_mu1(self, samples_by_s):
        plan = design_feature_plan(samples_by_s, 60, t=1.0)
        nodes = plan.grid.nodes
        gap = wasserstein_1d(nodes, plan.barycenter, nodes,
                             plan.marginals[1], p=2)
        assert gap < 0.1

    def test_solvers_agree_on_plan_cost(self, samples_by_s):
        exact = design_feature_plan(samples_by_s, 15, solver="exact")
        simplex = design_feature_plan(samples_by_s, 15, solver="simplex")
        for s in (0, 1):
            assert exact.transports[s].cost == pytest.approx(
                simplex.transports[s].cost, rel=1e-6, abs=1e-10)

    def test_sinkhorn_solver_near_exact(self, samples_by_s):
        exact = design_feature_plan(samples_by_s, 15, solver="exact")
        entropic = design_feature_plan(samples_by_s, 15,
                                       solver="sinkhorn", epsilon=1e-3)
        for s in (0, 1):
            assert entropic.transports[s].cost >= \
                exact.transports[s].cost - 1e-9
            assert entropic.transports[s].cost == pytest.approx(
                exact.transports[s].cost, rel=0.25, abs=0.01)

    def test_linear_estimator_mass_matches_empirical(self, rng):
        samples = {0: np.full(50, 3.0), 1: rng.normal(3.0, 1.0, size=50)}
        plan = design_feature_plan(samples, 20,
                                   marginal_estimator="linear")
        # All s=0 mass must sit on the two nodes bracketing the atom.
        idx, tau = plan.grid.locate(np.array([3.0]))
        mass = (plan.marginals[0][idx[0]]
                + plan.marginals[0][idx[0] + 1])
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_padding_widens_grid(self, samples_by_s):
        plain = design_feature_plan(samples_by_s, 20)
        padded = design_feature_plan(samples_by_s, 20, padding=0.1)
        assert padded.grid.low < plain.grid.low
        assert padded.grid.high > plain.grid.high

    def test_missing_class_rejected(self, rng):
        with pytest.raises(ValidationError, match="both s=0 and s=1"):
            design_feature_plan({0: rng.normal(size=10)}, 10)

    def test_empty_subgroup_rejected(self, rng):
        with pytest.raises(ValidationError, match="no research points"):
            design_feature_plan({0: np.array([]),
                                 1: rng.normal(size=10)}, 10)

    def test_single_point_subgroup_allowed(self, rng):
        # Figure 3's smallest research sizes leave 1-2 points in the
        # rarest subgroup; the design must degrade gracefully, not fail.
        plan = design_feature_plan({0: [1.0], 1: rng.normal(size=10)}, 10)
        assert plan.marginals[0].sum() == pytest.approx(1.0)

    def test_unknown_solver_rejected(self, samples_by_s):
        with pytest.raises(ValidationError, match="unknown solver"):
            design_feature_plan(samples_by_s, 10, solver="quantum")

    def test_unknown_estimator_rejected(self, samples_by_s):
        with pytest.raises(ValidationError, match="marginal_estimator"):
            design_feature_plan(samples_by_s, 10,
                                marginal_estimator="spline")


class TestDesignRepair:
    def test_covers_all_cells(self, paper_split):
        plan = design_repair(paper_split.research, 25)
        assert plan.n_features == 2
        assert set(plan.feature_plans) == {(u, k) for u in (0, 1)
                                           for k in (0, 1)}
        assert plan.t == 0.5

    def test_metadata_recorded(self, paper_split):
        plan = design_repair(paper_split.research, 25, solver="exact")
        assert plan.metadata["solver"] == "exact"
        assert plan.metadata["n_research"] == len(paper_split.research)
        assert plan.metadata["marginal_estimator"] == "kde"

    def test_backend_reaches_the_solves_through_solver_opts(self,
                                                             paper_split):
        from repro.core.backend import NumpyBackend

        calls = []

        class Probe(NumpyBackend):
            def cumsum(self, x, axis):
                calls.append(axis)
                return super().cumsum(x, axis)

        default = design_repair(paper_split.research, 20)
        explicit = design_repair(paper_split.research, 20,
                                 solver_opts={"backend": Probe()})
        assert calls, "the exact kernel never ran on the given backend"
        for key, feature_plan in default.feature_plans.items():
            for s, transport in feature_plan.transports.items():
                np.testing.assert_array_equal(
                    explicit.feature_plans[key].transports[s].toarray(),
                    transport.toarray())

    def test_per_cell_resolutions(self, paper_split):
        states = {(u, k): 10 + 5 * u + k for u in (0, 1) for k in (0, 1)}
        plan = design_repair(paper_split.research, states)
        for (u, k), n_q in states.items():
            assert plan.feature_plan(u, k).grid.n_states == n_q

    def test_missing_cell_resolution_rejected(self, paper_split):
        with pytest.raises(ValidationError, match="missing cell"):
            design_repair(paper_split.research, {(0, 0): 10})

    def test_group_without_both_classes_rejected(self, rng):
        from repro.data.dataset import FairnessDataset
        x = rng.normal(size=(20, 1))
        s = np.zeros(20, dtype=int)
        s[:10] = 1
        u = np.zeros(20, dtype=int)
        u[:10] = 1  # u=1 rows are all s=1; u=0 rows all s=0
        data = FairnessDataset(x, s, u)
        with pytest.raises(ValidationError, match="lacks research data"):
            design_repair(data, 10)


class TestRegistryThreading:
    """Algorithm 1 resolves its solver through the unified OT registry."""

    def test_registered_name_usable(self, samples_by_s):
        plan = design_feature_plan(samples_by_s, 15, solver="lp")
        for s in (0, 1):
            assert plan.diagnostics[s]["solver"] == "lp"

    def test_solver_instance_usable(self, samples_by_s):
        from repro.ot import resolve_solver
        plan = design_feature_plan(samples_by_s, 15,
                                   solver=resolve_solver("simplex"))
        assert plan.diagnostics[0]["solver"] == "simplex"

    def test_screened_matches_exact_plan_cost(self, samples_by_s):
        exact = design_feature_plan(samples_by_s, 15, solver="exact")
        screened = design_feature_plan(samples_by_s, 15, solver="screened")
        for s in (0, 1):
            assert screened.transports[s].cost == pytest.approx(
                exact.transports[s].cost, rel=1e-6, abs=1e-12)

    def test_diagnostics_recorded(self, samples_by_s):
        plan = design_feature_plan(samples_by_s, 15, solver="exact")
        for s in (0, 1):
            record = plan.diagnostics[s]
            assert record["converged"] is True
            assert record["residual"] <= 1e-8
            assert record["wall_time"] >= 0.0

    def test_design_repair_aggregates_diagnostics(self, paper_split):
        plan = design_repair(paper_split.research, 20, solver="exact")
        assert plan.metadata["ot_wall_time"] >= 0.0
        assert plan.metadata["n_unconverged"] == 0
        diagnostics = plan.solver_diagnostics()
        assert set(diagnostics) == set(plan.feature_plans)
        for cell_records in diagnostics.values():
            assert set(cell_records) == {0, 1}


def _strip_wall_time(record: dict) -> dict:
    return {k: v for k, v in record.items() if k != "wall_time"}


class TestParallelDesign:
    """`n_jobs` fans the independent (u, k) cells across processes; the
    result must be indistinguishable from the serial loop."""

    @pytest.mark.parametrize("solver", ["exact", "screened"])
    def test_parallel_matches_serial_exactly(self, paper_split, solver):
        serial = design_repair(paper_split.research, 20, solver=solver)
        parallel = design_repair(paper_split.research, 20, solver=solver,
                                 n_jobs=2)
        assert set(parallel.feature_plans) == set(serial.feature_plans)
        for key, expected in serial.feature_plans.items():
            got = parallel.feature_plans[key]
            np.testing.assert_array_equal(got.grid.nodes,
                                          expected.grid.nodes)
            np.testing.assert_array_equal(got.barycenter,
                                          expected.barycenter)
            for s in (0, 1):
                np.testing.assert_array_equal(got.marginals[s],
                                              expected.marginals[s])
                assert got.transports[s].is_sparse == \
                    expected.transports[s].is_sparse
                np.testing.assert_array_equal(
                    got.transports[s].toarray(),
                    expected.transports[s].toarray())
                # Per-cell diagnostics survive the fan-out; only the
                # wall clock is nondeterministic.
                assert _strip_wall_time(got.diagnostics[s]) == \
                    _strip_wall_time(expected.diagnostics[s])

    def test_parallel_repairs_identically(self, paper_split):
        serial = design_repair(paper_split.research, 15)
        parallel = design_repair(paper_split.research, 15, n_jobs=2)
        from repro.core.repair import repair_dataset
        a = repair_dataset(paper_split.archive, serial,
                           rng=np.random.default_rng(5))
        b = repair_dataset(paper_split.archive, parallel,
                           rng=np.random.default_rng(5))
        np.testing.assert_allclose(a.features, b.features)

    def test_n_jobs_recorded_in_metadata(self, paper_split):
        plan = design_repair(paper_split.research, 15, n_jobs=2)
        assert plan.metadata["n_jobs"] == 2
        assert design_repair(paper_split.research,
                             15).metadata["n_jobs"] == 1

    def test_invalid_n_jobs_rejected(self, paper_split):
        with pytest.raises(ValidationError, match="n_jobs"):
            design_repair(paper_split.research, 15, n_jobs=0)


class TestSparsePlanStorage:
    """Each plan is stored CSR when its density is at most
    SPARSE_DENSITY_THRESHOLD, whatever storage its solver returned."""

    def test_low_density_dense_plans_stored_csr(self, samples_by_s):
        # The LP solver returns dense plans; its vertex solution has
        # O(n_Q) support, so the design stores it as CSR, values intact.
        plan = design_feature_plan(samples_by_s, 40, solver="lp")
        for s in (0, 1):
            problem = OTProblem(source_weights=plan.marginals[s],
                                target_weights=plan.barycenter,
                                source_support=plan.grid.nodes,
                                target_support=plan.grid.nodes, p=2)
            solved = solve(problem, method="lp").plan
            assert not solved.is_sparse
            assert plan.transports[s].is_sparse
            np.testing.assert_array_equal(plan.transports[s].toarray(),
                                          solved.matrix)

    def test_default_keeps_solver_storage(self, samples_by_s):
        # "exact" emits CSR straight from its kernel; the design keeps
        # it rather than densifying, even above the threshold.
        for n_states in (3, 20):
            plan = design_feature_plan(samples_by_s, n_states)
            for s in (0, 1):
                assert plan.transports[s].is_sparse

    def test_dense_plans_stay_dense(self, samples_by_s):
        # Entropic plans carry mass almost everywhere.
        plan = design_feature_plan(samples_by_s, 20, solver="sinkhorn")
        for s in (0, 1):
            assert not is_sparse_enough(plan.transports[s].matrix)
            assert not plan.transports[s].is_sparse

    def test_sparse_design_repairs_like_dense(self, paper_split):
        # A dense transport samples through its CSR copy's sampler, so
        # the two storages repair bitwise alike.
        from repro.core.repair import repair_dataset
        sparse = design_repair(paper_split.research, 20)
        dense = dense_repair_plan(sparse)
        assert not any(transport.is_sparse
                       for feature_plan in dense.feature_plans.values()
                       for transport in feature_plan.transports.values())
        a = repair_dataset(paper_split.archive, dense,
                           rng=np.random.default_rng(9))
        b = repair_dataset(paper_split.archive, sparse,
                           rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a.features, b.features)

    def test_storage_counted_in_metadata(self, paper_split):
        plan = design_repair(paper_split.research, 15)
        assert "sparse_plans" not in plan.metadata
        assert plan.metadata["n_sparse_transports"] == \
            2 * len(plan.feature_plans)
        entropic = design_repair(paper_split.research, 15,
                                 solver="sinkhorn")
        assert entropic.metadata["n_sparse_transports"] == 0
