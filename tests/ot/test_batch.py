"""Tests for the batched execution engine of the OT layer.

Covers the four contract areas of the batched redesign: the
:class:`OTBatch` container, the registry's batch-kernel extension, the
vectorised monotone kernel, and — the load-bearing guarantee —
``solve_many`` being bit-identical to the per-problem ``solve()`` loop
for every registered solver, over shuffled, mixed-shape batches and
every executor strategy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.executor import resolve_executor
from repro.exceptions import ValidationError
from repro.ot import (OTBatch, OTProblem, available_solvers,
                      batch_support, batched_north_west_corner,
                      north_west_corner, register_batch_solver,
                      register_solver, resolve_solver, solve, solve_many,
                      unregister_solver)

#: Result extras added by the batched dispatch; everything else must be
#: identical between solve_many and the per-problem solve() loop.
BATCH_EXTRAS = ("batched", "batch_size")

#: Solvers whose batch kernel matches the per-cell loop to solver
#: precision rather than bitwise: the stacked Sinkhorn engines contract
#: with einsum where the serial loop uses matmul, so agreement is
#: numerical (<= 1e-12), with identical iteration schedules.
ENTROPIC_BATCHED = ("sinkhorn", "sinkhorn_log")


def design_cells(rng, sizes=(18, 18, 18, 18, 24, 24)):
    """Design-style 1-D cells: shared sorted grid per size, KDE-ish pmfs."""
    problems = []
    for n in sizes:
        nodes = np.sort(rng.normal(size=n))
        mu = rng.dirichlet(np.ones(n) * 2.0)
        nu = rng.dirichlet(np.ones(n) * 2.0)
        problems.append(OTProblem(source_weights=mu, target_weights=nu,
                                  source_support=nodes,
                                  target_support=nodes))
    order = rng.permutation(len(problems))
    return [problems[i] for i in order]


def assert_result_pairs_identical(many, serial, *, atol: float = 0.0):
    """Agreement modulo wall time and the batch-extras keys.

    ``atol=0`` (default) demands bitwise identity; the entropic batch
    kernels pass their documented ``atol=1e-12`` instead (values and
    plans within tolerance, everything discrete still exactly equal).
    """
    assert len(many) == len(serial)
    for got, expected in zip(many, serial):
        assert got.solver == expected.solver
        assert got.converged == expected.converged
        assert got.n_iter == expected.n_iter
        assert got.plan.is_sparse == expected.plan.is_sparse
        if atol == 0.0:
            assert got.value == expected.value
            assert got.residual_source == expected.residual_source
            assert got.residual_target == expected.residual_target
        else:
            assert got.value == pytest.approx(expected.value, abs=atol)
            assert got.residual_source == pytest.approx(
                expected.residual_source, abs=atol)
            assert got.residual_target == pytest.approx(
                expected.residual_target, abs=atol)
        if got.plan.is_sparse:
            np.testing.assert_array_equal(got.plan.matrix.indices,
                                          expected.plan.matrix.indices)
            np.testing.assert_array_equal(got.plan.matrix.indptr,
                                          expected.plan.matrix.indptr)
            np.testing.assert_allclose(got.plan.matrix.data,
                                       expected.plan.matrix.data,
                                       rtol=0.0, atol=atol)
        else:
            np.testing.assert_allclose(got.plan.matrix,
                                       expected.plan.matrix,
                                       rtol=0.0, atol=atol)
        stripped = {key: value for key, value in got.extras.items()
                    if key not in BATCH_EXTRAS}
        assert stripped == expected.extras


class TestOTBatch:
    def test_container_protocol(self, rng):
        problems = design_cells(rng)
        batch = OTBatch(problems)
        assert len(batch) == len(problems)
        assert list(batch) == list(problems)
        assert batch[0] is problems[0]
        sub = batch.subset([2, 0])
        assert list(sub) == [problems[2], problems[0]]

    def test_shape_structure(self, rng):
        batch = OTBatch(design_cells(rng, sizes=(10, 10, 10)))
        assert batch.is_uniform
        assert batch.shape == (10, 10)
        mixed = OTBatch(design_cells(rng, sizes=(10, 12)))
        assert not mixed.is_uniform
        with pytest.raises(ValidationError, match="no common shape"):
            mixed.shape
        with pytest.raises(ValidationError, match="no common shape"):
            mixed.source_weight_stack()

    def test_stacked_views_roundtrip(self, rng):
        problems = design_cells(rng, sizes=(9, 9, 9, 9))
        batch = OTBatch(problems)
        mu = batch.source_weight_stack()
        xs = batch.source_support_stack()
        assert mu.shape == (4, 9) and xs.shape == (4, 9)
        for b, problem in enumerate(problems):
            np.testing.assert_array_equal(mu[b], problem.source_weights)
            np.testing.assert_array_equal(xs[b],
                                          problem.source_support.ravel())

    def test_from_arrays_shared_and_stacked_grids(self, rng):
        mu = rng.dirichlet(np.ones(6), size=3)
        nu = rng.dirichlet(np.ones(6), size=3)
        grid = np.linspace(0.0, 1.0, 6)
        shared = OTBatch.from_arrays(mu, nu, source_support=grid,
                                     target_support=grid)
        assert len(shared) == 3 and shared.is_one_dimensional
        grids = np.tile(grid, (3, 1))
        stacked = OTBatch.from_arrays(mu, nu, source_support=grids,
                                      target_support=grids)
        np.testing.assert_array_equal(stacked.source_support_stack(),
                                      shared.source_support_stack())

    def test_rejects_non_problems(self):
        with pytest.raises(ValidationError, match="OTProblem"):
            OTBatch((np.eye(2),))

    def test_has_shared_grid_keys_on_grids_not_shapes(self, rng):
        """Equal shapes must NOT count as a shared grid — every design
        cell has its own sample range, and a kernel sharing per-grid
        work (one cost matrix) on shape evidence alone would silently
        solve the wrong problems."""
        same_shape = OTBatch(design_cells(rng, sizes=(10, 10, 10)))
        assert same_shape.is_uniform
        assert not same_shape.has_shared_grid  # distinct random grids
        grid = np.linspace(0.0, 1.0, 10)
        weights = rng.dirichlet(np.ones(10), size=4)
        shared = OTBatch(tuple(
            OTProblem(source_weights=weights[b],
                      target_weights=weights[(b + 1) % 4],
                      source_support=grid, target_support=grid)
            for b in range(4)))
        assert shared.has_shared_grid
        # Equal values on distinct array objects still share.
        copied = OTBatch((shared[0], OTProblem(
            source_weights=weights[2], target_weights=weights[3],
            source_support=grid.copy(), target_support=grid.copy())))
        assert copied.has_shared_grid

    def test_has_shared_grid_needs_supports(self, rng):
        explicit = OTBatch(tuple(
            OTProblem(source_weights=rng.dirichlet(np.ones(5)),
                      target_weights=rng.dirichlet(np.ones(5)),
                      cost=np.abs(rng.normal(size=(5, 5))))
            for _ in range(2)))
        assert not explicit.has_shared_grid

    def test_from_arrays_batch_size_mismatch(self, rng):
        with pytest.raises(ValidationError, match="batch size"):
            OTBatch.from_arrays(rng.dirichlet(np.ones(4), size=3),
                                rng.dirichlet(np.ones(4), size=2),
                                source_support=np.arange(4.0),
                                target_support=np.arange(4.0))


class TestRegistryBatchExtension:
    def test_builtin_batch_support(self):
        support = batch_support()
        for name in ("exact", "sinkhorn", "sinkhorn_log"):
            assert support[name] is True, name
        for name in ("simplex", "lp", "screened", "multiscale"):
            assert support[name] is False, name

    def test_aliases_share_the_kernel(self):
        assert resolve_solver("monotone").supports_batch
        assert resolve_solver("1d").supports_batch

    def test_register_batch_solver_round_trip(self, rng):
        @register_solver("test-batch", description="outer product")
        def outer(problem):
            return np.outer(problem.source_weights,
                            problem.target_weights)

        try:
            assert not resolve_solver("test-batch").supports_batch

            @register_batch_solver("test-batch")
            def outer_batch(batch):
                return [np.outer(p.source_weights, p.target_weights)
                        for p in batch]

            solver = resolve_solver("test-batch")
            assert solver.supports_batch
            problems = design_cells(rng, sizes=(8, 8))
            results = solve_many(problems, method="test-batch")
            for problem, result in zip(problems, results):
                assert result.extras["batched"] is True
                np.testing.assert_array_equal(
                    result.plan.matrix,
                    np.outer(problem.source_weights,
                             problem.target_weights))
        finally:
            unregister_solver("test-batch")

    def test_batch_kernel_needs_registered_solver(self):
        with pytest.raises(ValidationError, match="unknown solver"):
            register_batch_solver("no-such-solver")(lambda batch: [])

    def test_wrong_result_count_rejected(self, rng):
        register_solver("test-short", description="drops results")(
            lambda problem: np.outer(problem.source_weights,
                                     problem.target_weights))
        register_batch_solver("test-short")(lambda batch: [])
        try:
            with pytest.raises(ValidationError, match="returned 0 results"):
                solve_many(design_cells(rng, sizes=(8, 8)),
                           method="test-short")
        finally:
            unregister_solver("test-short")


class TestBatchedMonotoneKernel:
    def test_matches_staircase_walk_plan(self, rng):
        mu = rng.dirichlet(np.ones(9), size=5)
        nu = rng.dirichlet(np.ones(7), size=5)
        rows, cols, masses = batched_north_west_corner(mu, nu)
        for b in range(5):
            plan = np.zeros((9, 7))
            np.add.at(plan, (rows[b], cols[b]), masses[b])
            np.testing.assert_allclose(plan, north_west_corner(mu[b],
                                                               nu[b]),
                                       atol=1e-12)

    def test_batch_composition_invariance(self, rng):
        """A problem's staircase is bitwise independent of its batchmates."""
        mu = rng.dirichlet(np.ones(11), size=6)
        nu = rng.dirichlet(np.ones(8), size=6)
        rows, cols, masses = batched_north_west_corner(mu, nu)
        for b in range(6):
            r1, c1, m1 = batched_north_west_corner(mu[b:b + 1],
                                                   nu[b:b + 1])
            np.testing.assert_array_equal(rows[b], r1[0])
            np.testing.assert_array_equal(cols[b], c1[0])
            np.testing.assert_array_equal(masses[b], m1[0])

    def test_validation(self):
        with pytest.raises(ValidationError, match="batch size"):
            batched_north_west_corner(np.ones((2, 3)), np.ones((3, 3)))
        with pytest.raises(ValidationError, match="non-negative"):
            batched_north_west_corner(np.array([[0.5, -0.5]]),
                                      np.array([[1.0]]))
        with pytest.raises(ValidationError, match="positive total mass"):
            batched_north_west_corner(np.array([[0.0, 0.0]]),
                                      np.array([[1.0]]))


class TestSolveManyEquivalence:
    """The acceptance guarantee: solve_many over a shuffled cell batch is
    bit-identical to the per-cell solve() loop for every registered
    solver (batch kernel and executor fallback alike)."""

    @pytest.mark.parametrize("method", sorted(available_solvers()))
    def test_matches_per_cell_loop(self, rng, method):
        problems = design_cells(rng)
        serial = [solve(problem, method=method) for problem in problems]
        many = solve_many(problems, method=method)
        atol = 1e-12 if method in ENTROPIC_BATCHED else 0.0
        assert_result_pairs_identical(many, serial, atol=atol)

    def test_exact_cells_ran_through_the_batch_kernel(self, rng):
        problems = design_cells(rng)
        many = solve_many(problems, method="exact")
        for result in many:
            assert result.extras["batched"] is True
        sizes = {result.plan.shape[0]: result.extras["batch_size"]
                 for result in many}
        # One vectorised dispatch per shared shape.
        assert sizes == {18: 4, 24: 2}

    def test_auto_groups_and_dispatches_like_solve(self, rng):
        problems = design_cells(rng, sizes=(16, 16, 20))
        # A masked problem forces auto off the monotone path.
        base = problems[0]
        masked = OTProblem(
            source_weights=base.source_weights,
            target_weights=base.target_weights,
            source_support=base.source_support,
            target_support=base.target_support,
            support_mask=np.eye(base.shape[0], dtype=bool))
        mixed = problems + [masked]
        serial = [solve(problem, method="auto") for problem in mixed]
        many = solve_many(mixed, method="auto")
        assert_result_pairs_identical(many, serial)
        assert {result.solver for result in many} == {"exact", "lp"}

    def test_empty_batch(self):
        assert solve_many([]) == []

    def test_opts_reach_explicit_solvers_verbatim(self, rng):
        problems = design_cells(rng, sizes=(12, 12))
        many = solve_many(problems, method="sinkhorn", epsilon=5e-2)
        serial = [solve(problem, method="sinkhorn", epsilon=5e-2)
                  for problem in problems]
        assert_result_pairs_identical(many, serial, atol=1e-12)
        assert all(result.extras["epsilon"] == 5e-2 for result in many)
        with pytest.raises(TypeError):
            solve_many(problems, method="simplex", epsilon=1.0)

    def test_auto_filters_opts_once_per_group(self, rng, monkeypatch):
        """No per-cell inspect.signature: option filtering happens once
        per dispatch group, however many cells the batch holds."""
        import repro.ot.registry as registry

        calls = []
        real_signature = registry.inspect.signature

        def counting_signature(fn):
            calls.append(fn)
            return real_signature(fn)

        monkeypatch.setattr(registry.inspect, "signature",
                            counting_signature)
        problems = design_cells(rng, sizes=(10,) * 8)
        solve_many(problems, method="auto", epsilon=1e-2)
        assert len(calls) == 1  # one group ("exact"), one filter pass

    def test_invalid_executor_rejected(self, rng):
        with pytest.raises(ValidationError, match="map"):
            solve_many(design_cells(rng, sizes=(8,)), method="lp",
                       executor=object())


class TestExecutorMatrix:
    """serial / thread / process fallbacks all reproduce the serial loop."""

    @pytest.mark.parametrize("strategy", ["serial", "thread", "process"])
    def test_fallback_matches_serial(self, rng, strategy):
        problems = design_cells(rng, sizes=(14, 14, 18, 18))
        serial = [solve(problem, method="lp") for problem in problems]
        engine = resolve_executor(strategy, n_jobs=2)
        many = solve_many(problems, method="lp", executor=engine)
        assert_result_pairs_identical(many, serial)

    def test_executor_name_strings_resolve(self, rng):
        problems = design_cells(rng, sizes=(10, 10))
        many = solve_many(problems, method="lp", executor="thread")
        serial = [solve(problem, method="lp") for problem in problems]
        assert_result_pairs_identical(many, serial)

    def test_raw_concurrent_futures_pool_accepted(self, rng):
        from concurrent.futures import ThreadPoolExecutor

        problems = design_cells(rng, sizes=(10, 10))
        with ThreadPoolExecutor(max_workers=2) as pool:
            many = solve_many(problems, method="lp", executor=pool)
        serial = [solve(problem, method="lp") for problem in problems]
        assert_result_pairs_identical(many, serial)


class TestSinkhornBatchKernels:
    """The entropic batch kernels: stacked (B, n, m) iterations with
    per-problem convergence masking, within 1e-12 of the per-cell loop."""

    @pytest.mark.parametrize("method", ENTROPIC_BATCHED)
    def test_batched_within_1e12_of_per_cell(self, rng, method):
        problems = design_cells(rng, sizes=(14, 14, 14, 20, 20))
        serial = [solve(problem, method=method, epsilon=5e-2, tol=1e-10)
                  for problem in problems]
        many = solve_many(problems, method=method, epsilon=5e-2,
                          tol=1e-10)
        assert_result_pairs_identical(many, serial, atol=1e-12)
        for result in many:
            assert result.extras["batched"] is True

    @pytest.mark.parametrize("method", ENTROPIC_BATCHED)
    def test_shuffle_property(self, rng, method):
        """Shuffling the batch permutes the results and changes nothing
        else — convergence masking and compaction are order-free."""
        problems = design_cells(rng, sizes=(12,) * 6)
        baseline = solve_many(problems, method=method, epsilon=5e-2,
                              tol=1e-10)
        order = rng.permutation(len(problems))
        shuffled = solve_many([problems[i] for i in order], method=method,
                              epsilon=5e-2, tol=1e-10)
        for position, original in enumerate(order):
            got, expected = shuffled[position], baseline[original]
            np.testing.assert_allclose(got.plan.matrix,
                                       expected.plan.matrix,
                                       rtol=0.0, atol=1e-12)
            assert got.n_iter == expected.n_iter
            assert got.converged == expected.converged

    def test_per_problem_masking_freezes_each_cell_at_its_own_iteration(
            self, rng):
        """Cells converge at different iteration counts inside one
        batched dispatch — the masking must freeze each at its own
        checkpoint, exactly like its lone per-cell run."""
        problems = design_cells(rng, sizes=(16,) * 8)
        many = solve_many(problems, method="sinkhorn_log", epsilon=5e-2,
                          tol=1e-10)
        iters = {result.n_iter for result in many}
        assert len(iters) > 1, "fixture too easy: all cells converged " \
                               "at the same checkpoint"
        for problem, result in zip(problems, many):
            lone = solve(problem, method="sinkhorn_log", epsilon=5e-2,
                         tol=1e-10)
            assert result.n_iter == lone.n_iter

    def test_equal_shape_different_grid_regression(self, rng):
        """The shared-grid fix: equal-shape cells on *different* grids
        must each be solved against their own cost matrix.  A kernel
        keying the shared-cost fast path on shapes (the old uniform-
        shape detection) would solve every cell on cell 0's grid and
        produce plans that match nothing below."""
        n = 12
        problems = []
        for shift in (0.0, 2.5, -1.0, 7.0):
            nodes = np.sort(rng.normal(size=n)) + shift
            problems.append(OTProblem(
                source_weights=rng.dirichlet(np.ones(n) * 2.0),
                target_weights=rng.dirichlet(np.ones(n) * 2.0),
                source_support=nodes,
                target_support=nodes * 1.5))
        batch = OTBatch(tuple(problems))
        assert batch.is_uniform and not batch.has_shared_grid
        for method in ENTROPIC_BATCHED:
            serial = [solve(problem, method=method, epsilon=5e-2,
                            tol=1e-10) for problem in problems]
            many = solve_many(problems, method=method, epsilon=5e-2,
                              tol=1e-10)
            assert_result_pairs_identical(many, serial, atol=1e-12)

    def test_shared_grid_fast_path_matches_per_problem_stack(self, rng):
        """When every cell provably shares one grid and cost recipe the
        kernel may evaluate the cost once — and must still match the
        per-cell loop."""
        n = 15
        grid = np.sort(rng.normal(size=n))
        problems = [OTProblem(
            source_weights=rng.dirichlet(np.ones(n) * 2.0),
            target_weights=rng.dirichlet(np.ones(n) * 2.0),
            source_support=grid, target_support=grid)
            for _ in range(5)]
        assert OTBatch(tuple(problems)).has_shared_grid
        for method in ENTROPIC_BATCHED:
            serial = [solve(problem, method=method, epsilon=5e-2,
                            tol=1e-10) for problem in problems]
            many = solve_many(problems, method=method, epsilon=5e-2,
                              tol=1e-10)
            assert_result_pairs_identical(many, serial, atol=1e-12)


class TestBackendThreading:
    """backend= flows through solve/solve_many to the aware solvers and
    is dropped (with fail-fast name validation) for the rest."""

    def test_solve_many_backend_numpy_matches_default(self, rng):
        problems = design_cells(rng, sizes=(10, 10, 14))
        default = solve_many(problems, method="exact")
        explicit = solve_many(problems, method="exact", backend="numpy")
        for got, expected in zip(explicit, default):
            np.testing.assert_array_equal(got.plan.toarray(),
                                          expected.plan.toarray())
            assert got.value == expected.value
            assert got.extras == expected.extras

    def test_auto_offers_backend_to_dispatch_targets(self, rng):
        problems = design_cells(rng, sizes=(10, 10))
        results = solve_many(problems, method="auto", backend="numpy")
        assert all(result.solver == "exact" for result in results)
        serial = [solve(problem, method="auto") for problem in problems]
        assert_result_pairs_identical(results, serial)

    def test_backend_dropped_for_unaware_solvers(self, rng):
        problems = design_cells(rng, sizes=(8, 8))
        results = solve_many(problems, method="lp", backend="numpy")
        serial = [solve(problem, method="lp") for problem in problems]
        assert_result_pairs_identical(results, serial)

    def test_unknown_backend_fails_fast(self, rng):
        problems = design_cells(rng, sizes=(8,))
        with pytest.raises(ValidationError, match="unknown backend"):
            solve_many(problems, method="exact", backend="no-such-device")
        with pytest.raises(ValidationError, match="unknown backend"):
            solve(problems[0], method="lp", backend="no-such-device")


# -- property-based: batch invariance of the exact solver ---------------------


@given(mu=arrays(np.float64, (4, 6),
                 elements=st.floats(0.05, 10.0, allow_nan=False)),
       nu=arrays(np.float64, (4, 6),
                 elements=st.floats(0.05, 10.0, allow_nan=False)),
       seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_solve_many_bitwise_matches_solve_loop(mu, nu, seed):
    rng = np.random.default_rng(seed)
    grid = np.sort(rng.normal(size=6))
    problems = [OTProblem(source_weights=mu[b], target_weights=nu[b],
                          source_support=grid, target_support=grid)
                for b in range(4)]
    order = rng.permutation(4)
    shuffled = [problems[i] for i in order]
    serial = [solve(problem, method="exact") for problem in shuffled]
    many = solve_many(shuffled, method="exact")
    assert_result_pairs_identical(many, serial)


# -- the restricted-engine hybrids under batching -----------------------------


class TestRestrictedEngineBatch:
    """screened/multiscale run their restricted solve on the native
    network simplex by default; the scipy-LP engine stays available as
    the oracle and both must agree — per cell and under solve_many."""

    @staticmethod
    def _grid_cells(rng, sizes=(60, 60, 80)):
        problems = []
        for n in sizes:
            nodes = np.linspace(-2.5, 2.5, n)
            mu = rng.dirichlet(np.ones(n) * 2.0)
            nu = rng.dirichlet(np.ones(n) * 2.0)
            problems.append(OTProblem(source_weights=mu, target_weights=nu,
                                      source_support=nodes,
                                      target_support=nodes))
        return problems

    @pytest.mark.parametrize("method", ["screened", "multiscale"])
    def test_engines_agree_on_objective(self, rng, method):
        for problem in self._grid_cells(rng):
            native = solve(problem, method=method,
                           restricted_engine="network_simplex")
            oracle = solve(problem, method=method,
                           restricted_engine="lp")
            assert native.extras["restricted_engine"] == "network_simplex"
            assert oracle.extras["restricted_engine"] == "lp"
            assert native.value == pytest.approx(oracle.value, abs=1e-9)
            assert native.marginal_residual <= 1e-9

    @pytest.mark.parametrize("strategy", ["serial", "thread", "process"])
    def test_solve_many_bit_identical_across_executors(self, rng, strategy):
        """The new engine's results — including the NetworkSimplexState
        riding in extras — survive every executor bit-identically."""
        from repro.core.executor import resolve_executor

        problems = self._grid_cells(rng, sizes=(40, 40, 50))
        serial = [solve(problem, method="screened",
                        restricted_engine="network_simplex")
                  for problem in problems]
        engine = resolve_executor(strategy, n_jobs=2)
        many = solve_many(problems, method="screened",
                          restricted_engine="network_simplex",
                          executor=engine)
        assert_result_pairs_identical(many, serial)
        for result in many:
            assert result.extras["restricted_engine"] == "network_simplex"

    def test_solve_many_network_simplex_solver(self, rng):
        problems = self._grid_cells(rng, sizes=(30, 30))
        serial = [solve(problem, method="network_simplex")
                  for problem in problems]
        many = solve_many(problems, method="network_simplex")
        assert_result_pairs_identical(many, serial)
