"""Conformance suite for the array-API compute seam.

Two layers of guarantees:

* **Op conformance** — every backend's operations agree with the numpy
  reference on the exact op set the OT kernels use (``cumsum``, stable
  ``argsort``, ``take_along_axis``, the ``einsum`` contraction
  patterns, ``logsumexp``, reductions, scalar-operand elementwise ops,
  ...).
* **Kernel conformance** — the kernels themselves
  (``batched_north_west_corner``, serial and batched Sinkhorn, the
  ``exact`` solver) produce backend-independent results: bit-identical
  on numpy, within tolerance elsewhere.

The ``numpy`` backend always runs.  ``array_api_numpy`` runs the
:class:`ArrayAPIBackend` adapter over numpy's main namespace, which
implements the standard from numpy 2 on.  ``array_api_strict`` (the
namespace that rejects everything outside the standard) skips unless
importable; CI installs it.
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from repro.core.backend import (ArrayAPIBackend, ArrayBackend,
                                NumpyBackend, get_backend)
from repro.exceptions import ValidationError
from repro.ot import OTProblem, solve
from repro.ot.onedim import batched_north_west_corner, north_west_corner
from repro.ot.sinkhorn import (batched_sinkhorn, batched_sinkhorn_log,
                               sinkhorn, sinkhorn_log)


HAS_STRICT = importlib.util.find_spec("array_api_strict") is not None


@pytest.fixture(params=[
    pytest.param("numpy", id="numpy"),
    pytest.param("array_api_numpy", id="array_api_numpy",
                 marks=pytest.mark.skipif(
                     not hasattr(np, "__array_namespace_info__"),
                     reason="numpy < 2 lacks the array-API namespace")),
    pytest.param("array_api_strict", id="array_api_strict",
                 marks=pytest.mark.skipif(
                     not HAS_STRICT,
                     reason="array_api_strict not installed")),
])
def nx(request) -> ArrayBackend:
    if request.param == "array_api_numpy":
        return ArrayAPIBackend(np, name="array_api_numpy")
    return get_backend(request.param)


class TestGetBackend:
    def test_default_resolves_to_numpy(self):
        assert get_backend().name == "numpy"
        assert get_backend(None) is get_backend("numpy")  # singleton

    def test_instance_passthrough(self):
        instance = NumpyBackend()
        assert get_backend(instance) is instance

    @pytest.mark.parametrize("spec", ["no-such-backend", "auto", 42])
    def test_unknown_spec_fails_with_choices(self, spec):
        with pytest.raises(ValidationError, match="unknown backend"):
            get_backend(spec)

    @pytest.mark.skipif(HAS_STRICT, reason="array_api_strict installed")
    def test_missing_strict_package_is_named(self):
        with pytest.raises(ValidationError, match="array-api-strict"):
            get_backend("array_api_strict")


class TestOpConformance:
    """Each backend op agrees with the numpy reference."""

    def test_asarray_to_numpy_round_trip(self, nx, rng):
        values = rng.normal(size=(3, 4))
        arr = nx.asarray(values, dtype=nx.float64)
        back = nx.to_numpy(arr)
        np.testing.assert_array_equal(back, values)
        assert back.dtype == np.float64

    def test_astype_and_dtypes(self, nx):
        arr = nx.asarray([1.5, 2.5], dtype=nx.float64)
        ints = nx.astype(arr, nx.int64)
        np.testing.assert_array_equal(nx.to_numpy(ints), [1, 2])
        flags = nx.asarray(np.array([True, False]), dtype=nx.bool)
        np.testing.assert_array_equal(nx.to_numpy(flags), [True, False])

    def test_creation(self, nx):
        np.testing.assert_array_equal(
            nx.to_numpy(nx.zeros((2, 3), dtype=nx.float64)),
            np.zeros((2, 3)))
        np.testing.assert_array_equal(
            nx.to_numpy(nx.ones((4,), dtype=nx.float64)), np.ones(4))
        np.testing.assert_array_equal(
            nx.to_numpy(nx.arange(2, 7, dtype=nx.int64)), np.arange(2, 7))

    def test_structure_ops(self, nx, rng):
        values = rng.normal(size=(2, 5))
        arr = nx.asarray(values, dtype=nx.float64)
        joined = nx.concat([arr, arr], axis=1)
        assert tuple(joined.shape) == (2, 10)
        reshaped = nx.reshape(joined, (4, 5))
        np.testing.assert_array_equal(
            nx.to_numpy(reshaped),
            np.concatenate([values] * 2, axis=1).reshape(4, 5))

    def test_cumsum(self, nx, rng):
        values = rng.normal(size=(3, 6))
        got = nx.to_numpy(nx.cumsum(nx.asarray(values, dtype=nx.float64),
                                    axis=1))
        np.testing.assert_allclose(got, np.cumsum(values, axis=1),
                                   atol=1e-15)

    def test_argsort_is_stable(self, nx):
        values = np.array([[2.0, 1.0, 2.0, 1.0, 0.5]])
        got = nx.to_numpy(nx.argsort(nx.asarray(values,
                                                dtype=nx.float64),
                                     axis=1))
        np.testing.assert_array_equal(
            got, np.argsort(values, axis=1, kind="stable"))

    def test_take_and_take_along_axis(self, nx, rng):
        values = rng.normal(size=(4, 6))
        arr = nx.asarray(values, dtype=nx.float64)
        order = nx.argsort(arr, axis=1)
        np.testing.assert_array_equal(
            nx.to_numpy(nx.take_along_axis(arr, order, axis=1)),
            np.sort(values, axis=1))
        picked = nx.take(arr, nx.asarray(np.array([2, 0]),
                                         dtype=nx.int64), axis=0)
        np.testing.assert_array_equal(nx.to_numpy(picked),
                                      values[[2, 0]])

    @pytest.mark.parametrize("pattern,shapes", [
        ("bij,bj->bi", ((3, 4, 5), (3, 5))),
        ("bij,bi->bj", ((3, 4, 5), (3, 4))),
        ("bt,bt->b", ((3, 7), (3, 7))),
        ("ij,j->i", ((4, 5), (5,))),
        ("ij,i->j", ((4, 5), (4,))),
    ])
    def test_einsum_patterns(self, nx, rng, pattern, shapes):
        operands = [rng.normal(size=shape) for shape in shapes]
        got = nx.to_numpy(nx.einsum(
            pattern, *[nx.asarray(op, dtype=nx.float64)
                       for op in operands]))
        np.testing.assert_allclose(got, np.einsum(pattern, *operands),
                                   atol=1e-12)

    def test_matmul_and_transpose(self, nx, rng):
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5,))
        np.testing.assert_allclose(
            nx.to_numpy(nx.matmul(nx.asarray(a, dtype=nx.float64),
                                  nx.asarray(b, dtype=nx.float64))),
            a @ b, atol=1e-12)
        np.testing.assert_array_equal(
            nx.to_numpy(nx.transpose(nx.asarray(a, dtype=nx.float64))),
            a.T)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_logsumexp(self, nx, rng, axis):
        values = rng.normal(size=(3, 4, 5)) * 10.0
        got = nx.to_numpy(nx.logsumexp(nx.asarray(values,
                                                  dtype=nx.float64),
                                       axis=axis))
        np.testing.assert_allclose(got, scipy_logsumexp(values, axis=axis),
                                   atol=1e-12)

    def test_elementwise_with_scalar_operands(self, nx, rng):
        values = rng.normal(size=(2, 5))
        arr = nx.asarray(values, dtype=nx.float64)
        np.testing.assert_allclose(
            nx.to_numpy(nx.maximum(arr, 0.1)),
            np.maximum(values, 0.1), atol=1e-15)
        np.testing.assert_allclose(
            nx.to_numpy(nx.minimum(arr, 0.1)),
            np.minimum(values, 0.1), atol=1e-15)
        np.testing.assert_array_equal(nx.to_numpy(nx.abs(arr)),
                                      np.abs(values))
        np.testing.assert_allclose(nx.to_numpy(nx.exp(arr)),
                                   np.exp(values), atol=1e-12)
        np.testing.assert_allclose(
            nx.to_numpy(nx.log(nx.abs(arr))),
            np.log(np.abs(values)), atol=1e-12)

    def test_logical(self, nx):
        values = np.array([[1.0, -2.0, 3.0]])
        arr = nx.asarray(values, dtype=nx.float64)
        mask = arr > 0.0
        other = nx.asarray(np.array([[True, True, False]]),
                           dtype=nx.bool)
        np.testing.assert_array_equal(
            nx.to_numpy(nx.logical_or(mask, other)),
            [[True, True, True]])
        assert bool(nx.to_numpy(nx.any(mask)))
        assert not bool(nx.to_numpy(nx.all(mask)))
        np.testing.assert_array_equal(
            nx.to_numpy(nx.any(mask, axis=1)), [True])

    def test_isfinite(self, nx):
        values = np.array([1.0, np.inf, np.nan])
        got = nx.to_numpy(nx.isfinite(nx.asarray(values,
                                                 dtype=nx.float64)))
        np.testing.assert_array_equal(got, [True, False, False])

    def test_reductions(self, nx, rng):
        values = rng.normal(size=(3, 4, 5))
        arr = nx.asarray(values, dtype=nx.float64)
        np.testing.assert_allclose(
            nx.to_numpy(nx.sum(arr, axis=2)), values.sum(axis=2),
            atol=1e-12)
        np.testing.assert_allclose(
            nx.to_numpy(nx.sum(arr, axis=1, keepdims=True)),
            values.sum(axis=1, keepdims=True), atol=1e-12)
        np.testing.assert_allclose(
            nx.to_numpy(nx.max(arr, axis=(1, 2))),
            values.max(axis=(1, 2)), atol=1e-15)
        assert float(nx.to_numpy(nx.max(arr))) == values.max()


class TestKernelConformance:
    """The OT kernels run correctly on every backend."""

    def test_batched_north_west_corner(self, nx, rng):
        mu = rng.dirichlet(np.ones(9), size=5)
        nu = rng.dirichlet(np.ones(7), size=5)
        rows, cols, masses = batched_north_west_corner(mu, nu, backend=nx)
        rows_h = nx.to_numpy(rows)
        cols_h = nx.to_numpy(cols)
        masses_h = nx.to_numpy(masses)
        for b in range(5):
            plan = np.zeros((9, 7))
            np.add.at(plan, (rows_h[b], cols_h[b]), masses_h[b])
            np.testing.assert_allclose(plan,
                                       north_west_corner(mu[b], nu[b]),
                                       atol=1e-12)

    def test_batched_north_west_corner_validation(self, nx):
        with pytest.raises(ValidationError, match="batch size"):
            batched_north_west_corner(np.ones((2, 3)), np.ones((3, 3)),
                                      backend=nx)
        with pytest.raises(ValidationError, match="non-negative"):
            batched_north_west_corner(np.array([[0.5, -0.5]]),
                                      np.array([[1.0]]), backend=nx)

    def test_serial_sinkhorn(self, nx, rng):
        n, m = 10, 12
        xs = np.sort(rng.normal(size=(n, 1)), axis=0)
        ys = np.sort(rng.normal(size=(m, 1)), axis=0)
        cost = (xs - ys.T) ** 2
        mu = rng.dirichlet(np.ones(n))
        nu = rng.dirichlet(np.ones(m))
        reference = sinkhorn(cost, mu, nu, epsilon=5e-2, tol=1e-10)
        result = sinkhorn(cost, mu, nu, epsilon=5e-2, tol=1e-10,
                          backend=nx)
        assert result.converged
        np.testing.assert_allclose(result.plan, reference.plan,
                                   atol=1e-9)
        reference_log = sinkhorn_log(cost, mu, nu, epsilon=5e-2,
                                     tol=1e-10)
        result_log = sinkhorn_log(cost, mu, nu, epsilon=5e-2, tol=1e-10,
                                  backend=nx)
        assert result_log.converged
        np.testing.assert_allclose(result_log.plan, reference_log.plan,
                                   atol=1e-9)

    def test_batched_sinkhorn_kernels(self, nx, rng):
        B, n = 4, 11
        costs = np.stack([
            (np.sort(rng.normal(size=(n, 1)), axis=0)
             - np.sort(rng.normal(size=(n, 1)), axis=0).T) ** 2
            for _ in range(B)])
        mus = rng.dirichlet(np.ones(n), size=B)
        nus = rng.dirichlet(np.ones(n), size=B)
        for engine, serial in ((batched_sinkhorn, sinkhorn),
                               (batched_sinkhorn_log, sinkhorn_log)):
            outcomes = engine(costs, mus, nus, epsilon=5e-2, tol=1e-10,
                              raise_on_failure=False, backend=nx)
            for b, outcome in enumerate(outcomes):
                reference = serial(costs[b], mus[b], nus[b],
                                   epsilon=5e-2, tol=1e-10,
                                   raise_on_failure=False)
                assert outcome.converged == reference.converged
                np.testing.assert_allclose(outcome.plan, reference.plan,
                                           atol=1e-9)

    def test_exact_solver_on_backend(self, nx, rng):
        n = 13
        nodes = np.sort(rng.normal(size=n))
        problem = OTProblem(source_weights=rng.dirichlet(np.ones(n)),
                            target_weights=rng.dirichlet(np.ones(n)),
                            source_support=nodes,
                            target_support=nodes + 0.5)
        reference = solve(problem, method="exact")
        result = solve(problem, method="exact", backend=nx)
        np.testing.assert_allclose(result.plan.toarray(),
                                   reference.plan.toarray(), atol=1e-12)
        assert result.value == pytest.approx(reference.value, abs=1e-12)


class TestNumpyBitIdentity:
    """The numpy backend is not merely close — it is the historical
    implementation, operation for operation."""

    def test_monotone_engine_explicit_numpy_backend_is_bitwise(self, rng):
        n = 16
        nodes = np.sort(rng.normal(size=n))
        problem = OTProblem(source_weights=rng.dirichlet(np.ones(n)),
                            target_weights=rng.dirichlet(np.ones(n)),
                            source_support=nodes,
                            target_support=nodes * 2.0)
        default = solve(problem, method="exact")
        explicit = solve(problem, method="exact", backend="numpy")
        np.testing.assert_array_equal(explicit.plan.toarray(),
                                      default.plan.toarray())
        assert explicit.value == default.value

    def test_sinkhorn_explicit_numpy_backend_is_bitwise(self, rng):
        n = 10
        cost = np.abs(rng.normal(size=(n, n)))
        mu = rng.dirichlet(np.ones(n))
        nu = rng.dirichlet(np.ones(n))
        for fn in (sinkhorn, sinkhorn_log):
            default = fn(cost, mu, nu, epsilon=5e-2, tol=1e-10,
                         raise_on_failure=False)
            explicit = fn(cost, mu, nu, epsilon=5e-2, tol=1e-10,
                          raise_on_failure=False, backend="numpy")
            np.testing.assert_array_equal(explicit.plan, default.plan)
            assert explicit.iterations == default.iterations
