"""Unified entry point for every discrete OT solve in the library.

``solve(problem, method=...)`` replaces the historical five unrelated
entry points (``solve_1d``, ``solve_transport``, ``transport_simplex``,
``solve_transport_lp``, ``solve_sinkhorn``): one problem object in, one
result object out, solvers resolved through the pluggable registry.

Built-in methods
----------------

``"exact"``
    Closed-form monotone coupling — optimal for 1-D supports with any
    convex ``|x - y|^p`` cost, ``O(n + m)``.
``"simplex"``
    Arc-list network simplex (aliases ``"network_simplex"``,
    ``"netsimplex"``), exact; honours a ``support_mask`` and
    warm-starts from a previous basis.
``"lp"``
    scipy/HiGHS linear-programming oracle; honours a sparse
    ``support_mask`` by solving the restricted LP.
``"sinkhorn"`` / ``"sinkhorn_log"``
    Entropic OT (probability-domain scaling / log-domain stabilised).
``"screened"``
    The sparse hybrid: a cheap entropic solve *screens* the product
    support down to the top-``k`` entries per row and column, then an
    exact LP restricted to that sparse support recovers an unregularised
    plan — the POT network-simplex/Sinkhorn hybrid pattern, and this
    library's fast path for large general supports.
``"multiscale"``
    Coarsen-solve-refine (see :mod:`repro.ot.multiscale`): bin the fine
    grid, solve the coarse problem exactly, dilate the coarse plan's
    support onto the fine grid, and solve the exact LP restricted to
    that sparse support.  Needs 1-D supports; the fast path for very
    large quantile grids with metric-family costs.
``"auto"`` (default)
    Dispatches on problem structure: monotone closed form when provably
    optimal, simplex for small dense problems, LP for medium ones,
    screened beyond :data:`LP_AUTO_LIMIT` states, multiscale beyond
    :data:`MULTISCALE_AUTO_LIMIT` states when the supports are 1-D and
    the cost is metric-family (i.e. derived from those supports).

A quick doctest tour (the facade accepts a problem or the legacy
``(cost, mu, nu)`` triplet):

>>> import numpy as np
>>> from repro.ot import OTProblem, solve
>>> problem = OTProblem(source_weights=[0.5, 0.5],
...                     target_weights=[0.5, 0.5],
...                     source_support=[0.0, 1.0],
...                     target_support=[0.0, 2.0])
>>> result = solve(problem)          # auto -> monotone closed form
>>> result.solver
'exact'
>>> result.plan.toarray()
array([[0.5, 0. ],
       [0. , 0.5]])
>>> float(result.value)              # 0.5*(0-0)^2 + 0.5*(1-2)^2
0.5
>>> solve(np.eye(2), [0.5, 0.5], [0.5, 0.5], method="lp").converged
True
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from ..core.backend import get_backend
from ..exceptions import (ConvergenceError, InfeasibleProblemError,
                          ValidationError)
from .cost import pointwise_cost
from .coupling import (TransportPlan, _csr_inner_product, _issparse,
                       band_bounds, is_banded, is_sparse_enough)
from .lp import _linprog_with_presolve_retry, _lp_matrix
from .network_simplex import NetworkSimplexState, network_simplex_arcs
from .onedim import (_staircase_stack, _staircase_walk,
                     banded_monotone_transport, north_west_corner,
                     north_west_corner_support)
from .problem import (_MONOTONE_METRICS, OTBatch, OTProblem, OTResult,
                      result_from_matrix)
from .registry import (filter_opts, register_batch_solver, register_solver,
                       resolve_solver)
from .sinkhorn import batched_sinkhorn as _batched_sinkhorn_impl
from .sinkhorn import batched_sinkhorn_log as _batched_sinkhorn_log_impl
from .sinkhorn import sinkhorn as _sinkhorn_impl
from .sinkhorn import sinkhorn_log as _sinkhorn_log_impl

__all__ = ["solve", "solve_many", "auto_method", "as_problem",
           "default_screen_k", "SIMPLEX_AUTO_LIMIT", "LP_AUTO_LIMIT",
           "MULTISCALE_AUTO_LIMIT", "EPSILON_SCALING_AUTO_LIMIT",
           "SCREEN_BAND_LIMIT"]

#: Largest marginal size ``auto`` still hands to the network simplex.
SIMPLEX_AUTO_LIMIT = 64
#: Largest marginal size ``auto`` still hands to the dense LP; beyond
#: this the screened sparse hybrid takes over.
LP_AUTO_LIMIT = 300
#: Marginal size from which ``auto`` prefers the multiscale
#: coarsen-solve-refine solver over the single-level screened hybrid —
#: the regime where the entropic screen itself becomes the bottleneck.
#: Only problems with 1-D supports *and* a metric-family cost qualify:
#: the solver coarsens by support geometry, which predicts the optimal
#: support only when the cost is derived from that geometry.
MULTISCALE_AUTO_LIMIT = 2000
#: Marginal size from which the screened solver's default
#: ``epsilon_scaling="auto"`` switches the annealed Sinkhorn screen on.
#: Small problems converge fine from a cold start; past this size the
#: sharp small-epsilon screens that produce the most selective supports
#: routinely stall without the geometric epsilon schedule.
EPSILON_SCALING_AUTO_LIMIT = 1024
#: Marginal size above which the screened solver swaps the dense
#: entropic screen for the geometric *band* screen on 1-D problems with
#: a convex metric-family cost: a band of half-width ``k // 2`` around
#: the sorted north-west-corner staircase, built index-sparse so neither
#: the ``(n, m)`` cost matrix nor an ``(n, m)`` mask is ever
#: materialised.  The staircase of the sorted marginals *is* the
#: monotone optimal support for convex ``|x - y|^p`` costs, so the band
#: provably contains an optimal basis and the restricted solve is exact.
SCREEN_BAND_LIMIT = 10_000


def as_problem(problem_or_cost, source_weights=None, target_weights=None,
               **problem_kwargs) -> OTProblem:
    """Coerce the facade's positional arguments into an :class:`OTProblem`.

    Accepts either a ready-made problem (marginals must then *not* be
    repeated alongside it) or the legacy triplet
    ``(cost, source_weights, target_weights)``.
    """
    if isinstance(problem_or_cost, OTProblem):
        if source_weights is not None or target_weights is not None:
            raise ValidationError(
                "marginals are part of the OTProblem; do not pass them "
                "again alongside it")
        if problem_kwargs:
            raise ValidationError(
                "problem construction keywords "
                f"{sorted(problem_kwargs)} are only valid with the "
                "(cost, source_weights, target_weights) calling form")
        return problem_or_cost
    if source_weights is None or target_weights is None:
        raise ValidationError(
            "solve() needs an OTProblem, or a cost matrix plus both "
            "marginals")
    return OTProblem.from_cost(problem_or_cost, source_weights,
                               target_weights, **problem_kwargs)


def auto_method(problem: OTProblem) -> str:
    """The solver name ``method="auto"`` dispatches ``problem`` to.

    >>> import numpy as np
    >>> from repro.ot import OTProblem
    >>> nodes = np.linspace(0.0, 1.0, 4)
    >>> weights = np.full(4, 0.25)
    >>> auto_method(OTProblem(source_weights=weights,
    ...                       target_weights=weights,
    ...                       source_support=nodes, target_support=nodes))
    'exact'
    >>> auto_method(OTProblem(source_weights=weights,
    ...                       target_weights=weights,
    ...                       cost=np.eye(4)))
    'simplex'
    """
    if problem.is_monotone_solvable:
        return "exact"
    size = max(problem.shape)
    if problem.support_mask is not None:
        # The LP and the simplex both honour a mask; masked problems
        # stay on the LP up to LP_AUTO_LIMIT, since the simplex beats it
        # there only below a few dozen states.
        if size <= LP_AUTO_LIMIT:
            return "lp"
        return _large_scale_method(problem, size)
    if size <= SIMPLEX_AUTO_LIMIT:
        return "simplex"
    if size <= LP_AUTO_LIMIT:
        return "lp"
    return _large_scale_method(problem, size)


def _large_scale_method(problem: OTProblem, size: int) -> str:
    """Pick between the two sparse large-support paths.

    Multiscale coarsens by support geometry, which predicts the optimal
    support only when the cost is *derived from* that geometry — so it
    takes over past :data:`MULTISCALE_AUTO_LIMIT` only for 1-D-supported
    metric-family problems (in practice: masked ones, since unmasked
    metric 1-D problems are monotone-solvable and never reach here).
    Arbitrary explicit or callable costs go to the screened hybrid,
    whose Sinkhorn screen works on the true cost.
    """
    if (size >= MULTISCALE_AUTO_LIMIT and problem.is_one_dimensional
            and problem.has_metric_cost):
        return "multiscale"
    return "screened"


def solve(problem_or_cost, source_weights=None, target_weights=None, *,
          method="auto", backend=None, source_support=None,
          target_support=None, support_mask=None, **opts) -> OTResult:
    """Solve a discrete optimal-transport problem.

    Parameters
    ----------
    problem_or_cost:
        An :class:`OTProblem`, or an ``(n, m)`` cost matrix accompanied by
        the two marginals (the legacy calling convention).
    method:
        A registered solver name (see
        :func:`~repro.ot.registry.available_solvers`), a callable
        ``fn(problem, **opts)``, a :class:`~repro.ot.registry.Solver`
        instance, or ``"auto"`` (structure-based dispatch).
    backend:
        Compute backend for the solver's vectorised kernels
        (:func:`repro.core.backend.get_backend`): ``None`` for the
        bit-identical numpy reference, or ``"array_api_strict"`` for the
        conformance run.  Offered with signature filtering, like every
        other tuning knob: solvers whose signature takes ``backend``
        (``"exact"`` and the entropic kernels) receive it, the others
        (``"lp"``, ``"simplex"``, ...) ignore it.
        Unknown backend names fail fast regardless of the solver.
    **opts:
        Forwarded verbatim to the resolved solver (e.g. ``epsilon`` for
        the entropic methods, ``k`` for ``"screened"``).

    Returns
    -------
    OTResult
        Plan, cost value, marginal residuals, convergence flag, iteration
        count, solver name and wall time.
    """
    problem_kwargs = {}
    if not isinstance(problem_or_cost, OTProblem):
        problem_kwargs = {"source_support": source_support,
                          "target_support": target_support,
                          "support_mask": support_mask}
    elif (source_support is not None or target_support is not None
          or support_mask is not None):
        raise ValidationError(
            "supports/support_mask are part of the OTProblem; do not pass "
            "them again alongside it")
    problem = as_problem(problem_or_cost, source_weights, target_weights,
                         **problem_kwargs)
    if backend is not None:
        get_backend(backend)  # typos fail fast, before any solving
    if isinstance(method, str) and method == "auto":
        # Dispatch here (rather than through the registered "auto"
        # solver) so the result reports the solver that actually ran,
        # with the same opts filtering: entropic knobs passed alongside
        # method="auto" reach entropic dispatch targets and are dropped
        # for exact ones.
        solver = resolve_solver(auto_method(problem))
        if backend is not None:
            opts = {**opts, "backend": backend}
        opts = filter_opts(solver, opts)
    else:
        solver = resolve_solver(method)
        if backend is not None:
            # Only the backend knob is signature-filtered here; explicit
            # methods keep receiving their other opts verbatim.
            opts = {**opts, **filter_opts(solver, {"backend": backend})}
    start = time.perf_counter()
    result = solver(problem, **opts)
    return result.with_timing(solver.name, time.perf_counter() - start)


def solve_many(problems, *, method="auto", executor=None, backend=None,
               **opts) -> list:
    """Solve a batch of independent OT problems through one entry point.

    The batched counterpart of :func:`solve`, and the engine behind
    Algorithm 1's cell fan-out: one :class:`~repro.ot.problem.OTBatch`
    (or iterable of problems) in, one list of
    :class:`~repro.ot.problem.OTResult` out, in batch order, with every
    result identical (bitwise, up to wall time and the batch-diagnostic
    extras below) to what a per-problem ``solve(problem, method=...)``
    loop would produce.

    Dispatch per problem group:

    * solvers that declare a batch kernel
      (:func:`~repro.ot.registry.register_batch_solver`) receive every
      qualifying same-shape sub-batch in **one vectorised call** — the
      shared-shape fast path (the ``"exact"`` monotone kernel solves all
      same-grid design cells in a single NumPy dispatch);
    * everything else is fanned over ``executor`` — ``None`` for an
      in-line serial loop, or any object exposing
      ``map(fn, iterable) -> results`` (a
      :mod:`repro.core.executor` executor, or a raw
      ``concurrent.futures`` pool).  A string (``"serial"``,
      ``"thread"``, ``"process"``, ``"auto"``) is resolved through
      :func:`repro.core.executor.resolve_executor`.

    ``method="auto"`` groups the batch by :func:`auto_method`; solver
    options are signature-filtered **once per group** (not once per
    problem — the registry's ``inspect.signature`` walk leaves the hot
    loop).  An explicit method receives ``opts`` verbatim, exactly like
    :func:`solve`.

    ``backend`` selects the compute backend for the vectorised kernels
    (see :func:`solve`); the whole batch then iterates as backend array
    operations — the monotone staircase and the stacked Sinkhorn
    kernels run end-to-end on the backend and convert to NumPy/CSR only
    at the :class:`~repro.ot.coupling.TransportPlan` boundary.  Like on
    the facade, the knob is signature-filtered per solver, and the spec
    (a plain string) — not a live backend object — is what travels to
    executor workers, so process pools keep working.

    Results produced by a batch kernel additionally carry
    ``extras["batched"] = True`` and ``extras["batch_size"]``, and report
    the kernel's wall time divided evenly across the sub-batch.

    >>> import numpy as np
    >>> from repro.ot import OTProblem
    >>> cells = [OTProblem(source_weights=[0.5, 0.5],
    ...                    target_weights=[0.5, 0.5],
    ...                    source_support=[0.0, 1.0],
    ...                    target_support=[0.0, float(k)])
    ...          for k in (1, 2, 3)]
    >>> results = solve_many(cells)       # auto -> one batched dispatch
    >>> [r.solver for r in results]
    ['exact', 'exact', 'exact']
    >>> [float(r.value) for r in results]
    [0.0, 0.5, 2.0]
    >>> results[0].extras["batch_size"]
    3
    """
    batch = (problems if isinstance(problems, OTBatch)
             else OTBatch(tuple(problems)))
    if len(batch) == 0:
        return []
    if isinstance(executor, str):
        # The named executors live one layer up (repro.core.executor);
        # deferred import so the OT layer stays import-independent of it.
        from ..core.executor import resolve_executor
        executor = resolve_executor(executor)
    if executor is not None and not callable(getattr(executor, "map",
                                                     None)):
        raise ValidationError(
            "executor must be None, an executor name, or an object with "
            "map(fn, iterable) — see repro.core.executor")
    if backend is not None:
        get_backend(backend)  # typos fail fast, before any solving

    # Group the batch per dispatched solver, filtering options once per
    # group (satellite of the batched-engine design: no per-cell
    # inspect.signature overhead).
    groups = []
    if isinstance(method, str) and method == "auto":
        is_auto = True
    else:
        resolved = resolve_solver(method)
        is_auto = resolved.fn is _solve_auto
    if is_auto:
        by_name: dict = {}
        for index, problem in enumerate(batch):
            by_name.setdefault(auto_method(problem), []).append(index)
        candidates = (opts if backend is None
                      else {**opts, "backend": backend})
        for name, indices in by_name.items():
            solver = resolve_solver(name)
            groups.append((solver, filter_opts(solver, candidates),
                           indices))
    else:
        group_opts = dict(opts)
        if backend is not None:
            group_opts.update(filter_opts(resolved, {"backend": backend}))
        groups.append((resolved, group_opts, list(range(len(batch)))))

    results: list = [None] * len(batch)
    fallback = []
    for solver, group_opts, indices in groups:
        remaining = indices
        if solver.supports_batch:
            remaining = []
            by_shape: dict = {}
            for i in indices:
                if solver.can_batch(batch[i]):
                    by_shape.setdefault(batch[i].shape, []).append(i)
                else:
                    remaining.append(i)
            for same_shape in by_shape.values():
                sub = batch.subset(same_shape)
                start = time.perf_counter()
                outcomes = solver.solve_batch(sub, **group_opts)
                share = (time.perf_counter() - start) / len(same_shape)
                for i, outcome in zip(same_shape, outcomes):
                    outcome = outcome.with_timing(solver.name, share)
                    results[i] = replace(
                        outcome,
                        extras={**outcome.extras, "batched": True,
                                "batch_size": len(same_shape)})
        fallback.extend((i, solver, group_opts) for i in remaining)

    if fallback:
        payloads = [(solver, batch[i], group_opts)
                    for i, solver, group_opts in fallback]
        if executor is None:
            solved = [_solve_many_worker(payload) for payload in payloads]
        else:
            solved = list(executor.map(_solve_many_worker, payloads))
        for (i, _, _), result in zip(fallback, solved):
            results[i] = result
    return results


def _solve_many_worker(payload):
    """Solve one fallback problem (module-level so process pools can
    pickle it); mirrors the facade's solver-name/timing stamping."""
    solver, problem, opts = payload
    start = time.perf_counter()
    result = solver(problem, **opts)
    return result.with_timing(solver.name, time.perf_counter() - start)


# -- shared result assembly --------------------------------------------------


def _finish(problem: OTProblem, matrix: np.ndarray, *, value=None,
            converged: bool = True, n_iter: int = 1,
            extras: dict | None = None) -> OTResult:
    """Wrap a raw plan matrix into an :class:`OTResult` for ``problem``."""
    return result_from_matrix(problem, matrix, value=value,
                              converged=converged, n_iter=n_iter,
                              extras=extras)


# -- built-in solvers --------------------------------------------------------


def _check_monotone_problem(problem: OTProblem) -> None:
    """Raise the 'exact' solver's validation errors for bad problems."""
    if not problem.is_one_dimensional:
        raise ValidationError(
            "the 'exact' monotone solver needs 1-D source and target "
            "supports; use 'simplex', 'lp' or 'screened' for general "
            "problems")
    if problem.support_mask is not None:
        raise ValidationError(
            "the 'exact' monotone solver cannot honour a support_mask; "
            "use 'simplex', 'lp' or 'screened'")


def _monotone_batchable(problem: OTProblem) -> bool:
    """Problems the vectorised monotone kernel accepts."""
    return problem.is_one_dimensional and problem.support_mask is None


def _monotone_engine(problems, backend=None) -> list:
    """The monotone kernel shared by the serial and batched 'exact' paths.

    All ``problems`` must share one ``(n, m)`` shape and have 1-D
    unmasked supports.  Sorting, the staircase itself
    (:func:`~repro.ot.onedim.batched_north_west_corner`), the index
    un-sorting and the staircase-support gathers are each one array
    dispatch over the whole stack **on the selected compute backend**
    (:func:`repro.core.backend.get_backend`); results convert to numpy
    exactly once, for the CSR assembly and cost contraction at the
    :class:`~repro.ot.coupling.TransportPlan` boundary.  Every per-row
    operation is independent of the batch size, so a problem's plan,
    value and residuals are bit-identical whether it is solved alone or
    inside any batch.

    The plan never exists densely: :func:`_staircase_csr` turns the
    ``(B, n + m)`` staircase stack into per-problem CSR triplets in
    ``O(B·(n + m))`` time and memory, and each result wraps its
    triplets without re-validation and without scipy
    (:meth:`~repro.ot.coupling.TransportPlan._trusted`).  The triplets
    hold exactly the values the dense scatter
    ``np.bincount(rows * m + cols, masses)`` would place, so
    ``plan.toarray()`` is that dense plan bitwise.

    Returns one :class:`~repro.ot.problem.OTResult` per problem.  Each
    plan owns its buffers, so retaining one result never pins the whole
    batch.
    """
    nx = get_backend(backend)
    n, m = problems[0].shape
    xs = nx.asarray(np.stack([problem.source_support.ravel()
                              for problem in problems]), dtype=nx.float64)
    ys = nx.asarray(np.stack([problem.target_support.ravel()
                              for problem in problems]), dtype=nx.float64)
    mu = np.stack([problem.source_weights for problem in problems])
    nu = np.stack([problem.target_weights for problem in problems])
    order_x = nx.argsort(xs, axis=1)
    order_y = nx.argsort(ys, axis=1)
    mu_sorted = nx.take_along_axis(nx.asarray(mu, dtype=nx.float64),
                                   order_x, axis=1)
    nu_sorted = nx.take_along_axis(nx.asarray(nu, dtype=nx.float64),
                                   order_y, axis=1)
    # The marginals were checked when each OTProblem was built.
    srows, scols, masses = _staircase_stack(mu_sorted, nu_sorted, nx)
    # Un-sort: staircase entry (i, j) of the sorted problem lands at the
    # original support positions.
    rows = nx.take_along_axis(order_x, srows, axis=1)
    cols = nx.take_along_axis(order_y, scols, axis=1)
    x_at = nx.take_along_axis(xs, rows, axis=1)
    y_at = nx.take_along_axis(ys, cols, axis=1)
    masses_h = nx.to_numpy(masses)
    # The argsorts are stable, so identity orders mean ascending
    # supports, on which the staircase is already row-major.
    presorted = bool((nx.to_numpy(order_x) == np.arange(n)).all()
                     and (nx.to_numpy(order_y) == np.arange(m)).all())
    triplets, row_sums, col_sums = _staircase_csr(
        nx.to_numpy(rows), nx.to_numpy(cols), masses_h, (n, m),
        presorted=presorted)
    values = _staircase_values(problems, masses_h, nx.to_numpy(x_at),
                               nx.to_numpy(y_at))
    row_errs = np.abs(row_sums - mu).max(axis=1)
    col_errs = np.abs(col_sums - nu).max(axis=1)
    results = []
    for b, problem in enumerate(problems):
        value = values[b]
        if value is None:
            value = _csr_inner_product(*triplets[b], problem.cost_matrix())
        plan = TransportPlan._trusted(triplets[b], problem.source_support,
                                      problem.target_support, float(value),
                                      shape=(n, m))
        results.append(OTResult(plan=plan, value=float(value),
                                residual_source=float(row_errs[b]),
                                residual_target=float(col_errs[b]),
                                converged=True, n_iter=1))
    return results


def _staircase_csr(rows: np.ndarray, cols: np.ndarray, masses: np.ndarray,
                   shape: tuple, *, presorted: bool) -> tuple:
    """Per-problem CSR triplets of a ``(B, L)`` stack of staircases.

    ``rows`` / ``cols`` / ``masses`` are the un-sorted staircase entries
    of :func:`_monotone_engine`, each problem's row in staircase order.
    One vectorised pass over the whole stack:

    * zero-mass entries (tie segments) are dropped;
    * the only possible repeated ``(row, col)`` pair — the boundary
      clip of :func:`~repro.ot.onedim.batched_north_west_corner` — is
      adjacent in staircase order, and is merged by a ``bincount`` that
      adds in the same order as the dense scatter it replaces;
    * entries are sorted row-major only when ``presorted`` is false
      (supports not already in ascending order): on sorted supports the
      monotone staircase *is* row-major with ascending columns;
    * ``indptr`` and the row / column sums come from ``O(n + m)``
      bincounts.

    Returns ``(triplets, row_sums, col_sums)``: ``triplets[b]`` is
    problem ``b``'s own ``(data, indices, indptr)`` copy, with int32
    indices whenever the plan fits (int64 otherwise), and the sums are
    ``(B, n)`` / ``(B, m)`` float arrays.
    """
    B = masses.shape[0]
    n, m = shape
    keep = masses > 0.0
    # Global row ids, problem-major: one bincount serves the batch.
    row_ids = rows[keep] + np.repeat(np.arange(0, B * n, n),
                                     keep.sum(axis=1))
    cols = cols[keep]
    data = masses[keep]
    if data.size > 1:
        fresh = np.empty(data.size, dtype=bool)
        fresh[0] = True
        np.not_equal(row_ids[1:], row_ids[:-1], out=fresh[1:])
        fresh[1:] |= cols[1:] != cols[:-1]
        if not fresh.all():
            data = np.bincount(np.cumsum(fresh) - 1, weights=data)
            row_ids = row_ids[fresh]
            cols = cols[fresh]
    if not presorted:
        order = np.lexsort((cols, row_ids))
        row_ids = row_ids[order]
        cols = cols[order]
        data = data[order]
    index_dtype = np.int32 if n + m < np.iinfo(np.int32).max else np.int64
    indptr = np.zeros((B, n + 1), dtype=index_dtype)
    np.cumsum(np.bincount(row_ids, minlength=B * n).reshape(B, n), axis=1,
              out=indptr[:, 1:])
    row_sums = np.bincount(row_ids, weights=data,
                           minlength=B * n).reshape(B, n)
    col_sums = np.bincount(row_ids // n * m + cols, weights=data,
                           minlength=B * m).reshape(B, m)
    indices = cols.astype(index_dtype)
    if B == 1:
        return [(data, indices, indptr[0])], row_sums, col_sums
    bounds = np.concatenate([[0], np.cumsum(indptr[:, -1])])
    triplets = [(data[bounds[b]:bounds[b + 1]].copy(),
                 indices[bounds[b]:bounds[b + 1]].copy(), indptr[b].copy())
                for b in range(B)]
    return triplets, row_sums, col_sums


def _staircase_values(problems, masses: np.ndarray, x_at: np.ndarray,
                      y_at: np.ndarray) -> list:
    """Per-problem staircase cost values, ``None`` for problems with an
    explicit/callable cost (their value is ``<C, plan>`` on the plan).

    ``O(n + m)`` pointwise cost on the staircase support — the dense
    cost matrix is never built for metric problems.  On 1-D supports
    the ``|x - y|^p`` family is elementwise, so a batch sharing one
    metric is costed in a single dispatch, bit-identical to the
    per-pair :func:`~repro.ot.cost.pointwise_cost` evaluation.
    """
    metrics = {(problem.metric, problem.p) if problem.has_metric_cost
               else None for problem in problems}
    if len(metrics) == 1 and None not in metrics:
        ((metric, p),) = metrics
        cost_stack = _metric_cost_stack_1d(x_at - y_at, metric, p)
        return [float(np.dot(masses[b], cost_stack[b]))
                for b in range(len(problems))]
    values = []
    for b, problem in enumerate(problems):
        if problem.has_metric_cost:
            costs = pointwise_cost(x_at[b], y_at[b],
                                   metric=problem.metric, p=problem.p)
            values.append(float(np.dot(masses[b], costs)))
        else:
            values.append(None)
    return values


def _metric_cost_stack_1d(diff: np.ndarray, metric: str,
                          p: int) -> np.ndarray:
    """``|x - y|^p``-family costs for stacked 1-D displacement values —
    elementwise, hence bitwise identical to
    :func:`~repro.ot.cost.pointwise_cost` on each ``(x, y)`` pair."""
    if metric == "sqeuclidean" or (metric == "lp" and p == 2):
        return diff * diff
    if metric == "euclidean":
        return np.abs(diff)
    return np.abs(diff) ** p


@register_solver(
    "exact", aliases=("monotone", "1d"),
    description="closed-form monotone coupling; optimal for 1-D supports "
                "with convex |x-y|^p costs, O(n+m)")
def _solve_exact(problem: OTProblem, *, backend=None) -> OTResult:
    """North-west-corner traversal of the sorted supports; CSR plan."""
    _check_monotone_problem(problem)
    return _monotone_engine([problem], backend)[0]


@register_batch_solver("exact", when=_monotone_batchable)
def _solve_exact_batch(batch: OTBatch, *, backend=None) -> list:
    """Vectorised monotone couplings for a same-shape 1-D batch.

    The serial solver is this kernel at ``B = 1``, so every plan,
    value and residual is bit-identical to the serial result (asserted
    per solver by ``tests/ot/test_batch.py``).
    """
    problems = list(batch)
    for problem in problems:
        _check_monotone_problem(problem)
    return _monotone_engine(problems, backend)


def _arc_cost_entries(problem: OTProblem, rows: np.ndarray,
                      cols: np.ndarray) -> np.ndarray:
    """Ground-cost values at the ``(rows, cols)`` support entries.

    Metric-family costs are evaluated pointwise on the supports
    (:func:`~repro.ot.cost.pointwise_cost`), so the dense cost matrix is
    never built; explicit and callable costs index the (cached) matrix.
    """
    metric = problem.metric
    if metric is not None:
        return pointwise_cost(problem.source_support[rows],
                              problem.target_support[cols],
                              metric=metric, p=problem.p)
    return problem.cost_matrix()[rows, cols]


@register_solver(
    "simplex", aliases=("network_simplex", "netsimplex"),
    description="exact arc-list network simplex: full product or a "
                "support_mask, Bland's-rule anti-cycling, warm-startable "
                "spanning-tree basis; CSR plan below 25% density")
def _solve_simplex(problem: OTProblem, *, max_iter: int | None = None,
                   tol: float = 1e-10,
                   init: NetworkSimplexState | None = None,
                   block_size: int | None = None) -> OTResult:
    """Exact OT by :func:`~repro.ot.network_simplex.network_simplex_arcs`
    over the full product support, or over ``problem.support_mask``.

    The mask is a hard restriction, like for ``"lp"``: when it admits
    no coupling (an all-``False`` mask included) the north-west-corner
    staircase is unioned in and the solve retried, reported via
    ``extras["mask_widened"]``.  The returned basis travels in
    ``extras["state"]`` and a previous one warm-starts via ``init=``.
    """
    from scipy import sparse

    mu = problem.source_weights
    nu = problem.target_weights
    n, m = problem.shape
    mask = problem.support_mask

    def solve_on(support):
        rows, cols = np.nonzero(support)
        costs = _arc_cost_entries(problem, rows, cols)
        return rows, cols, network_simplex_arcs(
            rows, cols, costs, mu, nu, init=init, max_iter=max_iter,
            tol=tol, block_size=block_size)

    # An all-False mask admits no coupling: widen it straight away.
    widened = mask is not None and not mask.any()
    if not widened:
        try:
            rows, cols, outcome = solve_on(
                np.ones((n, m), dtype=bool) if mask is None else mask)
        except InfeasibleProblemError:
            if mask is None:
                raise
            widened = True
    if widened:
        nw_rows, nw_cols = north_west_corner_support(mu, nu)
        support = mask.copy()
        support[nw_rows, nw_cols] = True
        rows, cols, outcome = solve_on(support)
    matrix = sparse.csr_array((outcome.flows, (rows, cols)), shape=(n, m))
    matrix.eliminate_zeros()
    if not is_sparse_enough(matrix):
        matrix = matrix.toarray()
    extras = {"support_size": int(rows.size),
              "support_density": float(rows.size / (n * m)),
              "pivots": outcome.pivots,
              "degenerate_pivots": outcome.degenerate_pivots,
              "bland_pivots": outcome.bland_pivots,
              "warm_started": outcome.warm_started,
              "state": outcome.state}
    if mask is not None:
        extras["mask_widened"] = widened
    return _finish(problem, matrix, value=outcome.value,
                   n_iter=outcome.pivots, extras=extras)


@register_solver(
    "lp", aliases=("linprog", "highs"),
    description="scipy HiGHS linear-programming oracle; honours a sparse "
                "support_mask via the restricted LP")
def _solve_lp(problem: OTProblem) -> OTResult:
    cost = problem.cost_matrix()
    mu = problem.source_weights
    nu = problem.target_weights
    if problem.support_mask is None:
        matrix, nit = _lp_matrix(cost, mu, nu)
        extras = {}
    else:
        # The mask is a hard restriction; widen it with a feasibility
        # patch (the NW-corner coupling, O(n+m) to build) only when the
        # restricted problem admits no coupling — and say so.  An
        # all-False mask admits none, without asking HiGHS.
        mask = problem.support_mask
        widened = not mask.any()
        if not widened:
            try:
                # No presolve retry here: this mask's feasibility is
                # unknown, so an infeasible verdict is probably real and
                # the widened attempt below is the useful follow-up.
                matrix, nit = _restricted_lp_matrix(cost, mu, nu, mask,
                                                    presolve_retry=False)
            except ConvergenceError:
                widened = True
        if widened:
            mask = mask | (north_west_corner(mu, nu) > 0.0)
            matrix, nit = _restricted_lp_matrix(cost, mu, nu, mask)
        extras = {"support_size": int(mask.sum()),
                  "support_density": float(mask.mean()),
                  "mask_widened": widened}
    return _finish(problem, matrix, n_iter=nit, extras=extras)


@register_solver(
    "sinkhorn",
    description="entropic OT via probability-domain Sinkhorn-Knopp "
                "scaling (auto-falls back to the log domain)")
def _solve_sinkhorn(problem: OTProblem, *, epsilon: float = 1e-2,
                    max_iter: int = 10_000, tol: float = 1e-9,
                    raise_on_failure: bool = False,
                    backend=None) -> OTResult:
    outcome = _sinkhorn_impl(problem.cost_matrix(), problem.source_weights,
                             problem.target_weights, epsilon=epsilon,
                             max_iter=max_iter, tol=tol,
                             raise_on_failure=raise_on_failure,
                             backend=backend)
    return _finish(problem, outcome.plan, converged=outcome.converged,
                   n_iter=outcome.iterations,
                   extras={"epsilon": epsilon, "tol": tol})


@register_batch_solver("sinkhorn")
def _solve_sinkhorn_batch(batch: OTBatch, *, epsilon: float = 1e-2,
                          max_iter: int = 10_000, tol: float = 1e-9,
                          raise_on_failure: bool = False,
                          backend=None) -> list:
    """Stacked probability-domain Sinkhorn for a same-shape batch.

    All cells iterate as one ``(B, n, m)`` einsum chain
    (:func:`repro.ot.sinkhorn.batched_sinkhorn`) with per-problem
    convergence masking; each cell's result agrees with its per-cell
    ``solve`` counterpart to ~1e-12 (asserted by
    ``tests/ot/test_batch.py``).  The cost stack is built per problem —
    equal shapes do **not** imply equal grids — and collapses to a
    single shared cost matrix only when
    :attr:`~repro.ot.problem.OTBatch.has_shared_grid` certifies that
    every cell lives on identical supports with one cost recipe.
    """
    problems = list(batch)
    outcomes = _batched_sinkhorn_impl(
        _entropic_cost_stack(batch), batch.source_weight_stack(),
        batch.target_weight_stack(), epsilon=epsilon, max_iter=max_iter,
        tol=tol, raise_on_failure=raise_on_failure, backend=backend)
    return [_finish(problem, outcome.plan, converged=outcome.converged,
                    n_iter=outcome.iterations,
                    extras={"epsilon": epsilon, "tol": tol})
            for problem, outcome in zip(problems, outcomes)]


@register_solver(
    "sinkhorn_log",
    description="entropic OT, log-domain stabilised (survives very small "
                "epsilon)")
def _solve_sinkhorn_log(problem: OTProblem, *, epsilon: float = 1e-2,
                        max_iter: int = 10_000, tol: float = 1e-9,
                        raise_on_failure: bool = False,
                        backend=None) -> OTResult:
    outcome = _sinkhorn_log_impl(problem.cost_matrix(),
                                 problem.source_weights,
                                 problem.target_weights, epsilon=epsilon,
                                 max_iter=max_iter, tol=tol,
                                 raise_on_failure=raise_on_failure,
                                 backend=backend)
    return _finish(problem, outcome.plan, converged=outcome.converged,
                   n_iter=outcome.iterations,
                   extras={"epsilon": epsilon, "tol": tol})


@register_batch_solver("sinkhorn_log")
def _solve_sinkhorn_log_batch(batch: OTBatch, *, epsilon: float = 1e-2,
                              max_iter: int = 10_000, tol: float = 1e-9,
                              raise_on_failure: bool = False,
                              backend=None) -> list:
    """Stacked log-domain Sinkhorn for a same-shape batch.

    One backend ``logsumexp`` over the ``(B, n, m)`` stack per
    half-sweep (:func:`repro.ot.sinkhorn.batched_sinkhorn_log`), with
    the same per-problem masking and per-problem cost stacking as the
    probability-domain kernel.
    """
    problems = list(batch)
    outcomes = _batched_sinkhorn_log_impl(
        _entropic_cost_stack(batch), batch.source_weight_stack(),
        batch.target_weight_stack(), epsilon=epsilon, max_iter=max_iter,
        tol=tol, raise_on_failure=raise_on_failure, backend=backend)
    return [_finish(problem, outcome.plan, converged=outcome.converged,
                    n_iter=outcome.iterations,
                    extras={"epsilon": epsilon, "tol": tol})
            for problem, outcome in zip(problems, outcomes)]


def _entropic_cost_stack(batch: OTBatch) -> np.ndarray:
    """The ``(B, n, m)`` — or shared ``(1, n, m)`` — cost stack of a
    same-shape batch.

    The regression rule here (grids, not shapes): a batch kernel may
    only assume a common cost when every problem's *supports* are
    identical and the cost recipe matches —
    :attr:`~repro.ot.problem.OTBatch.has_shared_grid`, which is strictly
    stronger than the shape-keyed grouping ``solve_many`` batches by.
    Everything else gets its own cost matrix in the stack.
    """
    problems = list(batch)
    first = problems[0]
    if len(problems) > 1:
        if first.cost is not None and all(
                problem.cost is first.cost for problem in problems[1:]):
            # One explicit cost *object* shared by every problem (the
            # joint design's per-group layout) — identity is the
            # certificate, no grid needed.
            return first.cost_matrix()[None, :, :]
        if batch.has_shared_grid and all(
                _same_cost_recipe(problem, first)
                for problem in problems[1:]):
            return first.cost_matrix()[None, :, :]
    return np.stack([problem.cost_matrix() for problem in problems])


def _same_cost_recipe(problem: OTProblem, reference: OTProblem) -> bool:
    """True when the two problems provably build the same cost matrix
    from the same supports (no explicit matrices; identical metric or
    the very same callable)."""
    if problem.cost is not None or reference.cost is not None:
        return False
    if callable(problem.cost_fn) or callable(reference.cost_fn):
        return problem.cost_fn is reference.cost_fn
    return (problem.metric, problem.p) == (reference.metric, reference.p)


@register_solver(
    "screened",
    description="Sinkhorn-screened sparse hybrid: entropic solve prunes "
                "the support to top-k per row/column, then an exact "
                "restricted LP returning a CSR-backed plan — the fast "
                "path for large supports")
def _solve_screened(problem: OTProblem, *, epsilon: float = 1e-2,
                    k: int | None = None, screen_max_iter: int = 2_000,
                    screen_tol: float = 1e-6,
                    epsilon_scaling: bool | str = "auto",
                    n_scales: int = 4,
                    restricted_engine: str = "network_simplex") -> OTResult:
    """The POT-style hybrid: approximate globally, solve exactly locally.

    The entropic plan concentrates its mass near the unregularised
    optimum, so keeping only its ``k`` largest entries per row and per
    column yields a sparse support that almost surely contains the exact
    optimal basis; the exact solve restricted to that support has
    ``O(k·n)`` variables instead of ``n·m``.  A north-west-corner
    coupling is unioned into the support so the restriction is always
    feasible, and a caller-supplied ``support_mask`` is unioned in as
    additional support to include (see
    :class:`~repro.ot.problem.OTProblem`).

    ``restricted_engine`` selects the exact engine for the restricted
    solve: the native sparse arc-list network simplex
    (:func:`~repro.ot.network_simplex.network_simplex_arcs`, the
    default), ``"lp"`` for the scipy HiGHS oracle it is differentially
    tested against, ``"banded"`` for the O(n + m) monotone band kernel
    (exact only for convex metric costs on sorted 1-D supports whose
    screened support is a contiguous band — anything else falls back to
    the simplex), or ``"auto"`` to pick banded exactly when that
    certificate holds.

    ``epsilon_scaling=True`` runs the Sinkhorn screen as an annealing
    loop instead of a single cold solve: ``n_scales`` geometrically
    decreasing regularisation strengths from ``1.0`` (relative; the
    screen rescales by the max cost internally) down to ``epsilon``,
    each scale warm-started from the previous scale's scaling vectors
    via the classical ``u ** (ε_prev / ε_next)`` transfer.  The small-
    ``epsilon`` screens that stall from a cold start — the sharpest,
    most selective supports — then converge in a fraction of the
    iterations.  The default ``"auto"`` switches the annealing on from
    :data:`EPSILON_SCALING_AUTO_LIMIT` states per marginal.  With the
    network-simplex engine the annealing loop additionally carries a
    spanning-tree basis across the scales: each intermediate scale's
    top-``k`` support is solved exactly, warm-started from the previous
    scale's basis, so the final (sharpest) restricted solve starts one
    or two pivots from optimal.

    Very large 1-D problems with a convex metric-family cost (past
    :data:`SCREEN_BAND_LIMIT` states) skip the entropic screen entirely
    for a geometric *band* screen around the sorted staircase — see
    :data:`SCREEN_BAND_LIMIT`; that path never materialises the dense
    cost matrix, which is what lets screened cells scale to
    ``n_Q ~ 10^5``.
    """
    mu = problem.source_weights
    nu = problem.target_weights
    n, m = problem.shape
    if k is None:
        k = default_screen_k(n, m)
    if epsilon_scaling == "auto":
        epsilon_scaling = max(n, m) >= EPSILON_SCALING_AUTO_LIMIT
    elif not isinstance(epsilon_scaling, (bool, np.bool_)):
        raise ValidationError(
            "epsilon_scaling must be a bool or 'auto', got "
            f"{epsilon_scaling!r}")
    if (max(n, m) > SCREEN_BAND_LIMIT and problem.is_one_dimensional
            and problem.has_metric_cost
            and (problem.cost_fn is None
                 or problem.cost_fn in _MONOTONE_METRICS)):
        return _screened_band(problem, k=int(k), epsilon=epsilon,
                              restricted_engine=restricted_engine)
    cost = problem.cost_matrix()
    state = None
    stage_pivots: list[int] = []
    on_stage = None
    if epsilon_scaling and restricted_engine == "network_simplex":
        # Carry a spanning-tree basis across the annealing scales: each
        # intermediate screen's support is solved exactly, warm-started
        # from the previous scale's basis, and the final solve below
        # inherits the last one.
        def on_stage(stage) -> None:
            nonlocal state
            rows, cols = np.nonzero(
                _screen_topk_mask(stage.plan, k, problem, mu, nu))
            outcome = network_simplex_arcs(rows, cols, cost[rows, cols],
                                           mu, nu, init=state)
            state = outcome.state
            stage_pivots.append(int(outcome.pivots))
    if epsilon_scaling:
        screened, screen_info = _epsilon_scaled_screen(
            cost, mu, nu, epsilon=epsilon, n_scales=n_scales,
            max_iter=screen_max_iter, tol=screen_tol, on_stage=on_stage)
    else:
        screened = _sinkhorn_impl(cost, mu, nu, epsilon=epsilon,
                                  max_iter=screen_max_iter,
                                  tol=screen_tol, raise_on_failure=False)
        screen_info = {"screen_iterations": screened.iterations}
    mask = _screen_topk_mask(screened.plan, k, problem, mu, nu)
    rows, cols = np.nonzero(mask)
    # The restricted solve's plan lives on a tiny support, so return it
    # CSR-backed: downstream consumers (TransportPlan sampling, v2 plan
    # archives) then stay O(nnz) instead of O(n*m).  Dense problems small
    # enough for the plan to exceed the density threshold stay dense.
    matrix, nit, value, state, engine_used = _restricted_exact_entries(
        cost[rows, cols], rows, cols, (n, m), mu, nu,
        engine=restricted_engine, init=state, sparse_output=True,
        monotone_certified=_banded_certifiable(problem))
    if _issparse(matrix) and not is_sparse_enough(matrix):
        matrix = matrix.toarray()
    extras = {"epsilon": epsilon, "k": int(k),
              "restricted_engine": engine_used,
              "screen_method": "sinkhorn",
              "support_size": int(mask.sum()),
              "support_density": float(mask.mean()),
              "screen_converged": screened.converged,
              "screen_residual": float(screened.residual),
              **screen_info}
    if stage_pivots:
        extras["stage_pivots"] = stage_pivots
    if state is not None:
        extras["state"] = state
    # The restricted solve is exact on its support, but the support
    # quality depends on the screen: an unconverged screen may have
    # missed the optimal basis, so the overall result must not claim
    # convergence — unless the mask ended up covering the full support,
    # where the restricted solve *is* the dense one and the optimum is
    # certain.
    return _finish(problem, matrix, value=value,
                   converged=screened.converged or bool(mask.all()),
                   n_iter=nit, extras=extras)


def default_screen_k(n: int, m: int) -> int:
    """The screened solver's default top-``k`` per row/column.

    Tuned from the committed sweep in
    ``benchmarks/results/screened_k_sweep.txt``, which measures both of
    the solver's regimes: on metric design cells (the library workload)
    every ``k`` is staircase-certified exact, so only support economy
    matters; on adversarial supports (where the screen does all the
    work) the objective error vs the dense LP falls off a cliff below
    ``log2`` of the marginal size plus a safety margin and shows
    diminishing returns past it, while the restricted-solve cost keeps
    growing linearly in ``k`` — so the default sits at that elbow.
    """
    return max(5, int(np.ceil(np.log2(max(n, m)))) + 8)


def _screen_topk_mask(plan: np.ndarray, k: int, problem: OTProblem,
                      mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Top-``k``-per-row/column support of an entropic plan, with the
    caller's ``support_mask`` and the NW feasibility staircase unioned
    in — the screened solver's mask recipe, shared by the final solve
    and the per-scale warm-start solves."""
    n, m = plan.shape
    k_row = min(k, m)
    k_col = min(k, n)
    mask = np.zeros((n, m), dtype=bool)
    top_rows = np.argpartition(plan, m - k_row, axis=1)[:, m - k_row:]
    mask[np.arange(n)[:, None], top_rows] = True
    top_cols = np.argpartition(plan, n - k_col, axis=0)[n - k_col:, :]
    mask[top_cols, np.arange(m)[None, :]] = True
    if problem.support_mask is not None:
        mask |= problem.support_mask
    mask |= north_west_corner(mu, nu) > 0.0
    return mask


def _band_screen_support(problem: OTProblem,
                         k: int) -> tuple[np.ndarray, np.ndarray]:
    """Index-sparse band support for large 1-D convex-metric problems.

    Walks the north-west-corner staircase of the *sorted* marginals —
    the monotone optimal support for convex ``|x - y|^p`` costs — and
    adds a cross-shaped band of half-width ``max(k // 2, 1)`` around
    each staircase arc (both along the row and along the column), mapped
    back to the caller's support order.  ``O((n + m) · k)`` arcs, no
    ``(n, m)`` intermediate.
    """
    mu = problem.source_weights
    nu = problem.target_weights
    n, m = problem.shape
    source_order = np.argsort(problem.source_support.ravel(), kind="stable")
    target_order = np.argsort(problem.target_support.ravel(), kind="stable")
    srows, scols, _ = _staircase_walk(mu[source_order], nu[target_order])
    width = max(k // 2, 1)
    offsets = np.arange(-width, width + 1)
    band_rows = np.concatenate([
        np.repeat(srows, offsets.size),
        np.clip(srows[:, None] + offsets, 0, n - 1).ravel()])
    band_cols = np.concatenate([
        np.clip(scols[:, None] + offsets, 0, m - 1).ravel(),
        np.repeat(scols, offsets.size)])
    rows = source_order[band_rows]
    cols = target_order[band_cols]
    if problem.support_mask is not None:
        mask_rows, mask_cols = np.nonzero(problem.support_mask)
        rows = np.concatenate([rows, mask_rows])
        cols = np.concatenate([cols, mask_cols])
    keys = np.unique(rows.astype(np.int64) * m + cols)
    return keys // m, keys % m


def _screened_band(problem: OTProblem, *, k: int, epsilon: float,
                   restricted_engine: str) -> OTResult:
    """The screened solver's large-1-D path: geometric band screen plus
    an exact restricted solve, entirely index-sparse.

    The band provably contains a monotone optimal basis (see
    :data:`SCREEN_BAND_LIMIT`), so unlike the entropic screen this one
    is certain: ``screen_converged`` is structurally ``True`` and the
    result is exact.
    """
    mu = problem.source_weights
    nu = problem.target_weights
    n, m = problem.shape
    rows, cols = _band_screen_support(problem, k)
    cost_values = _arc_cost_entries(problem, rows, cols)
    matrix, nit, value, state, engine_used = _restricted_exact_entries(
        cost_values, rows, cols, (n, m), mu, nu,
        engine=restricted_engine, sparse_output=True,
        monotone_certified=_banded_certifiable(problem))
    if _issparse(matrix) and not is_sparse_enough(matrix):
        matrix = matrix.toarray()
    extras = {"epsilon": epsilon, "k": int(k),
              "restricted_engine": engine_used,
              "screen_method": "band",
              "support_size": int(rows.size),
              "support_density": float(rows.size / (n * m)),
              "screen_converged": True,
              "screen_residual": 0.0,
              "screen_iterations": 0}
    if state is not None:
        extras["state"] = state
    return _finish(problem, matrix, value=value, converged=True,
                   n_iter=nit, extras=extras)


#: Starting strength of the screened solver's epsilon-scaling loop,
#: relative to the internally rescaled cost (1.0 means the Gibbs kernel
#: starts at the max-cost temperature — a few iterations to converge).
EPSILON_SCALING_START = 1.0


def _epsilon_scaled_screen(cost, mu, nu, *, epsilon: float, n_scales: int,
                           max_iter: int, tol: float,
                           on_stage=None) -> tuple:
    """Annealed Sinkhorn screen: geometric epsilon schedule + warm starts.

    Runs the probability-domain screen at ``n_scales`` strengths from
    :data:`EPSILON_SCALING_START` down to ``epsilon``; each scale is
    warm-started from the previous scale's scaling vectors through the
    classical ``u ** (ε_prev / ε_next)`` potential transfer (the dual
    potentials ``ε·log u`` are carried over unchanged).  Intermediate
    scales run at a loosened tolerance — only the final scale must meet
    ``tol``.  Returns ``(final SinkhornResult, extras dict)`` with the
    cumulative iteration count and the schedule length.

    ``on_stage``, when given, is called with each *intermediate* scale's
    :class:`~repro.ot.sinkhorn.SinkhornResult` (the final scale's result
    is returned, not called back) — the screened solver uses it to carry
    a network-simplex basis across the scales.
    """
    if not isinstance(n_scales, (int, np.integer)) or n_scales < 1:
        raise ValidationError(
            f"n_scales must be a positive integer, got {n_scales!r}")
    if epsilon >= EPSILON_SCALING_START or n_scales == 1:
        schedule = [float(epsilon)]
    else:
        schedule = list(np.geomspace(EPSILON_SCALING_START, epsilon,
                                     int(n_scales)))
        schedule[-1] = float(epsilon)  # geomspace round-off
    total_iterations = 0
    init = None
    result = None
    for index, eps in enumerate(schedule):
        last = index == len(schedule) - 1
        result = _sinkhorn_impl(
            cost, mu, nu, epsilon=eps, max_iter=max_iter,
            tol=tol if last else max(tol, 1e-4),
            raise_on_failure=False, init=init)
        total_iterations += result.iterations
        init = None
        if not last and on_stage is not None:
            on_stage(result)
        if not last and result.scalings is not None:
            # Transfer the dual potentials: u_next = u ** (ε/ε_next).
            # Worked in log space and gauge-centred — the plan is
            # invariant under (u·c, v/c), so shifting keeps the
            # amplified exponents inside float range.
            ratio = eps / schedule[index + 1]
            with np.errstate(divide="ignore"):
                log_u = ratio * np.log(result.scalings[0])
                log_v = ratio * np.log(result.scalings[1])
            finite_u = log_u[np.isfinite(log_u)]
            finite_v = log_v[np.isfinite(log_v)]
            if finite_u.size and finite_v.size:
                # Balance the two peaks: shifting u by -s and v by +s
                # leaves the plan unchanged, so put both maxima at the
                # same height to dodge overflow on either side.
                shift = (np.max(finite_u) - np.max(finite_v)) / 2.0
                log_u = log_u - shift
                log_v = log_v + shift
            with np.errstate(over="ignore"):
                u0, v0 = np.exp(log_u), np.exp(log_v)
            if np.all(np.isfinite(u0)) and np.all(np.isfinite(v0)):
                init = (u0, v0)
            # else: restart the next scale cold rather than poison it.
    return result, {"screen_iterations": total_iterations,
                    "epsilon_scaling": True,
                    "n_scales": len(schedule)}


@register_solver(
    "auto",
    description="structure-based dispatch: monotone closed form for 1-D "
                "convex costs, simplex for small dense problems, LP for "
                "medium, screened hybrid for large supports, multiscale "
                "for very large 1-D metric-cost grids")
def _solve_auto(problem: OTProblem, **opts) -> OTResult:
    """Resolvable name for the default dispatch (so registry consumers
    like ``design_repair(solver="auto")`` work uniformly).

    Options are forwarded to the dispatched solver filtered by its
    signature (:func:`~repro.ot.registry.filter_opts`), so callers may
    pass e.g. ``epsilon`` without knowing whether dispatch will land on
    an entropic method (which uses it) or an exact one (which has no
    such knob).
    """
    target = resolve_solver(auto_method(problem))
    inner = solve(problem, method=target, **filter_opts(target, opts))
    return replace(inner,
                   extras={**inner.extras, "dispatched_to": inner.solver})


#: Engine names `_restricted_exact_entries` accepts (and the public
#: ``restricted_engine=`` knob of the screened/multiscale hybrids).
RESTRICTED_ENGINES = ("network_simplex", "lp", "banded", "auto")


def _banded_certifiable(problem: OTProblem) -> bool:
    """True when the ``"banded"`` restricted engine is provably exact
    for ``problem``: 1-D supports, a convex ``|x - y|^p``-family cost
    derived from them, and both supports already in sorted order (the
    banded kernel works in index space, so index order must *be*
    support order for the monotone staircase to be optimal)."""
    if not problem.is_one_dimensional or not problem.has_metric_cost:
        return False
    if problem.cost_fn is not None \
            and problem.cost_fn not in _MONOTONE_METRICS:
        return False
    return (bool(np.all(np.diff(problem.source_support.ravel()) >= 0.0))
            and bool(np.all(np.diff(problem.target_support.ravel())
                            >= 0.0)))


def _restricted_banded_entries(cost_values: np.ndarray, rows: np.ndarray,
                               cols: np.ndarray, shape: tuple,
                               mu: np.ndarray, nu: np.ndarray, *,
                               sparse_output: bool):
    """The banded fast path of :func:`_restricted_exact_entries`.

    Certifies that the arc list is a monotone contiguous band
    (:func:`~repro.ot.coupling.is_banded`), runs the O(n + m)
    north-west-corner-with-repair kernel
    (:func:`~repro.ot.onedim.banded_monotone_transport`), and prices the
    result against ``cost_values`` through the band's closed-form arc
    positions — no cost matrix, no pivots.  Returns ``None`` when the
    certificate or the in-band feasibility check fails (the caller then
    falls back to the network simplex), else ``(matrix, n_iter,
    value)``.
    """
    n, m = shape
    keys = np.asarray(rows, dtype=np.int64) * m + np.asarray(cols)
    if keys.size > 1 and np.any(np.diff(keys) <= 0):
        # Pricing below maps band positions into `cost_values` closed-
        # form, which needs the lex-sorted deduped arc lists every
        # hybrid caller produces; anything else goes to the simplex.
        return None
    if not is_banded(rows, cols, shape):
        return None
    lower, upper = band_bounds(rows, cols, shape)
    try:
        brows, bcols, masses = banded_monotone_transport(mu, nu, lower,
                                                         upper)
    except InfeasibleProblemError:
        return None
    # Certified band: arcs are lex-sorted with row i occupying the
    # contiguous slice starting at `starts[i]`, so the position of arc
    # (i, j) in `cost_values` is closed-form.
    counts = upper - lower + 1
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    entry_costs = cost_values[starts[brows] + (bcols - lower[brows])]
    value = float(np.dot(masses, entry_costs))
    if sparse_output:
        from scipy import sparse

        matrix = sparse.csr_array((masses, (brows, bcols)), shape=(n, m))
        matrix.eliminate_zeros()
    else:
        matrix = np.zeros((n, m))
        np.add.at(matrix, (brows, bcols), masses)
    return matrix, 1, value


def _restricted_exact_entries(cost_values: np.ndarray, rows: np.ndarray,
                              cols: np.ndarray, shape: tuple,
                              mu: np.ndarray, nu: np.ndarray, *,
                              engine: str = "network_simplex",
                              init: NetworkSimplexState | None = None,
                              presolve_retry: bool = True,
                              sparse_output: bool = False,
                              monotone_certified: bool = False):
    """Exact solve over an explicit arc list, dispatched by engine.

    The single restricted-solve entry point behind the ``"screened"``
    and ``"multiscale"`` hybrids.  ``engine="network_simplex"`` runs the
    native sparse arc-list network simplex
    (:func:`~repro.ot.network_simplex.network_simplex_arcs`), which
    accepts a warm-start basis via ``init``; ``engine="lp"`` keeps the
    scipy HiGHS oracle (``init`` is then ignored); ``engine="banded"``
    runs the O(n + m) monotone band kernel
    (:func:`~repro.ot.onedim.banded_monotone_transport`) when the
    caller certifies monotone optimality (``monotone_certified`` — a
    convex metric cost on sorted 1-D supports, see
    :func:`_banded_certifiable`) *and* the arc list is structurally a
    monotone band (:func:`~repro.ot.coupling.is_banded`), falling back
    to the network simplex otherwise; ``engine="auto"`` picks
    ``"banded"`` exactly when ``monotone_certified`` and the simplex
    otherwise.  Returns ``(matrix, n_iter, value, state, engine_used)``
    where ``state`` is the network-simplex basis for reuse (``None``
    for the LP and banded paths) and ``engine_used`` names the engine
    that actually solved (so callers can report banded fallbacks).
    """
    if engine not in RESTRICTED_ENGINES:
        raise ValidationError(
            "restricted_engine must be one of "
            f"{RESTRICTED_ENGINES}, got {engine!r}")
    if engine == "auto":
        engine = "banded" if monotone_certified else "network_simplex"
    if engine == "lp":
        matrix, nit, value = _restricted_lp_entries(
            cost_values, rows, cols, shape, mu, nu,
            presolve_retry=presolve_retry, sparse_output=sparse_output)
        return matrix, nit, value, None, "lp"
    if engine == "banded":
        solved = None
        if monotone_certified:
            solved = _restricted_banded_entries(
                cost_values, rows, cols, shape, mu, nu,
                sparse_output=sparse_output)
        if solved is not None:
            matrix, nit, value = solved
            return matrix, nit, value, None, "banded"
        # Not certified (non-metric cost, unsorted supports, holes in
        # the band): the simplex prices arbitrary sparse arc lists.
    outcome = network_simplex_arcs(rows, cols, cost_values, mu, nu,
                                   init=init)
    n, m = shape
    if sparse_output:
        from scipy import sparse

        matrix = sparse.csr_array((outcome.flows, (rows, cols)),
                                  shape=(n, m))
        matrix.eliminate_zeros()
    else:
        matrix = np.zeros((n, m))
        matrix[rows, cols] = outcome.flows
    return (matrix, outcome.pivots, outcome.value, outcome.state,
            "network_simplex")


def _restricted_lp_matrix(cost: np.ndarray, mu: np.ndarray, nu: np.ndarray,
                          mask: np.ndarray, *,
                          presolve_retry: bool = True,
                          sparse_output: bool = False):
    """Exact LP over only the ``mask``-allowed coupling entries.

    With ``sparse_output`` the plan comes back as a CSR sparse array
    holding just the optimal-basis entries (zeros eliminated) — the plan
    is never materialised densely.
    """
    rows, cols = np.nonzero(mask)
    matrix, nit, _ = _restricted_lp_entries(
        cost[rows, cols], rows, cols, cost.shape, mu, nu,
        presolve_retry=presolve_retry, sparse_output=sparse_output)
    return matrix, nit


def _restricted_lp_entries(cost_values: np.ndarray, rows: np.ndarray,
                           cols: np.ndarray, shape: tuple, mu: np.ndarray,
                           nu: np.ndarray, *, presolve_retry: bool = True,
                           sparse_output: bool = False):
    """Exact LP over an explicit list of allowed coupling entries.

    The support is given directly as parallel ``rows`` / ``cols`` index
    arrays with ``cost_values`` holding the ground cost at exactly those
    entries, so callers that can evaluate the cost pointwise (the
    multiscale solver on metric-family costs) never build the dense
    ``(n, m)`` cost matrix.  Returns ``(matrix, n_iter, value)`` where
    ``value`` is the LP objective of the returned plan.
    """
    from scipy import sparse

    nnz = rows.size
    data = np.ones(nnz)
    variable_ids = np.arange(nnz)
    n, m = shape
    a_rows = sparse.coo_matrix((data, (rows, variable_ids)),
                               shape=(n, nnz)).tocsr()
    # Final column constraint dropped: redundant in the balanced problem.
    a_cols = sparse.coo_matrix((data, (cols, variable_ids)),
                               shape=(m, nnz)).tocsr()[:-1]
    a_eq = sparse.vstack([a_rows, a_cols], format="csr")
    b_eq = np.concatenate([mu, nu[:-1]])
    result = _linprog_with_presolve_retry(
        cost_values, a_eq, b_eq, what="the restricted transport LP",
        presolve_retry=presolve_retry)
    values = np.clip(result.x, 0.0, None)
    value = float(np.dot(cost_values, values))
    nit = int(getattr(result, "nit", 0) or 0)
    if sparse_output:
        matrix = sparse.csr_array((values, (rows, cols)), shape=(n, m))
        matrix.eliminate_zeros()
        return matrix, nit, value
    matrix = np.zeros((n, m))
    matrix[rows, cols] = values
    return matrix, nit, value
