"""Closed-form optimal transport on the real line.

For one-dimensional marginals and any convex ground cost ``c(x, y) =
h(x - y)`` (which includes every ``|x - y|^p`` with ``p >= 1``), the optimal
Kantorovich coupling is the *monotone* coupling: mass is matched in
increasing order of the supports.  On sorted discrete supports this is the
classical north-west-corner traversal, which costs ``O(n + m)`` instead of
solving a linear programme.

This module is the workhorse behind the paper's per-feature repair plans
(Algorithm 1 solves a 1-D problem for every ``(u, s, k)``) and behind the
1-D geometric-repair baseline.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_1d_array, as_probability_vector
from ..core.backend import get_backend
from ..exceptions import InfeasibleProblemError, ValidationError
from .coupling import TransportPlan

__all__ = [
    "north_west_corner",
    "north_west_corner_support",
    "batched_north_west_corner",
    "banded_monotone_transport",
    "solve_1d",
    "wasserstein_1d",
    "quantile_function",
    "monotone_map",
]


def north_west_corner(source_weights, target_weights) -> np.ndarray:
    """Greedy north-west-corner coupling of two probability vectors.

    Produces the unique monotone coupling: the plan obtained by walking the
    two cumulative distributions simultaneously.  It is optimal for 1-D OT
    with convex costs *when rows and columns are in sorted support order*.

    Returns a dense ``(n, m)`` matrix; the plan has at most ``n + m - 1``
    non-zero entries.  :func:`batched_north_west_corner` is the
    vectorised counterpart for stacks of problems.
    """
    mu = as_probability_vector(source_weights, name="source_weights",
                               normalize=True)
    nu = as_probability_vector(target_weights, name="target_weights",
                               normalize=True)
    rows, cols, masses = _staircase_walk(mu, nu)
    plan = np.zeros((mu.size, nu.size))
    plan[rows, cols] = masses
    return plan


def _staircase_walk(mu: np.ndarray,
                    nu: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
    """The single source of truth for the north-west-corner traversal.

    Walks the two cumulative distributions simultaneously and returns
    the visited ``(rows, cols, masses)`` triplet — at most ``n + m - 1``
    entries — from which both the dense plan and the support-only view
    are derived.
    """
    rows = []
    cols = []
    masses = []
    remaining_mu = mu.copy()
    remaining_nu = nu.copy()
    i = j = 0
    while i < mu.size and j < nu.size:
        mass = min(remaining_mu[i], remaining_nu[j])
        rows.append(i)
        cols.append(j)
        masses.append(mass)
        remaining_mu[i] -= mass
        remaining_nu[j] -= mass
        # Advance whichever side was exhausted; advance both on a tie so the
        # traversal always terminates in n + m steps.
        tol = 1e-15
        if remaining_mu[i] <= tol:
            i += 1
        if remaining_nu[j] <= tol:
            j += 1
    return (np.asarray(rows, dtype=np.intp),
            np.asarray(cols, dtype=np.intp),
            np.asarray(masses, dtype=float))


def north_west_corner_support(source_weights,
                              target_weights) -> tuple[np.ndarray,
                                                       np.ndarray]:
    """Index pairs of the north-west-corner staircase, without the matrix.

    Returns ``(rows, cols)`` index arrays such that the coupling built by
    :func:`north_west_corner` is supported on exactly these entries.  The
    traversal is ``O(n + m)`` in time *and* memory, so large-support
    callers (the multiscale solver's feasibility patch) can union the
    staircase into a sparse support set without materialising the dense
    ``(n, m)`` plan.

    >>> rows, cols = north_west_corner_support([0.5, 0.5], [0.25, 0.75])
    >>> list(zip(rows.tolist(), cols.tolist()))
    [(0, 0), (0, 1), (1, 1)]
    """
    mu = as_probability_vector(source_weights, name="source_weights",
                               normalize=True)
    nu = as_probability_vector(target_weights, name="target_weights",
                               normalize=True)
    rows, cols, _ = _staircase_walk(mu, nu)
    return rows, cols


def batched_north_west_corner(source_weight_stack, target_weight_stack,
                              *, backend=None
                              ) -> tuple[np.ndarray, np.ndarray,
                                         np.ndarray]:
    """Monotone couplings of ``B`` weight-vector pairs in one dispatch.

    The vectorised counterpart of :func:`north_west_corner` for a stack
    of same-shape problems (Algorithm 1's design cells on a shared
    ``n_Q`` grid): instead of walking each staircase in a Python loop,
    the two cumulative distributions of every problem are merged and
    sorted **once** across the whole ``(B, n + m)`` stack — a single
    chain of array operations written against
    :class:`~repro.core.backend.ArrayBackend`.

    Parameters
    ----------
    source_weight_stack, target_weight_stack:
        ``(B, n)`` / ``(B, m)`` non-negative weight stacks; each row is
        normalised to a probability vector.
    backend:
        Compute backend spec (see
        :func:`repro.core.backend.get_backend`): ``None`` for the
        bit-identical numpy reference, ``"array_api_strict"`` for the
        CI conformance run.  The whole traversal — cumulative sums, the
        merged-CDF stable sort, the index arithmetic — runs as backend
        array operations; only the returned arrays are backend-native
        (callers convert at the :class:`~repro.ot.coupling.TransportPlan`
        boundary via ``backend.to_numpy``).

    Returns
    -------
    (rows, cols, masses):
        ``(B, n + m)`` index/mass arrays: problem ``b``'s monotone plan
        places ``masses[b, t]`` at ``(rows[b, t], cols[b, t])``.  Entries
        are in staircase order; tie segments carry zero mass (scatter
        with accumulation, e.g. ``np.bincount``, not plain assignment).
        Arrays are native to the selected backend (numpy for the
        default).

    Every per-row operation is independent of the batch size, so the
    result for one problem is bit-identical whether it is solved alone
    (``B = 1`` — how the serial ``"exact"`` solver now runs) or inside
    any larger batch; shuffling the batch permutes the output rows and
    changes nothing else.

    >>> rows, cols, masses = batched_north_west_corner(
    ...     [[0.5, 0.5]], [[0.25, 0.75]])
    >>> keep = masses[0] > 0
    >>> list(zip(rows[0, keep].tolist(), cols[0, keep].tolist()))
    [(0, 0), (0, 1), (1, 1)]
    >>> masses[0, keep].tolist()
    [0.25, 0.25, 0.5]
    """
    nx = get_backend(backend)
    mu = nx.asarray(source_weight_stack, dtype=nx.float64)
    nu = nx.asarray(target_weight_stack, dtype=nx.float64)
    if mu.ndim == 1:
        mu = nx.reshape(mu, (1, -1))
    if nu.ndim == 1:
        nu = nx.reshape(nu, (1, -1))
    if mu.ndim != 2 or nu.ndim != 2:
        raise ValidationError(
            "weight stacks must be 2-D (B, n)/(B, m) arrays, got shapes "
            f"{tuple(mu.shape)} and {tuple(nu.shape)}")
    if mu.shape[0] != nu.shape[0]:
        raise ValidationError(
            f"weight stacks disagree on the batch size ({mu.shape[0]} != "
            f"{nu.shape[0]})")
    for name, stack in (("source", mu), ("target", nu)):
        if not bool(nx.to_numpy(nx.all(nx.isfinite(stack)))) \
                or bool(nx.to_numpy(nx.any(stack < 0.0))):
            raise ValidationError(
                f"{name} weight stack must be finite and non-negative")
    if bool(nx.to_numpy(nx.any(nx.sum(mu, axis=1) <= 0.0))) \
            or bool(nx.to_numpy(nx.any(nx.sum(nu, axis=1) <= 0.0))):
        raise ValidationError(
            "every batched weight vector needs positive total mass")
    return _staircase_stack(mu, nu, nx)


def _staircase_stack(mu, nu, nx) -> tuple:
    """The merged-CDF traversal of :func:`batched_north_west_corner` on
    checked ``(B, n)`` / ``(B, m)`` backend stacks (finite,
    non-negative, positive row totals) — what the ``"exact"`` solver
    calls directly, since :class:`~repro.ot.problem.OTProblem` has
    already checked its marginals."""
    totals_mu = nx.sum(mu, axis=1, keepdims=True)
    totals_nu = nx.sum(nu, axis=1, keepdims=True)
    B = mu.shape[0]
    n, m = mu.shape[1], nu.shape[1]

    # Clamp the endpoints (cf. wasserstein_1d): cumsum round-off can land
    # at 1 ± 1e-16, which would otherwise leak a stray mass segment.
    one = nx.ones((B, 1), dtype=nx.float64)
    cdf_mu = nx.concat([nx.cumsum(mu / totals_mu, axis=1)[:, :-1], one],
                       axis=1)
    cdf_nu = nx.concat([nx.cumsum(nu / totals_nu, axis=1)[:, :-1], one],
                       axis=1)

    # Merge the two CDFs: each sorted level closes one staircase segment.
    # A stable sort with the source entries first resolves ties so that
    # tie-induced duplicate segments carry zero mass.
    merged = nx.concat([cdf_mu, cdf_nu], axis=1)
    order = nx.argsort(merged, axis=1)
    levels = nx.take_along_axis(merged, order, axis=1)
    from_mu = nx.astype(order < n, nx.int64)

    # Segment t of problem b lives in source bin #{source levels < its
    # endpoint} and target bin #{target levels < its endpoint}; with the
    # running counts that is one subtraction per side.  Clipping only
    # ever touches zero-mass tie segments at the boundary.
    count_mu = nx.cumsum(from_mu, axis=1)
    count_nu = nx.reshape(nx.arange(1, n + m + 1, dtype=nx.int64),
                          (1, -1)) - count_mu
    rows = nx.minimum(count_mu - from_mu, n - 1)
    cols = nx.minimum(count_nu - (1 - from_mu), m - 1)
    masses = levels - nx.concat(
        [nx.zeros((B, 1), dtype=nx.float64), levels[:, :-1]], axis=1)
    return rows, cols, masses


def banded_monotone_transport(source_weights, target_weights, lower, upper,
                              *, atol: float = 1e-12
                              ) -> tuple[np.ndarray, np.ndarray,
                                         np.ndarray]:
    """Monotone transport restricted to a per-row column band.

    Solves the transport problem whose support is limited to the band
    ``lower[i] <= j <= upper[i]`` (inclusive, both bound sequences
    non-decreasing — the staircase-shaped supports
    :func:`repro.ot.coupling.is_banded` certifies).  This is the
    ``restricted_engine="banded"`` kernel behind the multiscale and
    screened hybrids: index-sparse, no cost matrix, no simplex pivots —
    a north-west-corner traversal with an in-band repair step, ``O(n +
    m)`` arcs of work instead of a pivot loop over the ``O(w·n)`` band.

    The mathematical shortcut: a coupling with *both* marginals exact
    and monotone (north-west) support is unique — it is the staircase
    of the two cumulative distributions.  A monotone band therefore
    admits a feasible plan exactly when the staircase fits inside it,
    and for convex ``|x - y|^p`` costs on sorted supports that plan is
    the *unrestricted* optimum, hence optimal on the band a fortiori.
    The kernel walks the merged-CDF staircase
    (:func:`batched_north_west_corner`), then repairs round-off-scale
    stray mass — staircase arcs up to ``atol`` total mass outside the
    band are clamped to the nearest band edge of their row; anything
    heavier raises :class:`~repro.exceptions.InfeasibleProblemError`
    (the band genuinely excludes the staircase, and the caller should
    fall back to an engine that can price non-monotone arcs).

    Returns ``(rows, cols, masses)`` index arrays of the optimal plan —
    at most ``n + m - 1`` entries, every one inside the band.  The
    repair step may merge mass onto an already-emitted edge cell, so
    scatter with accumulation (``np.bincount`` /
    ``scipy.sparse.csr_array``), not plain assignment.

    >>> rows, cols, masses = banded_monotone_transport(
    ...     [0.5, 0.5], [0.25, 0.75], [0, 1], [1, 1])
    >>> list(zip(rows.tolist(), cols.tolist(), masses.tolist()))
    [(0, 0, 0.25), (0, 1, 0.25), (1, 1, 0.5)]
    """
    mu = as_probability_vector(source_weights, name="source_weights",
                               normalize=True)
    nu = as_probability_vector(target_weights, name="target_weights",
                               normalize=True)
    lo = np.asarray(lower, dtype=np.intp).ravel()
    hi = np.asarray(upper, dtype=np.intp).ravel()
    n, m = mu.size, nu.size
    if lo.size != n or hi.size != n:
        raise ValidationError(
            f"band bounds must have one entry per source state ({n}), "
            f"got {lo.size} lower and {hi.size} upper bounds")
    if lo.min() < 0 or hi.max() >= m:
        raise ValidationError(
            f"band bounds must lie in [0, {m - 1}], got "
            f"[{int(lo.min())}, {int(hi.max())}]")
    if np.any(lo > hi):
        raise ValidationError(
            "every band row needs lower <= upper; row "
            f"{int(np.argmax(lo > hi))} violates it")
    if np.any(np.diff(lo) < 0) or np.any(np.diff(hi) < 0):
        raise ValidationError(
            "band bounds must be non-decreasing (a monotone band); use "
            "the network simplex for non-monotone supports")
    rows, cols, masses = batched_north_west_corner(mu[None, :], nu[None, :])
    rows = rows[0].astype(np.intp)
    cols = cols[0].astype(np.intp)
    masses = np.asarray(masses[0], dtype=float)
    keep = masses > 0.0
    rows, cols, masses = rows[keep], cols[keep], masses[keep]
    stray = (cols < lo[rows]) | (cols > hi[rows])
    if np.any(stray):
        stray_mass = float(masses[stray].sum())
        if stray_mass > atol:
            raise InfeasibleProblemError(
                "the band excludes the monotone staircase "
                f"({stray_mass:.3e} mass outside the band > atol "
                f"{atol:.1e}); no monotone coupling fits this support")
        cols = np.clip(cols, lo[rows], hi[rows])
    return rows, cols, masses


def solve_1d(source_support, source_weights, target_support, target_weights,
             *, p: int = 2) -> TransportPlan:
    """Exact 1-D optimal transport between weighted discrete supports.

    Thin shim over :func:`repro.ot.solve` with ``method="exact"`` (the
    monotone coupling): sorts both supports, applies
    :func:`north_west_corner`, and un-sorts the result so the returned
    plan is indexed by the *original* support order.

    Parameters
    ----------
    p:
        Exponent of the ground cost ``|x - y|^p`` used only to report the
        optimal cost; the plan itself is identical for every ``p >= 1``.
    """
    from .problem import OTProblem
    from .solve import solve

    xs = as_1d_array(source_support, name="source_support")
    ys = as_1d_array(target_support, name="target_support")
    mu = as_probability_vector(source_weights, name="source_weights",
                               normalize=True)
    nu = as_probability_vector(target_weights, name="target_weights",
                               normalize=True)
    if xs.size != mu.size:
        raise ValidationError("source support/weights length mismatch")
    if ys.size != nu.size:
        raise ValidationError("target support/weights length mismatch")
    problem = OTProblem(source_weights=mu, target_weights=nu,
                        source_support=xs, target_support=ys, p=p)
    return solve(problem, method="exact").plan


def wasserstein_1d(source_support, source_weights, target_support,
                   target_weights, *, p: int = 2) -> float:
    """``W_p`` distance between two discrete 1-D measures (closed form).

    Integrates ``|F⁻¹_µ(q) - F⁻¹_ν(q)|^p`` over the merged set of cumulative
    levels, then takes the ``1/p`` root.  Equivalent to (but faster than)
    extracting the cost from :func:`solve_1d`.
    """
    xs = as_1d_array(source_support, name="source_support")
    ys = as_1d_array(target_support, name="target_support")
    mu = as_probability_vector(source_weights, name="source_weights",
                               normalize=True)
    nu = as_probability_vector(target_weights, name="target_weights",
                               normalize=True)

    order_x = np.argsort(xs, kind="stable")
    order_y = np.argsort(ys, kind="stable")
    xs, mu = xs[order_x], mu[order_x]
    ys, nu = ys[order_y], nu[order_y]

    cdf_x = np.cumsum(mu)
    cdf_y = np.cumsum(nu)
    # Clamp the endpoints: cumsum round-off can land at 1 ± 1e-16, which
    # would otherwise drop (or duplicate) the final mass segment below.
    cdf_x[-1] = 1.0
    cdf_y[-1] = 1.0
    # Merged breakpoints of both quantile functions.
    levels = np.union1d(cdf_x, cdf_y)
    levels = levels[(levels > 0.0) & (levels <= 1.0)]
    widths = np.diff(np.concatenate(([0.0], levels)))

    idx_x = np.searchsorted(cdf_x, levels - 1e-12, side="left")
    idx_y = np.searchsorted(cdf_y, levels - 1e-12, side="left")
    idx_x = np.minimum(idx_x, xs.size - 1)
    idx_y = np.minimum(idx_y, ys.size - 1)

    gaps = np.abs(xs[idx_x] - ys[idx_y]) ** p
    return float(np.sum(widths * gaps) ** (1.0 / p))


def quantile_function(support, weights, levels) -> np.ndarray:
    """Generalised inverse CDF ``F⁻¹(q)`` of a discrete 1-D measure.

    ``F⁻¹(q) = inf {x : F(x) >= q}``, evaluated at each entry of ``levels``.
    """
    xs = as_1d_array(support, name="support")
    ws = as_probability_vector(weights, name="weights", normalize=True)
    qs = np.atleast_1d(np.asarray(levels, dtype=float))
    if np.any((qs < 0.0) | (qs > 1.0)):
        raise ValidationError("quantile levels must lie in [0, 1]")

    order = np.argsort(xs, kind="stable")
    xs, ws = xs[order], ws[order]
    cdf = np.cumsum(ws)
    idx = np.searchsorted(cdf, qs - 1e-12, side="left")
    idx = np.minimum(idx, xs.size - 1)
    return xs[idx]


def monotone_map(source_samples, target_samples) -> np.ndarray:
    """Empirical monotone (increasing) rearrangement between two samples.

    When both samples have the same size ``n`` this is the Monge map of the
    empirical measures: the ``i``-th smallest source point maps to the
    ``i``-th smallest target point.  For unequal sizes the map sends each
    source point to the target quantile at its own cumulative level.
    """
    xs = as_1d_array(source_samples, name="source_samples")
    ys = as_1d_array(target_samples, name="target_samples")
    n = xs.size
    # Mid-rank cumulative levels avoid the degenerate 0 and 1 endpoints.
    ranks = (np.argsort(np.argsort(xs, kind="stable"), kind="stable")
             .astype(float))
    levels = (ranks + 0.5) / n
    uniform = np.full(ys.size, 1.0 / ys.size)
    return quantile_function(ys, uniform, levels)
