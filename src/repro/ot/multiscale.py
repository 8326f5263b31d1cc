"""Multiscale screened OT: coarsen, solve exactly, refine the support.

The single-level ``"screened"`` hybrid prunes the product support with an
entropic (Sinkhorn) solve before running an exact restricted LP.  That
screen is itself ``O(n·m)`` per iteration, so on very large quantile
grids (``n_Q >= 2000``, the regime the repair pipeline's Figure-4 sweep
targets) the screen dominates the solve.  The multiscale solver replaces
the entropic screen with the classical coarsen-solve-refine pattern used
by POT's multiscale backends:

1. **Coarsen** — bin each 1-D support into ``ceil(n / coarsen)``
   contiguous cells with the same :class:`repro.density.grid.
   InterpolationGrid` binning Algorithm 1 uses, aggregating marginal
   mass per bin and representing each bin by its mass-weighted centre.
2. **Solve** — solve the coarse problem *exactly* through the facade
   (``"auto"``: the monotone closed form when the cost is a convex
   ``|x - y|^p`` metric; the simplex, LP or screened hybrid for
   aggregated explicit costs, by coarse size).
3. **Refine** — dilate the coarse plan's support by ``radius`` coarse
   cells (:func:`repro.ot.coupling.dilate_mask`), expand it onto the
   fine grid (:func:`repro.ot.coupling.refine_mask`), union the
   north-west-corner staircase so the restriction is always feasible,
   and solve the exact LP on that sparse support only.

Since Multiscale v2 the coarsen step is an **automatic pyramid**:
``coarsen_problem`` is applied recursively until the coarsest problem
drops below :data:`PYRAMID_LEAF_SIZE` states per marginal
(``levels="auto"``; pass an integer to pin the depth — ``levels=1`` is
the historical single-level solve, bit-identical), and the refine step
walks back up level by level, each restricted solve warm-started from
the level above through
:func:`~repro.ot.network_simplex.refine_state` basis lifts.  Per-level
diagnostics land in ``extras["pyramid"]``.

Like ``"screened"``, the returned plan is CSR-backed below the
:data:`~repro.ot.coupling.SPARSE_DENSITY_THRESHOLD` density, and a
caller-supplied ``support_mask`` is unioned in as extra support to
include.  Unlike ``"screened"``, the fine ``(n, m)`` ground-cost matrix
is never materialised for metric-family costs — the restricted solve
sees cost values at the sparse support entries only.  Past
:data:`_SPARSE_SUPPORT_LIMIT` fine states the boolean ``(n, m)``
support mask goes the same way: the refine step switches to direct
index generation (dilate the coarse support in index space, expand to
the fine bin members, union the staircase), so the largest intermediate
left is the dense coarse plan (``(n/coarsen)²`` floats) and grids of
``n_Q ~ 10^6`` fit comfortably.  The restricted solves default to
``restricted_engine="auto"``: each level's dilated support is a
contiguous monotone band for convex metric costs on sorted 1-D grids
(:func:`~repro.ot.coupling.is_banded` certifies it), in which case the
O(n + m) north-west-corner-with-repair kernel
(:func:`~repro.ot.onedim.banded_monotone_transport`) solves the level
with no cost matrix and no simplex pivots at all; non-banded supports
keep the native sparse network simplex (``"network_simplex"``; pass
``"lp"`` for the scipy oracle).

>>> import numpy as np
>>> from repro.ot import OTProblem, solve
>>> nodes = np.linspace(-3.0, 3.0, 400)
>>> mu = np.exp(-0.5 * (nodes + 1.0) ** 2)
>>> nu = np.exp(-0.5 * (nodes - 1.0) ** 2)
>>> problem = OTProblem(source_weights=mu / mu.sum(),
...                     target_weights=nu / nu.sum(),
...                     source_support=nodes, target_support=nodes,
...                     cost_fn="euclidean")
>>> result = solve(problem, method="multiscale", coarsen=8)
>>> result.solver, result.converged, result.plan.is_sparse
('multiscale', True, True)
>>> exact = solve(problem, method="lp")
>>> bool(result.value <= exact.value * 1.01)   # within 1% of the LP
True

The coarse support heuristic is only *certified* (``converged=True``)
for metric-family costs like the one above, where the support geometry
provably predicts the optimum; with a hand-rolled explicit cost the same
call still solves the restricted LP exactly but reports
``converged=False``, and ``"auto"`` routes such problems to
``"screened"`` instead.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_positive_int
from ..density.grid import InterpolationGrid
from ..exceptions import ValidationError
from .coupling import dilate_mask, is_sparse_enough, refine_mask
from .network_simplex import NetworkSimplexState, refine_state
from .onedim import north_west_corner_support
from .problem import OTProblem, OTResult, result_from_matrix
from .registry import register_solver
# Importing .solve here also registers the built-in solvers before
# "multiscale", keeping the registry's listing order intuitive.
from .solve import (RESTRICTED_ENGINES, _arc_cost_entries,
                    _banded_certifiable, _restricted_exact_entries, solve)

__all__ = ["coarsen_problem", "default_coarsen_factor",
           "PYRAMID_LEAF_SIZE"]

#: Hard floor on the coarse marginal size — coarser than this and the
#: coarse plan carries no usable geometry.
_MIN_COARSE_STATES = 2

#: ``levels="auto"`` keeps coarsening until the coarsest marginal is at
#: most this large — the "trivial size" where any exact solver finishes
#: instantly (it matches :data:`~repro.ot.solve.LP_AUTO_LIMIT`, so
#: aggregated explicit costs land on the dense LP, never the screened
#: hybrid).  With the default factor 4 a ``10^6``-state grid becomes a
#: 6-level pyramid whose per-level work is a geometric series summing
#: to ~1.33x the finest level.
PYRAMID_LEAF_SIZE = 300

#: Fine problem size (``n * m``) past which the refine step defaults to
#: direct index generation instead of a boolean ``(n, m)`` mask (10^8
#: states = a 100 MB mask; the index path carries only the O(support)
#: arc list).  Override per call with ``sparse_support=``.
_SPARSE_SUPPORT_LIMIT = 100_000_000


def default_coarsen_factor(size: int) -> int:
    """The default coarsening factor for a fine marginal of ``size``.

    The restricted fine LP dominates the multiscale solve and its cost
    grows superlinearly in the support size (which is itself linear in
    the factor: a radius-1 dilation band is ``~3·factor`` fine cells
    wide), so small factors win across the whole 500-5000 grid range
    we benchmark (``benchmarks/results/multiscale.txt``).  ``4`` keeps
    a ±6-fine-cell band — comfortable slack around the coarse plan for
    monotone-structured problems — while cutting the LP support well
    over an order of magnitude below the dense product.  Larger
    factors only pay off when the *coarse* level is the bottleneck
    (explicit cost matrices, where the coarse solve is an LP rather
    than the free monotone coupling).

    >>> default_coarsen_factor(2000)
    4
    """
    del size  # currently size-independent; kept for interface stability
    return 4


def coarsen_problem(problem: OTProblem, factor: int):
    """Build the coarse Kantorovich problem for one multiscale level.

    Bins each (1-D) support into ``ceil(size / factor)`` cells of an
    Algorithm-1 :class:`~repro.density.grid.InterpolationGrid`, sums the
    marginal mass per bin, and represents each bin by its mass-weighted
    centre (empty bins keep their geometric centre).  Returns
    ``(coarse_problem, source_bins, target_bins)`` where the bin arrays
    map each fine index to its coarse cell.

    The coarse ground cost mirrors the fine problem: metric-family costs
    and callables are re-evaluated on the coarse supports; an explicit
    fine cost matrix is aggregated by the mass-weighted mean over each
    coarse cell pair.
    """
    factor = check_positive_int(factor, name="coarsen", minimum=2)
    if not problem.is_one_dimensional:
        raise ValidationError(
            "the multiscale solver coarsens by support geometry and needs "
            "1-D source and target supports; use 'screened' for general "
            "problems")
    xs = problem.source_support.ravel()
    ys = problem.target_support.ravel()
    mu, nu = problem.source_weights, problem.target_weights

    source_bins, source_centers = _bin_support(xs, mu, factor)
    target_bins, target_centers = _bin_support(ys, nu, factor)
    n_c, m_c = source_centers.size, target_centers.size
    coarse_mu = np.bincount(source_bins, weights=mu, minlength=n_c)
    coarse_nu = np.bincount(target_bins, weights=nu, minlength=m_c)

    if problem.cost is not None:
        coarse_cost = _aggregate_cost(problem.cost, source_bins, mu, n_c,
                                      target_bins, nu, m_c)
        coarse = OTProblem(source_weights=coarse_mu,
                           target_weights=coarse_nu, cost=coarse_cost,
                           source_support=source_centers,
                           target_support=target_centers)
    else:
        coarse = OTProblem(source_weights=coarse_mu,
                           target_weights=coarse_nu,
                           cost_fn=problem.cost_fn,
                           source_support=source_centers,
                           target_support=target_centers, p=problem.p)
    return coarse, source_bins, target_bins


def _bin_support(points: np.ndarray, weights: np.ndarray,
                 factor: int) -> tuple[np.ndarray, np.ndarray]:
    """Bin 1-D ``points`` into ``ceil(size / factor)`` grid cells.

    Reuses the Algorithm-1 grid machinery: a uniform
    :class:`~repro.density.grid.InterpolationGrid` with ``n_bins + 1``
    nodes has exactly ``n_bins`` cells, and ``grid.locate`` assigns each
    point to its cell.  Returns ``(bin_index_per_point, bin_centers)``
    with the centre of each occupied bin moved to its mass-weighted mean.
    """
    n_bins = max(_MIN_COARSE_STATES, -(-points.size // factor))
    n_bins = min(n_bins, points.size)
    grid = InterpolationGrid.from_samples(points, n_bins + 1)
    bins, _ = grid.locate(points)
    centers = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
    mass = np.bincount(bins, weights=weights, minlength=n_bins)
    moment = np.bincount(bins, weights=weights * points, minlength=n_bins)
    occupied = mass > 0.0
    centers = centers.copy()
    centers[occupied] = moment[occupied] / mass[occupied]
    return bins, centers


def _aggregate_cost(cost: np.ndarray, source_bins: np.ndarray,
                    mu: np.ndarray, n_coarse: int,
                    target_bins: np.ndarray, nu: np.ndarray,
                    m_coarse: int) -> np.ndarray:
    """Mass-weighted mean of an explicit fine cost over coarse cell pairs.

    Weighting by the fine marginals makes the coarse cost the expected
    fine cost of a within-bin-uniform coupling; bins with zero marginal
    mass fall back to the unweighted mean so the coarse cost stays
    finite everywhere.
    """
    from scipy import sparse

    def _aggregator(bins, fine_weights, size):
        n_fine = bins.size
        mass = np.bincount(bins, weights=fine_weights, minlength=size)
        weights = np.where(mass[bins] > 0.0, fine_weights, 1.0)
        totals = np.bincount(bins, weights=weights, minlength=size)
        weights = weights / totals[bins]
        return sparse.csr_array(
            (weights, (bins, np.arange(n_fine))), shape=(size, n_fine))

    rows = _aggregator(source_bins, mu, n_coarse)
    cols = _aggregator(target_bins, nu, m_coarse)
    return np.asarray((rows @ cost) @ cols.T)


@register_solver(
    "multiscale",
    description="automatic coarsen-solve-refine pyramid: recursive "
                "binning down to a trivial coarsest problem, exact "
                "restricted solves refined level by level (banded "
                "monotone kernel or warm-started network simplex) "
                "returning a CSR-backed plan — the fast path for very "
                "large 1-D grids")
def _solve_multiscale(problem: OTProblem, *, coarsen: int | None = None,
                      radius: int = 1, coarse_method: str = "auto",
                      levels: int | str = "auto",
                      restricted_engine: str = "auto",
                      sparse_support: bool | None = None) -> OTResult:
    """Coarsen recursively, solve the coarsest exactly, refine upward.

    Parameters
    ----------
    coarsen:
        Fine points per coarse bin at every pyramid level; ``None``
        picks :func:`default_coarsen_factor` from the problem size.
    radius:
        Support dilation in coarse cells at each refine step: the
        restricted solve may place mass up to ``radius`` coarse cells
        away from the coarser plan's support.  ``radius=1`` is exact on
        every monotone-structured problem we benchmark; raise it if the
        returned value is visibly above an exact reference.  For costs
        *not* derived from the support geometry (explicit matrices,
        callables) the coarse support is only a heuristic — the result
        then reports ``converged=False`` and ``"auto"`` never
        dispatches here; prefer ``"screened"`` unless you know the cost
        correlates with the supports.
    coarse_method:
        Solver spec for the *coarsest* level only (default ``"auto"``:
        the closed-form monotone coupling for metric-family costs; the
        simplex/LP, by coarse size, for aggregated explicit costs).
    levels:
        Pyramid depth — the number of coarsening steps.  ``"auto"``
        (default) keeps coarsening until the coarsest marginal has at
        most :data:`PYRAMID_LEAF_SIZE` states (or binning stops
        shrinking the problem at the :data:`_MIN_COARSE_STATES` floor);
        an explicit positive integer pins the depth, and ``levels=1``
        reproduces the historical single-level solve bit for bit.
    restricted_engine:
        Exact engine for the per-level restricted solves.  ``"auto"``
        (default) uses the O(n + m) banded monotone kernel
        (:func:`~repro.ot.onedim.banded_monotone_transport`) whenever
        the level is certified — convex metric cost, sorted 1-D
        supports, and a support that
        :func:`~repro.ot.coupling.is_banded` confirms is a contiguous
        monotone band — and the native sparse arc-list network simplex
        otherwise.  ``"banded"`` requests the band kernel explicitly
        (still falling back to the simplex when the certificate fails),
        ``"network_simplex"`` forces the simplex (whose basis is then
        lifted level-to-level via
        :func:`~repro.ot.network_simplex.refine_state` warm starts),
        and ``"lp"`` keeps the scipy HiGHS oracle the other engines are
        differentially tested against.
    sparse_support:
        ``True`` refines in index space (no boolean ``(n, m)`` mask),
        ``False`` forces the dense-mask refine, ``None`` (default)
        picks the index path automatically past
        :data:`_SPARSE_SUPPORT_LIMIT` fine states when the cost is
        metric-family and no ``support_mask`` needs unioning — decided
        per level, so only the pyramid levels that need it pay the
        index-space bookkeeping.
    """
    n, m = problem.shape
    if coarsen is None:
        coarsen = default_coarsen_factor(max(n, m))
    radius = check_positive_int(radius, name="radius", minimum=0)
    if restricted_engine not in RESTRICTED_ENGINES:
        raise ValidationError(
            "restricted_engine must be one of "
            f"{RESTRICTED_ENGINES}, got {restricted_engine!r}")
    if isinstance(levels, str):
        if levels != "auto":
            raise ValidationError(
                f"levels must be a positive integer or 'auto', got "
                f"{levels!r}")
        max_levels = None
    else:
        max_levels = check_positive_int(levels, name="levels", minimum=1)

    # Descend: coarsen recursively until the leaf threshold (or the
    # requested depth, or the _MIN_COARSE_STATES floor) is reached.
    # pyramid[0] is the fine problem; binmaps[k] maps level k onto
    # level k + 1.
    pyramid = [problem]
    binmaps = []
    while True:
        coarse, source_bins, target_bins = coarsen_problem(pyramid[-1],
                                                           coarsen)
        reduced = coarse.shape != pyramid[-1].shape
        if binmaps and not reduced:
            break
        pyramid.append(coarse)
        binmaps.append((source_bins, target_bins))
        if not reduced:
            break
        if max_levels is not None:
            if len(binmaps) >= max_levels:
                break
        elif max(coarse.shape) <= PYRAMID_LEAF_SIZE:
            break

    coarsest_result = solve(pyramid[-1], method=coarse_method)

    # Ascend: one restricted solve per level, each supported on the
    # dilated refinement of the level above and (with the simplex
    # engine) warm-started from its lifted basis.
    current = coarsest_result
    diagnostics = []
    level_info = None
    for level in range(len(binmaps) - 1, -1, -1):
        fine = pyramid[level]
        source_bins, target_bins = binmaps[level]
        level_info = _refine_level(fine, current, source_bins,
                                   target_bins, radius=radius,
                                   engine=restricted_engine,
                                   sparse_support=sparse_support)
        diagnostics.append({
            "shape": fine.shape,
            "engine": level_info["engine"],
            "support_size": level_info["support_size"],
            "support_density": level_info["support_density"],
            "sparse_support": level_info["sparse_support"],
            "n_iter": level_info["n_iter"],
            "warm_started": level_info["warm_started"],
            "value": float(level_info["value"]),
        })
        level_extras = {}
        if level_info["state"] is not None:
            level_extras["state"] = level_info["state"]
        current = result_from_matrix(
            fine, level_info["matrix"], value=level_info["value"],
            converged=True, n_iter=level_info["n_iter"],
            extras=level_extras)

    extras = {"coarsen": int(coarsen), "radius": int(radius),
              "levels": len(binmaps),
              "coarse_shape": pyramid[-1].shape,
              "coarse_solver": coarsest_result.solver,
              "coarse_value": float(coarsest_result.value),
              "geometry_aligned": bool(problem.has_metric_cost),
              "restricted_engine": level_info["engine"],
              "sparse_support": level_info["sparse_support"],
              "support_size": level_info["support_size"],
              "support_density": level_info["support_density"],
              "pyramid": diagnostics}
    if level_info["state"] is not None:
        extras["state"] = level_info["state"]
        extras["warm_started"] = level_info["warm_started"]
    # The restricted solves are exact on their supports, so convergence
    # is a statement about *support quality*.  The coarse plans predict
    # the finer optimal supports only when the cost is derived from the
    # support geometry (metric family); for arbitrary explicit or
    # callable costs the result stays honest and reports
    # converged=False — the caller can raise `radius` or compare
    # against an exact reference — unless the finest mask degenerated
    # to the full product, where the restricted solve is the dense one.
    certified = problem.has_metric_cost and coarsest_result.converged
    return result_from_matrix(
        problem, level_info["matrix"], value=level_info["value"],
        converged=certified or level_info["full"],
        n_iter=level_info["n_iter"], extras=extras)


def _refine_level(problem: OTProblem, coarse_result: OTResult,
                  source_bins: np.ndarray, target_bins: np.ndarray, *,
                  radius: int, engine: str,
                  sparse_support: bool | None) -> dict:
    """One pyramid refine step: dilated support + exact restricted solve.

    ``problem`` is the finer level, ``coarse_result`` the solved level
    above it.  Returns the solved level as a dict: the plan ``matrix``
    (CSR, densified past the density threshold), the ``value``, the
    engine that actually ran, the warm-start/basis bookkeeping, and the
    support diagnostics the solver aggregates into
    ``extras["pyramid"]``.
    """
    mu, nu = problem.source_weights, problem.target_weights
    n, m = problem.shape
    if sparse_support is None:
        use_sparse = (n * m > _SPARSE_SUPPORT_LIMIT
                      and problem.has_metric_cost
                      and problem.support_mask is None)
    else:
        use_sparse = bool(sparse_support)
    if use_sparse:
        rows, cols = _sparse_refined_support(
            coarse_result, source_bins, target_bins, radius, problem)
        full = rows.size == n * m
    else:
        active = np.asarray(coarse_result.plan.toarray() > 0.0)
        dilated = dilate_mask(active, radius=radius)
        mask = refine_mask(dilated, source_bins, target_bins)
        if problem.support_mask is not None:
            # Same semantics as "screened": extra support to include.
            mask |= problem.support_mask
        # O(n + m) feasibility patch: the NW staircase couples mu, nu.
        nw_rows, nw_cols = north_west_corner_support(mu, nu)
        mask[nw_rows, nw_cols] = True
        rows, cols = np.nonzero(mask)
        full = bool(mask.all())

    if engine in ("banded", "auto") and _banded_certifiable(problem):
        # The raw refined support is a union of the dilated coarse band
        # and the staircase, which can leave per-row holes that fail
        # the band certificate and silently demote the solve to simplex
        # pivoting.  Widening to the monotone band envelope is free
        # exactness-wise (a superset still contains the optimal
        # monotone plan) and makes the certificate structural.
        enveloped = _band_envelope_support(rows, cols, n, m)
        if enveloped is not None:
            rows, cols = enveloped
            full = rows.size == n * m

    init = None
    if engine != "lp" and not _banded_certifiable(problem):
        # The level above solved its restricted problem with the
        # network simplex: lift its optimal basis onto this level's
        # grid and start pivoting from there.  Only worthwhile off the
        # monotone-certified family: there the cold staircase init IS
        # the optimal basis, and a cross-grid lift *displaces* parts of
        # it (measured at n = 10⁴: 41k recovery pivots warm vs 9 cold),
        # while for explicit/callable costs the coarse basis is the
        # only structural information available.
        coarse_state = coarse_result.extras.get("state")
        if isinstance(coarse_state, NetworkSimplexState):
            init = refine_state(coarse_state, source_bins, target_bins,
                                mu, nu)
    cost_values = _arc_cost_entries(problem, rows, cols)
    matrix, nit, value, state, engine_used = _restricted_exact_entries(
        cost_values, rows, cols, (n, m), mu, nu,
        engine=engine, init=init, sparse_output=True,
        monotone_certified=_banded_certifiable(problem))
    if not is_sparse_enough(matrix):
        matrix = matrix.toarray()
    return {"matrix": matrix, "value": value, "n_iter": nit,
            "state": state, "engine": engine_used,
            "warm_started": (init is not None
                             and engine_used == "network_simplex"),
            "support_size": int(rows.size),
            "support_density": float(rows.size / (n * m)),
            "sparse_support": bool(use_sparse), "full": full}


def _band_envelope_support(rows: np.ndarray, cols: np.ndarray, n: int,
                           m: int):
    """Widen lex-sorted support arcs to their monotone band envelope.

    Takes the per-row column interval hull, then forces the lower edge
    non-decreasing with a suffix minimum and the upper edge with a
    prefix maximum — the smallest superset of the support that
    :func:`~repro.ot.coupling.is_banded` certifies.  Returns the
    widened ``(rows, cols)`` (lex-sorted, duplicate-free), or ``None``
    when some row carries no arc (nothing guarantees a feasible band
    there, so the caller keeps the raw support and the simplex engine).
    """
    counts = np.bincount(rows, minlength=n)
    if rows.size == 0 or np.any(counts == 0):
        return None
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    lower = np.minimum.accumulate(cols[starts][::-1])[::-1]
    upper = np.maximum.accumulate(cols[starts + counts - 1])
    widths = upper - lower + 1
    band_rows = np.repeat(np.arange(n), widths)
    offsets = np.cumsum(widths) - widths
    band_cols = (np.arange(int(widths.sum()))
                 - np.repeat(offsets, widths)
                 + np.repeat(lower, widths))
    if band_cols.size >= n * m:
        # Degenerate geometry: the envelope is the full product; the
        # raw support is strictly cheaper to solve on.
        return None
    return band_rows, band_cols


def _sparse_refined_support(coarse_result: OTResult,
                            source_bins: np.ndarray,
                            target_bins: np.ndarray, radius: int,
                            problem: OTProblem
                            ) -> tuple[np.ndarray, np.ndarray]:
    """The refine step in index space: no boolean ``(n, m)`` mask.

    Dilates the coarse plan's support by ``radius`` cells per axis
    (clipped Chebyshev ball, matching
    :func:`~repro.ot.coupling.dilate_mask`), expands each surviving
    coarse cell pair to the cartesian product of its fine bin members,
    unions the north-west-corner staircase, and dedups.  Returns sorted
    ``(rows, cols)`` index arrays.
    """
    mu, nu = problem.source_weights, problem.target_weights
    m = nu.size
    coarse_matrix = coarse_result.plan.matrix
    if coarse_result.plan.is_sparse:
        active_rows, active_cols = coarse_matrix.nonzero()
    else:
        active_rows, active_cols = np.nonzero(
            np.asarray(coarse_matrix) > 0.0)
    n_coarse, m_coarse = coarse_matrix.shape

    offsets = np.arange(-radius, radius + 1)
    dilated_rows = np.clip(
        active_rows[:, None, None] + offsets[None, :, None],
        0, n_coarse - 1)
    dilated_cols = np.clip(
        active_cols[:, None, None] + offsets[None, None, :],
        0, m_coarse - 1)
    dilated_rows, dilated_cols = np.broadcast_arrays(dilated_rows,
                                                    dilated_cols)
    pair_keys = np.unique(dilated_rows.ravel().astype(np.int64) * m_coarse
                          + dilated_cols.ravel())
    cell_rows = pair_keys // m_coarse
    cell_cols = pair_keys % m_coarse

    # Fine members of each coarse bin, grouped: members[start[b]:
    # start[b] + count[b]] are the fine indices binned into b.
    def _grouped(bins: np.ndarray, size: int):
        members = np.argsort(bins, kind="stable")
        counts = np.bincount(bins, minlength=size)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        return members, counts, starts

    s_members, s_counts, s_starts = _grouped(source_bins, n_coarse)
    t_members, t_counts, t_starts = _grouped(target_bins, m_coarse)

    row_counts = s_counts[cell_rows]
    col_counts = t_counts[cell_cols]
    sizes = row_counts * col_counts
    occupied = sizes > 0
    cell_rows, cell_cols = cell_rows[occupied], cell_cols[occupied]
    col_counts, sizes = col_counts[occupied], sizes[occupied]
    pair_of = np.repeat(np.arange(cell_rows.size), sizes)
    local = (np.arange(int(sizes.sum()))
             - np.repeat(np.cumsum(sizes) - sizes, sizes))
    per_pair_cols = col_counts[pair_of]
    rows = s_members[s_starts[cell_rows][pair_of] + local // per_pair_cols]
    cols = t_members[t_starts[cell_cols][pair_of] + local % per_pair_cols]

    nw_rows, nw_cols = north_west_corner_support(mu, nu)
    keys = np.unique(np.concatenate([rows, nw_rows]).astype(np.int64) * m
                     + np.concatenate([cols, nw_cols]))
    return keys // m, keys % m
