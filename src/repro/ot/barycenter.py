"""Wasserstein barycentres and displacement geodesics.

The paper's repair target is the ``t = 0.5`` point of the Wasserstein-2
geodesic between the two ``s``-conditional marginals (Eq. 7), represented on
the same interpolated support ``Q`` as the marginals themselves.

For one-dimensional measures the ``W_2`` geodesic has a closed form: the
quantile function of ``ν_t`` is the convex combination

    F⁻¹_{ν_t}(q) = (1 - t) F⁻¹_{µ_0}(q) + t F⁻¹_{µ_1}(q),

so barycentre computation reduces to quantile averaging followed by a
projection back onto the grid.  A general fixed-support barycentre via
iterative Bregman projections (entropic, Benamou et al.) is also provided
for ablations and for non-1-D use.
"""

from __future__ import annotations

import numpy as np

from .._validation import (as_1d_array, as_probability_vector,
                           check_positive_int, check_probability)
from ..exceptions import ConvergenceError, ValidationError

__all__ = [
    "barycenter_1d",
    "geodesic_point_1d",
    "project_onto_grid",
    "sinkhorn_barycenter",
]


def geodesic_point_1d(support0, weights0, support1, weights1, t: float, *,
                      n_levels: int = 2048) -> tuple[np.ndarray, np.ndarray]:
    """Point ``ν_t`` on the W2 geodesic between two discrete 1-D measures.

    Returns ``(support, weights)`` of a discrete approximation built from
    ``n_levels`` equal-mass quantile slices.  ``t = 0`` reproduces ``µ_0``
    (up to quantisation), ``t = 1`` reproduces ``µ_1``, and ``t = 0.5`` is
    the fair barycentre used as the paper's repair target.
    """
    t = check_probability(t, name="t")
    n_levels = check_positive_int(n_levels, name="n_levels", minimum=2)
    xs0 = as_1d_array(support0, name="support0")
    xs1 = as_1d_array(support1, name="support1")
    ws0 = as_probability_vector(weights0, name="weights0", normalize=True)
    ws1 = as_probability_vector(weights1, name="weights1", normalize=True)
    if xs0.size != ws0.size or xs1.size != ws1.size:
        raise ValidationError("support/weights length mismatch")

    levels = (np.arange(n_levels) + 0.5) / n_levels
    q0 = _quantiles(xs0, ws0, levels)
    q1 = _quantiles(xs1, ws1, levels)
    atoms = (1.0 - t) * q0 + t * q1
    weights = np.full(n_levels, 1.0 / n_levels)
    return atoms, weights


def barycenter_1d(support0, weights0, support1, weights1, grid, *,
                  t: float = 0.5, n_levels: int = 2048) -> np.ndarray:
    """W2 barycentre of two 1-D measures, represented on ``grid``.

    This is the construction used by Algorithm 1: the repair target ``ν``
    lives on the same interpolated support ``Q`` as the marginals.  The
    continuous quantile-averaged barycentre is projected onto the grid by
    linear mass splitting (:func:`project_onto_grid`), which preserves both
    total mass and the first moment.
    """
    atoms, weights = geodesic_point_1d(support0, weights0, support1,
                                       weights1, t, n_levels=n_levels)
    return project_onto_grid(atoms, weights, grid)


def project_onto_grid(atoms, weights, grid) -> np.ndarray:
    """Project a weighted sample onto a sorted grid by linear mass splitting.

    Each atom ``x`` lying between grid nodes ``g_q <= x <= g_{q+1}`` donates
    mass ``(1 - τ)`` to ``g_q`` and ``τ`` to ``g_{q+1}`` with
    ``τ = (x - g_q) / (g_{q+1} - g_q)``; atoms outside the grid range are
    assigned to the nearest endpoint.  The result is a probability vector on
    the grid with the same mean as the input (for interior atoms).
    """
    xs = as_1d_array(atoms, name="atoms")
    ws = as_probability_vector(weights, name="weights", normalize=True)
    if xs.size != ws.size:
        raise ValidationError("atoms/weights length mismatch")
    grid = as_1d_array(grid, name="grid")
    if grid.size < 2:
        raise ValidationError("grid needs at least two nodes")
    if np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must be strictly increasing")

    clipped = np.clip(xs, grid[0], grid[-1])
    idx = np.searchsorted(grid, clipped, side="right") - 1
    idx = np.clip(idx, 0, grid.size - 2)
    gaps = grid[idx + 1] - grid[idx]
    tau = (clipped - grid[idx]) / gaps

    out = np.zeros(grid.size)
    np.add.at(out, idx, ws * (1.0 - tau))
    np.add.at(out, idx + 1, ws * tau)
    total = out.sum()
    if total <= 0.0:
        raise ValidationError("projection produced zero mass")
    return out / total


def sinkhorn_barycenter(cost: np.ndarray, marginals, *, weights=None,
                        epsilon: float = 1e-2, max_iter: int = 5_000,
                        tol: float = 1e-8) -> np.ndarray:
    """Entropic fixed-support barycentre (iterative Bregman projections).

    All marginals must live on the same support with pairwise cost matrix
    ``cost``.  Returns the barycentre weights on that support.  Used for
    ablation against the closed-form 1-D construction and available for
    multi-marginal (> 2) targets.
    """
    from scipy.special import logsumexp
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValidationError("cost must be a square matrix on the shared "
                              f"support, got shape {cost.shape}")
    mus = [as_probability_vector(marg, name=f"marginals[{k}]",
                                 normalize=True)
           for k, marg in enumerate(marginals)]
    if len(mus) < 2:
        raise ValidationError("need at least two marginals")
    n = cost.shape[0]
    for k, mu in enumerate(mus):
        if mu.size != n:
            raise ValidationError(
                f"marginals[{k}] has {mu.size} states, cost expects {n}")
    if weights is None:
        lam = np.full(len(mus), 1.0 / len(mus))
    else:
        lam = as_probability_vector(weights, name="weights", normalize=True)
        if lam.size != len(mus):
            raise ValidationError("weights/marginals length mismatch")
    if epsilon <= 0.0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")

    scale = max(float(np.max(cost)), 1e-300)
    log_kernel = -cost / (epsilon * scale)
    log_mus = [np.log(np.maximum(mu, 1e-300)) for mu in mus]
    log_v = [np.zeros(n) for _ in mus]

    log_bary = np.full(n, -np.log(n))
    for iteration in range(1, max_iter + 1):
        log_u = []
        for k, log_mu in enumerate(log_mus):
            # u_k = mu_k / (K v_k), in log domain.
            log_kv = logsumexp(log_kernel + log_v[k][None, :], axis=1)
            log_u.append(log_mu - log_kv)
        # Barycentre is the weighted geometric mean of K^T u_k.
        log_ktu = [logsumexp(log_kernel.T + log_u[k][None, :], axis=1)
                   for k in range(len(mus))]
        new_log_bary = sum(lam[k] * log_ktu[k] for k in range(len(mus)))
        new_log_bary -= logsumexp(new_log_bary)
        for k in range(len(mus)):
            log_v[k] = new_log_bary - log_ktu[k]
        change = float(np.max(np.abs(np.exp(new_log_bary)
                                     - np.exp(log_bary))))
        log_bary = new_log_bary
        if change <= tol:
            return np.exp(log_bary)
    raise ConvergenceError(
        "Sinkhorn barycentre did not converge", iterations=max_iter)


def _quantiles(support: np.ndarray, weights: np.ndarray,
               levels: np.ndarray) -> np.ndarray:
    order = np.argsort(support, kind="stable")
    xs, ws = support[order], weights[order]
    cdf = np.cumsum(ws)
    idx = np.searchsorted(cdf, levels - 1e-12, side="left")
    idx = np.minimum(idx, xs.size - 1)
    return xs[idx]
