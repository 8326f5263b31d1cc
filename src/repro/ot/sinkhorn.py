"""Entropy-regularised optimal transport (Sinkhorn-Knopp).

Solves

    min_π  <C, π> + ε Σ_ij π_ij (log π_ij - 1)
    s.t.   π 1 = µ,  πᵀ 1 = ν

by alternating Bregman projections (Sinkhorn-Knopp [33] in the paper;
Cuturi 2013 [35]).  The paper cites the ``O(n_Q² / ε²)`` complexity of an
ε-approximation as the regularised alternative to the cubic exact solver,
and we expose it both as a faster plan designer and as an ablation target
(entropic plans are blurrier, which affects repair quality).

Two numerical regimes are provided:

* the classical scaling iteration in the probability domain (fast, fine for
  moderate ``ε``), and
* a log-domain stabilised iteration that survives very small ``ε`` where the
  Gibbs kernel underflows.

Both are written against :class:`repro.core.backend.ArrayBackend`
(:func:`repro.core.backend.get_backend`): the default numpy backend is
bit-identical to the historical implementation, and the array-API
adapter checks that the kernels stay inside the standard.  The *batched*
variants (:func:`batched_sinkhorn` / :func:`batched_sinkhorn_log`) run a
whole stack of same-shape problems as one ``(B, n, m)`` einsum chain
with per-problem convergence masking — the kernels behind
``solve_many(method="sinkhorn"/"sinkhorn_log")``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_probability_vector, check_positive_int
from ..core.backend import get_backend
from ..exceptions import ConvergenceError, ValidationError
from .coupling import TransportPlan, marginal_residual

__all__ = ["sinkhorn", "sinkhorn_log", "batched_sinkhorn",
           "batched_sinkhorn_log", "solve_sinkhorn", "SinkhornResult"]


@dataclass(frozen=True)
class SinkhornResult:
    """Outcome of a Sinkhorn run.

    Attributes
    ----------
    plan:
        The ``(n, m)`` coupling matrix.
    iterations:
        Number of full update sweeps performed.
    residual:
        Final max-norm marginal violation.
    converged:
        True when ``residual <= tol`` within the budget.
    effective_epsilon:
        The regularisation strength actually applied to the *unscaled*
        cost (``epsilon`` times any internal cost rescaling); ``None``
        when the solver did not record it.
    scalings:
        The final probability-domain scaling vectors ``(u, v)`` when the
        probability-domain iteration produced the plan, else ``None``
        (log-domain runs, internal log-domain fallbacks).  Feeding them
        back through ``sinkhorn(..., init=(u, v))`` warm-starts a
        follow-up solve — the hook behind the ``"screened"`` solver's
        epsilon-scaling loop.
    """

    plan: np.ndarray
    iterations: int
    residual: float
    converged: bool
    effective_epsilon: float | None = None
    scalings: tuple | None = None


def sinkhorn(cost: np.ndarray, source_weights, target_weights, *,
             epsilon: float = 1e-2, max_iter: int = 10_000,
             tol: float = 1e-9, raise_on_failure: bool = True,
             init=None, backend=None) -> SinkhornResult:
    """Probability-domain Sinkhorn-Knopp iteration.

    Parameters
    ----------
    epsilon:
        Entropic regularisation strength; smaller values approximate the
        unregularised optimum more closely but need more iterations.
    tol:
        Convergence threshold on the marginal residual.
    raise_on_failure:
        When true (default) a :class:`ConvergenceError` is raised if the
        budget is exhausted; otherwise the best iterate is returned with
        ``converged=False``.
    init:
        Optional ``(u0, v0)`` scaling vectors warm-starting the
        iteration (e.g. the :attr:`SinkhornResult.scalings` of a
        previous solve at a nearby ``epsilon``); default cold start from
        all-ones.
    backend:
        Compute backend spec (:func:`repro.core.backend.get_backend`).
        The default numpy backend performs exactly the historical
        operations (``matmul``, :func:`scipy.special.logsumexp` in the
        fallback) — results are bit-identical to previous releases.
    """
    cost = _check_cost(cost)
    mu = as_probability_vector(source_weights, name="source_weights",
                               normalize=True)
    nu = as_probability_vector(target_weights, name="target_weights",
                               normalize=True)
    _check_shapes(cost, mu, nu)
    if epsilon <= 0.0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    max_iter = check_positive_int(max_iter, name="max_iter")
    nx = get_backend(backend)

    # Rescale the cost so the kernel conditioning is resolution-independent
    # (the strength actually applied to the unscaled cost is reported as
    # ``effective_epsilon``).
    scale = max(float(np.max(cost)), 1e-300)
    effective_epsilon = epsilon * scale
    cost_d = nx.asarray(cost, dtype=nx.float64)
    mu_d = nx.asarray(mu, dtype=nx.float64)
    nu_d = nx.asarray(nu, dtype=nx.float64)
    kernel = nx.exp(-cost_d / effective_epsilon)
    u, v = _initial_scalings(nx, init, mu.size, nu.size)
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        kv = nx.matmul(kernel, v)
        if bool(nx.to_numpy(nx.any(kv <= 1e-300))):
            # Kernel underflow: defer to the log-domain variant.
            return sinkhorn_log(cost, mu, nu, epsilon=epsilon * scale,
                                max_iter=max_iter, tol=tol,
                                raise_on_failure=raise_on_failure,
                                backend=nx)
        u = mu_d / kv
        ktu = nx.matmul(nx.transpose(kernel), u)
        v = nu_d / nx.maximum(ktu, 1e-300)
        if iteration % 5 == 0 or iteration == max_iter:
            plan = nx.to_numpy((u[:, None] * kernel) * v[None, :])
            residual = marginal_residual(plan, mu, nu)
            if residual <= tol:
                return SinkhornResult(plan, iteration, residual, True,
                                      effective_epsilon=effective_epsilon,
                                      scalings=(nx.to_numpy(u),
                                                nx.to_numpy(v)))
    plan = nx.to_numpy((u[:, None] * kernel) * v[None, :])
    residual = marginal_residual(plan, mu, nu)
    scalings = (nx.to_numpy(u), nx.to_numpy(v))
    if residual <= tol:
        return SinkhornResult(plan, max_iter, residual, True,
                              effective_epsilon=effective_epsilon,
                              scalings=scalings)
    if raise_on_failure:
        raise ConvergenceError(
            f"Sinkhorn did not converge (residual {residual:.3e})",
            iterations=max_iter, residual=residual)
    return SinkhornResult(plan, max_iter, residual, False,
                          effective_epsilon=effective_epsilon,
                          scalings=scalings)


def _initial_scalings(nx, init, n: int, m: int) -> tuple:
    """Validated ``(u, v)`` start vectors on the backend (ones when no
    warm start is supplied)."""
    if init is None:
        return (nx.ones((n,), dtype=nx.float64),
                nx.ones((m,), dtype=nx.float64))
    try:
        u0, v0 = init
    except (TypeError, ValueError):
        raise ValidationError(
            "init must be a (u0, v0) pair of scaling vectors") from None
    u0 = nx.asarray(u0, dtype=nx.float64)
    v0 = nx.asarray(v0, dtype=nx.float64)
    if tuple(u0.shape) != (n,) or tuple(v0.shape) != (m,):
        raise ValidationError(
            f"init scaling shapes {tuple(u0.shape)}/{tuple(v0.shape)} do "
            f"not match the marginals ({n},)/({m},)")
    return u0, v0


def sinkhorn_log(cost: np.ndarray, source_weights, target_weights, *,
                 epsilon: float = 1e-2, max_iter: int = 10_000,
                 tol: float = 1e-9, raise_on_failure: bool = True,
                 backend=None) -> SinkhornResult:
    """Log-domain stabilised Sinkhorn.

    Maintains dual potentials ``f, g`` and performs soft-min updates with
    the backend's ``logsumexp`` (:func:`scipy.special.logsumexp` on the
    default numpy backend — bit-identical to previous releases); immune
    to kernel underflow at small ``epsilon``.
    """
    cost = _check_cost(cost)
    mu = as_probability_vector(source_weights, name="source_weights",
                               normalize=True)
    nu = as_probability_vector(target_weights, name="target_weights",
                               normalize=True)
    _check_shapes(cost, mu, nu)
    if epsilon <= 0.0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    max_iter = check_positive_int(max_iter, name="max_iter")
    nx = get_backend(backend)

    cost_d = nx.asarray(cost, dtype=nx.float64)
    log_mu = nx.log(nx.maximum(nx.asarray(mu, dtype=nx.float64), 1e-300))
    log_nu = nx.log(nx.maximum(nx.asarray(nu, dtype=nx.float64), 1e-300))
    f = nx.zeros((mu.size,), dtype=nx.float64)
    g = nx.zeros((nu.size,), dtype=nx.float64)
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        # f-update: f_i = eps * (log mu_i - logsumexp_j((g_j - C_ij)/eps))
        f = epsilon * (log_mu - nx.logsumexp(
            (g[None, :] - cost_d) / epsilon, axis=1))
        g = epsilon * (log_nu - nx.logsumexp(
            (f[:, None] - cost_d) / epsilon, axis=0))
        if iteration % 5 == 0 or iteration == max_iter:
            plan = nx.to_numpy(
                nx.exp((f[:, None] + g[None, :] - cost_d) / epsilon))
            residual = marginal_residual(plan, mu, nu)
            if residual <= tol:
                return SinkhornResult(plan, iteration, residual, True,
                                      effective_epsilon=epsilon)
    plan = nx.to_numpy(nx.exp((f[:, None] + g[None, :] - cost_d) / epsilon))
    residual = marginal_residual(plan, mu, nu)
    if residual <= tol:
        return SinkhornResult(plan, max_iter, residual, True,
                              effective_epsilon=epsilon)
    if raise_on_failure:
        raise ConvergenceError(
            f"log-domain Sinkhorn did not converge (residual {residual:.3e})",
            iterations=max_iter, residual=residual)
    return SinkhornResult(plan, max_iter, residual, False,
                          effective_epsilon=epsilon)


def batched_sinkhorn(cost_stack, source_weight_stack, target_weight_stack,
                     *, epsilon: float = 1e-2, max_iter: int = 10_000,
                     tol: float = 1e-9, raise_on_failure: bool = True,
                     backend=None) -> list:
    """Probability-domain Sinkhorn over a stack of same-shape problems.

    The vectorised counterpart of :func:`sinkhorn` — the whole batch
    iterates as one ``(B, n, m)`` einsum chain on the selected backend,
    with **per-problem convergence masking**: problems are checked on the
    same five-iteration schedule as the serial solver, and each one is
    frozen (and compacted out of the working stack) the moment its own
    marginal residual meets ``tol``, so a slow cell never perturbs — or
    pays for — an already-converged one.  Problems whose Gibbs kernel
    underflows are re-solved through the log-domain engine, exactly like
    the serial fallback.

    Parameters
    ----------
    cost_stack:
        ``(B, n, m)`` ground costs (a broadcastable ``(1, n, m)`` stack
        shares one cost across the batch).
    source_weight_stack, target_weight_stack:
        ``(B, n)`` / ``(B, m)`` marginals; each row is normalised to a
        probability vector.

    Returns one :class:`SinkhornResult` per problem, in batch order.
    Each result agrees with its serial ``sinkhorn`` counterpart to
    solver precision (~1e-12; the batched contraction uses ``einsum``
    where the serial loop uses ``matmul``, so agreement is numerical,
    not bitwise).
    """
    nx = get_backend(backend)
    cost_h, mu_h, nu_h = _check_batch_problem(
        cost_stack, source_weight_stack, target_weight_stack)
    if epsilon <= 0.0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    max_iter = check_positive_int(max_iter, name="max_iter")

    B = mu_h.shape[0]
    cost = nx.asarray(cost_h, dtype=nx.float64)
    mu = nx.asarray(mu_h, dtype=nx.float64)
    nu = nx.asarray(nu_h, dtype=nx.float64)

    # Per-problem cost rescaling, exactly like the serial solver.
    scale = nx.maximum(nx.max(cost, axis=(1, 2)), 1e-300)
    eff = np.broadcast_to(epsilon * nx.to_numpy(scale), (B,))
    kernel = nx.exp(-cost / (epsilon * scale[:, None, None]))
    if kernel.shape[0] != B:
        # A shared (1, n, m) cost: materialise per-problem rows so
        # compaction can drop converged problems independently.
        kernel = nx.concat([kernel] * B, axis=0)

    u = nx.ones((B, mu_h.shape[1]), dtype=nx.float64)
    v = nx.ones((B, nu_h.shape[1]), dtype=nx.float64)
    bad = nx.asarray(np.zeros(B, dtype=bool))
    state = _BatchState(B, max_iter)
    for iteration in range(1, max_iter + 1):
        kv = nx.einsum("bij,bj->bi", kernel, v)
        # Accumulate underflow flags as an array; the serial solver checks
        # every iteration, the batch syncs only at checkpoints and the
        # flagged problems restart in the log domain either way.
        bad = nx.logical_or(bad, nx.any(kv <= 1e-300, axis=1))
        u = mu / nx.maximum(kv, 1e-300)
        ktu = nx.einsum("bij,bi->bj", kernel, u)
        v = nu / nx.maximum(ktu, 1e-300)
        if iteration % 5 == 0 or iteration == max_iter:
            plan = (u[:, :, None] * kernel) * v[:, None, :]
            keep = state.checkpoint(nx, plan, mu, nu, bad, iteration,
                                    tol, final=iteration == max_iter)
            if keep is None:
                break
            if keep is _ALL_ACTIVE:
                continue
            kernel = nx.take(kernel, keep, axis=0)
            u, v = nx.take(u, keep, axis=0), nx.take(v, keep, axis=0)
            mu, nu = nx.take(mu, keep, axis=0), nx.take(nu, keep, axis=0)
            bad = nx.take(bad, keep, axis=0)

    results = []
    for b in range(B):
        if state.underflowed[b]:
            # Same recovery as the serial solver: restart this problem in
            # the log domain at its effective (rescaled) epsilon.
            results.append(sinkhorn_log(
                cost_h[b] if cost_h.shape[0] == B else cost_h[0],
                mu_h[b], nu_h[b], epsilon=float(eff[b]),
                max_iter=max_iter, tol=tol,
                raise_on_failure=raise_on_failure, backend=nx))
            continue
        if not state.converged[b] and raise_on_failure:
            raise ConvergenceError(
                f"Sinkhorn did not converge for batch problem {b} "
                f"(residual {state.residuals[b]:.3e})",
                iterations=int(state.iterations[b]),
                residual=float(state.residuals[b]))
        results.append(SinkhornResult(
            state.plans[b], int(state.iterations[b]),
            float(state.residuals[b]), bool(state.converged[b]),
            effective_epsilon=float(eff[b])))
    return results


def batched_sinkhorn_log(cost_stack, source_weight_stack,
                         target_weight_stack, *, epsilon: float = 1e-2,
                         max_iter: int = 10_000, tol: float = 1e-9,
                         raise_on_failure: bool = True,
                         backend=None) -> list:
    """Log-domain Sinkhorn over a stack of same-shape problems.

    The vectorised counterpart of :func:`sinkhorn_log`: stacked
    soft-min updates — one max-shifted softmin over the ``(B, n, m)``
    potential/cost stack per half-sweep — with the same per-problem
    convergence masking and compaction as :func:`batched_sinkhorn`.
    Each problem's result agrees with its serial ``sinkhorn_log`` run
    to solver precision (~1e-12, with identical iteration schedules):
    the engine iterates epsilon-scaled potentials against the
    pre-divided cost, which distributes one division relative to the
    serial update (~1 ulp per sweep; the Sinkhorn contraction keeps it
    there).
    """
    nx = get_backend(backend)
    cost_h, mu_h, nu_h = _check_batch_problem(
        cost_stack, source_weight_stack, target_weight_stack)
    if epsilon <= 0.0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    max_iter = check_positive_int(max_iter, name="max_iter")

    B = mu_h.shape[0]
    # The engine iterates the epsilon-scaled potentials φ = f/ε, γ = g/ε
    # against the pre-divided cost C/ε: per half-sweep that leaves one
    # broadcast subtraction plus the stabilised soft-min — built from
    # backend primitives rather than a library logsumexp, whose
    # genericity (dtype promotion, masked/complex handling) costs more
    # than the math at this size.  Same updates as the serial solver up
    # to the distributed division (~1 ulp; the Sinkhorn map is a
    # contraction, so the difference never amplifies).
    cost_eps = nx.asarray(np.broadcast_to(cost_h, (B,) + cost_h.shape[1:]),
                          dtype=nx.float64) / epsilon
    mu = nx.asarray(mu_h, dtype=nx.float64)
    nu = nx.asarray(nu_h, dtype=nx.float64)
    log_mu = nx.log(nx.maximum(mu, 1e-300))
    log_nu = nx.log(nx.maximum(nu, 1e-300))
    phi = nx.zeros((B, mu_h.shape[1]), dtype=nx.float64)
    gamma = nx.zeros((B, nu_h.shape[1]), dtype=nx.float64)
    state = _BatchState(B, max_iter)
    no_underflow = nx.asarray(np.zeros(B, dtype=bool))
    for iteration in range(1, max_iter + 1):
        phi = log_mu - _stable_softmin(
            nx, gamma[:, None, :] - cost_eps, axis=2)
        gamma = log_nu - _stable_softmin(
            nx, phi[:, :, None] - cost_eps, axis=1)
        if iteration % 5 == 0 or iteration == max_iter:
            plan = nx.exp(phi[:, :, None] + gamma[:, None, :] - cost_eps)
            keep = state.checkpoint(nx, plan, mu, nu, no_underflow,
                                    iteration, tol,
                                    final=iteration == max_iter)
            if keep is None:
                break
            if keep is _ALL_ACTIVE:
                continue
            cost_eps = nx.take(cost_eps, keep, axis=0)
            phi = nx.take(phi, keep, axis=0)
            gamma = nx.take(gamma, keep, axis=0)
            log_mu = nx.take(log_mu, keep, axis=0)
            log_nu = nx.take(log_nu, keep, axis=0)
            mu, nu = nx.take(mu, keep, axis=0), nx.take(nu, keep, axis=0)
            no_underflow = nx.take(no_underflow, keep, axis=0)

    results = []
    for b in range(B):
        if not state.converged[b] and raise_on_failure:
            raise ConvergenceError(
                f"log-domain Sinkhorn did not converge for batch problem "
                f"{b} (residual {state.residuals[b]:.3e})",
                iterations=int(state.iterations[b]),
                residual=float(state.residuals[b]))
        results.append(SinkhornResult(
            state.plans[b], int(state.iterations[b]),
            float(state.residuals[b]), bool(state.converged[b]),
            effective_epsilon=epsilon))
    return results


def _stable_softmin(nx, arg, axis: int):
    """Max-shifted ``logsumexp`` over one axis of a finite 3-D stack,
    composed from backend primitives (the batched engines' hot loop —
    a library logsumexp's genericity dominates the math at design-cell
    sizes).  ``arg`` must be finite, which the Sinkhorn potentials and
    costs are by construction."""
    shift = nx.max(arg, axis=axis, keepdims=True)
    summed = nx.sum(nx.exp(arg - shift), axis=axis)
    out_shape = tuple(d for i, d in enumerate(arg.shape) if i != axis)
    return nx.log(summed) + nx.reshape(shift, out_shape)


class _BatchState:
    """Host-side bookkeeping of a masked batch iteration.

    Tracks, per original problem index, the frozen plan/iteration/
    residual/convergence record, and maps the compacted working stack
    back to original positions.  ``checkpoint`` freezes every problem
    that converged (or underflowed) at this check, and returns the
    backend index array of the problems that stay active — or ``None``
    when the stack is exhausted.
    """

    def __init__(self, B: int, max_iter: int) -> None:
        self.plans = [None] * B
        self.iterations = np.full(B, max_iter, dtype=int)
        self.residuals = np.full(B, np.inf)
        self.converged = np.zeros(B, dtype=bool)
        self.underflowed = np.zeros(B, dtype=bool)
        self.active = np.arange(B)

    def checkpoint(self, nx, plan, mu, nu, bad, iteration: int,
                   tol: float, *, final: bool):
        row_err = nx.max(nx.abs(nx.sum(plan, axis=2) - mu), axis=1)
        col_err = nx.max(nx.abs(nx.sum(plan, axis=1) - nu), axis=1)
        residual = np.maximum(nx.to_numpy(row_err), nx.to_numpy(col_err))
        bad_h = np.asarray(nx.to_numpy(bad), dtype=bool)
        done = (residual <= tol) & ~bad_h
        freeze = done | bad_h if not final else np.ones_like(done)
        if not freeze.any():
            return _ALL_ACTIVE
        plan_h = nx.to_numpy(plan)
        for pos in np.nonzero(freeze)[0]:
            b = self.active[pos]
            self.plans[b] = np.array(plan_h[pos])
            self.iterations[b] = iteration
            self.residuals[b] = residual[pos]
            self.converged[b] = done[pos]
            self.underflowed[b] = bad_h[pos]
        keep = ~freeze
        if not keep.any():
            return None
        self.active = self.active[keep]
        return nx.asarray(np.nonzero(keep)[0], dtype=nx.int64)


#: Sentinel: "no problem froze at this checkpoint, keep the full stack".
_ALL_ACTIVE = object()


def solve_sinkhorn(cost: np.ndarray, source_weights, target_weights,
                   source_support=None, target_support=None, *,
                   epsilon: float = 1e-2, max_iter: int = 10_000,
                   tol: float = 1e-9) -> TransportPlan:
    """Sinkhorn solve wrapped into a :class:`TransportPlan`.

    Thin shim over :func:`repro.ot.solve` with ``method="sinkhorn"``;
    raises :class:`~repro.exceptions.ConvergenceError` on a blown budget,
    matching the historical behaviour of this entry point.
    """
    from .solve import solve
    return solve(cost, source_weights, target_weights, method="sinkhorn",
                 source_support=source_support,
                 target_support=target_support, epsilon=epsilon,
                 max_iter=max_iter, tol=tol, raise_on_failure=True).plan


def _check_batch_problem(cost_stack, source_weight_stack,
                         target_weight_stack) -> tuple:
    """Validate and normalise a batched entropic problem on the host.

    Returns ``(cost, mu, nu)`` as float64 numpy arrays with shapes
    ``(B or 1, n, m)`` / ``(B, n)`` / ``(B, m)``; each weight row is
    normalised to a probability vector (matching the serial solvers'
    ``as_probability_vector(..., normalize=True)`` treatment).
    """
    cost = np.asarray(cost_stack, dtype=float)
    if cost.ndim != 3:
        raise ValidationError(
            f"cost_stack must be 3-D (B, n, m), got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValidationError("cost stack contains non-finite entries")
    mu = np.atleast_2d(np.asarray(source_weight_stack, dtype=float))
    nu = np.atleast_2d(np.asarray(target_weight_stack, dtype=float))
    if mu.ndim != 2 or nu.ndim != 2:
        raise ValidationError(
            "weight stacks must be 2-D (B, n)/(B, m) arrays, got shapes "
            f"{mu.shape} and {nu.shape}")
    if mu.shape[0] != nu.shape[0]:
        raise ValidationError(
            f"weight stacks disagree on the batch size ({mu.shape[0]} != "
            f"{nu.shape[0]})")
    B = mu.shape[0]
    if cost.shape[0] not in (1, B) \
            or cost.shape[1:] != (mu.shape[1], nu.shape[1]):
        raise ValidationError(
            f"cost stack shape {cost.shape} incompatible with marginal "
            f"stacks ({B}, {mu.shape[1]}) / ({B}, {nu.shape[1]})")
    for name, stack in (("source", mu), ("target", nu)):
        if not np.all(np.isfinite(stack)) or np.any(stack < 0.0):
            raise ValidationError(
                f"{name} weight stack must be finite and non-negative")
        if np.any(stack.sum(axis=1) <= 0.0):
            raise ValidationError(
                "every batched weight vector needs positive total mass")
    mu = mu / mu.sum(axis=1, keepdims=True)
    nu = nu / nu.sum(axis=1, keepdims=True)
    return cost, mu, nu


def _check_cost(cost) -> np.ndarray:
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValidationError(f"cost must be 2-D, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValidationError("cost matrix contains non-finite entries")
    return cost


def _check_shapes(cost: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> None:
    if cost.shape != (mu.size, nu.size):
        raise ValidationError(
            f"cost shape {cost.shape} incompatible with marginals "
            f"({mu.size}, {nu.size})")
