"""Reference LP formulation of discrete optimal transport.

Flattens the Kantorovich problem into a standard-form linear programme and
solves it with scipy's HiGHS backend.  This solver is slower than the
dedicated :mod:`repro.ot.network_simplex` implementation but serves as the
independent *oracle* against which the hand-written solvers are validated in
the test-suite, and as a fallback for ill-conditioned instances.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_probability_vector
from ..exceptions import ConvergenceError, ValidationError
from .coupling import TransportPlan

__all__ = ["solve_transport_lp", "transport_lp"]


def transport_lp(cost: np.ndarray, source_weights, target_weights) -> np.ndarray:
    """Optimal plan matrix via ``scipy.optimize.linprog`` (HiGHS).

    The balanced problem has one redundant equality constraint; we drop the
    final column constraint to keep the system full-rank, which HiGHS
    appreciates.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValidationError(f"cost must be 2-D, got shape {cost.shape}")
    mu = as_probability_vector(source_weights, name="source_weights",
                               normalize=True)
    nu = as_probability_vector(target_weights, name="target_weights",
                               normalize=True)
    n, m = cost.shape
    if mu.size != n or nu.size != m:
        raise ValidationError(
            f"cost shape {cost.shape} incompatible with marginals "
            f"({mu.size}, {nu.size})")
    matrix, _ = _lp_matrix(cost, mu, nu)
    return matrix


def _lp_matrix(cost: np.ndarray, mu: np.ndarray,
               nu: np.ndarray) -> tuple[np.ndarray, int]:
    """The HiGHS solve on validated inputs; returns ``(plan, nit)``."""
    from scipy import sparse

    n, m = cost.shape
    # Row-marginal constraints: each row of the plan sums to mu_i.
    row_blocks = sparse.kron(sparse.eye(n), np.ones((1, m)), format="csr")
    # Column-marginal constraints (last one dropped as redundant).
    col_blocks = sparse.kron(np.ones((1, n)), sparse.eye(m), format="csr")[:-1]
    a_eq = sparse.vstack([row_blocks, col_blocks], format="csr")
    b_eq = np.concatenate([mu, nu[:-1]])
    result = _linprog_with_presolve_retry(cost.ravel(), a_eq, b_eq,
                                          what="the transport LP")
    plan = result.x.reshape(n, m)
    return np.clip(plan, 0.0, None), int(getattr(result, "nit", 0) or 0)


def _linprog_with_presolve_retry(c, a_eq, b_eq, *, what: str,
                                 presolve_retry: bool = True):
    """HiGHS solve shared by the dense and mask-restricted transport LPs.

    HiGHS presolve occasionally mis-declares large balanced transport
    problems infeasible, so an "infeasible" outcome is retried without
    presolve before giving up.  Pass ``presolve_retry=False`` when the
    problem may be *genuinely* infeasible (a user-restricted support
    whose feasibility is unknown) — there the retry would only double
    the cost of a legitimate failure.
    """
    from scipy.optimize import linprog
    result = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None),
                     method="highs")
    if result.status == 2 and presolve_retry:
        result = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None),
                         method="highs", options={"presolve": False})
    if not result.success:
        raise ConvergenceError(
            f"linprog failed to solve {what}: {result.message}")
    return result


def solve_transport_lp(cost: np.ndarray, source_weights, target_weights,
                       source_support=None,
                       target_support=None) -> TransportPlan:
    """Like :func:`transport_lp` but wrapped in a :class:`TransportPlan`.

    Thin shim over :func:`repro.ot.solve` with ``method="lp"``.
    """
    from .solve import solve
    return solve(cost, source_weights, target_weights, method="lp",
                 source_support=source_support,
                 target_support=target_support).plan
