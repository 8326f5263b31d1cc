"""Problem and result containers for the unified :func:`repro.ot.solve` API.

:class:`OTProblem` describes one discrete Kantorovich problem — the two
marginals plus *either* an explicit ground-cost matrix or the ingredients
to build one lazily (supports and a cost factory).  :class:`OTResult`
is the uniform outcome every registered solver returns: the coupling, its
cost value, marginal residuals, and convergence/timing diagnostics.

Together they replace the historical situation where each solver module
had its own signature and return type; see :mod:`repro.ot.solve` for the
facade and :mod:`repro.ot.registry` for the pluggable solver registry.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .._validation import as_probability_vector
from ..exceptions import ValidationError
from .coupling import TransportPlan, _issparse
from .coupling import _inner_product as _plan_inner_product
from .cost import cost_matrix as _build_cost_matrix

__all__ = ["OTProblem", "OTBatch", "OTResult", "result_from_matrix"]

#: Ground-cost metrics of the ``|x - y|^p`` family: convex in the 1-D
#: displacement, hence solvable in closed form by the monotone coupling.
_MONOTONE_METRICS = ("sqeuclidean", "euclidean", "lp")


@dataclass(frozen=True)
class OTProblem:
    """One discrete optimal-transport problem.

    Attributes
    ----------
    source_weights, target_weights:
        Marginals ``µ`` and ``ν``; normalised to probability vectors.
    cost:
        Optional explicit ``(n, m)`` ground-cost matrix.  When omitted the
        cost is built lazily from the supports via ``cost_fn``.
    cost_fn:
        Either a metric name understood by :func:`repro.ot.cost.cost_matrix`
        (``"sqeuclidean"``, ``"euclidean"``, ``"lp"``) or a callable
        ``(source_support, target_support) -> cost``.  Defaults to the
        paper's squared-Euclidean cost.
    source_support, target_support:
        Optional support points, shape ``(n,)``/``(n, d)``.  Required when
        ``cost`` is omitted, and required for the closed-form 1-D path.
    support_mask:
        Optional boolean ``(n, m)`` mask of coupling entries.  Semantics
        are per-solver: ``"lp"`` treats it as a hard restriction (the LP
        runs on exactly these entries, unioning in an ``O(n + m)``
        feasibility patch *only* when the restricted problem is
        infeasible, reported via ``extras["mask_widened"]``), while
        ``"screened"`` and ``"multiscale"`` treat it as support to
        *include* alongside their own screened / dilated-coarse
        entries.  The monotone and dense simplex solvers reject masked
        problems.
    p:
        Exponent of the ``|x - y|^p`` family used by metric-named costs
        and by the closed-form 1-D solver.
    """

    source_weights: np.ndarray
    target_weights: np.ndarray
    cost: np.ndarray | None = None
    cost_fn: Callable | str | None = None
    source_support: np.ndarray | None = None
    target_support: np.ndarray | None = None
    support_mask: np.ndarray | None = None
    p: int = 2

    def __post_init__(self) -> None:
        mu = as_probability_vector(self.source_weights,
                                   name="source_weights", normalize=True)
        nu = as_probability_vector(self.target_weights,
                                   name="target_weights", normalize=True)
        object.__setattr__(self, "source_weights", mu)
        object.__setattr__(self, "target_weights", nu)

        if self.cost is not None:
            cost = np.asarray(self.cost, dtype=float)
            if cost.ndim != 2:
                raise ValidationError(
                    f"cost must be 2-D, got shape {cost.shape}")
            if cost.shape != (mu.size, nu.size):
                raise ValidationError(
                    f"cost shape {cost.shape} incompatible with marginals "
                    f"({mu.size}, {nu.size})")
            if not np.all(np.isfinite(cost)):
                raise ValidationError(
                    "cost matrix contains non-finite entries")
            object.__setattr__(self, "cost", cost)

        for attr, expected in (("source_support", mu.size),
                               ("target_support", nu.size)):
            support = getattr(self, attr)
            if support is None:
                continue
            arr = np.asarray(support, dtype=float)
            if arr.ndim == 1:
                arr = arr.reshape(-1, 1)
            if arr.ndim != 2 or arr.shape[0] != expected:
                raise ValidationError(
                    f"{attr} must have {expected} points, got shape "
                    f"{np.shape(support)}")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{attr} contains non-finite entries")
            object.__setattr__(self, attr, arr)

        if self.cost is None and (self.source_support is None
                                  or self.target_support is None):
            raise ValidationError(
                "an OTProblem needs either an explicit cost matrix or both "
                "supports (so the cost can be built from cost_fn)")

        if self.support_mask is not None:
            mask = np.asarray(self.support_mask, dtype=bool)
            if mask.shape != (mu.size, nu.size):
                raise ValidationError(
                    f"support_mask shape {mask.shape} incompatible with "
                    f"marginals ({mu.size}, {nu.size})")
            object.__setattr__(self, "support_mask", mask)

        if isinstance(self.cost_fn, str) \
                and self.cost_fn not in _MONOTONE_METRICS:
            raise ValidationError(
                f"unknown cost metric {self.cost_fn!r}; expected one of "
                f"{_MONOTONE_METRICS} or a callable")
        object.__setattr__(self, "_cost_cache", None)

    # -- geometry ----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """``(n, m)`` plan shape."""
        return (self.source_weights.size, self.target_weights.size)

    @property
    def is_one_dimensional(self) -> bool:
        """True when both supports are present and one-dimensional."""
        return (self.source_support is not None
                and self.target_support is not None
                and self.source_support.shape[1] == 1
                and self.target_support.shape[1] == 1)

    @property
    def has_metric_cost(self) -> bool:
        """True when the ground cost is derived from the supports via a
        named ``|x - y|^p``-family metric (no hand-rolled cost matrix or
        callable).  Solvers that exploit support geometry — the
        closed-form monotone coupling, the multiscale coarse level —
        are only provably aligned with the cost in this regime.
        """
        return self.cost is None and not callable(self.cost_fn)

    @property
    def metric(self) -> str | None:
        """The resolved metric name for metric-family costs, else None.

        This is the single definition of the default-metric rule
        (``p == 2`` means the paper's squared-Euclidean cost), shared by
        :meth:`cost_matrix` and the sparse-support solvers' pointwise
        cost evaluation.
        """
        if not self.has_metric_cost:
            return None
        if self.cost_fn is None:
            return "sqeuclidean" if self.p == 2 else "lp"
        return self.cost_fn

    @property
    def is_monotone_solvable(self) -> bool:
        """True when the closed-form monotone coupling is provably optimal.

        Requires 1-D supports and a ground cost from the convex
        ``|x - y|^p`` family, i.e. no hand-rolled cost matrix or callable
        whose convexity cannot be verified.
        """
        if not self.is_one_dimensional or self.support_mask is not None:
            return False
        if not self.has_metric_cost:
            return False
        return self.cost_fn is None or self.cost_fn in _MONOTONE_METRICS

    # -- cost --------------------------------------------------------------

    def cost_matrix(self) -> np.ndarray:
        """The ground-cost matrix, built lazily and cached."""
        if self.cost is not None:
            return self.cost
        cached = getattr(self, "_cost_cache")
        if cached is not None:
            return cached
        if callable(self.cost_fn):
            cost = np.asarray(
                self.cost_fn(self.source_support, self.target_support),
                dtype=float)
            if cost.shape != self.shape:
                raise ValidationError(
                    f"cost_fn returned shape {cost.shape}, expected "
                    f"{self.shape}")
        else:
            cost = _build_cost_matrix(self.source_support,
                                      self.target_support,
                                      metric=self.metric, p=self.p)
        object.__setattr__(self, "_cost_cache", cost)
        return cost

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_cost(cls, cost, source_weights, target_weights, *,
                  source_support=None, target_support=None,
                  support_mask=None) -> "OTProblem":
        """Build a problem from an explicit cost matrix (legacy signature)."""
        return cls(source_weights=source_weights,
                   target_weights=target_weights, cost=cost,
                   source_support=source_support,
                   target_support=target_support,
                   support_mask=support_mask)


@dataclass(frozen=True)
class OTBatch:
    """An ordered collection of :class:`OTProblem` instances.

    This is the unit of work of :func:`repro.ot.solve.solve_many`: many
    independent Kantorovich problems — in Algorithm 1, one per
    ``(u, s, k)`` design cell — solved together.  The container itself is
    storage-light (it holds the problems, not stacked copies); the
    *stacked views* below materialise ``(B, n)`` / ``(B, m)`` arrays on
    demand for vectorised batch kernels, and are only available on
    *uniform* batches (every problem sharing one ``(n, m)`` shape) with
    1-D supports — the shared-shape fast path.

    >>> import numpy as np
    >>> cells = [OTProblem(source_weights=[0.5, 0.5],
    ...                    target_weights=[0.5, 0.5],
    ...                    source_support=[0.0, 1.0],
    ...                    target_support=[0.0, float(k)])
    ...          for k in (1, 2, 3)]
    >>> batch = OTBatch(cells)
    >>> len(batch), batch.is_uniform, batch.is_one_dimensional
    (3, True, True)
    >>> batch.target_support_stack()[:, 1]
    array([1., 2., 3.])
    """

    problems: tuple

    def __post_init__(self) -> None:
        problems = tuple(self.problems)
        for i, problem in enumerate(problems):
            if not isinstance(problem, OTProblem):
                raise ValidationError(
                    f"OTBatch entries must be OTProblem instances; entry "
                    f"{i} is {type(problem).__name__}")
        object.__setattr__(self, "problems", problems)

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.problems)

    def __iter__(self):
        return iter(self.problems)

    def __getitem__(self, index) -> "OTProblem":
        return self.problems[index]

    def subset(self, indices) -> "OTBatch":
        """A new batch holding ``problems[i]`` for each ``i`` in order."""
        return OTBatch(tuple(self.problems[i] for i in indices))

    # -- shape structure ---------------------------------------------------

    @property
    def shapes(self) -> tuple:
        """Per-problem ``(n, m)`` plan shapes."""
        return tuple(problem.shape for problem in self.problems)

    @property
    def is_uniform(self) -> bool:
        """True when every problem shares one ``(n, m)`` shape."""
        return len({problem.shape for problem in self.problems}) <= 1

    @property
    def shape(self) -> tuple:
        """The common ``(n, m)`` shape (raises on mixed-shape batches)."""
        shapes = {problem.shape for problem in self.problems}
        if len(shapes) != 1:
            raise ValidationError(
                f"batch has no common shape (found {sorted(shapes)}); "
                "check is_uniform before using the stacked fast path")
        return next(iter(shapes))

    @property
    def is_one_dimensional(self) -> bool:
        """True when every problem has 1-D source and target supports."""
        return all(problem.is_one_dimensional for problem in self.problems)

    @property
    def has_shared_grid(self) -> bool:
        """True when every problem's supports are *identical* point sets.

        Deliberately stricter than :attr:`is_uniform`: equal shapes do
        **not** imply equal grids (every design cell has its own sample
        range), so a batch kernel that wants to share per-grid work — a
        single ground-cost evaluation, one Gibbs kernel — must key on
        this, not on shape, before assuming a common grid.  Problems
        without supports never share a grid under this definition.

        >>> import numpy as np
        >>> grid = np.linspace(0.0, 1.0, 3)
        >>> w = np.full(3, 1 / 3)
        >>> same = OTBatch(tuple(
        ...     OTProblem(source_weights=w, target_weights=w,
        ...               source_support=grid, target_support=grid)
        ...     for _ in range(2)))
        >>> same.has_shared_grid
        True
        >>> shifted = OTBatch((same[0], OTProblem(
        ...     source_weights=w, target_weights=w,
        ...     source_support=grid + 1.0, target_support=grid + 1.0)))
        >>> shifted.is_uniform, shifted.has_shared_grid
        (True, False)
        """
        if not self.problems:
            return True
        first = self.problems[0]
        if first.source_support is None or first.target_support is None:
            return False
        return all(
            problem.source_support is not None
            and problem.target_support is not None
            and (problem.source_support is first.source_support
                 or np.array_equal(problem.source_support,
                                   first.source_support))
            and (problem.target_support is first.target_support
                 or np.array_equal(problem.target_support,
                                   first.target_support))
            for problem in self.problems[1:])

    # -- stacked views (the shared-shape fast path) ------------------------

    def source_weight_stack(self) -> np.ndarray:
        """``(B, n)`` stacked source marginals (uniform batches only)."""
        self.shape  # raises with the actionable message on mixed shapes
        return np.stack([problem.source_weights
                         for problem in self.problems])

    def target_weight_stack(self) -> np.ndarray:
        """``(B, m)`` stacked target marginals (uniform batches only)."""
        self.shape
        return np.stack([problem.target_weights
                         for problem in self.problems])

    def source_support_stack(self) -> np.ndarray:
        """``(B, n)`` stacked 1-D source supports."""
        return self._support_stack("source_support")

    def target_support_stack(self) -> np.ndarray:
        """``(B, m)`` stacked 1-D target supports."""
        return self._support_stack("target_support")

    def _support_stack(self, attr: str) -> np.ndarray:
        self.shape
        if not self.is_one_dimensional:
            raise ValidationError(
                f"{attr}_stack needs 1-D supports on every batch problem")
        return np.stack([getattr(problem, attr).ravel()
                         for problem in self.problems])

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_arrays(cls, source_weights, target_weights, *,
                    source_support=None, target_support=None,
                    p: int = 2, cost_fn=None) -> "OTBatch":
        """Build a uniform batch from stacked ``(B, n)`` / ``(B, m)`` arrays.

        ``source_support`` / ``target_support`` may be shared 1-D arrays
        (one grid for every problem — the common design-cell layout) or
        per-problem ``(B, n)`` / ``(B, m)`` stacks.
        """
        mu = np.atleast_2d(np.asarray(source_weights, dtype=float))
        nu = np.atleast_2d(np.asarray(target_weights, dtype=float))
        if mu.shape[0] != nu.shape[0]:
            raise ValidationError(
                f"stacked marginals disagree on the batch size "
                f"({mu.shape[0]} != {nu.shape[0]})")

        def per_problem(support, size, name):
            if support is None:
                return [None] * mu.shape[0]
            arr = np.asarray(support, dtype=float)
            if arr.ndim == 1:
                return [arr] * mu.shape[0]
            if arr.ndim == 2 and arr.shape == (mu.shape[0], size):
                return list(arr)
            raise ValidationError(
                f"{name} must be a shared (n,) grid or a (B, n) stack; "
                f"got shape {arr.shape}")

        xs = per_problem(source_support, mu.shape[1], "source_support")
        ys = per_problem(target_support, nu.shape[1], "target_support")
        return cls(tuple(
            OTProblem(source_weights=mu[b], target_weights=nu[b],
                      source_support=xs[b], target_support=ys[b],
                      cost_fn=cost_fn, p=p)
            for b in range(mu.shape[0])))


@dataclass(frozen=True)
class OTResult:
    """Uniform outcome of a :func:`repro.ot.solve` call.

    Attributes
    ----------
    plan:
        The coupling wrapped in a :class:`~repro.ot.coupling.TransportPlan`.
    value:
        Transport cost ``<C, π>`` of the returned plan.
    residual_source, residual_target:
        Max-norm violations of the row/column marginal constraints.
    converged:
        True when the solver met its own optimality/tolerance criterion.
    n_iter:
        Iterations (pivots, sweeps, ...) the solver performed.
    solver:
        Registered name of the solver that produced the plan.
    wall_time:
        Wall-clock seconds spent inside the solver.
    extras:
        Solver-specific diagnostics (``epsilon``, screening sparsity, ...).
    """

    plan: TransportPlan
    value: float
    residual_source: float
    residual_target: float
    converged: bool
    n_iter: int
    solver: str = ""
    wall_time: float = 0.0
    extras: dict = field(default_factory=dict)

    @property
    def matrix(self) -> np.ndarray:
        """The raw ``(n, m)`` coupling matrix.

        Dense :class:`numpy.ndarray` for densely stored plans; a CSR
        sparse array when the solver kept the plan sparse (always for
        ``"exact"``; the simplex and the screened hybrid below
        :data:`~repro.ot.coupling.SPARSE_DENSITY_THRESHOLD` density).
        ``result.plan.toarray()`` densifies on demand.
        """
        return self.plan.matrix

    @property
    def marginal_residual(self) -> float:
        """Max of the two marginal residuals."""
        return max(self.residual_source, self.residual_target)

    def with_timing(self, solver: str, wall_time: float) -> "OTResult":
        """Copy with the facade-assigned solver name and timing."""
        return replace(self, solver=solver, wall_time=wall_time)

    def summary(self) -> dict:
        """JSON-safe diagnostic record (stored in repair-plan metadata)."""
        record = {
            "solver": self.solver,
            "value": float(self.value),
            "residual": float(self.marginal_residual),
            "converged": bool(self.converged),
            "n_iter": int(self.n_iter),
            "wall_time": float(self.wall_time),
        }
        record.update({str(k): _json_scalar(v)
                       for k, v in self.extras.items()})
        return record


def result_from_matrix(problem: OTProblem, matrix: np.ndarray, *,
                       value=None, converged: bool | None = None,
                       n_iter: int = 1,
                       extras: dict | None = None) -> OTResult:
    """Assemble an :class:`OTResult` from a raw plan matrix.

    The single result-construction path shared by the built-in solvers
    (via :func:`repro.ot.solve`) and the registry's coercion of ad-hoc
    solver returns.  ``matrix`` may be dense or scipy-sparse (kept as
    CSR, never densified).  ``value`` defaults to ``<C, matrix>``;
    ``converged=None`` derives the flag from the marginal residuals
    (``<= 1e-6``).
    """
    if _issparse(matrix):
        from scipy import sparse

        matrix = sparse.csr_array(matrix)
    else:
        matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != problem.shape:
        raise ValidationError(
            f"plan matrix has shape {matrix.shape}, problem expects "
            f"{problem.shape}")
    n, m = matrix.shape
    source = (problem.source_support if problem.source_support is not None
              else np.arange(n, dtype=float))
    target = (problem.target_support if problem.target_support is not None
              else np.arange(m, dtype=float))
    if value is None or not np.isfinite(value):
        value = _plan_inner_product(matrix, problem.cost_matrix())
    plan = TransportPlan(matrix, source, target, float(value))
    row_err = float(np.abs(plan.source_weights
                           - problem.source_weights).max())
    col_err = float(np.abs(plan.target_weights
                           - problem.target_weights).max())
    if converged is None:
        converged = max(row_err, col_err) <= 1e-6
    return OTResult(plan=plan, value=float(value), residual_source=row_err,
                    residual_target=col_err, converged=bool(converged),
                    n_iter=int(n_iter), extras=dict(extras or {}))


def _json_scalar(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)
