"""Containers for the ``(u, s, k)``-indexed repair plans of Algorithm 1.

Algorithm 1 produces, for every unprotected group ``u`` and feature ``k``:

* an interpolated support ``Q_{u,k}`` (a uniform grid),
* interpolated marginal pmfs ``µ_{u,s,k}`` for both protected classes,
* the barycentric repair target ``ν_{u,k}`` on the same grid, and
* OT plans ``π*_{u,s,k}`` coupling each marginal to the target.

:class:`FeaturePlan` holds one such bundle; :class:`RepairPlan` is the full
collection plus the design configuration, and is everything Algorithm 2
needs to repair archival data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..density.grid import InterpolationGrid
from ..exceptions import ValidationError
from ..ot.coupling import TransportPlan
from .cache import LRUCache

__all__ = ["FeaturePlan", "RepairPlan"]

#: Bound on the per-:class:`FeaturePlan` memo of *densified* sparse-plan
#: CDF tables.  Each entry is an ``O(n_Q²)`` float array — the whole
#: point of CSR transports is not holding those — so the memo keeps only
#: the handful of protected classes an inspection loop actually touches
#: and evicts least-recently-used beyond that.
_SPARSE_CDF_CACHE_SIZE = 4


@dataclass(frozen=True)
class FeaturePlan:
    """Repair machinery for one ``(u, k)`` cell.

    Attributes
    ----------
    grid:
        The interpolated support ``Q_{u,k}``.
    marginals:
        ``s -> pmf`` of the interpolated marginal ``µ_{u,s,k}`` on the grid.
    barycenter:
        The repair target ``ν_{u,k}`` on the grid.
    transports:
        ``s -> TransportPlan`` with ``π*_{u,s,k}`` from marginal to target;
        each plan is dense- or CSR-backed (see
        :class:`~repro.ot.coupling.TransportPlan`), and every operation
        here works on either storage.
    diagnostics:
        ``s -> OTResult.summary()`` record of the solve that produced each
        transport (solver name, convergence, residual, wall time, ...).
        Purely informational; empty for hand-built plans.
    """

    grid: InterpolationGrid
    marginals: dict
    barycenter: np.ndarray
    transports: dict
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n_states = self.grid.n_states
        bary = np.asarray(self.barycenter, dtype=float)
        if bary.shape != (n_states,):
            raise ValidationError(
                f"barycenter must have {n_states} states, got {bary.shape}")
        for s, pmf in self.marginals.items():
            pmf = np.asarray(pmf, dtype=float)
            if pmf.shape != (n_states,):
                raise ValidationError(
                    f"marginal for s={s} must have {n_states} states")
        for s, plan in self.transports.items():
            if not isinstance(plan, TransportPlan):
                raise ValidationError(
                    f"transports[{s}] must be a TransportPlan")
            if plan.shape != (n_states, n_states):
                raise ValidationError(
                    f"transport for s={s} has shape {plan.shape}, expected "
                    f"({n_states}, {n_states})")
        if not isinstance(self.diagnostics, dict):
            raise ValidationError("diagnostics must be a dict")
        object.__setattr__(self, "barycenter", bary)
        object.__setattr__(self, "_cdf_cache", {})
        object.__setattr__(self, "_sparse_cdf_cache",
                           LRUCache(_SPARSE_CDF_CACHE_SIZE))
        # Algorithm-2 kernels, one per (s, rounding, output), which
        # repro.core.repair builds on first use and keeps here.
        object.__setattr__(self, "_kernels", {})

    @property
    def s_values(self) -> tuple:
        return tuple(sorted(self.transports))

    def conditional_cdfs(self, s: int) -> np.ndarray:
        """Row-wise CDFs of ``π*_{·,s}`` as a dense array.

        Row ``q`` is the cumulative distribution of the repaired state given
        source state ``q``.  For densely stored transports the array is
        computed once per ``s`` and cached (callers must treat it as
        read-only and copy before mutating) — it is the table
        :meth:`sample_targets` samples from.  For CSR-backed transports
        it is an inspection-only view: densified on demand and memoised
        in a small LRU (capacity ``_SPARSE_CDF_CACHE_SIZE``), so
        repeated inspection queries stop re-densifying while a large
        design's ``O(n_Q²)`` tables still cannot pile up in memory —
        sampling draws on the sparse conditional structure directly.
        The Algorithm-2 kernels of :mod:`repro.core.repair` hold their
        own tables.
        """
        if s not in self.transports:
            raise ValidationError(
                f"no transport plan for s={s}; have {self.s_values}")
        if self.transports[s].is_sparse:
            return self._sparse_cdf_cache.get_or_create(
                ("cdf", s),
                lambda: np.cumsum(
                    self.transports[s].conditional_matrix().toarray(),
                    axis=1))
        cache = getattr(self, "_cdf_cache")
        key = ("cdf", s)
        if key not in cache:
            conditionals = self.transports[s].conditional_matrix()
            cache[key] = np.cumsum(conditionals, axis=1)
        return cache[key]

    def sample_targets(self, s: int, rows, uniforms) -> np.ndarray:
        """Repaired grid state per ``(source row, uniform draw)`` pair —
        the vectorised sampler of Algorithm 2 Eq. 15.

        Dense transports sample through the cached row-CDF matrix; CSR
        transports through the transport's own
        :class:`~repro.ot.coupling.CSRSampler`, the one the Algorithm-2
        kernels draw with, without ever materialising an
        ``(n_Q, n_Q)`` array.
        """
        if s not in self.transports:
            raise ValidationError(
                f"no transport plan for s={s}; have {self.s_values}")
        plan = self.transports[s]
        rows = np.asarray(rows)
        uniforms = np.asarray(uniforms, dtype=float)
        if plan.is_sparse:
            return plan.conditional_sampler().sample(rows, uniforms)
        cdfs = self.conditional_cdfs(s)
        # `cdfs` is the shared cache, so only mutate the np.take copy.
        row_cdfs = np.take(cdfs, rows, axis=0)
        row_cdfs[:, -1] = 1.0  # guard round-off (< 1.0 row sums)
        states = (row_cdfs < uniforms[:, None]).sum(axis=1)
        return np.minimum(states, self.grid.n_states - 1)

    def expected_targets(self, s: int) -> np.ndarray:
        """Conditional-mean repaired value per source state (deterministic
        alternative to sampling, used by the 'barycentric' output mode)."""
        if s not in self.transports:
            raise ValidationError(
                f"no transport plan for s={s}; have {self.s_values}")
        return self.transports[s].barycentric_projection().ravel()


@dataclass(frozen=True)
class RepairPlan:
    """The complete output of Algorithm 1.

    Attributes
    ----------
    feature_plans:
        Mapping ``(u, k) -> FeaturePlan``.
    n_features:
        Feature arity ``d`` of the designed repair.
    t:
        Geodesic position of the repair target (``0.5`` = fair barycentre).
    metadata:
        Free-form design record (solver, bandwidth method, sizes, ...).
    """

    feature_plans: dict
    n_features: int
    t: float = 0.5
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.feature_plans:
            raise ValidationError("feature_plans must be non-empty")
        for key, plan in self.feature_plans.items():
            if (not isinstance(key, tuple) or len(key) != 2):
                raise ValidationError(
                    f"feature_plans keys must be (u, k) pairs, got {key!r}")
            if not isinstance(plan, FeaturePlan):
                raise ValidationError(
                    f"feature_plans[{key}] must be a FeaturePlan")
        ks = {k for (_, k) in self.feature_plans}
        if ks != set(range(self.n_features)):
            raise ValidationError(
                f"feature plans cover features {sorted(ks)}, expected "
                f"0..{self.n_features - 1}")

    @property
    def u_values(self) -> tuple:
        """Unprotected groups covered by the design."""
        return tuple(sorted({u for (u, _) in self.feature_plans}))

    def feature_plan(self, u: int, k: int) -> FeaturePlan:
        """The :class:`FeaturePlan` for group ``u`` and feature ``k``."""
        try:
            return self.feature_plans[(u, k)]
        except KeyError:
            raise ValidationError(
                f"no plan designed for (u={u}, k={k}); available groups "
                f"{self.u_values}") from None

    def covers(self, u: int) -> bool:
        """True when group ``u`` has a designed plan for every feature."""
        return all((u, k) in self.feature_plans
                   for k in range(self.n_features))

    def total_states(self) -> int:
        """Sum of grid sizes across all cells (a size/cost diagnostic)."""
        return sum(plan.grid.n_states
                   for plan in self.feature_plans.values())

    def solver_diagnostics(self) -> dict:
        """``(u, k) -> {s -> OTResult summary}`` for every designed cell.

        Empty inner dicts for plans built without the unified
        :func:`repro.ot.solve` facade (e.g. loaded from a pre-diagnostics
        archive).
        """
        return {cell: dict(plan.diagnostics)
                for cell, plan in self.feature_plans.items()}
