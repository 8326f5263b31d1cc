"""Containers for the ``(u, s, k)``-indexed repair plans of Algorithm 1.

Algorithm 1 produces, for every unprotected group ``u`` and feature ``k``:

* an interpolated support ``Q_{u,k}`` (a uniform grid),
* interpolated marginal pmfs ``µ_{u,s,k}`` for both protected classes,
* the barycentric repair target ``ν_{u,k}`` on the same grid, and
* OT plans ``π*_{u,s,k}`` coupling each marginal to the target.

:class:`FeaturePlan` holds one such bundle; :class:`RepairPlan` is the full
collection plus the design configuration, and is everything Algorithm 2
needs to repair archival data.

A transport is stored dense or CSR, and every operation here works on
either storage.  Sampling (Eq. 15) goes through the transport's one
:class:`~repro.ot.coupling.CSRSampler`, whatever its storage; the dense
CDF tables of :meth:`FeaturePlan.conditional_cdfs` are for inspection
only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..density.grid import InterpolationGrid
from ..exceptions import ValidationError
from ..ot.coupling import TransportPlan

__all__ = ["FeaturePlan", "RepairPlan"]


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
        # Inspection CDF tables, one per protected class s, which
        # conditional_cdfs builds on first use and keeps here.
        object.__setattr__(self, "_cdfs", {})
        # Algorithm-2 kernels, one per (s, rounding, output), which
        # repro.core.repair builds on first use and keeps here.
        object.__setattr__(self, "_kernels", {})

    @property
    def s_values(self) -> tuple:
        return tuple(sorted(self.transports))

    def conditional_cdfs(self, s: int) -> np.ndarray:
        """Row-wise CDFs of ``π*_{·,s}`` as a dense ``(n_Q, n_Q)`` array,
        for inspection.

        Row ``q`` is the cumulative distribution of the repaired state
        given source state ``q``.  The table is built on demand and
        memoised per ``s`` (a plan holds one transport per protected
        class), so repeated queries reuse it; callers must treat it as
        read-only.  Sampling never reads it: :meth:`sample_targets` and
        the Algorithm-2 kernels draw through the transport's
        :class:`~repro.ot.coupling.CSRSampler`.
        """
        cdfs = self._cdfs.get(s)
        if cdfs is None:
            transport = self._transport(s)
            conditionals = transport.conditional_matrix()
            if transport.is_sparse:
                conditionals = conditionals.toarray()
            cdfs = self._cdfs[s] = np.cumsum(conditionals, axis=1)
        return cdfs

    def sample_targets(self, s: int, rows, uniforms) -> np.ndarray:
        """Repaired grid state per ``(source row, uniform draw)`` pair —
        the vectorised sampler of Algorithm 2 Eq. 15.

        Draws through the transport's own
        :class:`~repro.ot.coupling.CSRSampler`, the one the Algorithm-2
        kernels draw with, whatever the transport's storage.
        """
        return self._transport(s).sample_conditional(rows, uniforms)

    def expected_targets(self, s: int) -> np.ndarray:
        """Conditional-mean repaired value per source state (deterministic
        alternative to sampling, used by the 'barycentric' output mode)."""
        return self._transport(s).barycentric_projection().ravel()

    def _transport(self, s: int) -> TransportPlan:
        if s not in self.transports:
            raise ValidationError(
                f"no transport plan for s={s}; have {self.s_values}")
        return self.transports[s]


@dataclass(frozen=True)
class RepairPlan:
    """The complete output of Algorithm 1.

    Attributes
    ----------
    feature_plans:
        Mapping ``(u, k) -> FeaturePlan``: a dict, or for
        ``load_plan(path, mmap=True)`` a read-only mapping that builds
        each cell on its first access.
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
        for key in self.feature_plans:
            if (not isinstance(key, tuple) or len(key) != 2):
                raise ValidationError(
                    f"feature_plans keys must be (u, k) pairs, got {key!r}")
        # A mapped archive (load_plan(mmap=True)) builds each cell as a
        # FeaturePlan on first access; reading its values here would
        # build them all.
        if isinstance(self.feature_plans, dict):
            for key, plan in self.feature_plans.items():
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
