"""Joint (multivariate) distributional repair — beyond the paper.

The paper repairs each feature independently (Algorithm 1 is
``(u, s, k)``-stratified) to escape the curse of dimensionality, and
Section VI concedes the cost: intra-feature correlation structure is
neglected, so dependence living in the *joint* distribution survives the
repair.  This module implements the natural extension for small feature
counts: the same design — interpolate, barycentre, transport — executed
on a **product grid** over all features at once.

* Supports are product grids ``Q_1 × ... × Q_d`` (``n_Q^d`` states, so
  intended for ``d ≤ 3``).
* Marginals are multivariate product-kernel KDE interpolations.
* The barycentre and the plans are entropic (Sinkhorn / iterative
  Bregman): the product-grid problems are no longer 1-D, so the monotone
  shortcut is unavailable.
* Repair generalises Algorithm 2: per-dimension Bernoulli rounding picks
  a product cell, then a multinomial draw over the plan row returns a
  full repaired feature *vector*.

The correlation ablation bench contrasts this with the per-feature repair
on data whose unfairness hides in the correlation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_rng, check_positive_int, check_probability
from ..data.dataset import FairnessDataset
from ..density.bandwidth import select_bandwidth
from ..density.grid import InterpolationGrid
from ..density.kde import gaussian_kernel
from ..exceptions import NotFittedError, ValidationError
from ..ot.barycenter import sinkhorn_barycenter
from ..ot.cost import squared_euclidean_cost
from ..ot.coupling import CSRSampler
from ..ot.problem import OTBatch, OTProblem
from ..ot.registry import filter_opts, resolve_solver
from ..ot.solve import solve_many
from .executor import resolve_executor

__all__ = ["JointFeaturePlan", "JointRepairPlan", "design_joint_repair",
           "JointDistributionalRepairer"]

#: Hard cap on product-grid states; beyond this the entropic solves stop
#: being interactive and the per-feature method is the right tool anyway.
_MAX_STATES = 20_000


@dataclass(frozen=True)
class JointFeaturePlan:
    """Joint-repair machinery for one ``u`` group.

    Attributes
    ----------
    grids:
        One :class:`InterpolationGrid` per feature dimension.
    nodes:
        ``(N, d)`` product-grid points, ``N = Π n_Q``.
    marginals:
        ``s -> flat pmf`` over the product grid.
    barycenter:
        Repair-target pmf over the product grid.
    conditionals:
        ``s -> (N, N) row-normalised conditional matrix`` of the plan —
        dense, or a CSR sparse array when the plan solver kept the
        coupling sparse.
    """

    grids: tuple
    nodes: np.ndarray
    marginals: dict
    barycenter: np.ndarray
    conditionals: dict

    def __post_init__(self) -> None:
        object.__setattr__(self, "_sampler_cache", {})

    @property
    def shape(self) -> tuple:
        return tuple(grid.n_states for grid in self.grids)

    @property
    def n_states(self) -> int:
        return int(np.prod(self.shape))

    def sample_states(self, s: int, flat_rows, uniforms) -> np.ndarray:
        """Inverse-CDF draw over ``conditionals[s]`` rows, dense or CSR,
        through a :class:`~repro.ot.coupling.CSRSampler` kept per ``s``,
        so repair batches build it once."""
        cache = getattr(self, "_sampler_cache")
        if s not in cache:
            cache[s] = CSRSampler(self.conditionals[s])
        return cache[s].sample(np.asarray(flat_rows),
                               np.asarray(uniforms, dtype=float))


@dataclass(frozen=True)
class JointRepairPlan:
    """Mapping ``u -> JointFeaturePlan`` plus design metadata."""

    group_plans: dict
    n_features: int
    t: float
    metadata: dict

    def group_plan(self, u: int) -> JointFeaturePlan:
        try:
            return self.group_plans[u]
        except KeyError:
            raise ValidationError(
                f"no joint plan designed for group u={u}") from None


def _product_nodes(grids) -> np.ndarray:
    axes = [grid.nodes for grid in grids]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def _joint_kde_pmf(samples: np.ndarray, grids,
                   bandwidth_method: str) -> np.ndarray:
    """Product-Gaussian-kernel pmf of ``samples`` on the product grid."""
    per_dim = []
    for k, grid in enumerate(grids):
        h = select_bandwidth(samples[:, k], bandwidth_method)
        # (n_states_k, n_samples) kernel evaluations for dimension k.
        per_dim.append(gaussian_kernel(
            grid.nodes[:, None] - samples[None, :, k], h))
    # pmf[q1,...,qd] = sum_i prod_k per_dim[k][q_k, i]
    acc = per_dim[0]
    for block in per_dim[1:]:
        acc = np.einsum("...i,qi->...qi", acc, block)
    pmf = acc.sum(axis=-1).ravel()
    total = pmf.sum()
    if total <= 0.0 or not np.isfinite(total):
        raise ValidationError(
            "joint KDE interpolation produced a degenerate pmf")
    return pmf / total


def design_joint_repair(research: FairnessDataset, n_states: int = 15, *,
                        t: float = 0.5, epsilon: float = 5e-3,
                        bandwidth_method: str = "silverman",
                        padding: float = 0.0,
                        max_iter: int = 20_000,
                        solver="sinkhorn",
                        n_jobs: int | None = None,
                        executor=None) -> JointRepairPlan:
    """Design the joint repair on a product grid, per ``u`` group.

    ``solver`` is any registry-resolvable spec for the plan solves; the
    barycentre itself is always entropic.  The product-grid problems are
    multi-dimensional, so the 1-D ``"exact"`` solver is not applicable —
    ``"sinkhorn"`` (default) and ``"screened"`` are the practical
    choices.

    Like the per-feature design, the plan solves are batched: each
    group's ``(u, s)`` problem pair goes through one
    :func:`repro.ot.solve.solve_many` call, with ``executor=`` /
    ``n_jobs`` fanning the (non-batchable, entropic) solves over the
    execution engine — worthwhile because each product-grid solve is
    dense ``O(N²)`` work (see :mod:`repro.core.executor`).  Batching is
    per group, not across groups: the product-grid cost matrices are
    ``O(N²)`` apiece, so each group's cost and plans are released
    before the next group is designed.
    """
    resolved = resolve_solver(solver)
    n_states = check_positive_int(n_states, name="n_states", minimum=2)
    t = check_probability(t, name="t")
    if n_jobs is not None:
        n_jobs = check_positive_int(n_jobs, name="n_jobs")
    engine = resolve_executor(executor, n_jobs=n_jobs, solver=resolved)
    d = research.n_features
    if n_states ** d > _MAX_STATES:
        raise ValidationError(
            f"product grid would have {n_states ** d} states "
            f"(> {_MAX_STATES}); reduce n_states or the feature count, "
            "or use the per-feature DistributionalRepairer")

    # Options are signature-filtered once for every group's batch:
    # sinkhorn takes epsilon/max_iter/tol, screened maps the iteration
    # budget to its screening phase, exact solvers receive none.
    opts = filter_opts(resolved, {"epsilon": epsilon,
                                  "max_iter": max_iter,
                                  "screen_max_iter": max_iter,
                                  "tol": 1e-9})
    group_plans = {}
    ot_diagnostics: dict = {}
    for u in research.u_values:
        group = research.group(int(u))
        if not ((group.s == 0).any() and (group.s == 1).any()):
            raise ValidationError(
                f"group u={int(u)} lacks research data for both "
                "protected classes")
        grids = tuple(
            InterpolationGrid.from_samples(group.features[:, k], n_states,
                                           padding=padding)
            for k in range(d))
        nodes = _product_nodes(grids)
        marginals = {
            s: _joint_kde_pmf(group.features[group.s == s], grids,
                              bandwidth_method)
            for s in (0, 1)
        }
        cost = squared_euclidean_cost(nodes, nodes)
        target = sinkhorn_barycenter(cost, [marginals[0], marginals[1]],
                                     weights=[1.0 - t, t],
                                     epsilon=epsilon, max_iter=max_iter,
                                     tol=1e-9)
        # One solve_many over the group's (s = 0, 1) pair — the two
        # problems share the group's cost matrix and fan over the
        # engine; the cost and plans are dropped before the next group.
        results = solve_many(
            OTBatch(tuple(OTProblem.from_cost(cost, marginals[s], target)
                          for s in (0, 1))),
            method=resolved, executor=engine, **opts)
        conditionals = {}
        for s in (0, 1):
            result = results[s]
            ot_diagnostics.setdefault(int(u), {})[s] = result.summary()
            # Row-normalise through TransportPlan: vectorised, zero rows
            # fall back to a nearest-target point mass, and CSR plans
            # (e.g. from the "screened" solver) stay sparse.
            conditionals[s] = result.plan.conditional_matrix()
        group_plans[int(u)] = JointFeaturePlan(
            grids=grids, nodes=nodes, marginals=marginals,
            barycenter=target, conditionals=conditionals)

    metadata = {"epsilon": epsilon, "n_states": n_states,
                "bandwidth_method": bandwidth_method,
                "n_research": len(research),
                "solver": resolved.name,
                "executor": getattr(engine, "name", type(engine).__name__),
                "ot": ot_diagnostics}
    return JointRepairPlan(group_plans=group_plans, n_features=d, t=t,
                           metadata=metadata)


class JointDistributionalRepairer:
    """fit/transform wrapper around the joint product-grid repair.

    Parameters mirror :class:`~repro.core.repair.DistributionalRepairer`
    where applicable; ``solver`` takes any registry-resolvable spec
    suitable for multi-dimensional problems (``"sinkhorn"`` default,
    ``"screened"`` for an exact-on-sparse-support alternative), and
    ``executor`` / ``n_jobs`` fan the batched ``(u, s)`` plan solves
    over the execution engine (see :func:`design_joint_repair`).
    """

    def __init__(self, n_states: int = 15, *, t: float = 0.5,
                 epsilon: float = 5e-3,
                 bandwidth_method: str = "silverman",
                 padding: float = 0.0, solver="sinkhorn",
                 n_jobs: int | None = None, executor=None,
                 rng=None) -> None:
        resolve_solver(solver)  # fail fast on typos
        self.n_states = n_states
        self.t = t
        self.epsilon = epsilon
        self.bandwidth_method = bandwidth_method
        self.padding = padding
        self.solver = solver
        self.n_jobs = n_jobs
        self.executor = executor
        self._rng = as_rng(rng)
        self._plan: JointRepairPlan | None = None

    @property
    def plan(self) -> JointRepairPlan:
        if self._plan is None:
            raise NotFittedError(
                "JointDistributionalRepairer.fit must run first")
        return self._plan

    @property
    def is_fitted(self) -> bool:
        return self._plan is not None

    def fit(self, research: FairnessDataset) -> "JointDistributionalRepairer":
        self._plan = design_joint_repair(
            research, self.n_states, t=self.t, epsilon=self.epsilon,
            bandwidth_method=self.bandwidth_method, padding=self.padding,
            solver=self.solver, n_jobs=self.n_jobs,
            executor=self.executor)
        return self

    def transform(self, dataset: FairnessDataset, *,
                  rng=None) -> FairnessDataset:
        """Repair full feature vectors via the joint plans."""
        plan = self.plan
        if dataset.n_features != plan.n_features:
            raise ValidationError(
                f"dataset has {dataset.n_features} features, joint plan "
                f"expects {plan.n_features}")
        generator = self._rng if rng is None else as_rng(rng)
        repaired = dataset.features.copy()
        for u in dataset.u_values:
            group_plan = plan.group_plan(int(u))
            for s in (0, 1):
                mask = dataset.group_mask(int(u), s)
                if not mask.any():
                    continue
                repaired[mask] = self._repair_block(
                    dataset.features[mask], group_plan, s, generator)
        return dataset.with_features(repaired)

    def fit_transform(self, research: FairnessDataset, *,
                      rng=None) -> FairnessDataset:
        return self.fit(research).transform(research, rng=rng)

    @staticmethod
    def _repair_block(values: np.ndarray, group_plan: JointFeaturePlan,
                      s: int, generator: np.random.Generator) -> np.ndarray:
        shape = group_plan.shape
        # Per-dimension Bernoulli rounding (Algorithm 2 lines 5-8, once
        # per coordinate) selects the product cell.
        per_dim_rows = []
        for k, grid in enumerate(group_plan.grids):
            idx, tau = grid.locate(values[:, k])
            advance = (generator.random(values.shape[0]) < tau).astype(int)
            per_dim_rows.append(np.minimum(idx + advance,
                                           grid.n_states - 1))
        flat_rows = np.ravel_multi_index(tuple(per_dim_rows), shape)

        draws = generator.random(values.shape[0])
        states = group_plan.sample_states(s, flat_rows, draws)
        return group_plan.nodes[states]
