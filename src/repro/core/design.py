"""Algorithm 1 — on-sample design of the distributional repair plan.

For every ``(u, s, k)``:

1. build the uniform interpolation support ``Q_{u,k}`` over the combined
   (both ``s``) research range of feature ``k`` in group ``u`` (line 4),
2. interpolate the empirical marginals onto ``Q`` with Gaussian KDE and
   Silverman bandwidth (Eq. 11),
3. compute the ``t``-barycentre ``ν_{u,k}`` of the two marginals on ``Q``
   (Eq. 7, ``t = 0.5`` by default), and
4. solve the Kantorovich problem ``π*_{u,s,k}`` from each marginal to the
   target with squared-Euclidean cost (Eq. 13).

The design is **batched**: every ``(u, s, k)`` cell is an independent 1-D
OT problem, so the whole design is one
:class:`~repro.ot.problem.OTBatch` handed to
:func:`repro.ot.solve.solve_many` — solvers with a vectorised batch
kernel (the default ``"exact"`` monotone coupling) solve all same-grid
cells in a single NumPy dispatch, and everything else is fanned over the
pluggable execution engine (:mod:`repro.core.executor`): ``executor=``
takes ``"serial"``, ``"thread"`` (BLAS/LP-bound solvers), ``"process"``
(the historical ``n_jobs`` semantics) or ``"auto"``.  Every strategy is
bit-identical to the serial loop; only wall time changes.

``solver`` accepts anything the registry resolves: a registered name
(``"exact"``, ``"simplex"``, ``"lp"``, ``"sinkhorn"``, ``"sinkhorn_log"``,
``"screened"``, ``"multiscale"``, ``"auto"``), a bare callable, or a
:class:`~repro.ot.registry.Solver` instance.  Because each problem is
one-dimensional with a shared, sorted support, the default ``"exact"``
monotone coupling is optimal in ``O(n_Q)``; the other solvers exist for
ablations, verification, and fast large-grid designs.  The per-cell
:class:`~repro.ot.problem.OTResult` diagnostics (convergence, residuals,
wall time, batching) are recorded on each
:class:`~repro.core.plan.FeaturePlan`.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_positive_int, check_probability
from ..data.dataset import FairnessDataset
from ..density.grid import InterpolationGrid
from ..density.kde import interpolate_pmf
from ..exceptions import ValidationError
from ..ot.barycenter import barycenter_1d, project_onto_grid
from ..ot.coupling import TransportPlan, is_sparse_enough
from ..ot.problem import OTBatch, OTProblem
from ..ot.registry import Solver, filter_opts, resolve_solver
from ..ot.solve import solve_many
from .executor import resolve_executor
from .plan import FeaturePlan, RepairPlan

__all__ = ["design_repair", "design_feature_plan", "SOLVERS"]

#: The paper's original plan-solver trio; kept for backwards compatibility.
#: Any solver registered with :func:`repro.ot.register_solver` is accepted.
SOLVERS = ("exact", "simplex", "sinkhorn")

#: Minimum research observations per (u, s) subgroup.  A single point is
#: permitted — its KDE degenerates to (nearly) a point mass, which is the
#: honest small-sample behaviour the paper's Figure 3 sweep exercises at
#: its smallest research sizes.
_MIN_GROUP_SIZE = 1


def design_feature_plan(samples_by_s: dict, n_states: int, *, t: float = 0.5,
                        solver="exact",
                        marginal_estimator: str = "kde",
                        bandwidth_method: str = "silverman",
                        padding: float = 0.0,
                        epsilon: float = 5e-3,
                        solver_opts: dict | None = None) -> FeaturePlan:
    """Design the repair machinery for a single ``(u, k)`` cell.

    Each transport is stored CSR when at most
    :data:`~repro.ot.coupling.SPARSE_DENSITY_THRESHOLD` of its entries
    carry mass (the default ``"exact"`` solver's staircases always are
    CSR), and dense otherwise.

    Parameters
    ----------
    samples_by_s:
        ``s -> 1-D research sample`` of feature ``k`` within group ``u``;
        must contain both protected classes.
    n_states:
        Grid resolution ``n_Q`` (paper Section V-A2b studies this knob).
    t:
        Position of the repair target on the W2 geodesic; ``0.5`` is the
        fair barycentre, other values yield partial repairs.
    solver:
        Any spec the OT solver registry resolves: a registered name
        (``"exact"`` — the monotone default, ``"simplex"``, ``"lp"``,
        ``"sinkhorn"``, ``"screened"``, ...), a callable
        ``fn(problem, **opts)``, or a
        :class:`~repro.ot.registry.Solver` instance.
    marginal_estimator:
        ``"kde"`` — the paper's Eq. 11 Gaussian-kernel interpolation
        (default); ``"linear"`` — linear mass-splitting of the empirical
        measure onto the grid.  The linear estimator matches exactly the
        Bernoulli-split row selection of Algorithm 2, which makes the
        repair markedly more accurate on features with atoms (e.g. the
        40-hour spike in Adult) at the cost of a rougher marginal.
    padding:
        Relative widening of the grid beyond the research range; non-zero
        values reduce boundary clipping of drifting archives.
    epsilon:
        Entropic regularisation passed to the ``"sinkhorn"`` /
        ``"sinkhorn_log"`` / ``"screened"`` solvers; ignored otherwise.
    solver_opts:
        Extra keyword options offered to the plan solver alongside
        ``epsilon`` (e.g. ``{"coarsen": 4, "radius": 2}`` for
        ``"multiscale"``, ``{"k": 32}`` for ``"screened"``).  Options
        the resolved solver's signature does not accept are dropped —
        computed **once per cell batch** via
        :func:`~repro.ot.registry.filter_opts`, never per solve.
    """
    resolved = resolve_solver(solver)
    t = check_probability(t, name="t")
    n_states = check_positive_int(n_states, name="n_states", minimum=2)
    grid, marginals, target = _prepare_cell(
        samples_by_s, n_states, t=t,
        marginal_estimator=marginal_estimator,
        bandwidth_method=bandwidth_method, padding=padding)
    opts = _cell_solver_opts(resolved, epsilon, solver_opts)
    results = solve_many(_cell_problems(grid, marginals, target),
                         method=resolved, **opts)
    return _assemble_feature_plan(grid, marginals, target,
                                  {s: results[s] for s in (0, 1)})


def design_repair(research: FairnessDataset, n_states=50, *, t: float = 0.5,
                  solver="exact",
                  marginal_estimator: str = "kde",
                  bandwidth_method: str = "silverman",
                  padding: float = 0.0, epsilon: float = 5e-3,
                  solver_opts: dict | None = None,
                  n_jobs: int | None = None,
                  executor=None) -> RepairPlan:
    """Algorithm 1 over every ``(u, k)`` cell of the research data.

    The whole design is *batched*: per-cell marginal interpolation is
    fanned over the execution engine, then every ``(u, s, k)`` plan
    problem goes through one :func:`repro.ot.solve.solve_many` call —
    batch-kernel solvers (the default ``"exact"``) solve all same-grid
    cells in a single vectorised dispatch, the rest fan over the same
    engine.

    Parameters
    ----------
    research:
        The fully ``(s, u)``-labelled research data set ``X_R``.
    n_states:
        Either a single ``n_Q`` used everywhere (the paper's choice), or a
        mapping ``(u, k) -> n_Q`` for per-cell resolutions.
    solver:
        Any registry-resolvable solver spec (see
        :func:`design_feature_plan`).
    solver_opts:
        Extra solver keyword options, signature-filtered once per batch
        (see :func:`design_feature_plan`); must be picklable when
        combined with the process executor.
    n_jobs:
        Worker budget of the execution engine.  Under the default
        ``executor`` (``None``/``"auto"``), ``None`` or ``1`` keeps
        everything serial and ``>= 2`` parallelises the independent
        cells; an explicitly named pool strategy without ``n_jobs``
        defaults to the machine's CPU count (the budget actually used
        is recorded in ``metadata["n_jobs"]``).  The per-cell
        computation is deterministic, so every strategy is identical to
        the serial design (plans bitwise, diagnostics up to wall time).
    executor:
        Execution strategy for the non-vectorised work: ``"serial"``,
        ``"thread"`` (BLAS/scipy-LP-bound solvers), ``"process"`` (the
        historical ``n_jobs`` fan-out; requires picklable solver specs),
        ``"auto"``/``None`` (serial for ``n_jobs`` ≤ 1, else thread or
        process depending on the solver), or any ready-made object with
        ``map(fn, iterable)`` — see :mod:`repro.core.executor`.

    Returns
    -------
    RepairPlan
        Every ``π*_{u,s,k}`` plus supports, design metadata (including
        the executor strategy and batched-solve tally), and the per-cell
        :class:`~repro.ot.problem.OTResult` diagnostics.
    """
    resolved = resolve_solver(solver)
    t = check_probability(t, name="t")
    if n_jobs is not None:
        n_jobs = check_positive_int(n_jobs, name="n_jobs")
    engine = resolve_executor(executor, n_jobs=n_jobs, solver=resolved)

    jobs = []
    for u in research.u_values:
        group = research.group(int(u))
        sizes = {s: int(np.sum(group.s == s)) for s in (0, 1)}
        if min(sizes.values()) < _MIN_GROUP_SIZE:
            raise ValidationError(
                f"group u={int(u)} lacks research data for both protected "
                f"classes (sizes {sizes}); cannot design its repair")
        for k in range(research.n_features):
            cell_states = _resolve_states(n_states, int(u), k)
            samples_by_s = {
                s: group.features[group.s == s, k] for s in (0, 1)
            }
            jobs.append(((int(u), k), samples_by_s, cell_states))

    # Phase 1 — marginal interpolation per cell (grid, KDE, barycentre),
    # fanned over the engine: deterministic and independent, so any
    # strategy reproduces the serial result exactly.
    prep_kwargs = {"t": t, "marginal_estimator": marginal_estimator,
                   "bandwidth_method": bandwidth_method, "padding": padding}
    preparations = engine.map(
        _prepare_cell_worker,
        [(samples_by_s, cell_states, prep_kwargs)
         for _, samples_by_s, cell_states in jobs])

    # Phase 2 — one OT batch over every (u, s, k) problem.  Solver
    # options are signature-filtered here, once for the whole batch.
    problems = []
    for grid, marginals, target in preparations:
        problems.extend(_cell_problems(grid, marginals, target))
    opts = _cell_solver_opts(resolved, epsilon, solver_opts)
    results = solve_many(OTBatch(tuple(problems)), method=resolved,
                         executor=engine, **opts)

    # Phase 3 — assemble the per-cell plans and the design record.
    feature_plans = {}
    for index, ((key, _, _), (grid, marginals, target)) \
            in enumerate(zip(jobs, preparations)):
        cell_results = {s: results[2 * index + s] for s in (0, 1)}
        feature_plans[key] = _assemble_feature_plan(
            grid, marginals, target, cell_results)

    ot_wall_time = 0.0
    n_unconverged = 0
    epsilon_used = False
    for plan in feature_plans.values():
        for record in plan.diagnostics.values():
            ot_wall_time += float(record.get("wall_time", 0.0))
            n_unconverged += int(not record.get("converged", True))
            # Entropic solvers surface their epsilon in the per-cell
            # diagnostics; its presence means the knob actually ran
            # (e.g. "auto" dispatching to "exact" never uses it).
            epsilon_used = epsilon_used or "epsilon" in record
    metadata = {
        "solver": resolved.name,
        "solver_opts": dict(solver_opts or {}),
        "marginal_estimator": marginal_estimator,
        "bandwidth_method": bandwidth_method,
        "padding": padding,
        "n_research": len(research),
        "group_sizes": research.group_sizes(),
        "ot_wall_time": ot_wall_time,
        "n_unconverged": n_unconverged,
        # The engine's actual worker budget: an explicit pool strategy
        # without n_jobs defaults to the machine's CPU count, and the
        # provenance record must say what really ran.
        "n_jobs": int(getattr(engine, "n_jobs",
                              1 if n_jobs is None else n_jobs)),
        "executor": getattr(engine, "name", type(engine).__name__),
        "n_batched_solves": sum(
            1 for result in results if result.extras.get("batched")),
        "n_sparse_transports": sum(
            int(plan.is_sparse) for feature_plan in feature_plans.values()
            for plan in feature_plan.transports.values()),
    }
    if epsilon_used:
        metadata["epsilon"] = epsilon
    return RepairPlan(feature_plans=feature_plans,
                      n_features=research.n_features, t=t,
                      metadata=metadata)


# -- the per-cell pipeline stages ---------------------------------------------


def _prepare_cell(samples_by_s: dict, n_states: int, *, t: float,
                  marginal_estimator: str, bandwidth_method: str,
                  padding: float):
    """Interpolation stage of one cell: ``(grid, marginals, target)``."""
    if set(samples_by_s) != {0, 1}:
        raise ValidationError(
            f"samples_by_s must contain both s=0 and s=1, got "
            f"{sorted(samples_by_s)}")
    samples = {s: np.asarray(values, dtype=float).ravel()
               for s, values in samples_by_s.items()}
    for s, values in samples.items():
        if values.size < _MIN_GROUP_SIZE:
            raise ValidationError(
                f"subgroup s={s} has no research points; a repair cannot "
                "be designed for it")
    if marginal_estimator not in ("kde", "linear"):
        raise ValidationError(
            f"unknown marginal_estimator {marginal_estimator!r}; expected "
            "'kde' or 'linear'")
    combined = np.concatenate([samples[0], samples[1]])
    grid = InterpolationGrid.from_samples(combined, n_states,
                                          padding=padding)
    if marginal_estimator == "kde":
        marginals = {
            s: interpolate_pmf(values, grid.nodes,
                               bandwidth_method=bandwidth_method)
            for s, values in samples.items()
        }
    else:
        uniform = {s: np.full(values.size, 1.0 / values.size)
                   for s, values in samples.items()}
        marginals = {
            s: project_onto_grid(values, uniform[s], grid.nodes)
            for s, values in samples.items()
        }
    target = barycenter_1d(grid.nodes, marginals[0], grid.nodes,
                           marginals[1], grid.nodes, t=t)
    return grid, marginals, target


def _prepare_cell_worker(payload):
    """Run :func:`_prepare_cell` from an executor ``map`` (module-level
    so process pools can pickle it)."""
    samples_by_s, n_states, prep_kwargs = payload
    return _prepare_cell(samples_by_s, n_states, **prep_kwargs)


def _cell_problems(grid: InterpolationGrid, marginals: dict,
                   target: np.ndarray) -> list:
    """The cell's two Kantorovich problems (s = 0, 1), Eq. 13."""
    return [OTProblem(source_weights=marginals[s], target_weights=target,
                      source_support=grid.nodes, target_support=grid.nodes,
                      p=2)
            for s in (0, 1)]


def _cell_solver_opts(solver: Solver, epsilon: float,
                      solver_opts: dict | None) -> dict:
    """The design's tuning knobs, signature-filtered once per batch.

    Offered to whichever solver runs — entropic solvers pick up
    ``epsilon``/``tol``, exact solvers see neither.  Explicit
    ``solver_opts`` are offered last so they win over the defaults.
    ``"auto"`` takes every candidate here and re-filters per dispatch
    group inside :func:`~repro.ot.solve.solve_many`.
    """
    candidates = {"epsilon": epsilon, "tol": 1e-10, **(solver_opts or {})}
    return filter_opts(solver, candidates)


def _assemble_feature_plan(grid, marginals, target,
                           results: dict) -> FeaturePlan:
    """Wrap one cell's solved problems into a :class:`FeaturePlan`."""
    transports = {s: _stored(result.plan) for s, result in results.items()}
    return FeaturePlan(grid=grid, marginals=marginals, barycenter=target,
                       transports=transports,
                       diagnostics={s: result.summary()
                                    for s, result in results.items()})


def _stored(plan: TransportPlan) -> TransportPlan:
    """``plan`` as CSR when it is sparse enough
    (:func:`~repro.ot.coupling.is_sparse_enough`); a CSR plan stays CSR."""
    if not plan.is_sparse and is_sparse_enough(plan.matrix):
        return plan.to_sparse()
    return plan


def _resolve_states(n_states, u: int, k: int) -> int:
    if isinstance(n_states, dict):
        try:
            return check_positive_int(n_states[(u, k)],
                                      name=f"n_states[({u}, {k})]",
                                      minimum=2)
        except KeyError:
            raise ValidationError(
                f"n_states mapping is missing cell (u={u}, k={k})") from None
    return check_positive_int(n_states, name="n_states", minimum=2)
