"""Optimal-transport substrate with a single unified entry point.

Every discrete OT solve in the library goes through one facade::

    from repro.ot import OTProblem, solve

    problem = OTProblem(source_weights=mu, target_weights=nu,
                        source_support=xs, target_support=ys)
    result = solve(problem)               # method="auto"
    result.plan        # TransportPlan coupling
    result.value       # <C, plan>
    result.converged   # solver met its tolerance
    result.solver      # which registered solver ran

``solve`` is backed by a pluggable registry: ``method=`` accepts any
registered name (``available_solvers()`` lists them), a bare callable, or
a :class:`~repro.ot.registry.Solver`.  New solvers plug in with the
:func:`~repro.ot.registry.register_solver` decorator — no core changes
needed.  ``method="auto"`` dispatches on problem structure: the
closed-form monotone coupling for 1-D convex costs, the dense simplex for
small problems, the HiGHS LP for medium ones, and the Sinkhorn-screened
sparse hybrid (``"screened"``) for large supports.

Modules
-------

* :mod:`~repro.ot.problem` — :class:`OTProblem` / :class:`OTResult`.
* :mod:`~repro.ot.registry` — the pluggable solver registry.
* :mod:`~repro.ot.solve` — the facade and the built-in solvers.
* :mod:`~repro.ot.cost` — ground-cost matrices (``L_p^p`` family).
* :mod:`~repro.ot.coupling` — :class:`TransportPlan` container.
* :mod:`~repro.ot.onedim` — closed-form 1-D OT (monotone couplings).
* :mod:`~repro.ot.network_simplex` — exact general solvers (dense
  MODI simplex + sparse arc-list network simplex with warm starts).
* :mod:`~repro.ot.lp` — scipy ``linprog`` oracle.
* :mod:`~repro.ot.sinkhorn` — entropic OT.
* :mod:`~repro.ot.multiscale` — coarsen-solve-refine sparse hybrid.
* :mod:`~repro.ot.barycenter` — W2 barycentres / geodesics.
* :mod:`~repro.ot.wasserstein` — ``W_p`` distances.

The historical per-solver entry points (``solve_1d``, ``solve_transport``,
``transport_simplex``, ``solve_transport_lp``, ``solve_sinkhorn``) remain
available as thin shims over :func:`solve`.
"""

from .barycenter import (barycenter_1d, geodesic_point_1d, project_onto_grid,
                         sinkhorn_barycenter)
from .cost import (cost_matrix, euclidean_cost, lp_cost, make_cost_function,
                   pointwise_cost, squared_euclidean_cost)
from .coupling import (TransportPlan, band_bounds, dilate_mask, is_banded,
                       is_coupling, marginal_residual, refine_mask)
from .lp import solve_transport_lp, transport_lp
from .multiscale import coarsen_problem, default_coarsen_factor
from .network_simplex import (NetworkSimplexState, network_simplex_arcs,
                              refine_state, solve_transport,
                              transport_simplex)
from .onedim import (banded_monotone_transport, batched_north_west_corner,
                     monotone_map, north_west_corner,
                     north_west_corner_support, quantile_function, solve_1d,
                     wasserstein_1d)
from .problem import OTBatch, OTProblem, OTResult
from .registry import (Solver, available_solvers, batch_support,
                       filter_opts, register_batch_solver, register_solver,
                       resolve_solver, solver_descriptions,
                       unregister_solver)
from .sinkhorn import (SinkhornResult, batched_sinkhorn,
                       batched_sinkhorn_log, sinkhorn, sinkhorn_log,
                       solve_sinkhorn)
from .sliced import random_directions, sliced_wasserstein
from .solve import auto_method, default_screen_k, solve, solve_many
from .unbalanced import sinkhorn_unbalanced
from .wasserstein import wasserstein_distance, wasserstein_sample_distance

__all__ = [
    "NetworkSimplexState",
    "OTBatch",
    "OTProblem",
    "OTResult",
    "SinkhornResult",
    "Solver",
    "TransportPlan",
    "auto_method",
    "available_solvers",
    "band_bounds",
    "banded_monotone_transport",
    "barycenter_1d",
    "batch_support",
    "batched_north_west_corner",
    "batched_sinkhorn",
    "batched_sinkhorn_log",
    "coarsen_problem",
    "cost_matrix",
    "default_coarsen_factor",
    "default_screen_k",
    "dilate_mask",
    "euclidean_cost",
    "filter_opts",
    "geodesic_point_1d",
    "is_banded",
    "is_coupling",
    "lp_cost",
    "make_cost_function",
    "marginal_residual",
    "monotone_map",
    "network_simplex_arcs",
    "north_west_corner",
    "north_west_corner_support",
    "pointwise_cost",
    "project_onto_grid",
    "refine_mask",
    "refine_state",
    "quantile_function",
    "random_directions",
    "register_batch_solver",
    "register_solver",
    "resolve_solver",
    "sinkhorn",
    "sinkhorn_barycenter",
    "sinkhorn_log",
    "sinkhorn_unbalanced",
    "sliced_wasserstein",
    "solve",
    "solve_1d",
    "solve_many",
    "solve_sinkhorn",
    "solve_transport",
    "solve_transport_lp",
    "solver_descriptions",
    "squared_euclidean_cost",
    "transport_lp",
    "transport_simplex",
    "unregister_solver",
    "wasserstein_1d",
    "wasserstein_distance",
    "wasserstein_sample_distance",
]
