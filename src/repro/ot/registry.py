"""Pluggable solver registry for the unified :func:`repro.ot.solve` API.

Solvers are callables ``fn(problem: OTProblem, **opts) -> OTResult``
registered under a short name.  A solver may also return a bare plan
matrix (or a :class:`~repro.ot.coupling.TransportPlan`); the registry
coerces it into an ``OTResult``, deriving cost and residuals:

>>> import numpy as np
>>> from repro.ot import (register_solver, unregister_solver,
...                       available_solvers, resolve_solver, solve)
>>> @register_solver("doc-uniform", description="independent coupling")
... def doc_uniform(problem):
...     return np.outer(problem.source_weights, problem.target_weights)
>>> "doc-uniform" in available_solvers()
True
>>> result = solve(np.eye(2), [0.5, 0.5], [0.5, 0.5],
...                method="doc-uniform")
>>> result.solver, float(result.value)
('doc-uniform', 0.5)
>>> unregister_solver("doc-uniform")
>>> "doc-uniform" in available_solvers()
False

The facade resolves a *spec* — a registered name, a bare callable, or a
:class:`Solver` instance — so every consumer of the OT layer
(:func:`repro.core.design.design_repair`, the CLI, the benchmarks) can
accept user-supplied solvers without special-casing.  Typos fail fast
with the list of available names:

>>> resolve_solver("doc-uniform")  # doctest: +ELLIPSIS
Traceback (most recent call last):
    ...
repro.exceptions.ValidationError: unknown solver 'doc-uniform'; ...
"""

from __future__ import annotations

import inspect
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from ..exceptions import ValidationError
from .coupling import TransportPlan, _issparse

__all__ = ["Solver", "filter_opts", "register_solver",
           "register_batch_solver", "unregister_solver", "resolve_solver",
           "available_solvers", "solver_descriptions", "batch_support"]


@dataclass(frozen=True)
class Solver:
    """A named, documented OT solver.

    Attributes
    ----------
    name:
        Registry key (also reported in :attr:`OTResult.solver`).
    fn:
        ``fn(problem, **opts)`` returning an
        :class:`~repro.ot.problem.OTResult` (or a
        :class:`~repro.ot.coupling.TransportPlan` / plan matrix, which the
        registry coerces into one).
    description:
        One-line human summary shown by ``repro solvers``.
    aliases:
        Alternative registry keys resolving to this solver.
    batch_fn:
        Optional vectorised kernel ``fn(batch: OTBatch, **opts)``
        returning one result per batch problem — attached with
        :func:`register_batch_solver`.  ``solve_many`` dispatches a whole
        same-shape batch to it in one call instead of fanning per-problem
        solves over an executor.
    batch_when:
        Optional predicate ``fn(problem) -> bool`` restricting which
        problems the batch kernel accepts (e.g. the monotone kernel needs
        1-D unmasked supports); problems it rejects fall back to the
        per-problem path.
    """

    name: str
    fn: Callable
    description: str = ""
    aliases: tuple = field(default=())
    batch_fn: Callable | None = field(default=None, compare=False)
    batch_when: Callable | None = field(default=None, compare=False)

    def __call__(self, problem, **opts):
        return coerce_result(self.fn(problem, **opts), problem)

    @property
    def supports_batch(self) -> bool:
        """True when a vectorised batch kernel is registered."""
        return self.batch_fn is not None

    def can_batch(self, problem) -> bool:
        """True when ``problem`` qualifies for this solver's batch kernel."""
        if self.batch_fn is None:
            return False
        return self.batch_when is None or bool(self.batch_when(problem))

    def solve_batch(self, batch, **opts) -> list:
        """Run the batch kernel and coerce every outcome to an ``OTResult``.

        The kernel may return any sequence of per-problem outcomes the
        registry knows how to coerce (``OTResult`` / ``TransportPlan`` /
        plan matrix), one per problem, in batch order.
        """
        if self.batch_fn is None:
            raise ValidationError(
                f"solver {self.name!r} has no batch kernel; use solve() "
                "per problem or the solve_many executor fallback")
        outcomes = self.batch_fn(batch, **opts)
        outcomes = list(outcomes)
        if len(outcomes) != len(batch):
            raise ValidationError(
                f"batch kernel of {self.name!r} returned {len(outcomes)} "
                f"results for {len(batch)} problems")
        return [coerce_result(outcome, problem)
                for outcome, problem in zip(outcomes, batch)]


#: name (or alias) -> Solver.  Insertion order is the registration order.
_REGISTRY: dict[str, Solver] = {}


def register_solver(name: str, *, description: str = "",
                    aliases: tuple = (), overwrite: bool = False):
    """Decorator registering ``fn`` as the solver called ``name``.

    Parameters
    ----------
    overwrite:
        Allow re-registering an existing name (useful in tests and for
        user plugins shadowing a built-in).
    """
    if not name or not isinstance(name, str):
        raise ValidationError("solver name must be a non-empty string")

    def decorator(fn: Callable) -> Callable:
        for key in (name, *aliases):
            if key in _REGISTRY and not overwrite:
                raise ValidationError(
                    f"solver {key!r} is already registered; pass "
                    "overwrite=True to replace it")
        if overwrite:
            for key in (name, *aliases):
                shadowed = _REGISTRY.get(key)
                if shadowed is None:
                    continue
                if key == shadowed.name:
                    # Primary name shadowed: evict the whole entry so its
                    # aliases cannot keep resolving to a stale solver.
                    unregister_solver(key)
                else:
                    # Only an alias shadowed: the owning solver keeps its
                    # primary name and other aliases.
                    del _REGISTRY[key]
        solver = Solver(name=name, fn=fn, description=description,
                        aliases=tuple(aliases))
        for key in (name, *aliases):
            _REGISTRY[key] = solver
        return fn

    return decorator


def register_batch_solver(name: str, *, when: Callable | None = None):
    """Decorator attaching a vectorised batch kernel to a registered solver.

    The kernel is ``fn(batch: OTBatch, **opts)`` returning one outcome
    per problem (batch order); ``when`` optionally restricts which
    problems qualify (others take :func:`~repro.ot.solve.solve_many`'s
    per-problem fallback).  The solver keeps its name, aliases and
    description — only the batch capability is added:

    >>> from repro.ot import resolve_solver
    >>> resolve_solver("exact").supports_batch
    True
    >>> resolve_solver("simplex").supports_batch
    False
    """
    if name not in _REGISTRY:
        raise ValidationError(
            f"cannot attach a batch kernel to unknown solver {name!r}; "
            f"register it first (have {available_solvers()})")
    solver = _REGISTRY[name]

    def decorator(fn: Callable) -> Callable:
        upgraded = replace(solver, batch_fn=fn, batch_when=when)
        for key in (solver.name, *solver.aliases):
            _REGISTRY[key] = upgraded
        return fn

    return decorator


def batch_support() -> dict:
    """``name -> supports_batch`` for every registered solver.

    The docs solver table's *Batched* column is kept in sync with this
    mapping by ``tests/test_docs.py``.
    """
    return {name: _REGISTRY[name].supports_batch
            for name in available_solvers()}


def unregister_solver(name: str) -> None:
    """Remove a solver (and its aliases) from the registry."""
    solver = _REGISTRY.pop(name, None)
    if solver is None:
        return
    for key in (solver.name, *solver.aliases):
        if _REGISTRY.get(key) is solver:
            del _REGISTRY[key]


def available_solvers() -> tuple:
    """Primary names of all registered solvers, in registration order."""
    seen = []
    for key, solver in _REGISTRY.items():
        if key == solver.name and solver.name not in seen:
            seen.append(solver.name)
    return tuple(seen)


def solver_descriptions() -> dict:
    """``name -> one-line description`` for every registered solver."""
    return {name: _REGISTRY[name].description
            for name in available_solvers()}


def resolve_solver(spec) -> Solver:
    """Resolve a solver *spec* into a :class:`Solver`.

    Accepts a registered name (string), a bare callable with the solver
    signature, or a :class:`Solver` instance.
    """
    if isinstance(spec, Solver):
        return spec
    if isinstance(spec, str):
        try:
            return _REGISTRY[spec]
        except KeyError:
            raise ValidationError(
                f"unknown solver {spec!r}; expected one of "
                f"{available_solvers()} or a callable") from None
    if callable(spec):
        name = getattr(spec, "__name__", type(spec).__name__)
        return Solver(name=name, fn=spec,
                      description="ad-hoc callable solver")
    raise ValidationError(
        f"cannot resolve solver spec of type {type(spec).__name__}; pass "
        f"a name from {available_solvers()}, a callable, or a Solver")


def filter_opts(solver: Solver, candidates: dict) -> dict:
    """Subset of ``candidates`` the solver's signature can accept.

    Lets generic callers (Algorithm 1/joint design, ``"auto"`` dispatch)
    offer tuning knobs like ``epsilon`` without knowing which solver will
    run: entropic solvers pick them up, exact solvers never see them.  A
    solver taking ``**kwargs`` receives every candidate.

    >>> from repro.ot import resolve_solver
    >>> sorted(filter_opts(resolve_solver("multiscale"),
    ...                    {"coarsen": 4, "epsilon": 1e-2}))
    ['coarsen']
    >>> filter_opts(resolve_solver("exact"), {"epsilon": 1e-2})
    {}
    """
    try:
        params = inspect.signature(solver.fn).parameters
    except (TypeError, ValueError):  # builtins/C callables: be safe
        return {}
    if any(p.kind is inspect.Parameter.VAR_KEYWORD
           for p in params.values()):
        return dict(candidates)
    return {key: value for key, value in candidates.items()
            if key in params}


def coerce_result(outcome, problem):
    """Normalise a solver's return value into an ``OTResult``.

    Registered built-ins return :class:`~repro.ot.problem.OTResult`
    directly; ad-hoc callables may return a
    :class:`~repro.ot.coupling.TransportPlan` or a bare plan matrix, for
    which the residuals and cost are derived here.
    """
    # Deferred import: problem.py has no dependency on the registry.
    from .problem import OTResult, result_from_matrix

    if isinstance(outcome, OTResult):
        return outcome
    if isinstance(outcome, TransportPlan):
        return result_from_matrix(problem, outcome.matrix,
                                  value=outcome.cost)
    if _issparse(outcome):
        if outcome.shape != problem.shape:
            raise ValidationError(
                f"solver returned shape {outcome.shape}, expected a plan "
                f"of shape {problem.shape} (or an OTResult/TransportPlan)")
        return result_from_matrix(problem, outcome)
    matrix = np.asarray(outcome, dtype=float)
    if matrix.ndim != 2 or matrix.shape != problem.shape:
        raise ValidationError(
            f"solver returned shape {matrix.shape}, expected a plan of "
            f"shape {problem.shape} (or an OTResult/TransportPlan)")
    return result_from_matrix(problem, matrix)
