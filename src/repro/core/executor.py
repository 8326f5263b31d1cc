"""Pluggable execution engine for the batched OT paths.

:func:`repro.ot.solve.solve_many` vectorises whole same-shape batches
through a solver's batch kernel; everything that cannot be vectorised —
non-batchable solvers, mixed-shape leftovers, and Algorithm 1's per-cell
marginal interpolation — is fanned over an *executor*.  An executor is
anything exposing ``map(fn, iterable) -> results`` (order-preserving);
this module provides the three named strategies and the resolution rule
the design/CLI layers use:

``serial``
    In-line ``map`` in the calling thread — the default, zero overhead.
``thread``
    A ``ThreadPoolExecutor`` fan-out.  The right choice for solvers that
    release the GIL in BLAS/scipy code (the HiGHS LP, the multiscale
    hybrid, Sinkhorn's dense linear algebra): no pickling, shared
    memory, cheap start-up.
``process``
    A ``ProcessPoolExecutor`` fan-out — today's ``n_jobs`` semantics for
    pure-Python-bound work, the screened hybrid's arc-list network
    simplex included.  Payloads and results must pickle.

Every strategy runs the same deterministic per-task computation, so the
three produce **bit-identical** results; only wall time differs.  Pools
are created per ``map`` call and sized ``min(n_jobs, len(tasks))``,
matching the historical ``design_repair(n_jobs=N)`` behaviour.

``resolve_executor`` turns a spec — ``None``, a strategy name,
``"auto"``, or a ready-made executor object (including raw
``concurrent.futures`` pools) — into an executor.  ``"auto"`` picks
``serial`` for ``n_jobs`` ≤ 1, ``thread`` when the solver is known to be
BLAS/LP-bound, and ``process`` otherwise.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from .._validation import check_positive_int
from ..exceptions import ValidationError

__all__ = ["Executor", "SerialExecutor", "ThreadExecutor",
           "ProcessExecutor", "resolve_executor", "EXECUTOR_NAMES"]

#: The named strategies ``resolve_executor`` accepts (besides ``"auto"``).
EXECUTOR_NAMES = ("serial", "thread", "process")

#: Registered solvers whose hot loop releases the GIL (scipy/HiGHS LP or
#: dense BLAS), making the thread strategy the better ``"auto"`` pick.
#: ``"screened"`` is not one: about half its time is the restricted
#: solve in the pure-Python network simplex, which holds the GIL, so two
#: threads design its cells only ~1.2x faster than one where two
#: processes are ~1.8x faster (12 cells, ``n_Q = 300``, 2 cores).
_THREAD_BOUND_SOLVERS = frozenset(
    {"lp", "multiscale", "sinkhorn", "sinkhorn_log"})


class Executor:
    """Protocol of the execution engine: ``map`` + a diagnostic ``name``.

    Structural, not nominal — ``solve_many`` accepts any object with an
    order-preserving ``map(fn, iterable)``, so ``concurrent.futures``
    pools qualify as-is.  Subclasses here exist to carry the strategy
    name into plan metadata and to size their pools lazily per call.
    """

    name = "executor"

    def map(self, fn, iterable) -> list:  # pragma: no cover - interface
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """In-line map in the calling thread."""

    name = "serial"
    n_jobs = 1

    def map(self, fn, iterable) -> list:
        return [fn(item) for item in iterable]


class _PoolExecutor(Executor):
    """Shared base for the pool-backed strategies: a fresh pool per
    ``map`` call, sized ``min(n_jobs, len(tasks))``, with a serial
    short-circuit when a pool cannot help."""

    def __init__(self, n_jobs: int | None = None) -> None:
        if n_jobs is None:
            n_jobs = os.cpu_count() or 1
        self.n_jobs = check_positive_int(n_jobs, name="n_jobs")

    def map(self, fn, iterable) -> list:
        tasks = list(iterable)
        if self.n_jobs == 1 or len(tasks) <= 1:
            return [fn(item) for item in tasks]
        with self._pool(min(self.n_jobs, len(tasks))) as pool:
            return list(pool.map(fn, tasks))

    def _pool(self, workers: int):  # pragma: no cover - interface
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_jobs={self.n_jobs})"


class ThreadExecutor(_PoolExecutor):
    """Thread-pool fan-out for GIL-releasing (BLAS/scipy-LP) workloads."""

    name = "thread"

    def _pool(self, workers: int) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(max_workers=workers)


class ProcessExecutor(_PoolExecutor):
    """Process-pool fan-out — the historical ``n_jobs`` semantics.

    Tasks and results must pickle; the deterministic per-task
    computation makes the fan-out bit-identical to the serial loop.
    Where the OS allows it, each worker starts on its own CPU
    (:func:`_spread_worker`).
    """

    name = "process"

    def _pool(self, workers: int) -> ProcessPoolExecutor:
        if not hasattr(os, "sched_setaffinity"):
            return ProcessPoolExecutor(max_workers=workers)
        context = multiprocessing.get_context()
        return ProcessPoolExecutor(
            max_workers=workers, mp_context=context,
            initializer=_spread_worker,
            initargs=(context.Value("i", 0),
                      sorted(os.sched_getaffinity(0))))


def _spread_worker(next_slot, cpus: list) -> None:
    """Pool initializer: move each new worker onto its own CPU.

    The kernel may leave freshly forked workers stacked on the parent's
    CPU for the whole ``map``: on a 2-vCPU VM two CPU-bound workers
    shared one vCPU for over 0.6 s while the other idled, in about half
    of the pools, so ``n_jobs=2`` ran no faster than the serial loop.
    The worker is pinned to one CPU, which migrates it there, and then
    given its whole mask back, so the kernel may still move it later.
    Placement is only a hint: a refused call leaves the worker where it
    is.
    """
    with next_slot.get_lock():
        slot = next_slot.value
        next_slot.value += 1
    try:
        os.sched_setaffinity(0, {cpus[slot % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def resolve_executor(spec=None, *, n_jobs: int | None = None,
                     solver=None) -> Executor:
    """Resolve an executor *spec* into an executor object.

    Parameters
    ----------
    spec:
        ``None`` / ``"auto"`` (strategy chosen below), one of
        :data:`EXECUTOR_NAMES`, or a ready-made object exposing
        ``map(fn, iterable)`` (returned as-is).
    n_jobs:
        Worker budget for the pool strategies, and the ``"auto"``
        trigger: ``None`` or ``1`` stays serial.
    solver:
        Optional solver name (or :class:`~repro.ot.registry.Solver`)
        steering ``"auto"``: BLAS/LP-bound solvers get threads, the
        rest processes.

    >>> resolve_executor().name
    'serial'
    >>> resolve_executor("auto", n_jobs=4, solver="lp").name
    'thread'
    >>> resolve_executor("auto", n_jobs=4, solver="exact").name
    'process'
    >>> resolve_executor("auto", n_jobs=4, solver="screened").name
    'process'
    >>> resolve_executor("thread", n_jobs=2).n_jobs
    2
    """
    if spec is None:
        spec = "auto"
    if not isinstance(spec, str):
        if callable(getattr(spec, "map", None)):
            return spec
        raise ValidationError(
            f"cannot resolve executor spec of type {type(spec).__name__}; "
            f"pass one of {EXECUTOR_NAMES + ('auto',)} or an object with "
            "map(fn, iterable)")
    if spec == "auto":
        if n_jobs is None or n_jobs <= 1:
            return SerialExecutor()
        solver_name = getattr(solver, "name", solver)
        if solver_name in _THREAD_BOUND_SOLVERS:
            return ThreadExecutor(n_jobs)
        return ProcessExecutor(n_jobs)
    if spec == "serial":
        return SerialExecutor()
    if spec == "thread":
        return ThreadExecutor(n_jobs)
    if spec == "process":
        return ProcessExecutor(n_jobs)
    raise ValidationError(
        f"unknown executor {spec!r}; expected one of "
        f"{EXECUTOR_NAMES + ('auto',)} or an object with map(fn, iterable)")
