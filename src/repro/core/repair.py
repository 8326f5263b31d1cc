"""Algorithm 2 — off-sample (archival) repair, plus the estimator API.

Given the plans from Algorithm 1, each ``(u, s)``-labelled archival point
``x`` is repaired per feature by:

1. locating its grid cell ``q`` and within-cell offset ``τ`` (Eq. 14),
2. a Bernoulli trial ``a ~ B(τ)`` selecting row ``q + a`` of ``π*`` —
   the first source of randomness,
3. a multinomial draw from the normalised selected row (Eq. 15) — the
   second source of randomness — yielding the repaired grid state.

The procedure preserves the cardinality of the archive, costs an
expected ``O(1)`` per point after an ``O(n_Q)`` per-plan precomputation
(the default ``"exact"`` plans are CSR staircases with at most
``2·n_Q - 1`` non-zeros), and never touches the research data again —
hence "torrent-ready".

One kernel does the work everywhere: :class:`PreparedFeatureRepair`,
one per ``(u, s, k)`` cell and rounding/output mode, built on first use
and kept on its :class:`~repro.core.plan.FeaturePlan`, so a stream of
batches builds every table once.  One loop applies the kernels:
:func:`_repair_requests` repairs a list of ``(dataset, generator)``
requests, and :func:`repair_dataset` (and so
:meth:`DistributionalRepairer.transform_stream`) runs it on one request
while ``repro serve`` runs it on a micro-batch, so served and offline
repairs are the same operations.  Steps 1 and 3 avoid per-value binary
searches: the cell is guessed from the grid's mean spacing and
corrected by one step, and the draw reads the entry of its uniform's
bin from a one-byte guide table per row of the transport's
:class:`~repro.ot.coupling.CSRSampler`, which dense and CSR transports
alike draw through.  Values the guess cannot
settle, draws whose bin holds a row breakpoint, and dispatches below
:data:`~repro.density.grid.GUESS_CROSSOVER` rows take an ``O(log
n_Q)`` binary search with the same result.  Archive batches from
:mod:`repro.data.streaming` are read-only views of the archive, so no
row is copied before its repair.

:class:`DistributionalRepairer` wraps Algorithms 1 + 2 in a familiar
``fit`` / ``transform`` estimator interface with streaming support.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_rng
from ..data.dataset import FairnessDataset
from ..data.streaming import ArchiveStream
from ..density.grid import locate_cells
from ..exceptions import NotFittedError, ReproError, ValidationError
from ..ot.registry import resolve_solver
from .plan import FeaturePlan, RepairPlan

__all__ = ["repair_feature_values", "repair_dataset",
           "prepare_feature_repair", "PreparedFeatureRepair",
           "DistributionalRepairer"]

#: Supported rounding modes for the grid-cell selection step.
ROUNDING_MODES = ("stochastic", "nearest")
#: Supported output modes for the repaired value.
OUTPUT_MODES = ("sample", "barycentric", "interpolated")


def design_repair(*args, **kwargs) -> RepairPlan:
    """:func:`repro.core.design.design_repair`, imported on first call:
    replaying a plan never loads the design stack."""
    from . import design

    return design.design_repair(*args, **kwargs)


def _check_modes(rounding: str, output: str) -> None:
    if rounding not in ROUNDING_MODES:
        raise ValidationError(
            f"unknown rounding {rounding!r}; expected {ROUNDING_MODES}")
    if output not in OUTPUT_MODES:
        raise ValidationError(
            f"unknown output {output!r}; expected {OUTPUT_MODES}")


def repair_feature_values(values, feature_plan: FeaturePlan, s: int, *,
                          rng=None, rounding: str = "stochastic",
                          output: str = "sample") -> np.ndarray:
    """Repair a vector of one feature's values for one ``(u, s)`` subgroup.

    Validates its inputs, then runs the cell's memoised
    :class:`PreparedFeatureRepair` kernel.

    Parameters
    ----------
    values:
        Archival observations of a single feature within one subgroup.
    feature_plan:
        The ``(u, k)`` bundle from Algorithm 1.
    s:
        Protected label of these observations (selects ``π*_{·,s}``).
    rounding:
        ``"stochastic"`` is the paper's Bernoulli trial on ``τ``;
        ``"nearest"`` deterministically picks the closer grid node
        (ablation).
    output:
        ``"sample"`` draws from the conditional row (the paper's Eq. 15);
        ``"barycentric"`` returns the conditional mean (deterministic
        ablation; loses the mass-split randomisation);
        ``"interpolated"`` draws the grid state as ``"sample"`` does and
        then adds uniform within-cell jitter — an extension producing
        *continuous* repaired values whose grid projection matches the
        sampled pmf, so the repaired support is not quantised to ``Q``.
    """
    _check_modes(rounding, output)
    kernel = _kernel(feature_plan, s, rounding, output)
    xs = np.atleast_1d(np.asarray(values, dtype=float))
    if xs.size == 0:
        return xs.copy()
    if not np.all(np.isfinite(xs)):
        raise ValidationError("values contain non-finite entries")
    return kernel(xs, as_rng(rng))


class PreparedFeatureRepair:
    """Validation-free Algorithm-2 kernel for one ``(u, s, k)`` cell.

    Preparing a cell hoists mode checks, array coercion, finiteness and
    the transport lookup out of the hot path.  Its sampling state is the
    transport's own :class:`~repro.ot.coupling.CSRSampler`, an
    ``O(nnz)`` state kept with the transport and shared by every kernel
    and caller that samples it, whatever the transport's storage.

    :func:`repair_feature_values` and :func:`_repair_requests` run these
    kernels, so served and offline repairs are the same operations
    with the same random-stream consumption.  Randomness is split out
    so a batch of requests can draw each request's variates from its own
    generator (in the exact order the one-request path would) and still
    apply the deterministic part to all their values in one
    vectorised dispatch:

    * :meth:`draw` consumes from a generator exactly what
      :func:`repair_feature_values` would for ``n`` values;
    * :meth:`apply` maps ``(values, variates) -> repaired`` with no
      randomness and no validation — concatenation-safe, because every
      operation is element-wise over the batch;
    * calling the object does both, for the one-request case.

    Callers must pre-validate: ``values`` is a finite float64 1-D array
    (non-finite entries produce garbage here instead of the facade's
    :class:`ValidationError`).
    """

    __slots__ = ("rounding", "output", "_nodes", "_gaps", "_low", "_high",
                 "_spacing", "_expected", "_sampler")

    def __init__(self, feature_plan: FeaturePlan, s: int, *,
                 rounding: str = "stochastic",
                 output: str = "sample") -> None:
        _check_modes(rounding, output)
        transport = feature_plan._transport(s)
        grid = feature_plan.grid
        self.rounding = rounding
        self.output = output
        self._nodes = grid.nodes
        self._gaps = np.diff(grid.nodes)
        self._low = grid.low
        self._high = grid.high
        self._spacing = grid.spacing
        self._expected = None
        self._sampler = None
        if output == "barycentric":
            self._expected = feature_plan.expected_targets(s)
        else:
            self._sampler = transport.conditional_sampler()

    @property
    def nbytes(self) -> int:
        """Approximate bytes of the sampling state the kernel reads."""
        if self._expected is not None:
            return self._expected.nbytes
        return self._sampler.nbytes

    def draw(self, rng: np.random.Generator, n: int) -> tuple:
        """The ``(advance, draws, jitter)`` uniform variates ``n`` values
        need, consumed from ``rng`` in exactly the order (and only the
        amounts) :func:`repair_feature_values` consumes them."""
        advance = rng.random(n) if self.rounding == "stochastic" else None
        draws = jitter = None
        if self.output != "barycentric":
            draws = rng.random(n)
            if self.output == "interpolated":
                jitter = rng.uniform(-0.5, 0.5, size=n)
        return advance, draws, jitter

    def apply(self, values: np.ndarray, variates: tuple) -> np.ndarray:
        """Deterministic repair of pre-validated ``values`` under the
        pre-drawn ``variates``.  Element-wise, hence concatenation-safe
        across requests."""
        advance_u, draws, jitter = variates
        nodes = self._nodes
        idx = locate_cells(nodes, values)
        tau = values - nodes.take(idx)
        tau /= self._gaps.take(idx)
        # Neither `values` nor `tau` needs clipping into the grid: a
        # value below it lands in cell 0 with `tau < 0`, one above it
        # in the final cell with `tau > 1`, and both select the row the
        # clipped value's `tau` of 0 or 1 selects (`advance_u` lies in
        # [0, 1)).  `idx` is at most n_states - 2, so the row stays on
        # the grid.
        if self.rounding == "stochastic":
            rows = idx + (advance_u < tau)
        else:
            rows = idx + (tau >= 0.5)
        if self.output == "barycentric":
            return self._expected.take(rows)
        repaired = nodes.take(self._sampler.sample(rows, draws))
        if self.output == "interpolated":
            repaired = np.clip(repaired + jitter * self._spacing,
                               self._low, self._high)
        return repaired

    def __call__(self, values: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
        return self.apply(values, self.draw(rng, values.size))


def prepare_feature_repair(feature_plan: FeaturePlan, s: int, *,
                           rounding: str = "stochastic",
                           output: str = "sample") -> PreparedFeatureRepair:
    """Hoist one cell's validation and sampling-state construction out
    of the Algorithm-2 hot path (see :class:`PreparedFeatureRepair`)."""
    return PreparedFeatureRepair(feature_plan, s, rounding=rounding,
                                 output=output)


def _kernel(feature_plan: FeaturePlan, s: int, rounding: str,
            output: str, counts: dict | None = None) -> PreparedFeatureRepair:
    """The cell's kernel for these modes, built on first use and kept
    on its feature plan.  ``counts`` tallies the lookup under
    ``"hits"``, or under ``"misses"`` when it built the kernel."""
    kernels = feature_plan._kernels
    key = (s, rounding, output)
    kernel = kernels.get(key)
    outcome = "hits"
    if kernel is None:
        kernel = kernels[key] = PreparedFeatureRepair(
            feature_plan, s, rounding=rounding, output=output)
        outcome = "misses"
    if counts is not None:
        counts[outcome] += 1
    return kernel


def _request_cells(dataset: FairnessDataset, plan: RepairPlan,
                   rounding: str, output: str, counts: dict) -> list:
    """Check one request against the plan, before any of its randomness
    is drawn, and return its ``((u, s), rows, kernels)`` subgroups in
    Algorithm 2's order — ``u`` ascending, then ``s = 0, 1`` — with
    ``rows`` the subgroup's ascending row indices and one kernel per
    feature.  Raises the :class:`ReproError` the request fails with."""
    if dataset.n_features != plan.n_features:
        raise ValidationError(
            f"dataset has {dataset.n_features} features, plan was designed "
            f"for {plan.n_features}")
    u_values = dataset.u_values
    missing = [int(u) for u in u_values if not plan.covers(int(u))]
    if missing:
        raise ValidationError(
            f"plan has no design for groups u={missing}; re-run Algorithm 1 "
            "on research data covering them")
    # Checked on every request: the data set was validated when it was
    # built, but its arrays (or the archive a batch views) stay
    # writable, and the kernels take what they are given.
    if not np.isfinite(dataset.features).all():
        raise ValidationError("values contain non-finite entries")
    cells = []
    in_class = ((0, dataset.s == 0), (1, dataset.s == 1))
    for u in u_values:
        u = int(u)
        in_u = dataset.u == u
        for s, in_s in in_class:
            # Row indices, not boolean masks: gathering and scattering
            # a subgroup's column through an index array is ~6x cheaper.
            rows = np.flatnonzero(in_u & in_s)
            if rows.size:
                # Built here, so a cell that cannot be built (a missing
                # transport, a corrupt mapped cell) fails only the
                # requests that need it.
                kernels = [_kernel(plan.feature_plan(u, k), s, rounding,
                                   output, counts)
                           for k in range(plan.n_features)]
                cells.append(((u, s), rows, kernels))
    return cells


def _repair_requests(plan: RepairPlan, requests, rounding: str,
                     output: str) -> tuple:
    """Algorithm 2 over a batch of ``(dataset, generator)`` requests.

    Returns ``(results, counts)``.  ``results[i]`` is request ``i``'s
    repaired feature matrix, or the :class:`ReproError` it failed
    validation with.  ``counts`` tallies the kernel lookups (``hits``,
    and ``misses`` that built a kernel), the ``cell_dispatches`` (one
    per ``(u, s, k)`` cell applied) and the ``cell_items`` (requests
    carried, summed over dispatches).

    Every request is validated, kernels included, before any
    randomness is drawn.  The good requests' ``(u, s)`` subgroups are
    then walked in Algorithm 2's order, and the features ``k`` of each
    in ascending order.  At each cell every member request draws its
    variates from its own generator, in request order, and the cell's
    kernel is applied once to the concatenation.  Each request meets
    its own cells in that global order, so a request whose generator
    no other request of the batch shares consumes it exactly as a lone
    :func:`repair_dataset` call does, and its result is bitwise the
    same.  A cell with one member applies the kernel to that member's
    values alone, with no concatenation.
    """
    counts = dict.fromkeys(("hits", "misses", "cell_dispatches",
                            "cell_items"), 0)
    results: list = [None] * len(requests)
    members: dict = {}
    for i, (dataset, _) in enumerate(requests):
        try:
            cells = _request_cells(dataset, plan, rounding, output, counts)
        except ReproError as exc:
            results[i] = exc
            continue
        results[i] = dataset.features.copy()
        for cell, rows, kernels in cells:
            members.setdefault(cell, (kernels, []))[1].append((i, rows))
    for cell in sorted(members):
        kernels, rows_of = members[cell]
        counts["cell_dispatches"] += len(kernels)
        counts["cell_items"] += len(kernels) * len(rows_of)
        if len(rows_of) == 1:
            ((i, rows),) = rows_of
            features, generator = requests[i][0].features, requests[i][1]
            for k, kernel in enumerate(kernels):
                results[i][rows, k] = kernel(features[rows, k], generator)
            continue
        for k, kernel in enumerate(kernels):
            values, variates = [], []
            for i, rows in rows_of:
                dataset, generator = requests[i]
                values.append(dataset.features[rows, k])
                variates.append(kernel.draw(generator, rows.size))
            repaired = kernel.apply(np.concatenate(values), tuple(
                None if part[0] is None else np.concatenate(part)
                for part in zip(*variates)))
            position = 0
            for (i, rows), segment in zip(rows_of, values):
                results[i][rows, k] = \
                    repaired[position:position + segment.size]
                position += segment.size
    return results, counts


def repair_dataset(dataset: FairnessDataset, plan: RepairPlan, *,
                   rng=None, rounding: str = "stochastic",
                   output: str = "sample") -> FairnessDataset:
    """Apply Algorithm 2 to every row of a labelled data set.

    Rows whose ``u`` group has no designed plan raise, because silently
    passing them through would corrupt downstream fairness measurements.
    The repaired data set shares the input's labels and schema.
    """
    _check_modes(rounding, output)
    (repaired,), _ = _repair_requests(plan, [(dataset, as_rng(rng))],
                                      rounding, output)
    if isinstance(repaired, ReproError):
        raise repaired
    return FairnessDataset._trusted(repaired, dataset.s, dataset.u,
                                    dataset.y, dataset.schema)


class DistributionalRepairer:
    """Estimator-style interface for the paper's full method.

    ``fit`` runs Algorithm 1 on the research data; ``transform`` runs
    Algorithm 2 on any labelled data set (on-sample or archival);
    ``transform_stream`` repairs an unbounded archive batch-by-batch.

    Parameters
    ----------
    n_states:
        Grid resolution ``n_Q`` (int, or ``(u, k) -> int`` mapping).
    t:
        Repair-target position on the W2 geodesic; ``0.5`` = full fair
        repair, smaller values move the target toward ``µ_0``.
    solver:
        Plan solver — any spec the OT registry resolves: a registered
        name (``"exact"`` default, ``"simplex"``, ``"lp"``,
        ``"sinkhorn"``, ``"sinkhorn_log"``, ``"screened"``, ``"auto"``),
        a callable ``fn(problem, **opts)``, or a
        :class:`~repro.ot.registry.Solver` instance.  Typos fail at
        construction time with the list of available solvers.
    solver_opts:
        Extra solver keyword options (e.g. ``{"coarsen": 4}`` for
        ``"multiscale"``, ``{"k": 32}`` for ``"screened"``), offered to
        the plan solver with signature filtering (see
        :func:`~repro.core.design.design_repair`).
    rounding, output:
        Algorithm-2 randomisation controls (see
        :func:`repair_feature_values`).
    n_jobs:
        Worker budget of the Algorithm-1 execution engine (see
        :func:`~repro.core.design.design_repair`); ``None``/1 designs
        serially.
    executor:
        Execution strategy for the design's non-vectorised work:
        ``"serial"``, ``"thread"``, ``"process"``, ``"auto"``/``None``,
        or any object with ``map(fn, iterable)`` — see
        :mod:`repro.core.executor`.  Batch-kernel solvers (the default
        ``"exact"``) solve all same-grid cells in one vectorised
        dispatch regardless of the strategy; every strategy is
        bit-identical to the serial design.
    rng:
        Seed or generator for the repair randomness; ``transform`` also
        accepts a per-call override.
    """

    def __init__(self, n_states=50, *, t: float = 0.5,
                 solver="exact",
                 marginal_estimator: str = "kde",
                 bandwidth_method: str = "silverman",
                 padding: float = 0.0, epsilon: float = 5e-3,
                 solver_opts: dict | None = None,
                 rounding: str = "stochastic", output: str = "sample",
                 n_jobs: int | None = None, executor=None,
                 rng=None) -> None:
        _check_modes(rounding, output)
        resolve_solver(solver)  # fail fast on typos, before any fitting
        self.n_states = n_states
        self.t = t
        self.solver = solver
        self.marginal_estimator = marginal_estimator
        self.bandwidth_method = bandwidth_method
        self.padding = padding
        self.epsilon = epsilon
        self.solver_opts = dict(solver_opts or {})
        self.rounding = rounding
        self.output = output
        self.n_jobs = n_jobs
        self.executor = executor
        self._rng = as_rng(rng)
        self._plan: RepairPlan | None = None

    @property
    def plan(self) -> RepairPlan:
        """The fitted :class:`RepairPlan` (raises before ``fit``)."""
        if self._plan is None:
            raise NotFittedError(
                "DistributionalRepairer.fit must be called before the plan "
                "is available")
        return self._plan

    @property
    def is_fitted(self) -> bool:
        return self._plan is not None

    def fit(self, research: FairnessDataset) -> "DistributionalRepairer":
        """Design the repair plans on the research data (Algorithm 1)."""
        self._plan = design_repair(
            research, self.n_states, t=self.t, solver=self.solver,
            marginal_estimator=self.marginal_estimator,
            bandwidth_method=self.bandwidth_method, padding=self.padding,
            epsilon=self.epsilon, solver_opts=self.solver_opts,
            n_jobs=self.n_jobs, executor=self.executor)
        return self

    def transform(self, dataset: FairnessDataset, *,
                  rng=None) -> FairnessDataset:
        """Repair a labelled data set (Algorithm 2)."""
        generator = self._rng if rng is None else as_rng(rng)
        return repair_dataset(dataset, self.plan, rng=generator,
                              rounding=self.rounding, output=self.output)

    def fit_transform(self, research: FairnessDataset, *,
                      rng=None) -> FairnessDataset:
        """Fit on the research data and repair it (on-sample repair)."""
        return self.fit(research).transform(research, rng=rng)

    def transform_stream(self, stream, *, rng=None):
        """Repair an archival stream batch-by-batch (lazily).

        Parameters
        ----------
        stream:
            An :class:`~repro.data.streaming.ArchiveStream` or any iterable
            of :class:`FairnessDataset` batches.

        Yields
        ------
        FairnessDataset
            Each repaired batch, in arrival order.
        """
        generator = self._rng if rng is None else as_rng(rng)
        if not self.is_fitted:
            raise NotFittedError(
                "DistributionalRepairer.fit must be called before "
                "transform_stream")
        if not isinstance(stream, ArchiveStream):
            stream = iter(stream)
        for batch in stream:
            yield self.transform(batch, rng=generator)
