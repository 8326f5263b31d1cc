"""The repair service: warm plans, merged dispatches, accounting.

:class:`RepairService` is the process-local engine behind the ``repro
serve`` HTTP tier.  It wraps a loaded
:class:`~repro.core.plan.RepairPlan` — by default one mapped lazily by
``load_plan(path, mmap=True)``, so a worker builds only the cells its
requests touch — and repairs request batches through
:class:`~repro.core.repair.PreparedFeatureRepair` kernels kept hot in a
bounded :class:`~repro.core.cache.LRUCache`.  A corrupt cell of a
mapped archive fails only the requests that touch it, with the cell's
:class:`~repro.exceptions.DataError`.

Bit-identity with the offline path is the contract: for any request
carrying a seed, the response equals
``repair_dataset(dataset, plan, rng=default_rng(seed))`` **bitwise**,
whether the request was served alone or merged into a micro-batch.
The trick is splitting randomness from arithmetic: each request's
uniform variates are drawn from its own generator in exactly the order
the offline loop would consume them, and only the deterministic
element-wise kernel is applied to the concatenation — so a flush of
``R`` concurrent requests costs one vectorised dispatch per *distinct*
``(u, s, k)`` cell instead of one per request per cell.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .._validation import as_rng
from ..core.cache import LRUCache
from ..core.plan import RepairPlan
from ..core.repair import (PreparedFeatureRepair, _check_modes,
                           _subgroup_rows)
from ..core.serialize import load_plan
from ..data.dataset import FairnessDataset
from ..exceptions import DataError, ReproError, ValidationError

__all__ = ["RepairRequest", "RepairService"]


@dataclass(frozen=True)
class RepairRequest:
    """One client's rows plus the generator answering its randomness.

    ``dataset`` carries the already-validated rows (construction of the
    :class:`FairnessDataset` *is* the up-front validation — finiteness,
    label domains, alignment — which is what lets the per-cell kernels
    skip re-validating); ``rng`` is the request's private stream, so a
    seeded request is reproducible regardless of batching.
    """

    dataset: FairnessDataset
    rng: np.random.Generator = field(
        default_factory=np.random.default_rng)

    @classmethod
    def from_payload(cls, payload) -> "RepairRequest":
        """Parse the ``/repair`` JSON body.

        Expected keys: ``features`` (list of rows), ``s`` and ``u``
        (per-row labels), optional integer ``seed`` (omitted → fresh
        entropy, i.e. a non-reproducible repair).
        """
        if not isinstance(payload, dict):
            raise DataError("request body must be a JSON object")
        missing = [key for key in ("features", "s", "u")
                   if key not in payload]
        if missing:
            raise DataError(f"request body missing keys {missing}")
        seed = payload.get("seed")
        # JSON true/false decode to bool, which isinstance counts as int.
        if seed is not None and (isinstance(seed, bool)
                                 or not isinstance(seed, int)):
            raise DataError(f"seed must be an integer, got {seed!r}")
        try:
            dataset = FairnessDataset(
                np.asarray(payload["features"], dtype=float),
                np.asarray(payload["s"]), np.asarray(payload["u"]))
        except (ReproError, ValueError, TypeError) as exc:
            raise DataError(f"invalid repair payload: {exc}") from exc
        return cls(dataset=dataset, rng=np.random.default_rng(seed))


class RepairService:
    """Long-lived Algorithm-2 engine over a warm plan.

    Parameters
    ----------
    plan:
        The :class:`RepairPlan` to serve.
    rounding, output:
        The Algorithm-2 randomisation modes every request is served
        with (fixed per service so responses stay comparable).
    cache_size:
        Bound on resident :class:`PreparedFeatureRepair` kernels, one
        per ``(u, s, k)`` cell.  A kernel holds ``O(n_Q)`` grid arrays;
        its transport's ``O(nnz)`` sampler lives with the plan's cell,
        dense or CSR, so the cells the service has touched bound it,
        not this cache.  Eviction is LRU; evicted kernels rebuild on
        next use.
    """

    def __init__(self, plan, *, rounding: str = "stochastic",
                 output: str = "sample", cache_size: int = 256) -> None:
        if not isinstance(plan, RepairPlan):
            raise ValidationError(
                "RepairService expects a RepairPlan, got "
                f"{type(plan).__name__}")
        _check_modes(rounding, output)
        self.plan = plan
        self.rounding = rounding
        self.output = output
        self.cells = LRUCache(cache_size)
        self._lock = threading.Lock()
        self.n_requests = 0
        self.n_errors = 0
        self.n_rows = 0
        self.n_cell_dispatches = 0
        self.n_cell_items = 0

    @classmethod
    def from_path(cls, path, *, mmap: bool = True,
                  **kwargs) -> "RepairService":
        """Build a service from a plan archive.

        The archive is memory-mapped by default: start-up reads only
        its header and zip directory, each cell is built on its first
        request, and plan bytes are shared across worker processes
        through the page cache.
        """
        return cls(load_plan(path, mmap=mmap), **kwargs)

    @property
    def n_features(self) -> int:
        return self.plan.n_features

    # -- the serving hot path ---------------------------------------------

    def repair(self, dataset: FairnessDataset, rng=None) -> np.ndarray:
        """Repair one request's rows; returns the repaired features.

        Bit-identical to ``repair_dataset(dataset, plan,
        rng=...).features``.
        """
        request = RepairRequest(dataset=dataset, rng=as_rng(rng))
        result = self.repair_many([request])[0]
        if isinstance(result, Exception):
            raise result
        return result

    def repair_many(self, requests) -> list:
        """Repair a micro-batch; element ``i`` is request ``i``'s
        repaired feature matrix, or the :class:`ReproError` it failed
        validation with (not raised — per-request isolation).

        One vectorised dispatch per distinct ``(u, s, k)`` cell across
        the whole batch; each request's variates come from its own
        generator, consumed in the offline loop's exact order.
        """
        results: list = [None] * len(requests)
        outputs: dict = {}
        work: dict = {}
        n_rows = 0
        for i, request in enumerate(requests):
            dataset = request.dataset
            try:
                cells = self._validate(dataset)
            except ReproError as exc:
                results[i] = exc
                continue
            outputs[i] = dataset.features.copy()
            n_rows += len(dataset)
            rng = request.rng
            # Mirrors repair_dataset's loop nest exactly — including its
            # random-stream consumption order — so seeded requests match
            # the offline path bitwise.
            for u, s, rows, kernels in cells:
                for k, prepared in enumerate(kernels):
                    values = dataset.features[rows, k]
                    variates = prepared.draw(rng, values.size)
                    work.setdefault((u, k, s), []).append(
                        (i, rows, k, values, variates))
        for key, items in work.items():
            prepared = self._prepared(key)
            values = np.concatenate([item[3] for item in items])
            variates = tuple(
                None if items[0][4][j] is None
                else np.concatenate([item[4][j] for item in items])
                for j in range(3))
            repaired = prepared.apply(values, variates)
            position = 0
            for (i, rows, k, segment, _) in items:
                outputs[i][rows, k] = \
                    repaired[position:position + segment.size]
                position += segment.size
        for i, matrix in outputs.items():
            results[i] = matrix
        with self._lock:
            self.n_requests += len(requests)
            self.n_errors += sum(isinstance(r, Exception) for r in results)
            self.n_rows += n_rows
            self.n_cell_dispatches += len(work)
            self.n_cell_items += sum(len(items) for items in work.values())
        return results

    def _prepared(self, key) -> PreparedFeatureRepair:
        u, k, s = key
        return self.cells.get_or_create(
            key, lambda: PreparedFeatureRepair(
                self.plan.feature_plan(u, k), s, rounding=self.rounding,
                output=self.output))

    def _validate(self, dataset: FairnessDataset) -> list:
        """Check one request against the plan before any of its
        randomness is drawn, so a request the plan cannot serve fails
        alone.  Returns its ``(u, s, rows, kernels)`` subgroups in the
        offline loop's order, with one kernel per feature; a subgroup
        whose ``(u, s)`` has no designed transport raises here."""
        if dataset.n_features != self.plan.n_features:
            raise ValidationError(
                f"dataset has {dataset.n_features} features, plan was "
                f"designed for {self.plan.n_features}")
        u_values = dataset.u_values
        missing = [int(u) for u in u_values
                   if not self.plan.covers(int(u))]
        if missing:
            raise ValidationError(
                f"plan has no design for groups u={missing}; re-run "
                "Algorithm 1 on research data covering them")
        return [(u, s, rows, [self._prepared((u, k, s))
                              for k in range(dataset.n_features)])
                for u, s, rows in _subgroup_rows(dataset, u_values)]

    def stats(self) -> dict:
        """Service counters + cache accounting."""
        with self._lock:
            dispatches = self.n_cell_dispatches
            merged = (self.n_cell_items / dispatches) if dispatches else 0.0
            out = {"requests": self.n_requests, "errors": self.n_errors,
                   "rows": self.n_rows, "cell_dispatches": dispatches,
                   "cell_items": self.n_cell_items,
                   "mean_merge": merged}
        out["cache"] = self.cells.stats()
        return out
