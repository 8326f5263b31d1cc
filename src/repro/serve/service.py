"""The repair service: warm plans, merged dispatches, accounting.

:class:`RepairService` is the process-local engine behind the ``repro
serve`` HTTP tier.  It wraps a loaded
:class:`~repro.core.plan.RepairPlan` — by default one mapped lazily by
``load_plan(path, mmap=True)``, so a worker builds only the cells its
requests touch — and repairs each micro-batch of requests with
:func:`repro.core.repair._repair_requests`, the Algorithm-2 loop the
offline :func:`~repro.core.repair.repair_dataset` runs on one request.
A corrupt cell of a mapped archive fails only the requests that touch
it, with the cell's :class:`~repro.exceptions.DataError`.

Bit-identity with the offline path is the contract: for any request
carrying a seed, the response equals
``repair_dataset(dataset, plan, rng=default_rng(seed))`` **bitwise**,
whether the request was served alone or merged into a micro-batch.
The trick is splitting randomness from arithmetic: each request's
uniform variates are drawn from its own generator in exactly the order
a lone call would consume them, and only the deterministic
element-wise kernel is applied to the concatenation — so a flush of
``R`` concurrent requests costs one vectorised dispatch per *distinct*
``(u, s, k)`` cell instead of one per request per cell.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .._validation import as_rng
from ..core.plan import RepairPlan
from ..core.repair import _check_modes, _repair_requests
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
    seeded request is reproducible regardless of batching.  Requests
    merged into one batch must not share a generator: each is consumed
    cell by cell, interleaved with the others' draws.
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

    Requests are repaired by :func:`repro.core.repair._repair_requests`,
    the loop :func:`~repro.core.repair.repair_dataset` runs, with the
    kernels every :class:`~repro.core.plan.FeaturePlan` keeps for all
    its callers.  A kernel holds ``O(n_Q)`` grid arrays and shares its
    transport's ``O(nnz)`` sampler, so the cells the service has
    touched bound its memory.

    Parameters
    ----------
    plan:
        The :class:`RepairPlan` to serve.
    rounding, output:
        The Algorithm-2 randomisation modes every request is served
        with (fixed per service so responses stay comparable).
    """

    def __init__(self, plan, *, rounding: str = "stochastic",
                 output: str = "sample") -> None:
        if not isinstance(plan, RepairPlan):
            raise ValidationError(
                "RepairService expects a RepairPlan, got "
                f"{type(plan).__name__}")
        _check_modes(rounding, output)
        self.plan = plan
        self.rounding = rounding
        self.output = output
        self._lock = threading.Lock()
        self._counts: Counter = Counter()

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
        results, counts = _repair_requests(
            self.plan, [(request.dataset, request.rng)
                        for request in requests],
            self.rounding, self.output)
        failed = [isinstance(result, Exception) for result in results]
        counts["requests"] = len(requests)
        counts["errors"] = sum(failed)
        counts["rows"] = sum(len(request.dataset) for request, bad
                             in zip(requests, failed) if not bad)
        with self._lock:
            self._counts.update(counts)
        return results

    def stats(self) -> dict:
        """Service counters, with the kernel lookups under ``cache``
        (a miss is a lookup that built the kernel)."""
        with self._lock:
            counts = self._counts.copy()
        dispatches = counts["cell_dispatches"]
        return {"requests": counts["requests"], "errors": counts["errors"],
                "rows": counts["rows"], "cell_dispatches": dispatches,
                "cell_items": counts["cell_items"],
                "mean_merge": (counts["cell_items"] / dispatches
                               if dispatches else 0.0),
                "cache": {"hits": counts["hits"],
                          "misses": counts["misses"]}}
