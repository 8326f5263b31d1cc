"""The repair service: warm plans, merged dispatches, accounting.

:class:`RepairService` is the process-local engine behind the ``repro
serve`` HTTP tier.  It wraps a loaded plan — a
:class:`~repro.core.plan.RepairPlan` or a lazy
:class:`~repro.core.serialize.ShardedPlanArchive` — and repairs request
batches through :class:`~repro.core.repair.PreparedFeatureRepair`
kernels kept hot in a bounded :class:`~repro.core.cache.LRUCache`.

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
from ..core.repair import (OUTPUT_MODES, ROUNDING_MODES,
                           PreparedFeatureRepair)
from ..core.serialize import ShardedPlanArchive, load_plan, _is_manifest
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
        A :class:`RepairPlan` or :class:`ShardedPlanArchive` (anything
        with ``n_features`` / ``covers`` / ``feature_plan``).
    rounding, output:
        The Algorithm-2 randomisation modes every request is served
        with (fixed per service so responses stay comparable).
    cache_size:
        Bound on resident :class:`PreparedFeatureRepair` kernels — the
        per-``(u, s, k)`` sampling state (dense row-CDF tables are
        ``O(n_Q²)`` each).  Eviction is LRU; evicted cells rebuild on
        next use.
    """

    def __init__(self, plan, *, rounding: str = "stochastic",
                 output: str = "sample", cache_size: int = 256) -> None:
        if not isinstance(plan, (RepairPlan, ShardedPlanArchive)):
            raise ValidationError(
                "RepairService expects a RepairPlan or "
                f"ShardedPlanArchive, got {type(plan).__name__}")
        if rounding not in ROUNDING_MODES:
            raise ValidationError(
                f"unknown rounding {rounding!r}; expected {ROUNDING_MODES}")
        if output not in OUTPUT_MODES:
            raise ValidationError(
                f"unknown output {output!r}; expected {OUTPUT_MODES}")
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
                  max_shards: int | None = None,
                  **kwargs) -> "RepairService":
        """Build a service from a plan archive or shard manifest.

        Archives are memory-mapped by default (near-instant start-up,
        plan bytes shared across worker processes through the page
        cache); manifests stay *lazy* — each shard is mapped the first
        time one of its cells is requested, bounded by ``max_shards``.
        """
        from pathlib import Path

        file_path = Path(path)
        if not file_path.exists():
            raise DataError(f"plan file not found: {file_path}")
        if _is_manifest(file_path):
            plan = ShardedPlanArchive(file_path, mmap=mmap,
                                      max_shards=max_shards)
        else:
            plan = load_plan(file_path, mmap=mmap)
        return cls(plan, **kwargs)

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
                self._validate(dataset)
            except ReproError as exc:
                results[i] = exc
                continue
            outputs[i] = dataset.features.copy()
            n_rows += len(dataset)
            rng = request.rng
            # Mirrors repair_dataset's loop nest exactly — including its
            # random-stream consumption order — so seeded requests match
            # the offline path bitwise.
            for u in dataset.u_values:
                for s in (0, 1):
                    mask = dataset.group_mask(int(u), s)
                    if not mask.any():
                        continue
                    for k in range(dataset.n_features):
                        key = (int(u), k, s)
                        prepared = self._prepared(key)
                        values = dataset.features[mask, k]
                        variates = prepared.draw(rng, values.size)
                        work.setdefault(key, []).append(
                            (i, mask, k, values, variates))
        for key, items in work.items():
            prepared = self._prepared(key)
            values = np.concatenate([item[3] for item in items])
            variates = tuple(
                None if items[0][4][j] is None
                else np.concatenate([item[4][j] for item in items])
                for j in range(3))
            repaired = prepared.apply(values, variates)
            position = 0
            for (i, mask, k, segment, _) in items:
                outputs[i][mask, k] = \
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

    def _validate(self, dataset: FairnessDataset) -> None:
        if dataset.n_features != self.plan.n_features:
            raise ValidationError(
                f"dataset has {dataset.n_features} features, plan was "
                f"designed for {self.plan.n_features}")
        missing = [int(u) for u in dataset.u_values
                   if not self.plan.covers(int(u))]
        if missing:
            raise ValidationError(
                f"plan has no design for groups u={missing}; re-run "
                "Algorithm 1 on research data covering them")

    def stats(self) -> dict:
        """Service counters + cache (and shard) accounting."""
        with self._lock:
            dispatches = self.n_cell_dispatches
            merged = (self.n_cell_items / dispatches) if dispatches else 0.0
            out = {"requests": self.n_requests, "errors": self.n_errors,
                   "rows": self.n_rows, "cell_dispatches": dispatches,
                   "cell_items": self.n_cell_items,
                   "mean_merge": merged}
        out["cache"] = self.cells.stats()
        shard_stats = getattr(self.plan, "stats", None)
        if callable(shard_stats):
            out["shards"] = shard_stats()
        return out
