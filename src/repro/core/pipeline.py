"""End-to-end repair pipeline.

Glues together the pieces a practitioner needs: label estimation for
archives whose ``s`` was never recorded (Section IV requirement 5), the
Algorithm-1 design on the research data, batched Algorithm-2 repair of the
archive, and a before/after fairness evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._validation import as_rng
from ..data.dataset import FairnessDataset
from ..data.streaming import ArchiveStream, stream_batches
from ..exceptions import NotFittedError, ValidationError
from ..metrics.fairness import EnergyReport, conditional_dependence_energy
from .labels import SubgroupLabelModel
from .repair import DistributionalRepairer

__all__ = ["RepairReport", "RepairPipeline"]


@dataclass(frozen=True)
class RepairReport:
    """Before/after fairness summary for one repaired data set."""

    before: EnergyReport
    after: EnergyReport
    n_rows: int
    label_accuracy: float | None = None

    @property
    def reduction_factor(self) -> float:
        """``E_before / E_after`` (``inf`` for a perfect repair)."""
        if self.after.total <= 0.0:
            return float("inf")
        return self.before.total / self.after.total

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"E: {self.before.total:.4g} -> {self.after.total:.4g} "
                 f"({self.reduction_factor:.2f}x reduction, "
                 f"n={self.n_rows})"]
        if self.label_accuracy is not None:
            parts.append(f"label accuracy {self.label_accuracy:.3f}")
        return "; ".join(parts)


class RepairPipeline:
    """Research-to-archive repair with optional ``ŝ|u`` estimation.

    Parameters
    ----------
    estimate_labels:
        When true, a :class:`SubgroupLabelModel` is fitted on the research
        data and archival ``s`` labels are *replaced* by MAP estimates
        before repair — the realistic deployment where archives are
        ``s``-unlabelled.  When false (default), archival labels are
        trusted as given (the paper's experimental assumption).
    n_grid:
        Evaluation-grid resolution of the ``E`` estimator used in reports.
    **repairer_kwargs:
        Forwarded to :class:`DistributionalRepairer` (``n_states``, ``t``,
        ``solver``, ...).  ``solver`` accepts any OT-registry-resolvable
        spec — a registered name, a callable, or a
        :class:`~repro.ot.registry.Solver` — so the whole pipeline runs
        on any registered OT solver.  The Algorithm-1 design runs on the
        batched execution engine: batch-kernel solvers (the default
        ``"exact"``) solve all same-grid cells in one vectorised
        dispatch, and ``executor=`` (``"serial"`` / ``"thread"`` /
        ``"process"`` / ``"auto"``) with ``n_jobs`` fans the remaining
        per-cell work — these are the scale knobs for many-feature,
        large-``n_Q`` deployments.  Plans sparse enough for CSR are
        stored CSR without a knob.
    """

    def __init__(self, *, estimate_labels: bool = False, n_grid: int = 100,
                 rng=None, **repairer_kwargs) -> None:
        self.estimate_labels = estimate_labels
        self.n_grid = n_grid
        self._rng = as_rng(rng)
        self._repairer = DistributionalRepairer(rng=self._rng,
                                                **repairer_kwargs)
        self._label_model: SubgroupLabelModel | None = None

    @property
    def repairer(self) -> DistributionalRepairer:
        return self._repairer

    def design_diagnostics(self) -> dict:
        """Per-cell OT solver diagnostics of the fitted design.

        ``(u, k) -> {s -> OTResult summary}``; raises before ``fit``.
        """
        return self._repairer.plan.solver_diagnostics()

    @property
    def label_model(self) -> SubgroupLabelModel:
        if self._label_model is None:
            raise NotFittedError(
                "label model unavailable: pipeline not fitted or "
                "estimate_labels=False")
        return self._label_model

    def fit(self, research: FairnessDataset) -> "RepairPipeline":
        """Design the repair (and, optionally, the label model)."""
        self._repairer.fit(research)
        if self.estimate_labels:
            self._label_model = SubgroupLabelModel().fit(research)
        return self

    def repair(self, dataset: FairnessDataset, *,
               rng=None) -> FairnessDataset:
        """Repair one labelled (or label-estimated) data set."""
        prepared, _ = self._prepare(dataset)
        return self._repairer.transform(prepared, rng=rng)

    def repair_and_report(self, dataset: FairnessDataset, *,
                          rng=None) -> tuple[FairnessDataset, RepairReport]:
        """Repair and measure ``E`` before and after.

        The fairness measure is always evaluated against the labels used
        for the repair (estimated ones when ``estimate_labels``), which is
        what the repair can actually be held accountable for.
        """
        prepared, accuracy = self._prepare(dataset)
        before = conditional_dependence_energy(
            prepared.features, prepared.s, prepared.u, n_grid=self.n_grid)
        repaired = self._repairer.transform(prepared, rng=rng)
        after = conditional_dependence_energy(
            repaired.features, repaired.s, repaired.u, n_grid=self.n_grid)
        report = RepairReport(before=before, after=after,
                              n_rows=len(dataset),
                              label_accuracy=accuracy)
        return repaired, report

    def repair_stream(self, stream, *, rng=None):
        """Lazily repair an archival stream batch-by-batch."""
        generator = self._rng if rng is None else as_rng(rng)
        if isinstance(stream, FairnessDataset):
            raise ValidationError(
                "pass an ArchiveStream or iterable of batches; for a "
                "materialised dataset use repair()")
        iterator = stream if isinstance(stream, ArchiveStream) else iter(stream)
        for batch in iterator:
            prepared, _ = self._prepare(batch)
            yield self._repairer.transform(prepared, rng=generator)

    def _prepare(self, dataset: FairnessDataset
                 ) -> tuple[FairnessDataset, float | None]:
        if not self._repairer.is_fitted:
            raise NotFittedError("RepairPipeline.fit must be called first")
        if not self.estimate_labels:
            return dataset, None
        model = self.label_model
        accuracy = model.accuracy(dataset)
        return model.label_archive(dataset), accuracy
