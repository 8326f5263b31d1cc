"""The labelled observation container used throughout the library.

:class:`FairnessDataset` is the paper's composite data object: a feature
matrix ``X``, binary protected labels ``S``, binary unprotected labels
``U`` and (optionally) classifier targets ``Y``.  It supports the central
operation of the paper — splitting into a small, fully-labelled *research*
set and a large *archival* set — plus the ``(u, s)`` group indexing that
Algorithms 1 and 2 iterate over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._validation import as_2d_array, as_rng, check_in_range
from ..exceptions import DataError, ValidationError
from .schema import TableSchema

__all__ = ["FairnessDataset", "ResearchArchiveSplit"]


@dataclass(frozen=True)
class ResearchArchiveSplit:
    """The research/archive pair produced by :meth:`FairnessDataset.split`."""

    research: "FairnessDataset"
    archive: "FairnessDataset"

    @property
    def n_research(self) -> int:
        return len(self.research)

    @property
    def n_archive(self) -> int:
        return len(self.archive)

    @property
    def research_fraction(self) -> float:
        total = self.n_research + self.n_archive
        return self.n_research / total if total else 0.0


def _as_labels(values, name: str) -> np.ndarray:
    """``values`` as a flat int array.  Integer and bool input passes
    straight through; any other input must hold finite whole numbers, so
    a label such as ``s = 0.5`` is an error rather than silently group 0.
    """
    labels = np.asarray(values).ravel()
    if labels.dtype.kind in "biu":
        return labels.astype(int)
    labels = labels.astype(float)
    whole = np.isfinite(labels) & (labels == np.trunc(labels))
    if not whole.all():
        raise DataError(f"{name} must hold whole numbers, got "
                        f"{labels[~whole][0]}")
    return labels.astype(int)


def _is_binary(labels: np.ndarray) -> bool:
    """True when every label is 0 or 1.  Two comparisons allocate ~2
    bytes of temporaries per label, where ``np.isin`` took ~17."""
    return bool(((labels == 0) | (labels == 1)).all())


def _distinct(labels: np.ndarray) -> np.ndarray:
    """``np.unique(labels)`` by sorting: numpy >= 2.3 hashes integer
    input in ``np.unique``, ~12x slower on a 16,384-label batch (347
    against 29 µs, 2-core VM, numpy 2.4.6)."""
    ordered = np.sort(labels)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


@dataclass(frozen=True)
class FairnessDataset:
    """Immutable ``(X, S, U[, Y])`` container with group utilities.

    Attributes
    ----------
    features:
        ``(n, d)`` observation matrix ``X``.
    s:
        Binary protected attribute per row.
    u:
        Binary (or small-integer) unprotected attribute per row.
    y:
        Optional binary outcome labels.
    schema:
        Column schema; generated automatically when omitted.
    """

    features: np.ndarray
    s: np.ndarray
    u: np.ndarray
    y: np.ndarray | None = None
    schema: TableSchema | None = None

    def __post_init__(self) -> None:
        x = as_2d_array(self.features, name="features")
        s = _as_labels(self.s, "protected attribute s")
        u = _as_labels(self.u, "unprotected attribute u")
        if s.size != x.shape[0] or u.size != x.shape[0]:
            raise DataError(
                f"features ({x.shape[0]} rows) and labels (s: {s.size}, "
                f"u: {u.size}) are misaligned")
        if not _is_binary(s):
            raise DataError("protected attribute s must be binary (0/1)")
        if np.any(u < 0):
            raise DataError("unprotected attribute u must be non-negative")
        y = self.y
        if y is not None:
            y = _as_labels(y, "y labels")
            if y.size != x.shape[0]:
                raise DataError("y labels misaligned with features")
            if not _is_binary(y):
                raise DataError("y labels must be binary (0/1)")
        schema = self.schema
        if schema is None:
            schema = TableSchema.from_names(
                [f"x{k}" for k in range(x.shape[1])])
        if schema.n_features != x.shape[1]:
            raise DataError(
                f"schema has {schema.n_features} features, matrix has "
                f"{x.shape[1]}")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "schema", schema)

    @classmethod
    def _trusted(cls, features: np.ndarray, s: np.ndarray, u: np.ndarray,
                 y: np.ndarray | None,
                 schema: TableSchema) -> "FairnessDataset":
        """Wrap *pre-validated* arrays without the ``__post_init__``
        checks, copies or label conversion.

        For internal hot paths only (archive batches, repaired
        features): the caller guarantees what the validated constructor
        would establish — a finite float ``(n, d)`` matrix, flat int
        ``s``/``u`` (and ``y``) labels of length ``n`` from an already
        validated data set, and that data set's schema.
        """
        dataset = cls.__new__(cls)
        object.__setattr__(dataset, "features", features)
        object.__setattr__(dataset, "s", s)
        object.__setattr__(dataset, "u", u)
        object.__setattr__(dataset, "y", y)
        object.__setattr__(dataset, "schema", schema)
        return dataset

    # -- basics -------------------------------------------------------------

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def feature_names(self) -> tuple:
        return self.schema.feature_names

    @property
    def u_values(self) -> np.ndarray:
        """Distinct unprotected-group labels, sorted."""
        return _distinct(self.u)

    @property
    def s_values(self) -> np.ndarray:
        return _distinct(self.s)

    def take(self, indices) -> "FairnessDataset":
        """Row subset preserving labels, outcomes and schema."""
        idx = np.asarray(indices)
        return FairnessDataset(
            self.features[idx], self.s[idx], self.u[idx],
            self.y[idx] if self.y is not None else None, self.schema)

    def with_features(self, features) -> "FairnessDataset":
        """Same rows/labels, new (repaired) feature matrix."""
        return FairnessDataset(features, self.s, self.u, self.y, self.schema)

    def concat(self, other: "FairnessDataset") -> "FairnessDataset":
        """Row-wise concatenation (schemas must agree on arity)."""
        if other.n_features != self.n_features:
            raise DataError(
                "cannot concat datasets with different feature arity "
                f"({self.n_features} != {other.n_features})")
        y = None
        if self.y is not None and other.y is not None:
            y = np.concatenate([self.y, other.y])
        return FairnessDataset(
            np.vstack([self.features, other.features]),
            np.concatenate([self.s, other.s]),
            np.concatenate([self.u, other.u]),
            y, self.schema)

    # -- group indexing (the (u, s) partition of Algorithms 1-2) -------------

    def group_mask(self, u: int, s: int | None = None) -> np.ndarray:
        """Boolean row mask of one ``u`` group or one ``(u, s)`` subgroup."""
        mask = self.u == u
        if s is not None:
            mask = mask & (self.s == s)
        return mask

    def group(self, u: int, s: int | None = None) -> "FairnessDataset":
        """Subset for a ``u`` group or ``(u, s)`` subgroup."""
        return self.take(np.flatnonzero(self.group_mask(u, s)))

    def group_sizes(self) -> dict:
        """Mapping ``(u, s) -> row count`` over all present subgroups."""
        sizes: dict = {}
        for u in self.u_values:
            for s in (0, 1):
                count = int(np.sum(self.group_mask(int(u), s)))
                if count:
                    sizes[(int(u), s)] = count
        return sizes

    def group_weights(self) -> dict:
        """Empirical ``Pr[u]`` per unprotected group."""
        return {int(g): float(np.mean(self.u == g)) for g in self.u_values}

    # -- the research/archive split ------------------------------------------

    def split(self, n_research: int | None = None, *,
              research_fraction: float | None = None,
              stratify: bool = True, rng=None) -> ResearchArchiveSplit:
        """Split into research (labelled, small) and archive (large) sets.

        Parameters
        ----------
        n_research:
            Absolute research-set size; mutually exclusive with
            ``research_fraction``.
        stratify:
            When true (default), sample the research set proportionally
            from each ``(u, s)`` subgroup so every OT plan has design data —
            mirroring the paper's assumption that the research set is
            representative.
        """
        n = len(self)
        if (n_research is None) == (research_fraction is None):
            raise ValidationError(
                "specify exactly one of n_research / research_fraction")
        if research_fraction is not None:
            check_in_range(research_fraction, name="research_fraction",
                           low=0.0, high=1.0, inclusive=False)
            n_research = int(round(research_fraction * n))
        if not 0 < n_research < n:
            raise ValidationError(
                f"n_research must be in (0, {n}), got {n_research}")

        generator = as_rng(rng)
        if stratify:
            research_idx = self._stratified_indices(n_research, generator)
        else:
            research_idx = generator.choice(n, size=n_research, replace=False)
        mask = np.zeros(n, dtype=bool)
        mask[research_idx] = True
        return ResearchArchiveSplit(
            research=self.take(np.flatnonzero(mask)),
            archive=self.take(np.flatnonzero(~mask)))

    def _stratified_indices(self, n_research: int,
                            generator: np.random.Generator) -> np.ndarray:
        """Proportional allocation of research rows across (u, s) groups.

        Uses largest-remainder rounding so the total is exact, and
        guarantees at least one research row per non-empty subgroup when
        the budget allows.
        """
        groups = [(u, s, np.flatnonzero(self.group_mask(int(u), s)))
                  for u in self.u_values for s in (0, 1)]
        groups = [(u, s, idx) for (u, s, idx) in groups if idx.size > 0]
        n = len(self)
        quotas = np.array([idx.size * n_research / n
                           for (_, _, idx) in groups])
        counts = np.floor(quotas).astype(int)
        if len(groups) <= n_research:
            counts = np.maximum(counts, 1)
        counts = np.minimum(counts,
                            [idx.size for (_, _, idx) in groups])
        remainder = n_research - counts.sum()
        order = np.argsort(-(quotas - np.floor(quotas)))
        for position in order:
            if remainder <= 0:
                break
            capacity = groups[position][2].size - counts[position]
            bump = min(capacity, remainder)
            counts[position] += bump
            remainder -= bump
        chosen = [generator.choice(idx, size=int(count), replace=False)
                  for (_, _, idx), count in zip(groups, counts)
                  if count > 0]
        return np.concatenate(chosen) if chosen else np.array([], dtype=int)
