"""Transport-plan container with marginal verification.

A Kantorovich optimal transport plan is a joint distribution ``π`` over the
product of two discrete supports whose marginals equal the prescribed source
and target distributions (paper Eq. 5).  :class:`TransportPlan` wraps the
matrix together with its supports, checks the coupling constraints, and
offers the operations the repair algorithms need: conditional rows
(Eq. 15), barycentric projection (Eqs. 8-9), and transport cost.

Storage is dual-mode: the plan matrix is either a dense ``(n, m)`` array or
a CSR sparse array (:class:`scipy.sparse.csr_array`).  Exact monotone
plans are staircases with at most ``n + m - 1`` non-zeros, and the
``"exact"`` solver emits them as CSR straight from its kernel, so no
``(n, m)`` array exists anywhere on the default path.  Simplex and
screened plans are CSR below :data:`SPARSE_DENSITY_THRESHOLD` density;
entropic and LP plans are dense.  Every operation below (conditionals,
barycentric projection, inverse-CDF sampling) has a sparse path that
never densifies.
Build sparse plans explicitly with :meth:`TransportPlan.from_sparse` or
convert with :meth:`TransportPlan.to_sparse` /
:meth:`TransportPlan.to_dense`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse as _sparse

from .._validation import as_1d_array, as_probability_vector
from ..density.grid import GUESS_CROSSOVER
from ..exceptions import ValidationError

__all__ = ["TransportPlan", "marginal_residual", "is_coupling",
           "sample_conditional_rows", "conditional_cumulative",
           "dilate_mask", "refine_mask", "band_bounds", "is_banded",
           "SPARSE_DENSITY_THRESHOLD"]

#: Forward steps the CSR draw (:func:`_sample_csr_entries`) scans before
#: handing a draw to the binary search.  The scan stops once every draw
#: has settled, so the limit only matters for rows wider than it.  The
#: exact solver's staircase rows hold at most 5 entries on both
#: benchmark designs, which four steps settle (LP and screened plans are
#: staircase-like too: at most 8 entries seen).  Measured on a
#: 2-core VM (numpy 2.4.6) over 4,096 fresh draws, µs at limits
#: 1/2/4/6 against the binary search: the n_Q = 50 staircase
#: 97/102/100/101 vs 326; rows of 1-3 entries 199/75/75/75 vs 420;
#: rows of 1-10 entries 462/396/299/208 vs 491.  Rows of 40 or more
#: entries, which only an entropic plan stored as CSR has, cost
#: 1.1-1.2x the binary search at any limit.
CSR_SCAN_STEPS = 4

#: Below this fraction of structural non-zeros a plan is worth storing as
#: CSR: the triplet arrays (data + indices + indptr) then undercut the
#: dense buffer by at least ~2x even counting the int64 index overhead.
SPARSE_DENSITY_THRESHOLD = 0.25


def _row_sums(matrix) -> np.ndarray:
    if _sparse.issparse(matrix):
        return np.asarray(matrix.sum(axis=1)).ravel()
    return matrix.sum(axis=1)


def _col_sums(matrix) -> np.ndarray:
    if _sparse.issparse(matrix):
        return np.asarray(matrix.sum(axis=0)).ravel()
    return matrix.sum(axis=0)


def _inner_product(matrix, cost: np.ndarray) -> float:
    """``<C, π>`` for a dense or CSR plan, without densifying."""
    if _sparse.issparse(matrix):
        row_of = np.repeat(np.arange(matrix.shape[0]),
                           np.diff(matrix.indptr))
        return float((cost[row_of, matrix.indices] * matrix.data).sum())
    return float(np.sum(cost * matrix))


def marginal_residual(matrix, source_weights: np.ndarray,
                      target_weights: np.ndarray) -> float:
    """Max-norm violation of the coupling constraints of ``matrix``
    (dense array or scipy sparse)."""
    row_err = np.abs(_row_sums(matrix) - source_weights).max()
    col_err = np.abs(_col_sums(matrix) - target_weights).max()
    return float(max(row_err, col_err))


def is_coupling(matrix, source_weights: np.ndarray,
                target_weights: np.ndarray, *, atol: float = 1e-6) -> bool:
    """True when ``matrix`` couples the two weight vectors within ``atol``."""
    if _sparse.issparse(matrix):
        if matrix.nnz and float(matrix.data.min()) < -atol:
            return False
    elif np.any(matrix < -atol):
        return False
    return marginal_residual(matrix, source_weights, target_weights) <= atol


def dilate_mask(mask, radius: int = 1) -> np.ndarray:
    """Binary dilation of a boolean matrix by a Chebyshev ``radius``.

    Every ``True`` entry spreads to its ``(2·radius + 1)²`` neighbourhood
    (clipped at the matrix edges).  This is the support-propagation step
    of the multiscale solver: an active coarse-plan cell licenses its
    whole coarse neighbourhood before the mask is refined onto the fine
    grid, so the exact fine-level optimum may deviate from the coarse
    plan by up to ``radius`` coarse cells in any direction.

    >>> import numpy as np
    >>> mask = np.zeros((3, 4), dtype=bool)
    >>> mask[1, 1] = True
    >>> dilate_mask(mask, radius=1).astype(int)
    array([[1, 1, 1, 0],
           [1, 1, 1, 0],
           [1, 1, 1, 0]])
    >>> bool(np.array_equal(dilate_mask(mask, radius=0), mask))
    True
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValidationError(
            f"mask must be 2-D, got shape {mask.shape}")
    if radius < 0:
        raise ValidationError(f"radius must be >= 0, got {radius}")
    if radius == 0:
        return mask.copy()
    from scipy import ndimage
    structure = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
    return ndimage.binary_dilation(mask, structure=structure)


def refine_mask(coarse_mask, row_bins, col_bins) -> np.ndarray:
    """Expand a coarse support mask onto the fine grid.

    ``row_bins[i]`` / ``col_bins[j]`` give the coarse bin of fine source
    point ``i`` / fine target point ``j``; fine entry ``(i, j)`` is
    allowed exactly when its coarse cell ``(row_bins[i], col_bins[j])``
    is allowed.  This is the refinement step of the multiscale solver:
    the dilated coarse support becomes the ``support_mask`` of the
    restricted fine LP.

    >>> import numpy as np
    >>> coarse = np.array([[True, False], [False, True]])
    >>> refine_mask(coarse, [0, 0, 1], [0, 1]).astype(int)
    array([[1, 0],
           [1, 0],
           [0, 1]])
    """
    coarse_mask = np.asarray(coarse_mask, dtype=bool)
    row_bins = np.asarray(row_bins, dtype=np.intp)
    col_bins = np.asarray(col_bins, dtype=np.intp)
    if coarse_mask.ndim != 2:
        raise ValidationError(
            f"coarse_mask must be 2-D, got shape {coarse_mask.shape}")
    for bins, axis_size, name in ((row_bins, coarse_mask.shape[0], "row"),
                                  (col_bins, coarse_mask.shape[1], "col")):
        if bins.ndim != 1:
            raise ValidationError(f"{name}_bins must be 1-D")
        if bins.size and (bins.min() < 0 or bins.max() >= axis_size):
            raise ValidationError(
                f"{name}_bins indices out of range for coarse_mask axis "
                f"of size {axis_size}")
    return coarse_mask[np.ix_(row_bins, col_bins)]


def _band_hull(rows, cols, shape):
    """Shared arc-list scan behind :func:`band_bounds` / :func:`is_banded`.

    Returns ``(lower, upper, counts)`` per-row arrays, or ``None`` when
    some row holds no arc (no interval hull exists there).
    """
    rows = np.asarray(rows, dtype=np.intp).ravel()
    cols = np.asarray(cols, dtype=np.intp).ravel()
    if rows.size != cols.size:
        raise ValidationError(
            f"rows and cols must be parallel arrays, got sizes "
            f"{rows.size} and {cols.size}")
    n, m = int(shape[0]), int(shape[1])
    if n <= 0 or m <= 0:
        raise ValidationError(f"shape must be positive, got {shape!r}")
    if rows.size == 0:
        return None
    if (rows.min() < 0 or rows.max() >= n
            or cols.min() < 0 or cols.max() >= m):
        raise ValidationError(
            f"arc indices out of range for shape {(n, m)}")
    keys = rows.astype(np.int64) * m + cols
    if keys.size > 1 and np.any(np.diff(keys) <= 0):
        keys = np.unique(keys)
        rows, cols = keys // m, keys % m
    counts = np.bincount(rows, minlength=n)
    if np.any(counts == 0):
        return None
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    lower = cols[starts]
    upper = cols[starts + counts - 1]
    return lower, upper, counts


def band_bounds(rows, cols, shape) -> tuple[np.ndarray, np.ndarray]:
    """Per-row column interval hull ``(lower, upper)`` of an arc list.

    ``rows`` / ``cols`` are parallel index arrays naming the allowed
    entries of an ``(n, m)`` support; entry order does not matter and
    duplicates are tolerated.  Row ``i``'s arcs all lie inside
    ``[lower[i], upper[i]]`` (inclusive).  Every row must hold at least
    one arc — the multiscale/screened supports always do, since the
    north-west-corner feasibility staircase visits every row.

    >>> import numpy as np
    >>> lo, hi = band_bounds([0, 0, 1, 1], [0, 1, 1, 2], (2, 3))
    >>> lo.tolist(), hi.tolist()
    ([0, 1], [1, 2])
    """
    hull = _band_hull(rows, cols, shape)
    if hull is None:
        raise ValidationError(
            "band_bounds needs at least one arc in every row; union a "
            "feasibility staircase (north_west_corner_support) first")
    lower, upper, _ = hull
    return lower, upper


def is_banded(rows, cols, shape) -> bool:
    """True when an arc list is exactly a monotone contiguous band.

    Certifies the structure the ``"banded"`` restricted engine needs
    (:func:`repro.ot.onedim.banded_monotone_transport`): every row's
    columns fill the contiguous interval ``[lower[i], upper[i]]`` with
    no holes, and both endpoint sequences are non-decreasing — the
    support is a staircase-shaped band.  Duplicate arcs are deduped
    before the contiguity count, and any row without arcs fails the
    certificate (no interval hull exists there).

    >>> import numpy as np
    >>> is_banded([0, 0, 1, 1], [0, 1, 1, 2], (2, 3))
    True
    >>> is_banded([0, 0, 1], [0, 2, 1], (2, 3))     # hole in row 0
    False
    >>> is_banded([0, 1], [1, 0], (2, 2))           # bounds decrease
    False
    """
    hull = _band_hull(rows, cols, shape)
    if hull is None:
        return False
    lower, upper, counts = hull
    if np.any(counts != upper - lower + 1):
        return False
    return (bool(np.all(np.diff(lower) >= 0))
            and bool(np.all(np.diff(upper) >= 0)))


def conditional_cumulative(conditionals) -> np.ndarray:
    """The zero-prefixed running sum over a CSR conditional matrix's data
    — the exact layout :func:`sample_conditional_rows` expects as its
    ``cumulative`` argument.  Hot callers compute it once per matrix and
    cache it; this helper is the single definition of that contract.
    """
    return np.concatenate([[0.0], np.cumsum(conditionals.data,
                                            dtype=float)])


def sample_conditional_rows(conditionals, rows, uniforms, *,
                            cumulative=None) -> np.ndarray:
    """Vectorised inverse-CDF draw from selected rows of a row-stochastic
    matrix (paper Eq. 15), one target state per ``(row, uniform)`` pair.

    ``conditionals`` is a dense array or CSR sparse array whose rows each
    sum to one.  The sparse path works on the CSR data directly and never
    densifies: each draw walks its row's running cumulative sums forward
    from the row's first entry, an expected ``O(1)`` on a staircase plan,
    and small dispatches or draws in wide rows take one binary search
    over those sums instead (see :func:`_sample_csr_entries`; both give
    the same state).  ``cumulative`` optionally supplies that
    precomputed running sum (``np.concatenate([[0], np.cumsum(data)])``)
    so hot callers (Algorithm 2's batch loop) can cache it.
    """
    rows = np.asarray(rows)
    uniforms = np.asarray(uniforms, dtype=float)
    if _sparse.issparse(conditionals):
        matrix = conditionals
        if matrix.format != "csr":
            matrix = _sparse.csr_array(matrix)
        first = matrix.indptr[rows]
        last = matrix.indptr[rows + 1] - 1
        if np.any(last < first):
            raise ValidationError(
                "conditional matrix has empty rows; normalise it with "
                "TransportPlan.conditional_matrix() first")
        if cumulative is None:
            cumulative = conditional_cumulative(matrix)
        return _sample_csr_entries(matrix.indices, cumulative, first, last,
                                   cumulative[first], uniforms)
    cdfs = np.cumsum(conditionals[rows], axis=1)
    cdfs[:, -1] = 1.0  # guard round-off (< 1.0 row sums)
    states = (cdfs < uniforms[:, None]).sum(axis=1)
    return np.minimum(states, conditionals.shape[1] - 1)


def _sample_csr_entries(indices, cumulative, first, last, before,
                        uniforms) -> np.ndarray:
    """The CSR inverse-CDF draw behind :func:`sample_conditional_rows`,
    given each draw's row as its ``first`` / ``last`` stored entry and
    the running mass ``before`` it (``cumulative[first]``).  Callers
    that sample one table many times (a prepared Algorithm-2 kernel)
    tabulate those per row once and gather them per call.

    Row r's CDF at its j-th stored entry is ``cum[first+j+1] -
    cum[first]``; the sampled entry is ``first`` plus the count of
    entries whose CDF is below ``u``, clamped into the row against
    round-off.  From :data:`~repro.density.grid.GUESS_CROSSOVER` draws
    on, that count comes from a forward scan: start at ``first`` and
    advance while ``cumulative[entry + 1] < before + u`` and
    ``entry < last``.  A staircase row of the exact solver holds a
    handful of entries (at most 5 on the benchmark designs), so nearly
    every draw settles within :data:`CSR_SCAN_STEPS` steps; draws still
    unsettled after them (rows wider than the limit) take the binary
    search, as do smaller dispatches and rows broadcast against the
    draws.  Because the running sums never decrease, the scan stops
    at the entry the binary search finds, so both give the same entry
    bitwise.
    """
    target = before + uniforms
    if target.size < GUESS_CROSSOVER or np.shape(first) != target.shape:
        return indices[_search_entries(cumulative, first, last, target)]
    following = cumulative[1:]
    entry = first.copy()
    for _ in range(CSR_SCAN_STEPS):
        step = following[entry] < target
        step &= entry < last
        if not step.any():
            return indices[entry]
        entry += step
    unsettled = following[entry] < target
    unsettled &= entry < last
    if unsettled.any():
        entry[unsettled] = _search_entries(
            cumulative, first[unsettled], last[unsettled],
            target[unsettled])
    return indices[entry]


def _search_entries(cumulative, first, last, target) -> np.ndarray:
    """The binary-search form of :func:`_sample_csr_entries`: the last
    entry whose running sum is below ``target``, clamped into
    ``[first, last]``."""
    entry = np.searchsorted(cumulative, target, side="left") - 1
    np.maximum(entry, first, out=entry)
    np.minimum(entry, last, out=entry)
    return entry


#: A minimal CSR array built by scipy's own constructor; trusted CSR
#: plans start from a copy of its instance attributes.
_CSR_TEMPLATE = _sparse.csr_array((1, 1))


def _csr_from_canonical(data: np.ndarray, indices: np.ndarray,
                        indptr: np.ndarray, shape: tuple):
    """A :class:`scipy.sparse.csr_array` over canonical CSR triplets,
    assembled without scipy's constructor checks.

    The caller guarantees what scipy would otherwise check: ``indptr``
    has ``n + 1`` non-decreasing entries ending at ``data.size``, every
    row's column indices are sorted and unique and lie in ``[0, m)``,
    and ``indices`` and ``indptr`` share one integer dtype.  On a
    50-state plan the public constructor's checks cost as much as the
    rest of the exact solve's CSR assembly.
    """
    matrix = _sparse.csr_array.__new__(_sparse.csr_array)
    vars(matrix).update(vars(_CSR_TEMPLATE))
    matrix._shape = (int(shape[0]), int(shape[1]))
    matrix.data = data
    matrix.indices = indices
    matrix.indptr = indptr
    return matrix


@dataclass(frozen=True)
class TransportPlan:
    """An optimal (or candidate) transport plan between discrete measures.

    Attributes
    ----------
    matrix:
        ``(n, m)`` joint probability matrix ``π`` — a dense
        :class:`numpy.ndarray` or a :class:`scipy.sparse.csr_array`
        (any scipy sparse input is normalised to CSR).
    source_support, target_support:
        Support points of the two marginals, shape ``(n, d)`` / ``(m, d)``;
        1-D supports are stored as ``(n, 1)``.
    cost:
        Expected transport cost ``<C, π>`` when the plan was produced by a
        solver, else ``nan``.
    """

    matrix: np.ndarray
    source_support: np.ndarray
    target_support: np.ndarray
    cost: float = float("nan")
    _atol: float = field(default=1e-6, repr=False)

    def __post_init__(self) -> None:
        if _sparse.issparse(self.matrix):
            matrix = _sparse.csr_array(self.matrix, copy=True)
            if matrix.dtype != np.float64:
                matrix = matrix.astype(float)
            if matrix.nnz and float(matrix.data.min()) < -self._atol:
                raise ValidationError("plan matrix must be non-negative")
            np.clip(matrix.data, 0.0, None, out=matrix.data)
        else:
            matrix = np.asarray(self.matrix, dtype=float)
            if matrix.ndim != 2:
                raise ValidationError(
                    f"plan matrix must be 2-D, got shape {matrix.shape}")
            if np.any(matrix < -self._atol):
                raise ValidationError("plan matrix must be non-negative")
            matrix = np.clip(matrix, 0.0, None)
        source = _as_support(self.source_support, matrix.shape[0], "source")
        target = _as_support(self.target_support, matrix.shape[1], "target")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "source_support", source)
        object.__setattr__(self, "target_support", target)

    # -- storage -----------------------------------------------------------

    @property
    def is_sparse(self) -> bool:
        """True when the plan matrix is CSR-backed."""
        return _sparse.issparse(self.matrix)

    @property
    def nnz(self) -> int:
        """Stored non-zero entries (dense plans count exact non-zeros)."""
        if self.is_sparse:
            return int(self.matrix.nnz)
        return int(np.count_nonzero(self.matrix))

    @property
    def density(self) -> float:
        """``nnz / (n * m)`` — the fraction of the plan that carries mass."""
        n, m = self.shape
        return self.nnz / float(n * m)

    def toarray(self) -> np.ndarray:
        """The plan as a dense array (a copy when CSR-backed)."""
        if self.is_sparse:
            return self.matrix.toarray()
        return self.matrix

    def to_sparse(self) -> "TransportPlan":
        """CSR-backed copy of this plan (self when already sparse)."""
        if self.is_sparse:
            return self
        return TransportPlan(_sparse.csr_array(self.matrix),
                             self.source_support, self.target_support,
                             self.cost)

    def to_dense(self) -> "TransportPlan":
        """Densely stored copy of this plan (self when already dense)."""
        if not self.is_sparse:
            return self
        return TransportPlan(self.matrix.toarray(), self.source_support,
                             self.target_support, self.cost)

    @classmethod
    def _trusted(cls, matrix: np.ndarray, source_support: np.ndarray,
                 target_support: np.ndarray,
                 cost: float) -> "TransportPlan":
        """Wrap *pre-validated* ingredients without the ``__post_init__``
        checks or the defensive clip/copy.

        For internal hot paths only (the monotone kernel, which passes
        a CSR matrix from :func:`_csr_from_canonical`, so neither this
        class nor scipy re-validates its plans): the caller guarantees a
        non-negative float ``(n, m)`` matrix — dense or CSR — and
        canonical ``(n, 1)``-shaped float supports.  Field values are
        identical to what the validated constructor would store — the
        clip of a non-negative matrix is a value-preserving copy — so
        trusted and validated plans are interchangeable bitwise.
        """
        plan = cls.__new__(cls)
        object.__setattr__(plan, "matrix", matrix)
        object.__setattr__(plan, "source_support", source_support)
        object.__setattr__(plan, "target_support", target_support)
        object.__setattr__(plan, "cost", cost)
        object.__setattr__(plan, "_atol", 1e-6)
        return plan

    @classmethod
    def from_sparse(cls, matrix, source_support, target_support,
                    cost: float = float("nan"), *,
                    shape=None) -> "TransportPlan":
        """Build a CSR-backed plan from sparse ingredients.

        ``matrix`` is any scipy sparse matrix/array, or a CSR triplet
        ``(data, indices, indptr)`` — the layout :func:`repro.core.
        serialize.save_plan` persists — in which case ``shape`` is
        required.
        """
        if isinstance(matrix, tuple) and len(matrix) == 3:
            if shape is None:
                raise ValidationError(
                    "from_sparse needs an explicit shape with a "
                    "(data, indices, indptr) triplet")
            matrix = _sparse.csr_array(matrix, shape=shape)
        elif not _sparse.issparse(matrix):
            matrix = _sparse.csr_array(np.asarray(matrix, dtype=float))
        return cls(matrix, source_support, target_support, cost)

    # -- marginals ---------------------------------------------------------

    @property
    def source_weights(self) -> np.ndarray:
        """Row sums: the source marginal ``µ``."""
        return _row_sums(self.matrix)

    @property
    def target_weights(self) -> np.ndarray:
        """Column sums: the target marginal ``ν``."""
        return _col_sums(self.matrix)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def verify(self, source_weights, target_weights, *,
               atol: float = 1e-6) -> None:
        """Raise unless this plan couples the given marginals."""
        mu = as_probability_vector(source_weights, name="source_weights",
                                   normalize=True)
        nu = as_probability_vector(target_weights, name="target_weights",
                                   normalize=True)
        if self.matrix.shape != (mu.size, nu.size):
            raise ValidationError(
                f"plan shape {self.matrix.shape} incompatible with marginals "
                f"({mu.size}, {nu.size})")
        residual = marginal_residual(self.matrix, mu, nu)
        if residual > atol:
            raise ValidationError(
                f"coupling constraints violated (residual {residual:.3e} "
                f"> atol {atol:.1e})")

    # -- operations used by the repair algorithms --------------------------

    def conditional_row(self, index: int) -> np.ndarray:
        """Normalised row ``π[index, :] / Σ_j π[index, j]`` (paper Eq. 15).

        Rows with (numerically) zero mass fall back to a point mass on the
        nearest-cost column, which keeps Algorithm 2 total: every archival
        point gets a valid conditional distribution.  Always returns a
        dense 1-D array (a single row is ``O(m)`` regardless of storage).
        """
        if self.is_sparse:
            row = self.matrix[[index], :].toarray().ravel()
        else:
            row = self.matrix[index]
        total = row.sum()
        if total <= 1e-300:
            fallback = np.zeros(self.shape[1])
            fallback[self._nearest_targets(np.array([index]))[0]] = 1.0
            return fallback
        return row / total

    def conditional_matrix(self):
        """All conditional rows stacked; rows sum to one.

        Vectorised: one division with a zero-row fallback mask (zero-mass
        rows become a point mass on their nearest target).  Returns the
        same storage as the plan — dense in, dense out; CSR in, CSR out
        (the sparse path never densifies).
        """
        totals = _row_sums(self.matrix)
        zero = totals <= 1e-300
        safe = np.where(zero, 1.0, totals)
        if not self.is_sparse:
            out = self.matrix / safe[:, None]
            if zero.any():
                rows = np.nonzero(zero)[0]
                out[rows] = 0.0
                out[rows, self._nearest_targets(rows)] = 1.0
            return out
        matrix = self.matrix
        counts = np.diff(matrix.indptr)
        data = matrix.data / np.repeat(safe, counts)
        if zero.any():
            rows = np.nonzero(zero)[0]
            row_of = np.repeat(np.arange(self.shape[0]), counts)
            data = np.where(zero[row_of], 0.0, data)
            base = _sparse.csr_array((data, matrix.indices, matrix.indptr),
                                     shape=matrix.shape)
            base.eliminate_zeros()
            point = _sparse.csr_array(
                (np.ones(rows.size), (rows, self._nearest_targets(rows))),
                shape=matrix.shape)
            return (base + point).tocsr()
        return _sparse.csr_array((data, matrix.indices, matrix.indptr),
                                 shape=matrix.shape)

    def sample_conditional(self, rows, uniforms) -> np.ndarray:
        """Inverse-CDF draw of one target state per ``(row, uniform)``
        pair — the sampler of Algorithm 2 Eq. 15, storage-agnostic."""
        return sample_conditional_rows(self.conditional_matrix(), rows,
                                       uniforms)

    def barycentric_projection(self) -> np.ndarray:
        """Conditional-mean map ``T(x_i) = E_π[Y | X = x_i]``.

        This is the deterministic "barycentric" image used by geometric
        repair variants; rows with zero mass map to their nearest target.
        CSR plans compute this as a sparse-dense product without
        densifying.
        """
        conditionals = self.conditional_matrix()
        return np.asarray(conditionals @ self.target_support)

    def expected_cost(self, cost_matrix: np.ndarray) -> float:
        """Expected transport cost ``<C, π>`` under an explicit cost."""
        cost = np.asarray(cost_matrix, dtype=float)
        if cost.shape != self.matrix.shape:
            raise ValidationError(
                f"cost shape {cost.shape} != plan shape {self.matrix.shape}")
        return _inner_product(self.matrix, cost)

    def transpose(self) -> "TransportPlan":
        """The reverse plan (target -> source); storage mode is kept."""
        return TransportPlan(self.matrix.T, self.target_support,
                             self.source_support, self.cost)

    def _nearest_targets(self, rows: np.ndarray) -> np.ndarray:
        """Index of the nearest target point for each given source row."""
        diffs = (self.source_support[rows][:, None, :]
                 - self.target_support[None, :, :])
        return np.linalg.norm(diffs, axis=2).argmin(axis=1)


def _as_support(support, expected_len: int, name: str) -> np.ndarray:
    arr = np.asarray(support, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValidationError(
            f"{name} support must be 1-D or 2-D, got shape {arr.shape}")
    if arr.shape[0] != expected_len:
        raise ValidationError(
            f"{name} support has {arr.shape[0]} points, plan expects "
            f"{expected_len}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} support contains non-finite entries")
    return arr
