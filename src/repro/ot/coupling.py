"""Transport-plan container with marginal verification.

A Kantorovich optimal transport plan is a joint distribution ``π`` over the
product of two discrete supports whose marginals equal the prescribed source
and target distributions (paper Eq. 5).  :class:`TransportPlan` wraps the
matrix together with its supports, checks the coupling constraints, and
offers the operations the repair algorithms need: conditional rows
(Eq. 15), barycentric projection (Eqs. 8-9), and transport cost.

Storage is dual-mode: the plan matrix is either a dense ``(n, m)`` array or
a CSR plan.  A CSR plan is stored as its ``(data, indices, indptr)``
triplet; :attr:`TransportPlan.matrix` builds a
:class:`scipy.sparse.csr_array` over those same arrays on first read
and keeps it.  Storage queries, the source marginal, the conditional
rows' sampler and the archive reader and writer use the triplet
itself, so replaying a stored CSR plan never imports scipy.  Exact
monotone plans are staircases with at most ``n + m - 1`` non-zeros, and
the ``"exact"`` solver emits them as CSR straight from its kernel, so
no ``(n, m)`` array exists anywhere on the default path.  Simplex,
screened and multiscale plans are CSR at or below
:data:`SPARSE_DENSITY_THRESHOLD` density (:func:`is_sparse_enough`),
and the design stores any other plan that sparse as CSR too; denser
plans, such as entropic ones, stay dense.  Every operation below
(conditionals, barycentric projection, inverse-CDF sampling) has a
sparse path that never densifies.

Every plan, dense or CSR, samples its conditional rows (Eq. 15)
through one :class:`CSRSampler`, prepared on first use and kept with
the plan (:meth:`TransportPlan.conditional_sampler`).  A dense plan's
sampler is its CSR copy's, so the two storages draw the same states
bitwise, and a dense plan's draw only lands on an entry that carries
mass.  The guide table holds one byte per row and bin of the uniform's
range: the entry every uniform in the bin draws, which answers ~98% of
the paper design's draws with one gather.  The rest take a binary
search over the row's running sums, which gives the same entry
bitwise.

Build sparse plans explicitly with :meth:`TransportPlan.from_sparse` or
convert with :meth:`TransportPlan.to_sparse` /
:meth:`TransportPlan.to_dense`.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import FrozenInstanceError

import numpy as np

from .._validation import as_1d_array, as_probability_vector
from ..density.grid import GUESS_CROSSOVER
from ..exceptions import ValidationError

__all__ = ["TransportPlan", "marginal_residual", "is_coupling",
           "CSRSampler", "dilate_mask", "refine_mask", "band_bounds",
           "is_banded", "is_sparse_enough", "SPARSE_DENSITY_THRESHOLD"]

#: Bins per row of the CSR draw's guide table (:class:`CSRSampler`), one
#: byte each.  A staircase row of the exact solver holds about one
#: breakpoint, so about one bin in 32 holds one and sends its draws to
#: the binary search: 2.9% of the bins of the n_Q = 50 benchmark design
#: and 1.7% of the n_Q = 2000 one.
GUIDE_BINS = 32

#: Guide entry of a bin whose two edges draw different entries.
_AMBIGUOUS = 255

#: Below this fraction of structural non-zeros a plan is worth storing as
#: CSR: the triplet arrays (data + indices + indptr) then undercut the
#: dense buffer by at least ~2x even counting the int64 index overhead.
SPARSE_DENSITY_THRESHOLD = 0.25


def _issparse(matrix) -> bool:
    """:func:`scipy.sparse.issparse` without importing scipy: no scipy
    sparse object can exist before :mod:`scipy.sparse` is imported."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(matrix)


def is_sparse_enough(matrix) -> bool:
    """True when a plan ``matrix`` (dense array or scipy sparse) is worth
    storing as CSR: at most :data:`SPARSE_DENSITY_THRESHOLD` of its
    entries are stored non-zeros.  The one storage rule of the solvers
    and the design."""
    n, m = matrix.shape
    if _issparse(matrix):
        nnz = matrix.nnz
    else:
        nnz = np.count_nonzero(matrix)
    return nnz / float(n * m) <= SPARSE_DENSITY_THRESHOLD


def _row_sums(matrix) -> np.ndarray:
    if _issparse(matrix):
        return np.asarray(matrix.sum(axis=1)).ravel()
    return matrix.sum(axis=1)


def _csr_row_sums(data: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Row sums of a CSR triplet, computed as scipy's
    ``csr_array.sum(axis=1)`` computes them (one ``reduceat`` over the
    non-empty rows), so they are bitwise equal to it."""
    totals = np.zeros(indptr.size - 1)
    nonempty = np.flatnonzero(indptr[1:] != indptr[:-1])
    if nonempty.size:
        totals[nonempty] = np.add.reduceat(data, indptr[nonempty])
    return totals


def _col_sums(matrix) -> np.ndarray:
    if _issparse(matrix):
        return np.asarray(matrix.sum(axis=0)).ravel()
    return matrix.sum(axis=0)


def _inner_product(matrix, cost: np.ndarray) -> float:
    """``<C, π>`` for a dense or scipy sparse plan, without densifying."""
    if _issparse(matrix):
        return _csr_inner_product(matrix.data, matrix.indices,
                                  matrix.indptr, cost)
    return float(np.sum(cost * matrix))


def _csr_inner_product(data, indices, indptr, cost: np.ndarray) -> float:
    """``<C, π>`` over a CSR triplet."""
    row_of = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    return float((cost[row_of, indices] * data).sum())


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
    if _issparse(matrix):
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


class CSRSampler:
    """Inverse-CDF draws from the rows of a row-stochastic matrix,
    prepared once per matrix.  This is the one Eq.-15 draw: behind
    :meth:`TransportPlan.sample_conditional`,
    :meth:`~repro.core.plan.FeaturePlan.sample_targets`, joint repair
    and the Algorithm-2 kernel
    :class:`~repro.core.repair.PreparedFeatureRepair`.  Any storage is
    accepted, or the CSR ``(data, indices, indptr)`` triplet itself; a
    dense matrix is converted to CSR, which drops its zeros.

    Row r's CDF at its j-th stored entry is ``cum[first+j+1] -
    cum[first]`` over the zero-prefixed running sum ``cum`` of the CSR
    data.  A uniform ``u`` draws the entry that a binary search for
    ``cum[first] + u`` finds among the running sums, clamped into the
    row (:func:`_search_entries`), and its column is the drawn state.

    Because the running sums never decrease, the drawn entry never
    decreases as ``u`` grows.  So every ``u`` in a bin ``[b/B, (b+1)/B)``
    of :data:`GUIDE_BINS` ``= B`` bins draws the same entry whenever the
    bin's two edges ``b/B`` and ``(b+1)/B`` do.  The guide table stores
    that entry's offset in its row, one byte per ``(row, bin)``, and
    255 where the edges differ or the offset does not fit a byte.  From
    :data:`~repro.density.grid.GUESS_CROSSOVER` draws on, a draw reads
    its bin's entry with one gather (the "indexed search" of Chen &
    Asau, 1974); draws in ambiguous bins, smaller dispatches, rows
    broadcast against the draws and uniforms outside ``[0, 1)`` take
    the binary search.  Both give the same entry bitwise.  The table is
    built on the first dispatch that uses it, so a service answering
    small requests never builds it.
    """

    __slots__ = ("indices", "cumulative", "first", "last", "_guide")

    def __init__(self, conditionals) -> None:
        if isinstance(conditionals, tuple):
            data, indices, indptr = conditionals
        else:
            from scipy import sparse

            matrix = conditionals
            if not sparse.issparse(matrix) or matrix.format != "csr":
                matrix = sparse.csr_array(matrix)
            data, indices, indptr = matrix.data, matrix.indices, matrix.indptr
        first = indptr[:-1].astype(np.intp)
        last = indptr[1:].astype(np.intp) - 1
        if np.any(last < first):
            raise ValidationError(
                "conditional matrix has empty rows; normalise it with "
                "TransportPlan.conditional_matrix() first")
        self.indices = indices
        self.cumulative = np.concatenate([[0.0], np.cumsum(data,
                                                           dtype=float)])
        self.first = first
        self.last = last
        self._guide = None

    @property
    def nbytes(self) -> int:
        """Bytes of the sampler's own arrays (the guide once built)."""
        total = (self.cumulative.nbytes + self.first.nbytes
                 + self.last.nbytes)
        if self._guide is not None:
            total += self._guide.nbytes
        return total

    def sample(self, rows: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """The drawn state (column) per ``(row, uniform)`` pair: ``rows``
        an integer array of row indices, ``uniforms`` a float array of
        the same shape (or broadcast against one row)."""
        first = self.first.take(rows)
        if (uniforms.size < GUESS_CROSSOVER or first.shape != uniforms.shape
                or not 0.0 <= uniforms.min() <= uniforms.max() < 1.0):
            return self.indices[self._search(first, self.last.take(rows),
                                             uniforms)]
        guide = self._guide
        if guide is None:
            # Threads that race here build equal tables; one is kept.
            guide = self._guide = _guide_table(self.cumulative, self.first,
                                               self.last)
        flat = np.multiply(rows, GUIDE_BINS, dtype=np.intp)
        bins = uniforms * GUIDE_BINS  # exact: a power-of-two scaling
        flat += bins.astype(np.intp)
        offsets = guide.take(flat)
        entry = first + offsets
        ambiguous = np.flatnonzero(offsets == _AMBIGUOUS)
        if ambiguous.size:
            entry[ambiguous] = self._search(
                first.take(ambiguous), self.last.take(rows.take(ambiguous)),
                uniforms.take(ambiguous))
        return self.indices.take(entry)

    def _search(self, first, last, uniforms) -> np.ndarray:
        return _search_entries(self.cumulative, first, last,
                               self.cumulative[first] + uniforms)


def _guide_table(cumulative, first, last) -> np.ndarray:
    """The flat ``(n_rows · GUIDE_BINS)`` uint8 guide of
    :class:`CSRSampler`, in ``O(nnz + GUIDE_BINS · n_rows)``.

    Edge ``c`` of row r is the draw target ``cum[first] + c/B``, and the
    entry it draws lies as many entries past ``first`` as the row has
    inner running sums (all but its total) below the target.  So each
    inner sum is placed among its row's ``B + 1`` edges: the count of
    edges at or below it is guessed from ``(sum - cum[first]) · B`` and
    corrected by one step each way, as
    :func:`~repro.density.grid.locate_cells` places values among grid
    nodes, and sums still misplaced count all edges.  A histogram of
    those counts per row, summed along the row, gives each edge's
    offset; bin b is ambiguous exactly when some sum lies between its
    edges, i.e. when it adds to the histogram at ``b + 1``.
    """
    n_rows = first.size
    before = cumulative[first]
    inner = np.ones(cumulative.size, dtype=bool)
    inner[0] = False
    inner[last + 1] = False
    sums = cumulative[inner]
    row_of = np.repeat(np.arange(n_rows), last - first)
    base = before[row_of]
    # Edge c sits at base + steps[c]; the +inf step closes the top.
    steps = np.append(np.arange(GUIDE_BINS + 1) / GUIDE_BINS, np.inf)
    placed = ((sums - base) * GUIDE_BINS).astype(np.intp)
    placed += 1
    np.clip(placed, 1, GUIDE_BINS + 1, out=placed)
    # Edge 0 is `before` itself, at or below every inner sum of its row,
    # so one step down never leaves `placed` below 1.
    placed -= sums < base + steps[placed - 1]
    placed += sums >= base + steps[placed]
    wrong = sums < base + steps[placed - 1]
    wrong |= sums >= base + steps[placed]
    if wrong.any():
        placed[wrong] = (base[wrong, None] + steps[None, :-1]
                         <= sums[wrong, None]).sum(axis=1)
    width = GUIDE_BINS + 2
    hist = np.bincount(row_of * width + placed,
                       minlength=n_rows * width).reshape(n_rows, width)
    offsets = np.cumsum(hist[:, :GUIDE_BINS], axis=1, dtype=np.int32)
    np.minimum(offsets, _AMBIGUOUS, out=offsets)
    guide = offsets.astype(np.uint8)
    guide[hist[:, 1:GUIDE_BINS + 1] > 0] = _AMBIGUOUS
    return guide.ravel()


def _search_entries(cumulative, first, last, target) -> np.ndarray:
    """The binary-search draw of :class:`CSRSampler`: the last entry
    whose running sum is below ``target``, clamped into ``[first,
    last]``.  Searching the sums after the leading zero counts the
    entries before that one directly; it differs from ``searchsorted(
    cumulative, target) - 1`` only for targets at or below zero, which
    the clamp sends to ``first`` either way."""
    entry = cumulative[1:].searchsorted(target, side="left")
    np.maximum(entry, first, out=entry)
    np.minimum(entry, last, out=entry)
    return entry


@functools.cache
def _csr_template() -> dict:
    """The instance attributes of a minimal CSR array built by scipy's
    own constructor, made on first use; every CSR view starts from a
    copy of them."""
    from scipy import sparse

    return vars(sparse.csr_array((1, 1)))


def _csr_from_canonical(data: np.ndarray, indices: np.ndarray,
                        indptr: np.ndarray, shape: tuple):
    """A :class:`scipy.sparse.csr_array` over CSR triplets, assembled
    without scipy's constructor checks.

    The caller guarantees what the constructor would otherwise check,
    and what :func:`_checked_csr` checks: ``indptr`` has ``n + 1``
    non-decreasing entries from 0 to ``data.size``, every column index
    lies in ``[0, m)``, and ``indices`` and ``indptr`` share one
    integer dtype.  Like the constructor, the view asserts nothing about
    the order of a row's columns; scipy works that out when an
    operation needs it.  On a 50-state plan the constructor's checks
    cost as much as the rest of the exact solve's CSR assembly.
    """
    from scipy import sparse

    matrix = sparse.csr_array.__new__(sparse.csr_array)
    vars(matrix).update(_csr_template())
    matrix._shape = (int(shape[0]), int(shape[1]))
    matrix.data = data
    matrix.indices = indices
    matrix.indptr = indptr
    return matrix


def _checked_csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                 shape: tuple) -> tuple:
    """The ``(data, indices, indptr)`` triplet of an ``(n, m)`` CSR plan,
    checked in ``O(nnz)`` for what :func:`_csr_from_canonical` and
    :class:`CSRSampler` rely on.

    All three arrays are 1-D and both index arrays hold integers;
    ``indptr`` has ``n + 1`` entries, starts at 0, never decreases and
    ends at ``data.size``; ``indices`` has ``data.size`` entries, each in
    ``[0, m)``.  Index arrays that are not both int32 or both int64 are
    cast to int64.  Raises :class:`ValidationError`.
    """
    n, m = shape
    if any(np.ndim(array) != 1 for array in (data, indices, indptr)):
        raise ValidationError("CSR plan arrays must be 1-D")
    if indices.dtype.kind not in "iu" or indptr.dtype.kind not in "iu":
        raise ValidationError(
            f"CSR index arrays must hold integers, got {indices.dtype} "
            f"and {indptr.dtype}")
    if (indptr.size != n + 1 or indptr[0] != 0 or indptr[-1] != data.size
            or np.any(indptr[1:] < indptr[:-1])):
        raise ValidationError(
            f"CSR indptr of a {n}-row plan must hold {n + 1} entries "
            f"that start at 0, never decrease and end at {data.size}")
    if indices.size != data.size:
        raise ValidationError(
            f"CSR plan has {data.size} values but {indices.size} column "
            "indices")
    if indices.size and (indices.min() < 0 or indices.max() >= m):
        raise ValidationError(f"CSR column indices must lie in [0, {m})")
    if indices.dtype != indptr.dtype or indptr.dtype not in (np.int32,
                                                             np.int64):
        indices, indptr = indices.astype(np.int64), indptr.astype(np.int64)
    return data, indices, indptr


class TransportPlan:
    """An optimal (or candidate) transport plan between discrete measures.

    ``TransportPlan(matrix, source_support, target_support, cost)``
    checks and copies ``matrix``, a dense array or any scipy sparse
    matrix (stored as CSR); :meth:`from_sparse` also takes a CSR
    triplet.  Plans are immutable.

    Attributes
    ----------
    matrix:
        ``(n, m)`` joint probability matrix ``π`` — a dense
        :class:`numpy.ndarray`, or for a CSR plan a
        :class:`scipy.sparse.csr_array` over its stored ``(data,
        indices, indptr)`` triplet, built on first read and kept.
    source_support, target_support:
        Support points of the two marginals, shape ``(n, d)`` / ``(m, d)``;
        1-D supports are stored as ``(n, 1)``.
    cost:
        Expected transport cost ``<C, π>`` when the plan was produced by a
        solver, else ``nan``.
    """

    def __init__(self, matrix, source_support, target_support,
                 cost: float = float("nan"), _atol: float = 1e-6) -> None:
        csr = None
        if _issparse(matrix):
            from scipy import sparse

            matrix = sparse.csr_array(matrix, copy=True)
            if matrix.dtype != np.float64:
                matrix = matrix.astype(float)
            _check_mass(matrix.data, _atol)
            np.clip(matrix.data, 0.0, None, out=matrix.data)
            csr = (matrix.data, matrix.indices, matrix.indptr)
        else:
            matrix = np.asarray(matrix, dtype=float)
            if matrix.ndim != 2:
                raise ValidationError(
                    f"plan matrix must be 2-D, got shape {matrix.shape}")
            _check_mass(matrix, _atol)
            matrix = np.clip(matrix, 0.0, None)
        n, m = matrix.shape
        self._fill(matrix, csr, (n, m),
                   _as_support(source_support, n, "source"),
                   _as_support(target_support, m, "target"), cost)

    def _fill(self, matrix, csr, shape, source_support, target_support,
              cost) -> None:
        """Set every field: ``matrix`` is the dense array or a CSR
        plan's scipy view (``None`` until :attr:`matrix` is read), and
        ``csr`` a CSR plan's triplet."""
        vars(self).update(_matrix=matrix, _csr=csr,
                          _shape=(int(shape[0]), int(shape[1])),
                          source_support=source_support,
                          target_support=target_support, cost=cost,
                          _sampler=None)

    def __setattr__(self, name, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        storage = f"CSR, nnz={self.nnz}" if self.is_sparse else "dense"
        return (f"TransportPlan(shape={self.shape}, {storage}, "
                f"cost={self.cost!r})")

    # -- storage -----------------------------------------------------------

    @property
    def matrix(self):
        """The ``(n, m)`` plan: the dense array, or a CSR plan's
        :class:`scipy.sparse.csr_array`, built over the stored triplet
        on first read (importing scipy) and kept."""
        matrix = self._matrix
        if matrix is None:  # a racing thread builds an equal view
            matrix = vars(self)["_matrix"] = _csr_from_canonical(
                *self._csr, self._shape)
        return matrix

    @property
    def is_sparse(self) -> bool:
        """True when the plan matrix is CSR-backed."""
        return self._csr is not None

    @property
    def nnz(self) -> int:
        """Stored non-zero entries (dense plans count exact non-zeros)."""
        if self.is_sparse:
            return int(self._csr[2][-1])
        return int(np.count_nonzero(self._matrix))

    @property
    def density(self) -> float:
        """``nnz / (n * m)`` — the fraction of the plan that carries mass."""
        n, m = self.shape
        return self.nnz / float(n * m)

    def toarray(self) -> np.ndarray:
        """The plan as a dense array (a copy when CSR-backed)."""
        if self.is_sparse:
            return self.matrix.toarray()
        return self._matrix

    def to_sparse(self) -> "TransportPlan":
        """CSR-backed copy of this plan (self when already sparse)."""
        if self.is_sparse:
            return self
        from scipy import sparse

        return TransportPlan(sparse.csr_array(self._matrix),
                             self.source_support, self.target_support,
                             self.cost)

    def to_dense(self) -> "TransportPlan":
        """Densely stored copy of this plan (self when already dense)."""
        if not self.is_sparse:
            return self
        return TransportPlan(self.matrix.toarray(), self.source_support,
                             self.target_support, self.cost)

    @classmethod
    def _trusted(cls, matrix, source_support: np.ndarray,
                 target_support: np.ndarray, cost: float, *,
                 shape=None) -> "TransportPlan":
        """Wrap *pre-validated* ingredients without the constructor's
        checks or the defensive clip/copy.

        For internal hot paths only (the monotone kernel, which passes
        its CSR triplets, so neither this class nor scipy re-validates
        its plans): the caller guarantees a non-negative float64
        ``(n, m)`` array, or with ``shape`` a CSR ``(data, indices,
        indptr)`` triplet that :func:`_checked_csr` accepts unchanged,
        and canonical ``(n, 1)``-shaped float supports.  Field values
        are identical to what the validated constructor would store —
        the clip of a non-negative matrix is a value-preserving copy —
        so trusted and validated plans are interchangeable bitwise.
        """
        plan = cls.__new__(cls)
        if shape is None:
            plan._fill(matrix, None, matrix.shape, source_support,
                       target_support, cost)
        else:
            plan._fill(None, tuple(matrix), shape, source_support,
                       target_support, cost)
        return plan

    @classmethod
    def _over_arrays(cls, matrix, source_support, target_support,
                     cost: float, *, shape=None) -> "TransportPlan":
        """A plan over ``matrix``'s own arrays, which it neither copies
        nor writes: the read-only views of a mapped plan archive.

        ``matrix`` is a float64 2-D array, or with ``shape`` a CSR
        ``(data, indices, indptr)`` triplet with float64 ``data``.  The
        validated constructor's checks run (finite mass, none below
        ``-atol``, supports matching the shape), a triplet's structure
        is checked in ``O(nnz)`` (:func:`_checked_csr`), and the mass
        array is copied only when an entry needs the clip at zero.
        """
        if shape is None:
            if matrix.ndim != 2:
                raise ValidationError(
                    f"plan matrix must be 2-D, got shape {matrix.shape}")
            (n, m), mass = matrix.shape, matrix
        else:
            (n, m), matrix = shape, _checked_csr(*matrix, shape)
            mass = matrix[0]
        if _check_mass(mass, 1e-6) < 0:
            mass = np.clip(mass, 0.0, None)
            matrix = mass if shape is None else (mass, *matrix[1:])
        return cls._trusted(
            matrix, _as_support(source_support, n, "source"),
            _as_support(target_support, m, "target"), cost, shape=shape)

    @classmethod
    def from_sparse(cls, matrix, source_support, target_support,
                    cost: float = float("nan"), *,
                    shape=None) -> "TransportPlan":
        """Build a CSR-backed plan from sparse ingredients.

        ``matrix`` is any scipy sparse matrix/array, or a CSR triplet
        ``(data, indices, indptr)`` — the layout :func:`repro.core.
        serialize.save_plan` persists — in which case ``shape`` is
        required and the triplet's structure is checked as an archive's
        is (:func:`_checked_csr`).
        """
        if isinstance(matrix, tuple) and len(matrix) == 3:
            if shape is None:
                raise ValidationError(
                    "from_sparse needs an explicit shape with a "
                    "(data, indices, indptr) triplet")
            data, indices, indptr = matrix
            # Copies: the plan owns its arrays, as constructed plans do.
            return cls._over_arrays(
                (np.array(data, dtype=float), np.array(indices),
                 np.array(indptr)), source_support, target_support, cost,
                shape=shape)
        if not _issparse(matrix):
            from scipy import sparse

            matrix = sparse.csr_array(np.asarray(matrix, dtype=float))
        return cls(matrix, source_support, target_support, cost)

    # -- marginals ---------------------------------------------------------

    @property
    def source_weights(self) -> np.ndarray:
        """Row sums: the source marginal ``µ``."""
        if self.is_sparse:
            data, _, indptr = self._csr
            return _csr_row_sums(data, indptr)
        return self._matrix.sum(axis=1)

    @property
    def target_weights(self) -> np.ndarray:
        """Column sums: the target marginal ``ν``."""
        return _col_sums(self.matrix)

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    def verify(self, source_weights, target_weights, *,
               atol: float = 1e-6) -> None:
        """Raise unless this plan couples the given marginals."""
        mu = as_probability_vector(source_weights, name="source_weights",
                                   normalize=True)
        nu = as_probability_vector(target_weights, name="target_weights",
                                   normalize=True)
        if self.shape != (mu.size, nu.size):
            raise ValidationError(
                f"plan shape {self.shape} incompatible with marginals "
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
            row = self._matrix[index]
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
        if self.is_sparse:
            return _csr_from_canonical(*self._conditional_csr(),
                                       self._shape)
        totals = self._matrix.sum(axis=1)
        zero = totals <= 1e-300
        out = self._matrix / np.where(zero, 1.0, totals)[:, None]
        if zero.any():
            rows = np.nonzero(zero)[0]
            out[rows] = 0.0
            out[rows, self._nearest_targets(rows)] = 1.0
        return out

    def _conditional_csr(self) -> tuple:
        """The CSR triplet of a CSR plan's :meth:`conditional_matrix`,
        the one normalisation behind it and :meth:`conditional_sampler`.

        Each row is divided by its sum.  When some row's mass is at
        most 1e-300, every entry of such a row and every entry that
        normalises to zero is dropped, and each such row gets one entry
        of 1 on its nearest target; for a CSR plan with sorted, unique
        columns per row, as every plan this library builds has, that is
        scipy's ``eliminate_zeros`` plus a point-mass sum, entry for
        entry.
        """
        data, indices, indptr = self._csr
        counts = np.diff(indptr)
        totals = _csr_row_sums(data, indptr)
        zero = totals <= 1e-300
        data = data / np.repeat(np.where(zero, 1.0, totals), counts)
        if not zero.any():
            return data, indices, indptr
        rows = np.flatnonzero(zero)
        row_of = np.repeat(np.arange(totals.size), counts)
        kept = np.flatnonzero((data != 0.0) & ~zero[row_of])
        # A zero row keeps no entry, so a stable sort by row puts its
        # point mass in its place and keeps every other row's order.
        entry_rows = np.concatenate([row_of[kept], rows])
        order = np.argsort(entry_rows, kind="stable")
        counts = np.bincount(entry_rows, minlength=totals.size)
        return (np.concatenate([data[kept], np.ones(rows.size)])[order],
                np.concatenate([indices[kept],
                                self._nearest_targets(rows)])[order],
                np.concatenate([[0], np.cumsum(counts)]))

    def conditional_sampler(self) -> CSRSampler:
        """The :class:`CSRSampler` over this plan's conditional rows,
        built on first use and kept with the plan, so every caller that
        samples the plan shares one.  A dense plan's sampler is built
        from its CSR copy (:meth:`to_sparse`) and draws bitwise what
        that copy draws."""
        sampler = self._sampler
        if sampler is None:  # a racing thread builds an equal one
            sampler = vars(self)["_sampler"] = CSRSampler(
                self.to_sparse()._conditional_csr())
        return sampler

    def sample_conditional(self, rows, uniforms) -> np.ndarray:
        """Inverse-CDF draw of one target state per ``(row, uniform)``
        pair — the sampler of Algorithm 2 Eq. 15, storage-agnostic."""
        return self.conditional_sampler().sample(
            np.asarray(rows), np.asarray(uniforms, dtype=float))

    def barycentric_projection(self) -> np.ndarray:
        """Conditional-mean map ``T(x_i) = E_π[Y | X = x_i]``.

        This is the deterministic "barycentric" image used by geometric
        repair variants; rows with zero mass map to their nearest target.
        Both storages compute it as one sparse-dense product over the
        CSR conditionals (a dense plan's :meth:`to_sparse` copy's), so
        a dense plan projects bitwise what its CSR copy projects.
        """
        conditionals = self.to_sparse().conditional_matrix()
        return np.asarray(conditionals @ self.target_support)

    def expected_cost(self, cost_matrix: np.ndarray) -> float:
        """Expected transport cost ``<C, π>`` under an explicit cost."""
        cost = np.asarray(cost_matrix, dtype=float)
        if cost.shape != self.shape:
            raise ValidationError(
                f"cost shape {cost.shape} != plan shape {self.shape}")
        if self.is_sparse:
            return _csr_inner_product(*self._csr, cost)
        return _inner_product(self._matrix, cost)

    def transpose(self) -> "TransportPlan":
        """The reverse plan (target -> source); storage mode is kept."""
        return TransportPlan(self.matrix.T, self.target_support,
                             self.source_support, self.cost)

    def _nearest_targets(self, rows: np.ndarray) -> np.ndarray:
        """Index of the nearest target point for each given source row,
        the first one on ties.  The rows go in blocks whose ``(rows, m,
        d)`` difference array stays within 1 MiB (the norm takes two
        more of its size), so a plan with many zero-mass rows over a
        fine grid never holds one per row."""
        source = self.source_support[rows]
        target = self.target_support
        step = max(1, (1 << 20) // max(8 * target.size, 1))
        nearest = np.empty(source.shape[0], dtype=np.intp)
        for start in range(0, source.shape[0], step):
            diffs = (source[start:start + step, None, :]
                     - target[None, :, :])
            nearest[start:start + step] = np.linalg.norm(
                diffs, axis=2).argmin(axis=1)
        return nearest


def _check_mass(values: np.ndarray, atol: float) -> float:
    """Reject plan entries that are not finite or are below ``-atol``;
    returns the smallest entry (0 when there is none)."""
    if not np.isfinite(values).all():
        raise ValidationError("plan matrix contains non-finite entries")
    low = float(values.min()) if values.size else 0.0
    if low < -atol:
        raise ValidationError("plan matrix must be non-negative")
    return low


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
