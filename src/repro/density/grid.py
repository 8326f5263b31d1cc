"""Uniform interpolation supports (the sets ``Q`` of Algorithm 1).

Line 4 of Algorithm 1 builds, for every ``(u, k)``, a uniformly spaced grid
between the minimum and maximum of the *combined* research observations of
feature ``k`` in group ``u``.  These grids carry the interpolated marginal
pmfs, the barycentric repair target and (as the row/column index sets) the
OT plans themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_1d_array, check_positive_int
from ..exceptions import ValidationError

__all__ = ["InterpolationGrid", "uniform_grid", "locate_cells"]

#: Dispatch size from which the guess-and-check kernels
#: (:func:`locate_cells` and the CSR draw in :mod:`repro.ot.coupling`)
#: replace :func:`numpy.searchsorted`: the first measured size at which
#: both beat it.  Below it the binary search is cheaper, since the
#: kernels make a fixed ~15 numpy calls however few values they get.
#: Measured on a 2-core VM (numpy 2.4.6) with fresh random needles on
#: every call, binary search vs guess-and-check in µs on the n_Q = 50
#: benchmark design: locate 11.4/12.4 at 192 values, 14.1/13.2 at 256,
#: 26.0/16.6 at 512 and 181/54 at 4,096; CSR draw 14.5/13.6 at 192,
#: 19.1/15.6 at 256, 34.7/21.9 at 512 and 245/78 at 4,096.  At
#: n_Q = 2000 both cross below 192.  Reusing one needle array lets the
#: branch predictor learn the binary search and moves the apparent
#: crossover to ~1,500 values (39.5/37.3 µs at 1,536).
GUESS_CROSSOVER = 256


def locate_cells(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Cell index of each value on strictly increasing ``nodes``.

    Bitwise equal to ``np.clip(np.searchsorted(nodes, values,
    side="right") - 1, 0, nodes.size - 2)`` for finite ``values``:
    the last node ``ζ_q <= x``, with values below the grid in the first
    cell and values on or above its top node in the final cell.  From
    :data:`GUESS_CROSSOVER` values on, each cell is guessed from the
    grid's mean spacing and corrected by one step each way, an expected
    ``O(1)`` per value.  Values whose guess is still wrong — only
    possible on a non-uniform grid — fall back to the binary search, so
    the answer is exact on any grid.
    """
    if values.size < GUESS_CROSSOVER:
        return _search_cells(nodes, values)
    n_cells = nodes.size - 1
    scale = n_cells / (float(nodes[-1]) - float(nodes[0]))
    if not 0.0 < scale < np.inf:  # spacing below what a float resolves
        return _search_cells(nodes, values)
    # Open-ended cell bounds: cell 0 reaches down to -inf and the final
    # cell up to +inf, which is the clip of the binary-search form.
    bounds = nodes.copy()
    bounds[0] = -np.inf
    bounds[-1] = np.inf
    lower, upper = bounds[:-1], bounds[1:]
    guess = values - nodes[0]
    guess *= scale
    np.maximum(guess, 0.0, out=guess)
    np.minimum(guess, n_cells - 1.0, out=guess)
    cells = guess.astype(np.intp)
    cells -= values < lower.take(cells)
    cells += values >= upper.take(cells)
    wrong = values < lower.take(cells)
    wrong |= values >= upper.take(cells)
    if wrong.any():
        cells[wrong] = _search_cells(nodes, values[wrong])
    return cells


def _search_cells(nodes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The binary-search form :func:`locate_cells` must equal.  Searching
    the inner nodes counts the cells below each value's own, so the
    search needs no ``- 1`` and no clip: values below the second node
    land in cell 0 and values on or above the top node in the final
    cell.  A 50-row request pays this in every cell: 2.1 µs, against
    5.8 µs for ``np.searchsorted`` over all nodes, ``- 1`` and the clip
    (2-core VM, numpy 2.4.6)."""
    return nodes[1:-1].searchsorted(values, side="right")


def uniform_grid(samples, n_states: int, *, padding: float = 0.0) -> np.ndarray:
    """Uniform grid spanning the sample range (Algorithm 1, line 4).

    ``ζ_i = (n_Q - i)/(n_Q - 1) · min(x) + (i - 1)/(n_Q - 1) · max(x)`` for
    ``i = 1..n_Q``, optionally widened by a relative ``padding`` fraction of
    the range on each side (useful when archival data may fall slightly
    outside the research range).
    """
    xs = as_1d_array(samples, name="samples")
    n_states = check_positive_int(n_states, name="n_states", minimum=2)
    if padding < 0.0:
        raise ValidationError(f"padding must be >= 0, got {padding}")
    lo = float(np.min(xs))
    hi = float(np.max(xs))
    if hi <= lo:
        # Degenerate sample: widen symmetrically so the grid is valid.
        half_width = max(abs(lo) * 1e-6, 1e-6)
        lo, hi = lo - half_width, hi + half_width
    span = hi - lo
    lo -= padding * span
    hi += padding * span
    nodes = np.linspace(lo, hi, n_states)
    if np.any(np.diff(nodes) <= 0):
        # The span is below what n_states nodes can resolve at this
        # float magnitude (node spacing under one ulp), so linspace
        # collapses neighbouring nodes.  Widen symmetrically by the
        # minimum that guarantees strictly increasing nodes — a few
        # ulps per node — rather than a fraction of the magnitude,
        # preserving as much of the sample structure as possible.
        center = 0.5 * (lo + hi)
        scale = max(abs(lo), abs(hi), 1e-12)
        half_width = max(0.5 * (hi - lo),
                         (n_states - 1) * float(np.spacing(scale)))
        nodes = np.linspace(center - half_width, center + half_width,
                            n_states)
    return nodes


@dataclass(frozen=True)
class InterpolationGrid:
    """A uniform support ``Q`` with the cell arithmetic Algorithm 2 needs.

    Attributes
    ----------
    nodes:
        Strictly increasing grid nodes ``ζ_1 < ... < ζ_{n_Q}``.
    """

    nodes: np.ndarray

    def __post_init__(self) -> None:
        nodes = as_1d_array(self.nodes, name="nodes")
        if nodes.size < 2:
            raise ValidationError("grid needs at least two nodes")
        if np.any(np.diff(nodes) <= 0):
            raise ValidationError("grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def from_samples(cls, samples, n_states: int, *,
                     padding: float = 0.0) -> "InterpolationGrid":
        """Build the Algorithm-1 grid over ``samples``."""
        return cls(uniform_grid(samples, n_states, padding=padding))

    @property
    def n_states(self) -> int:
        return self.nodes.size

    @property
    def low(self) -> float:
        return float(self.nodes[0])

    @property
    def high(self) -> float:
        return float(self.nodes[-1])

    @property
    def spacing(self) -> float:
        """Common node spacing (grids are uniform by construction)."""
        return float((self.high - self.low) / (self.n_states - 1))

    def locate(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Cell index ``q`` and within-cell offset ``τ`` for each value.

        Implements Algorithm 2 lines 5-6: ``ζ_q = ⌊x⌋`` in ``Q`` and
        ``τ = (x - ζ_q) / (ζ_{q+1} - ζ_q) ∈ [0, 1]``.  Values outside the
        grid range are clipped to the boundary cells (τ saturates at 0 / 1),
        mirroring the paper's assumption that archival data lie in the range
        of the research data, while remaining total for stragglers.
        """
        xs = np.atleast_1d(np.asarray(values, dtype=float))
        if not np.all(np.isfinite(xs)):
            raise ValidationError("values contain non-finite entries")
        clipped = np.clip(xs, self.low, self.high)
        idx = locate_cells(self.nodes, clipped)
        gaps = self.nodes[idx + 1] - self.nodes[idx]
        tau = (clipped - self.nodes[idx]) / gaps
        return idx, np.clip(tau, 0.0, 1.0)

    def coverage(self, values) -> float:
        """Fraction of ``values`` inside ``[low, high]``.

        A diagnostic for the stationarity assumption: low coverage means the
        archive drifts outside the research-data range and repairs saturate
        at the grid boundary.
        """
        xs = np.atleast_1d(np.asarray(values, dtype=float))
        if xs.size == 0:
            return 1.0
        inside = (xs >= self.low) & (xs <= self.high)
        return float(np.mean(inside))
