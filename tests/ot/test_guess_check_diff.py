"""Differential tests: Algorithm 2's guess-and-check kernels vs the
binary search they replace.

Two kernels skip :func:`numpy.searchsorted` on large dispatches:

* :func:`repro.density.grid.locate_cells` guesses each value's grid cell
  from the mean node spacing and corrects it by one step each way;
* :func:`repro.ot.coupling._sample_csr_entries` scans each draw's CSR
  row forward for at most :data:`~repro.ot.coupling.CSR_SCAN_STEPS`
  entries.

Both promise the binary search's answer *bitwise* on every input, with
the binary search as their fallback.  That is a claim about float
edge cases (values on nodes, grids a few ulps wide, heavy-tailed node
gaps, row sums that round below one, stored zeros), so this suite
generates them with hypothesis and compares against a plain
``np.searchsorted`` reference on both sides of
:data:`~repro.density.grid.GUESS_CROSSOVER`.  It also pins the two
constants: which path runs just below and at the crossover, and which
draws a scan of exactly the step limit settles.

The budget scales with the hypothesis profile: the default ``repro``
profile keeps tier-1 fast; the ``ci`` profile
(``--hypothesis-profile=ci``, the ``simplex-stress`` CI job) runs the
stress budget.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.core.design import design_repair  # noqa: E402
from repro.data.simulated import paper_simulation_spec  # noqa: E402
from repro.density import grid as grid_module  # noqa: E402
from repro.density.grid import (GUESS_CROSSOVER, locate_cells,  # noqa: E402
                                uniform_grid)
from repro.ot import coupling  # noqa: E402
from repro.ot.coupling import (CSR_SCAN_STEPS,  # noqa: E402
                               _sample_csr_entries, conditional_cumulative)

#: Dispatch sizes on both sides of the crossover.
SIZES = (1, 7, GUESS_CROSSOVER - 1, GUESS_CROSSOVER, 3 * GUESS_CROSSOVER)


def reference_cells(nodes, values):
    cells = np.searchsorted(nodes, values, side="right") - 1
    return np.clip(cells, 0, nodes.size - 2)


def reference_entries(indices, cumulative, first, last, before, uniforms):
    entry = np.searchsorted(cumulative, before + uniforms, side="left") - 1
    return indices[np.clip(entry, first, last)]


@contextlib.contextmanager
def counting(module, name):
    """Record the size of every call to the fallback ``module.name``."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(np.size(args[-1]))
        return original(*args)

    setattr(module, name, counted)
    try:
        yield calls
    finally:
        setattr(module, name, original)


# -- grids and the values located on them -----------------------------------


@st.composite
def linspace_grids(draw):
    """Production grids (:func:`uniform_grid`): offsets up to 1e16 and
    spans from wide down to a few ulps per node."""
    n = draw(st.integers(2, 5000))
    offset = draw(st.sampled_from([0.0, 1.0, -7.25, 3e5, -1e9, 1e16,
                                   -1e16]))
    ulps_per_node = draw(st.sampled_from([None, 1, 2, 3, 5]))
    if ulps_per_node is None:
        span = draw(st.floats(1e-6, 1e6))
    else:
        span = ulps_per_node * (n - 1) * float(np.spacing(abs(offset)
                                                          or 1.0))
    return uniform_grid([offset, offset + span], n)


@st.composite
def irregular_grids(draw):
    """Strictly increasing but far from uniform: heavy-tailed
    (Cauchy-like) node gaps, or arbitrary floats sorted."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 2000))
    if draw(st.booleans()):
        gaps = np.abs(rng.standard_cauchy(n - 1)) + 1e-9
        nodes = draw(st.floats(-1e6, 1e6)) + np.cumsum(
            np.concatenate([[0.0], gaps]))
    else:
        nodes = np.sort(rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(
            -3, 4, n))
    nodes = np.unique(nodes)
    if nodes.size < 2:
        nodes = np.array([0.0, 1.0])
    return nodes


grids = st.one_of(linspace_grids(), irregular_grids())


def values_on(nodes, size, rng, clip=True):
    """A mix of interior values, exact nodes, both ends and each node's
    float neighbours, optionally clipped into the grid range."""
    pick = nodes[rng.integers(0, nodes.size, size)]
    pools = [
        rng.uniform(nodes[0], nodes[-1], size),
        pick,
        np.nextafter(pick, -np.inf),
        np.nextafter(pick, np.inf),
        np.full(size, nodes[0]),
        np.full(size, nodes[-1]),
        nodes[0] + (nodes[-1] - nodes[0]) * rng.uniform(-0.5, 1.5, size),
    ]
    which = rng.integers(0, len(pools), size)
    values = np.choose(which, pools)
    return np.clip(values, nodes[0], nodes[-1]) if clip else values


@given(nodes=grids, size=st.sampled_from(SIZES),
       seed=st.integers(0, 2**32 - 1), clip=st.booleans())
def test_locate_cells_matches_binary_search(nodes, size, seed, clip):
    values = values_on(nodes, size, np.random.default_rng(seed), clip)
    got = locate_cells(nodes, values)
    expected = reference_cells(nodes, values)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


@given(n=st.integers(2, 5000), offset=st.floats(-1e6, 1e6),
       span=st.floats(1e-3, 1e6), seed=st.integers(0, 2**32 - 1),
       clip=st.booleans())
def test_uniform_grids_never_fall_back(n, offset, span, seed, clip):
    # The one-step correction settles every value on a uniform grid,
    # nodes and their float neighbours included; only non-uniform grids
    # reach the binary search.
    nodes = uniform_grid([offset, offset + span], n)
    values = values_on(nodes, 2 * GUESS_CROSSOVER,
                       np.random.default_rng(seed), clip)
    with counting(grid_module, "_search_cells") as calls:
        got = locate_cells(nodes, values)
    np.testing.assert_array_equal(got, reference_cells(nodes, values))
    assert calls == []


# -- CSR tables and the draws sampled from them ------------------------------


@st.composite
def csr_tables(draw):
    """Row-stochastic CSR tables as ``(indices, indptr, data)``: rows of
    1 to 40 entries (many wider than the scan limit), stored zeros
    (flat runs in the running sum), tiny weights, and int32 or int64
    index arrays."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(1, 60))
    max_width = draw(st.sampled_from([1, 2, 5, CSR_SCAN_STEPS + 2, 40]))
    widths = rng.integers(1, max_width + 1, n_rows)
    weights = rng.exponential(size=widths.sum())
    weights[rng.random(weights.size) < 0.15] = 0.0
    weights[rng.random(weights.size) < 0.05] = 1e-300
    row_of = np.repeat(np.arange(n_rows), widths)
    totals = np.bincount(row_of, weights=weights, minlength=n_rows)
    empty = totals[row_of] == 0.0
    weights[empty] = 1.0
    totals = np.bincount(row_of, weights=weights, minlength=n_rows)
    data = weights / totals[row_of]
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    indptr = np.concatenate([[0], np.cumsum(widths)]).astype(dtype)
    n_cols = int(widths.max()) + 10
    indices = np.concatenate([np.sort(rng.choice(n_cols, w, replace=False))
                              for w in widths]).astype(dtype)
    return indices, indptr, data


@given(table=csr_tables(), size=st.sampled_from(SIZES),
       seed=st.integers(0, 2**32 - 1))
def test_csr_draw_matches_binary_search(table, size, seed):
    indices, indptr, data = table
    rng = np.random.default_rng(seed)
    cumulative = np.concatenate([[0.0], np.cumsum(data, dtype=float)])
    rows = rng.integers(0, indptr.size - 1, size)
    first, last = indptr[rows], indptr[rows + 1] - 1
    before = cumulative[first]
    # Plain uniforms, both extremes, and the exact CDF breakpoints of
    # each row (ties with the running sum).
    breakpoints = cumulative[np.minimum(first + rng.integers(0, 6, size),
                                        last + 1)] - before
    pools = [rng.random(size), np.zeros(size),
             np.full(size, np.nextafter(1.0, 0.0)),
             np.clip(breakpoints, 0.0, np.nextafter(1.0, 0.0))]
    uniforms = np.choose(rng.integers(0, len(pools), size), pools)
    got = _sample_csr_entries(indices, cumulative, first, last, before,
                              uniforms)
    expected = reference_entries(indices, cumulative, first, last, before,
                                 uniforms)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


# -- the two constants, on both sides ----------------------------------------


@pytest.mark.parametrize("size,searched", [
    (GUESS_CROSSOVER - 1, [GUESS_CROSSOVER - 1]), (GUESS_CROSSOVER, [])])
def test_locate_crossover(size, searched):
    nodes = uniform_grid([0.0, 1.0], 50)
    values = np.random.default_rng(0).uniform(0.0, 1.0, size)
    with counting(grid_module, "_search_cells") as calls:
        got = locate_cells(nodes, values)
    np.testing.assert_array_equal(got, reference_cells(nodes, values))
    assert calls == searched


def _equal_row(width):
    """``(indices, cumulative)`` of one row of ``width`` equal entries."""
    cumulative = np.concatenate([[0.0], np.cumsum(np.full(width,
                                                          1.0 / width))])
    return np.arange(width), cumulative


@pytest.mark.parametrize("size,searched", [
    (GUESS_CROSSOVER - 1, [GUESS_CROSSOVER - 1]), (GUESS_CROSSOVER, [])])
def test_draw_crossover(size, searched):
    indices, cumulative = _equal_row(2)
    first = np.zeros(size, dtype=np.intp)
    uniforms = np.random.default_rng(0).random(size)
    with counting(coupling, "_search_entries") as calls:
        got = _sample_csr_entries(indices, cumulative, first, first + 1,
                                  np.zeros(size), uniforms)
    np.testing.assert_array_equal(got, uniforms > 0.5)
    assert calls == searched


@pytest.mark.parametrize("steps,searched", [
    (CSR_SCAN_STEPS, []), (CSR_SCAN_STEPS + 1, [1])])
def test_scan_step_limit(steps, searched):
    # A draw in the last entry of a (steps + 1)-entry row needs `steps`
    # forward steps: the scan settles it up to the limit, and hands it
    # to the binary search beyond.  Every other draw stays on entry 0.
    indices, cumulative = _equal_row(steps + 1)
    first = np.zeros(GUESS_CROSSOVER, dtype=np.intp)
    uniforms = np.zeros(GUESS_CROSSOVER)
    uniforms[0] = np.nextafter(1.0, 0.0)
    with counting(coupling, "_search_entries") as calls:
        got = _sample_csr_entries(indices, cumulative, first, first + steps,
                                  np.zeros(GUESS_CROSSOVER), uniforms)
    assert got[0] == steps and not got[1:].any()
    assert calls == searched


def test_staircase_draws_settle_in_the_scan():
    # The limit covers the exact solver's staircases: on the paper's
    # simulated design, whose widest rows hold 5 entries, no draw
    # reaches the binary search.
    research = paper_simulation_spec().sample(
        500, rng=np.random.default_rng(1))
    plan = design_repair(research, 50)
    rng = np.random.default_rng(2)
    widest = 0
    for feature_plan in plan.feature_plans.values():
        for transport in feature_plan.transports.values():
            conditionals = transport.conditional_matrix()
            cumulative = conditional_cumulative(conditionals)
            indptr = conditionals.indptr
            widest = max(widest, int(np.diff(indptr).max()))
            # Every row, half the draws in its last entry.
            rows = np.repeat(np.arange(indptr.size - 1), 8)
            first, last = indptr[rows], indptr[rows + 1] - 1
            uniforms = rng.random(rows.size)
            uniforms[::2] = np.nextafter(1.0, 0.0)
            with counting(coupling, "_search_entries") as calls:
                got = _sample_csr_entries(conditionals.indices, cumulative,
                                          first, last, cumulative[first],
                                          uniforms)
            assert calls == []
            np.testing.assert_array_equal(
                got, reference_entries(conditionals.indices, cumulative,
                                       first, last, cumulative[first],
                                       uniforms))
    assert widest == CSR_SCAN_STEPS + 1


def test_one_row_broadcast_against_many_draws():
    # A scalar row sampled many times (TransportPlan.sample_conditional
    # accepts it) takes the binary search, wide row or not.
    indices, cumulative = _equal_row(CSR_SCAN_STEPS + 3)
    uniforms = np.random.default_rng(0).random(2 * GUESS_CROSSOVER)
    first, last = np.int64(0), np.int64(indices.size - 1)
    np.testing.assert_array_equal(
        _sample_csr_entries(indices, cumulative, first, last, 0.0,
                            uniforms),
        reference_entries(indices, cumulative, first, last, 0.0, uniforms))
