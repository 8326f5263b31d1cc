"""Differential tests: Algorithm 2's table-speed kernels vs the binary
search they replace.

Two kernels skip :func:`numpy.searchsorted` on large dispatches:

* :func:`repro.density.grid.locate_cells` guesses each value's grid cell
  from the mean node spacing and corrects it by one step each way;
* :class:`repro.ot.coupling.CSRSampler` reads each draw's entry from a
  one-byte guide table per CSR row, whose bins answer every uniform
  between their edges when both edges draw the same entry.

Both promise the binary search's answer *bitwise* on every input, with
the binary search as their fallback.  That is a claim about float
edge cases (values on nodes, grids a few ulps wide, heavy-tailed node
gaps, uniforms on bin edges, row sums that round below one, stored
zeros, rows too wide for a byte offset), so this suite generates them
with hypothesis and compares against a plain ``np.searchsorted``
reference on both sides of :data:`~repro.density.grid.GUESS_CROSSOVER`.
It also checks the guide table's fast build against a binary search at
every edge, pins which path runs just below and at the crossover, and
pins how many of the paper design's draws the table leaves to the
search.

A dense transport plan samples through the sampler of its CSR copy.
The suite pins the dense copy of each generated table to that copy,
with and without leading or trailing zero columns and with uniforms on
bin edges, at 0 and just below 1, and checks that every drawn state
carries mass.

The budget scales with the hypothesis profile: the default ``repro``
profile keeps tier-1 fast; the ``ci`` profile
(``--hypothesis-profile=ci``, the ``simplex-stress`` CI job) runs the
stress budget.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from scipy import sparse

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.core.design import design_repair  # noqa: E402
from repro.core.plan import FeaturePlan  # noqa: E402
from repro.core.repair import PreparedFeatureRepair  # noqa: E402
from repro.data.simulated import paper_simulation_spec  # noqa: E402
from repro.density import grid as grid_module  # noqa: E402
from repro.density.grid import (GUESS_CROSSOVER,  # noqa: E402
                                InterpolationGrid, locate_cells,
                                uniform_grid)
from repro.ot import coupling  # noqa: E402
from repro.ot.coupling import (GUIDE_BINS, CSRSampler,  # noqa: E402
                               TransportPlan, _csr_from_canonical,
                               _guide_table, _search_entries)

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
    1 to 300 entries (many wider than the guide's bins, some wider than
    a byte offset reaches), stored zeros (flat runs in the running sum),
    tiny weights, dyadic weights whose breakpoints fall on bin edges,
    and int32 or int64 index arrays."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(1, 60))
    max_width = draw(st.sampled_from([1, 2, 5, 40, 300]))
    widths = rng.integers(1, max_width + 1, n_rows)
    if draw(st.booleans()):
        weights = rng.exponential(size=widths.sum())
    else:
        weights = 2.0 ** -rng.integers(0, 6, widths.sum())
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


def sampler_of(table):
    """A :class:`CSRSampler` over the table's own arrays (scipy's
    constructor may narrow the index dtype)."""
    indices, indptr, data = table
    shape = (indptr.size - 1, int(indices.max()) + 1)
    return CSRSampler(_csr_from_canonical(data, indices, indptr, shape))


def edge_uniforms(size, rng):
    """Uniforms on the guide's bin edges ``b / GUIDE_BINS`` and both
    float neighbours of each (clipped into ``[0, 1)``)."""
    edges = rng.integers(0, GUIDE_BINS, size) / GUIDE_BINS
    side = rng.integers(-1, 2, size)
    below = np.nextafter(edges, -np.inf)
    above = np.nextafter(edges, np.inf)
    picked = np.choose(side + 1, [below, edges, above])
    return np.clip(picked, 0.0, np.nextafter(1.0, 0.0))


@given(table=csr_tables(), size=st.sampled_from(SIZES),
       seed=st.integers(0, 2**32 - 1))
def test_csr_draw_matches_binary_search(table, size, seed):
    indices, indptr, data = table
    rng = np.random.default_rng(seed)
    sampler = sampler_of(table)
    cumulative = sampler.cumulative
    rows = rng.integers(0, indptr.size - 1, size)
    first, last = indptr[rows], indptr[rows + 1] - 1
    before = cumulative[first]
    # Plain uniforms, both extremes, the exact CDF breakpoints of each
    # row (ties with the running sum), and the guide's bin edges with
    # their float neighbours.
    breakpoints = cumulative[np.minimum(first + rng.integers(0, 6, size),
                                        last + 1)] - before
    pools = [rng.random(size), np.zeros(size),
             np.full(size, np.nextafter(1.0, 0.0)),
             np.clip(breakpoints, 0.0, np.nextafter(1.0, 0.0)),
             edge_uniforms(size, rng)]
    uniforms = np.choose(rng.integers(0, len(pools), size), pools)
    got = sampler.sample(rows, uniforms)
    expected = reference_entries(indices, cumulative, first, last, before,
                                 uniforms)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


@given(table=csr_tables())
def test_guide_table_matches_search_at_every_edge(table):
    # The guess-and-correct build against the plain one: a binary
    # search at each of the B + 1 edges of every row.  Bin b holds the
    # offset both its edges draw, or 255 when they differ or the offset
    # does not fit a byte.
    sampler = sampler_of(table)
    first, last = sampler.first, sampler.last
    cumulative = sampler.cumulative
    edges = np.arange(GUIDE_BINS + 1) / GUIDE_BINS
    entry = _search_entries(
        cumulative, first[:, None], last[:, None],
        cumulative[first][:, None] + edges[None, :])
    offset = entry - first[:, None]
    lower, upper = offset[:, :-1], offset[:, 1:]
    expected = np.where((lower == upper) & (lower < 255), lower, 255)
    got = _guide_table(cumulative, first, last)
    assert got.dtype == np.uint8
    np.testing.assert_array_equal(got.reshape(-1, GUIDE_BINS), expected)


@given(table=csr_tables(), seed=st.integers(0, 2**32 - 1))
def test_uniforms_outside_the_unit_interval_match_the_search(table, seed):
    # The guide only covers [0, 1); other uniforms (a caller's own)
    # must still draw what the binary search draws.
    indices, indptr, _ = table
    rng = np.random.default_rng(seed)
    sampler = sampler_of(table)
    cumulative = sampler.cumulative
    size = 2 * GUESS_CROSSOVER
    rows = rng.integers(0, indptr.size - 1, size)
    first, last = indptr[rows], indptr[rows + 1] - 1
    uniforms = rng.random(size)
    uniforms[rng.integers(0, size)] = rng.choice([1.0, 1.5, -0.25])
    np.testing.assert_array_equal(
        sampler.sample(rows, uniforms),
        reference_entries(indices, cumulative, first, last,
                          cumulative[first], uniforms))


# -- dense plans draw what their CSR copies draw -----------------------------


@given(table=csr_tables(), size=st.sampled_from(SIZES),
       lead=st.sampled_from([0, 1, 3]), trail=st.sampled_from([0, 1, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_dense_plan_draws_what_its_csr_copy_draws(table, size, lead, trail,
                                                  seed):
    # The table laid out densely, behind `lead` and before `trail` zero
    # columns; its stored zeros become plain zeros of the dense plan.
    indices, indptr, data = table
    n_rows = indptr.size - 1
    dense = np.zeros((n_rows, lead + int(indices.max()) + 1 + trail))
    row_of = np.repeat(np.arange(n_rows), np.diff(indptr))
    dense[row_of, lead + indices] = data
    plan = TransportPlan(dense, np.arange(n_rows), np.arange(dense.shape[1]))
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n_rows, size)
    pools = [rng.random(size), np.zeros(size),
             np.full(size, np.nextafter(1.0, 0.0)), edge_uniforms(size, rng)]
    uniforms = np.choose(rng.integers(0, len(pools), size), pools)
    got = plan.conditional_sampler().sample(rows, uniforms)
    np.testing.assert_array_equal(
        got, plan.to_sparse().conditional_sampler().sample(rows, uniforms))
    assert np.all(dense[rows, got] > 0.0)


def test_zero_mass_last_column_is_never_drawn():
    # The row [0.1, 0.3, 0.2, 0.0] at the largest uniform below one: a
    # row-CDF scan whose last column is forced to 1 draws node 3, which
    # carries no mass; the sampler draws node 2, through the
    # Algorithm-2 kernel and `sample_targets` alike.
    nodes = np.arange(4.0)
    matrix = np.diag([0.0, 0.1, 0.1, 0.2])
    matrix[0] = [0.1, 0.3, 0.2, 0.0]
    feature_plan = FeaturePlan(
        grid=InterpolationGrid(nodes), marginals={0: matrix.sum(axis=1)},
        barycenter=matrix.sum(axis=0),
        transports={0: TransportPlan(matrix, nodes, nodes)})
    top = np.array([np.nextafter(1.0, 0.0)])
    kernel = PreparedFeatureRepair(feature_plan, 0, rounding="nearest")
    np.testing.assert_array_equal(
        kernel.apply(np.array([0.0]), (None, top, None)), [2.0])
    np.testing.assert_array_equal(
        feature_plan.sample_targets(0, np.array([0]), top), [2])


# -- the crossover and the guide's coverage ----------------------------------


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
    """A one-row :class:`CSRSampler` over ``width`` equal entries."""
    return CSRSampler(sparse.csr_array(np.full((1, width), 1.0 / width)))


@pytest.mark.parametrize("size,searched", [
    (GUESS_CROSSOVER - 1, list(range(GUIDE_BINS))), (GUESS_CROSSOVER, [16])])
def test_draw_crossover(size, searched):
    # `searched` lists the bins whose draws reach the binary search:
    # all of them below the crossover; from it on, only bin 16, whose
    # lower edge is the row's breakpoint 0.5 (u = 0.5 draws entry 0,
    # any larger u in the bin entry 1).
    sampler = _equal_row(2)
    rows = np.zeros(size, dtype=np.intp)
    uniforms = np.random.default_rng(0).random(size)
    in_searched = np.isin((uniforms * GUIDE_BINS).astype(int), searched)
    with counting(coupling, "_search_entries") as calls:
        got = sampler.sample(rows, uniforms)
    np.testing.assert_array_equal(got, uniforms > 0.5)
    assert in_searched.any()
    assert calls == [int(in_searched.sum())]


@pytest.mark.parametrize("n_states", [50, 2000])
def test_guide_answers_most_staircase_draws(n_states):
    # A staircase row of the exact solver holds about one breakpoint,
    # so about one bin in 32 is ambiguous: measured 2.9% at n_Q = 50 and
    # 2.2% at n_Q = 2000 on this design (1.7% at n_Q = 2000 with the
    # 20,000 research rows of the fine-grid benchmark).
    research = paper_simulation_spec().sample(
        500, rng=np.random.default_rng(1))
    plan = design_repair(research, n_states)
    shares = []
    for feature_plan in plan.feature_plans.values():
        for transport in feature_plan.transports.values():
            sampler = transport.conditional_sampler()
            guide = _guide_table(sampler.cumulative, sampler.first,
                                 sampler.last)
            shares.append(np.mean(guide == 255))
    assert 0.0 < max(shares) <= 0.035


def test_one_row_broadcast_against_many_draws():
    # A scalar row sampled many times (TransportPlan.sample_conditional
    # accepts it) takes the binary search, wide row or not.
    sampler = _equal_row(7)
    uniforms = np.random.default_rng(0).random(2 * GUESS_CROSSOVER)
    row = np.int64(0)
    np.testing.assert_array_equal(
        sampler.sample(row, uniforms),
        reference_entries(sampler.indices, sampler.cumulative,
                          sampler.first[row], sampler.last[row], 0.0,
                          uniforms))
