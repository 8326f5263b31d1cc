"""Differential tests: the sparse network simplex vs the scipy oracle.

An exact pivoting solver is exactly the kind of code that fails
*silently* — a missed candidate arc, a mishandled degenerate pivot or a
dropped tolerance produces a feasible-but-suboptimal plan that no
feasibility check catches.  This suite therefore generates randomized
balanced problems with hypothesis (varying shapes, support-mask
sparsity, degenerate/tied weights, denormal-scale costs) and checks
:func:`repro.ot.network_simplex_arcs` against the ``repro.ot.lp``-family
scipy oracle (:func:`repro.ot.solve._restricted_lp_entries`), asserting

* objective agreement to ``1e-9`` at unit cost scale,
* exact marginal feasibility of the returned flows, and
* termination with a bounded pivot count on every generated case.

Cost scales are compared at *unit scale*: the oracle is solved on the
unscaled costs and the engine's objective is divided by the scale,
because HiGHS's absolute dual tolerances make the oracle itself
suboptimal when all costs are ~1e-9 or denormal — the native engine
prices relative to the cost magnitude and stays exact there (a
regression below pins that).

The budget scales with the hypothesis profile: the default ``repro``
profile keeps tier-1 fast, the ``ci`` profile
(``--hypothesis-profile=ci``, the ``simplex-stress`` CI job) runs the
full stress budget of well over 200 generated cases across the suite.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.exceptions import InfeasibleProblemError  # noqa: E402
from repro.ot import network_simplex_arcs  # noqa: E402
from repro.ot.onedim import north_west_corner_support  # noqa: E402
from repro.ot.solve import _restricted_lp_entries  # noqa: E402

#: Objective agreement with the oracle, at unit cost scale.
VALUE_TOL = 1e-9
#: Marginal feasibility of the returned flows.
FEAS_TOL = 1e-9


def _marginal_errors(flows, rows, cols, mu, nu):
    row_sums = np.bincount(rows, weights=flows, minlength=mu.size)
    col_sums = np.bincount(cols, weights=flows, minlength=nu.size)
    return (float(np.abs(row_sums - mu).max()),
            float(np.abs(col_sums - nu).max()))


@st.composite
def transport_problems(draw):
    """A random balanced arc-list problem plus its generation knobs.

    Returns ``(rows, cols, base_costs, mu, nu, scale, opts)`` where the
    arcs always contain the NW staircase (so the problem is feasible),
    the weights may be smooth (dirichlet), tied (small integer ratios)
    or fully degenerate uniform, the costs may carry ties, ``scale``
    stresses the pricing tolerances down to denormal range, and
    ``opts`` is either empty (the default tolerance) or ``tol=0``, where
    round-off alone decides the sign of a reduced cost.
    """
    n = draw(st.integers(min_value=2, max_value=18))
    m = draw(st.integers(min_value=2, max_value=18))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    weight_kind = draw(st.sampled_from(["smooth", "tied", "uniform"]))
    mask_density = draw(st.sampled_from([None, 0.2, 0.5]))
    tied_costs = draw(st.booleans())
    scale = draw(st.sampled_from([1.0, 1e-9, 1e-300]))
    opts = draw(st.sampled_from([{}, {"tol": 0.0}]))
    rng = np.random.default_rng(seed)

    if weight_kind == "smooth":
        mu = rng.dirichlet(np.ones(n))
        nu = rng.dirichlet(np.ones(m))
    elif weight_kind == "tied":
        # Small integer mass ratios: maximally many exact ties in the
        # staircase walk and in pivot ratio tests -> degenerate pivots.
        mu = rng.integers(1, 4, size=n).astype(float)
        nu = rng.integers(1, 4, size=m).astype(float)
        mu /= mu.sum()
        nu /= nu.sum()
    else:
        mu = np.full(n, 1.0 / n)
        nu = np.full(m, 1.0 / m)

    if mask_density is None:
        rows, cols = np.nonzero(np.ones((n, m), dtype=bool))
    else:
        mask = rng.random((n, m)) < mask_density
        nw_rows, nw_cols = north_west_corner_support(mu, nu)
        mask[nw_rows, nw_cols] = True
        rows, cols = np.nonzero(mask)

    if tied_costs:
        base_costs = rng.integers(0, 5, size=rows.size).astype(float)
    else:
        base_costs = rng.random(rows.size)
    return rows, cols, base_costs, mu, nu, scale, opts


class TestDifferentialOracle:
    @given(problem=transport_problems())
    def test_objective_and_feasibility_match_oracle(self, problem):
        rows, cols, base_costs, mu, nu, scale, opts = problem
        outcome = network_simplex_arcs(rows, cols, base_costs * scale,
                                       mu, nu, **opts)
        _, _, oracle_value = _restricted_lp_entries(
            base_costs, rows, cols, (mu.size, nu.size), mu, nu)
        assert outcome.value / scale == pytest.approx(oracle_value,
                                                      abs=VALUE_TOL)
        row_err, col_err = _marginal_errors(outcome.flows, rows, cols,
                                            mu, nu)
        assert row_err <= FEAS_TOL and col_err <= FEAS_TOL
        assert np.all(outcome.flows >= 0.0)

    @given(problem=transport_problems(),
           jitter_seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_warm_start_reaches_cold_objective(self, problem, jitter_seed):
        """A basis from a perturbed problem must warm-start to the same
        optimum as a cold solve — never to a stale or infeasible one."""
        rows, cols, base_costs, mu, nu, scale, _ = problem
        del scale  # the warm-start property is scale-free; test at 1.0
        rng = np.random.default_rng(jitter_seed)
        jitter = 1.0 + 0.2 * rng.random(mu.size + nu.size)
        mu_prev = mu * jitter[:mu.size]
        mu_prev /= mu_prev.sum()
        nu_prev = nu * jitter[mu.size:]
        nu_prev /= nu_prev.sum()
        # The mask was made feasible for (mu, nu); the perturbed
        # marginals may strand mass on it, so union *their* staircase
        # into the previous solve's arcs (exactly what the screened
        # solver's mask recipe does per stage).  The resulting state may
        # contain arcs outside the original list — the warm start must
        # drop them.
        prev_rows, prev_cols = north_west_corner_support(mu_prev, nu_prev)
        cost_of = {(r, c): v for r, c, v in zip(rows, cols, base_costs)}
        all_rows = np.concatenate([rows, prev_rows])
        all_cols = np.concatenate([cols, prev_cols])
        all_costs = np.array([cost_of.get((r, c), 1.0)
                              for r, c in zip(all_rows, all_cols)])
        previous = network_simplex_arcs(all_rows, all_cols, all_costs,
                                        mu_prev, nu_prev)
        cold = network_simplex_arcs(rows, cols, base_costs, mu, nu)
        warm = network_simplex_arcs(rows, cols, base_costs, mu, nu,
                                    init=previous.state)
        assert warm.warm_started
        assert warm.value == pytest.approx(cold.value, abs=1e-11)
        row_err, col_err = _marginal_errors(warm.flows, rows, cols,
                                            mu, nu)
        assert row_err <= FEAS_TOL and col_err <= FEAS_TOL


class TestTermination:
    @given(n=st.integers(min_value=2, max_value=30),
           cost_value=st.sampled_from([0.0, 1.0]))
    def test_fully_degenerate_uniform_terminates(self, n, cost_value):
        """The classic cycling trap: uniform marginals make *every*
        pivot degenerate (theta == 0 everywhere off the diagonal of
        ties); Bland's-rule fallback must still terminate, at the
        optimum."""
        rows, cols = np.nonzero(np.ones((n, n), dtype=bool))
        costs = np.full(rows.size, cost_value)
        mu = np.full(n, 1.0 / n)
        outcome = network_simplex_arcs(rows, cols, costs, mu, mu)
        assert outcome.value == pytest.approx(cost_value, abs=1e-12)
        row_err, col_err = _marginal_errors(outcome.flows, rows, cols,
                                            mu, mu)
        assert max(row_err, col_err) <= FEAS_TOL

    @settings(max_examples=20)
    @given(n=st.integers(min_value=3, max_value=12),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_tied_integer_costs_terminate_at_oracle_value(self, n, seed):
        """Integer costs on integer-ratio weights: ties in both the
        pricing and the ratio test, the degenerate-streak trigger's
        natural habitat."""
        rng = np.random.default_rng(seed)
        rows, cols = np.nonzero(np.ones((n, n), dtype=bool))
        costs = rng.integers(0, 3, size=rows.size).astype(float)
        mu = rng.integers(1, 3, size=n).astype(float)
        mu /= mu.sum()
        outcome = network_simplex_arcs(rows, cols, costs, mu, mu)
        _, _, oracle_value = _restricted_lp_entries(
            costs, rows, cols, (n, n), mu, mu)
        assert outcome.value == pytest.approx(oracle_value, abs=VALUE_TOL)


class TestRegressions:
    def test_denormal_costs_stay_exact(self):
        """Pricing must be scale-relative: with absolute tolerance
        floors, costs ~1e-300 vanish into the big-M root potentials and
        the solver declares instant bogus optimality (caught by this
        suite's first stress run)."""
        rng = np.random.default_rng(7)
        n = 20
        rows, cols = np.nonzero(np.ones((n, n), dtype=bool))
        base_costs = rng.random(rows.size)
        mu = rng.dirichlet(np.ones(n))
        nu = rng.dirichlet(np.ones(n))
        tiny = network_simplex_arcs(rows, cols, base_costs * 1e-300,
                                    mu, nu)
        _, _, oracle_value = _restricted_lp_entries(
            base_costs, rows, cols, (n, n), mu, nu)
        assert tiny.value / 1e-300 == pytest.approx(oracle_value,
                                                    abs=VALUE_TOL)

    def test_infeasible_mask_raises(self):
        # Two sources, two targets, but only arcs into target 0: the
        # mass destined for target 1 is stranded.
        rows = np.array([0, 1])
        cols = np.array([0, 0])
        with pytest.raises(InfeasibleProblemError, match="stranded"):
            network_simplex_arcs(rows, cols, np.zeros(2),
                                 np.array([0.5, 0.5]),
                                 np.array([0.6, 0.4]))

    def test_warm_start_across_different_arc_lists(self):
        """The state stores tree arcs as node pairs, so it must survive
        a support change (the multiscale/epsilon-scaling use case):
        arcs missing from the new list are dropped, the basis is
        completed, and the solve still reaches the oracle optimum."""
        rng = np.random.default_rng(11)
        n = 25
        mu = rng.dirichlet(np.ones(n))
        nu = rng.dirichlet(np.ones(n))
        cost = rng.random((n, n))
        wide = rng.random((n, n)) < 0.5
        narrow = rng.random((n, n)) < 0.3
        nw_rows, nw_cols = north_west_corner_support(mu, nu)
        for mask in (wide, narrow):
            mask[nw_rows, nw_cols] = True
        w_rows, w_cols = np.nonzero(wide)
        previous = network_simplex_arcs(w_rows, w_cols,
                                        cost[w_rows, w_cols], mu, nu)
        n_rows, n_cols = np.nonzero(narrow)
        warm = network_simplex_arcs(n_rows, n_cols,
                                    cost[n_rows, n_cols], mu, nu,
                                    init=previous.state)
        _, _, oracle_value = _restricted_lp_entries(
            cost[n_rows, n_cols], n_rows, n_cols, (n, n), mu, nu)
        assert warm.warm_started
        assert warm.value == pytest.approx(oracle_value, abs=VALUE_TOL)
