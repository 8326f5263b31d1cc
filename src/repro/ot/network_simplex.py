"""Exact discrete optimal transport via the network simplex.

Solves the balanced Kantorovich linear programme

    min_π  <C, π>   s.t.  π 1 = µ,  πᵀ 1 = ν,  π >= 0

with one engine, a **sparse arc-list network simplex**
(:func:`network_simplex_arcs`, registered as ``"simplex"`` with the
aliases ``"network_simplex"`` and ``"netsimplex"``).  It works on an
explicit list of allowed coupling entries ``(rows, cols, costs)``
instead of a dense cost matrix, keeps a spanning-tree basis over the
bipartite arc graph plus an artificial root node, prices reduced costs
only on the given arcs with block/candidate-list pricing, falls back to
Bland's rule under degeneracy, and supports **warm starts** from a
previous basis (:class:`NetworkSimplexState`, returned on every solve
and accepted via ``init=``).  The same engine runs full-product solves,
masked solves, and the restricted solves of the ``"screened"`` and
``"multiscale"`` sparse hybrids.

It is implemented from first principles (no external OT library) and
cross-checked in the test-suite against a ``scipy.linprog`` oracle
(:mod:`repro.ot.lp`), including a hypothesis-driven differential suite
(``tests/ot/test_network_simplex_diff.py``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .._validation import as_probability_vector
from ..exceptions import ConvergenceError, InfeasibleProblemError, ValidationError
from .coupling import TransportPlan

__all__ = ["solve_transport", "transport_simplex", "NetworkSimplexState",
           "network_simplex_arcs", "refine_state"]


def transport_simplex(cost: np.ndarray, source_weights, target_weights, *,
                      max_iter: int | None = None,
                      tol: float = 1e-10) -> np.ndarray:
    """Return the optimal plan matrix for the balanced transport LP.

    Thin shim over :func:`repro.ot.solve` with ``method="simplex"``.

    Parameters
    ----------
    cost:
        ``(n, m)`` ground-cost matrix.
    source_weights, target_weights:
        Marginals; normalised to probability vectors (the LP is invariant to
        common rescaling).
    max_iter, tol:
        Pivot budget and optimality tolerance of
        :func:`network_simplex_arcs`.

    The plan is returned as a dense ``(n, m)`` array whatever storage
    the solver chose.
    """
    from .solve import solve
    _check_legacy_shapes(cost, source_weights, target_weights)
    return solve(cost, source_weights, target_weights, method="simplex",
                 max_iter=max_iter, tol=tol).plan.toarray()


def solve_transport(cost: np.ndarray, source_weights, target_weights,
                    source_support=None, target_support=None, *,
                    max_iter: int | None = None,
                    tol: float = 1e-10) -> TransportPlan:
    """Like :func:`transport_simplex` but returns a :class:`TransportPlan`.

    Thin shim over :func:`repro.ot.solve`; when supports are omitted,
    integer index supports are attached so the plan object remains fully
    usable (conditional rows, projections).
    """
    from .solve import solve
    _check_legacy_shapes(cost, source_weights, target_weights)
    return solve(cost, source_weights, target_weights, method="simplex",
                 source_support=source_support,
                 target_support=target_support,
                 max_iter=max_iter, tol=tol).plan


def _check_legacy_shapes(cost, source_weights, target_weights) -> None:
    """Preserve the historical error contract of these entry points:
    a marginal-size mismatch is an *infeasible problem*, not a plain
    validation failure."""
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValidationError(f"cost must be 2-D, got shape {cost.shape}")
    mu = as_probability_vector(source_weights, name="source_weights",
                               normalize=True)
    nu = as_probability_vector(target_weights, name="target_weights",
                               normalize=True)
    if mu.size != cost.shape[0] or nu.size != cost.shape[1]:
        raise InfeasibleProblemError(
            f"cost shape {cost.shape} incompatible with marginal sizes "
            f"({mu.size}, {nu.size})")


# -- sparse arc-list network simplex ----------------------------------------
#
# Bipartite min-cost-flow formulation: source node i (supply mu_i) for
# each row, target node n + j (demand nu_j) for each column, plus one
# artificial *root* node.  Real arcs are exactly the caller's (row, col)
# support entries; every non-root node additionally owns one artificial
# big-M arc to/from the root (source -> root, root -> target), which
# makes any spanning forest completable to a basis and turns
# infeasibility of the restricted support into positive artificial flow
# at optimality.

#: Pivot step lengths at or below this count as degenerate.
_MASS_TOL = 1e-13

#: Consecutive degenerate (zero-length) pivots tolerated under the
#: default block pricing before switching to Bland's rule, which cannot
#: cycle.  A non-degenerate pivot switches back.
_BLAND_TRIGGER = 32

#: Artificial flow above this at optimality means the restricted support
#: admits no coupling of the marginals (masses are probabilities, so any
#: genuinely stranded mass is far larger).
_ARTIFICIAL_FLOW_TOL = 1e-12

#: Flows this far below zero during warm-start completion mark basis
#: arcs that the new marginals cannot support; they are dropped and the
#: forest is rebuilt.
_NEGATIVE_FLOW_TOL = -1e-15


@dataclass(eq=False, repr=False)
class NetworkSimplexState:
    """A network-simplex basis, transferable between solves.

    Stores the *real* (non-artificial) tree arcs as ``(row, col)``
    node-index pairs — not arc-list positions — so a state captured on
    one arc list warm-starts a solve on a different arc list over the
    same (or a refined) node set: pairs missing from the new list are
    dropped and the forest is re-completed.  The node potentials are the
    solver's internal convention (``reduced cost = c - pi[row node] +
    pi[col node]``); they are diagnostic — a warm start recomputes exact
    potentials from the transferred tree.
    """

    tree_rows: np.ndarray
    tree_cols: np.ndarray
    potentials_source: np.ndarray
    potentials_target: np.ndarray

    def __post_init__(self):
        self.tree_rows = np.asarray(self.tree_rows, dtype=np.intp)
        self.tree_cols = np.asarray(self.tree_cols, dtype=np.intp)
        self.potentials_source = np.asarray(self.potentials_source,
                                            dtype=float)
        self.potentials_target = np.asarray(self.potentials_target,
                                            dtype=float)
        if self.tree_rows.shape != self.tree_cols.shape:
            raise ValidationError(
                "NetworkSimplexState tree_rows/tree_cols must be parallel "
                f"arrays, got {self.tree_rows.shape} vs "
                f"{self.tree_cols.shape}")

    @property
    def shape(self) -> tuple:
        """The ``(n, m)`` problem shape this state belongs to."""
        return (self.potentials_source.size, self.potentials_target.size)

    def __repr__(self):  # compact: states travel inside OTResult extras
        n, m = self.shape
        return (f"NetworkSimplexState(shape=({n}, {m}), "
                f"tree_arcs={self.tree_rows.size})")

    def __eq__(self, other):
        if not isinstance(other, NetworkSimplexState):
            return NotImplemented
        return (np.array_equal(self.tree_rows, other.tree_rows)
                and np.array_equal(self.tree_cols, other.tree_cols)
                and np.array_equal(self.potentials_source,
                                   other.potentials_source)
                and np.array_equal(self.potentials_target,
                                   other.potentials_target))


@dataclass(frozen=True)
class ArcFlowSolution:
    """Raw outcome of :func:`network_simplex_arcs`.

    ``flows`` is aligned with the *caller's* arc list (duplicate
    ``(row, col)`` entries carry their joint flow on the cheapest
    duplicate).  ``state`` warm-starts a later solve via ``init=``.
    """

    flows: np.ndarray
    value: float
    state: NetworkSimplexState
    pivots: int
    degenerate_pivots: int = 0
    bland_pivots: int = 0
    warm_started: bool = False
    extras: dict = field(default_factory=dict)


def network_simplex_arcs(rows, cols, costs, source_weights, target_weights,
                         *, init: NetworkSimplexState | None = None,
                         max_iter: int | None = None, tol: float = 1e-10,
                         block_size: int | None = None) -> ArcFlowSolution:
    """Exact balanced OT restricted to an explicit sparse arc list.

    Solves ``min sum_a c_a f_a`` over flows supported on the given
    ``(rows, cols)`` coupling entries only, with marginals
    ``source_weights`` / ``target_weights`` (normalised to probability
    vectors).  Raises :class:`~repro.exceptions.InfeasibleProblemError`
    when the arc list admits no coupling, and
    :class:`~repro.exceptions.ConvergenceError` on pivot-budget
    exhaustion.

    Parameters
    ----------
    rows, cols, costs:
        Parallel arrays: the allowed entries and their ground costs.
        Duplicate pairs are legal; the cheapest duplicate is used.
    init:
        Optional :class:`NetworkSimplexState` from a previous solve (any
        arc list over the same node sets).  Its tree arcs seed the
        starting basis; missing pairs are dropped, gaps are filled with
        north-west-corner staircase arcs present in the arc list and,
        last, artificial root arcs.
    max_iter:
        Pivot budget; defaults to ``max(2000, 20 * (n + m))``.
    tol:
        Reduced-cost optimality tolerance, relative to the largest
        absolute arc cost; finite and non-negative.
    block_size:
        Candidate-list length for block pricing; default
        ``max(64, sqrt(#arcs))``.
    """
    mu = as_probability_vector(source_weights, name="source_weights",
                               normalize=True)
    nu = as_probability_vector(target_weights, name="target_weights",
                               normalize=True)
    rows = np.asarray(rows, dtype=np.intp).ravel()
    cols = np.asarray(cols, dtype=np.intp).ravel()
    costs = np.asarray(costs, dtype=float).ravel()
    if not (rows.size == cols.size == costs.size):
        raise ValidationError(
            f"rows/cols/costs must be parallel arrays, got sizes "
            f"{rows.size}/{cols.size}/{costs.size}")
    if rows.size == 0:
        raise ValidationError("the arc list must contain at least one arc")
    n, m = mu.size, nu.size
    if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= m:
        raise ValidationError(
            f"arc indices out of range for marginals of sizes ({n}, {m})")
    if not np.all(np.isfinite(costs)):
        raise ValidationError("arc costs must be finite")
    if not (isinstance(tol, numbers.Real) and 0.0 <= tol < np.inf):
        raise ValidationError(
            f"tol must be a finite non-negative number, got {tol!r}")

    # Deduplicate (row, col) pairs keeping the cheapest arc; the kept
    # arcs come out sorted by (row, col), which fixes a deterministic
    # index order for Bland's rule and for all tie-breaking.
    key = rows.astype(np.int64) * np.int64(m) + cols.astype(np.int64)
    order = np.lexsort((costs, key))
    key_sorted = key[order]
    first = np.ones(key_sorted.size, dtype=bool)
    first[1:] = key_sorted[1:] != key_sorted[:-1]
    rep = order[first]            # original positions of the kept arcs
    arc_keys = key_sorted[first]  # sorted unique keys, parallel to ids
    engine = _ArcSimplex(rows[rep], cols[rep], costs[rep], mu, nu,
                         arc_keys=arc_keys, tol=tol, block_size=block_size)
    engine.start(init)
    pivots, degenerate, bland = engine.run(
        max_iter if max_iter is not None else max(2000, 20 * (n + m)))
    engine.check_feasible()
    flows = np.zeros(rows.size)
    flows[rep] = engine.real_flows()
    return ArcFlowSolution(flows=flows, value=engine.objective(),
                           state=engine.state(), pivots=pivots,
                           degenerate_pivots=degenerate,
                           bland_pivots=bland,
                           warm_started=engine.warm_started)


class _ArcSimplex:
    """The pivoting engine; one instance per solve, deduped arcs in."""

    def __init__(self, arc_rows, arc_cols, arc_costs, mu, nu, *, arc_keys,
                 tol, block_size):
        self.n = n = mu.size
        self.m = m = nu.size
        self.mu, self.nu = mu, nu
        self.root = n + m
        self.n_nodes = n + m + 1
        self.A = A = arc_rows.size
        self.arc_rows = arc_rows
        self.arc_cols = arc_cols
        self.arc_keys = arc_keys
        # Both the big-M cost and the pricing tolerance scale with the
        # arc costs, so the engine is invariant under cost rescaling all
        # the way down to denormal magnitudes: an absolute floor would
        # absorb tiny costs into the root potentials and stop pricing
        # from ever seeing them.
        cmax = float(np.abs(arc_costs).max())
        self.big = (n + m + 1) * cmax if cmax > 0.0 else 1.0
        # Arc ids: real arcs 0..A-1, artificial arc of node v at A + v.
        art_nodes = np.arange(n + m)
        art_tails = np.where(art_nodes < n, art_nodes, self.root)
        art_heads = np.where(art_nodes < n, self.root, art_nodes)
        self.tails = np.concatenate([arc_rows,
                                     art_tails]).astype(np.intp)
        self.heads = np.concatenate([arc_cols + n,
                                     art_heads]).astype(np.intp)
        self.costs = np.concatenate([arc_costs,
                                     np.full(n + m, self.big)])
        self.balance = np.concatenate([mu, -nu, [0.0]])
        self.price_tol = tol * cmax if cmax > 0.0 else tol
        self.block = int(block_size) if block_size else max(
            64, int(np.sqrt(A)) + 1)
        self.flow = np.zeros(A + n + m)
        self.pi = np.zeros(self.n_nodes)
        self.parent = np.full(self.n_nodes, -1, dtype=np.intp)
        self.parent_arc = np.full(self.n_nodes, -1, dtype=np.intp)
        self.depth = np.zeros(self.n_nodes, dtype=np.intp)
        self.children: list = [set() for _ in range(self.n_nodes)]
        self.in_tree = np.zeros(A + n + m, dtype=bool)
        self.warm_started = False

    # -- basis construction --------------------------------------------

    def _lookup_arcs(self, pair_rows, pair_cols) -> np.ndarray:
        """Arc ids of the (row, col) pairs present in the arc list."""
        keys = (np.asarray(pair_rows, dtype=np.int64) * self.m
                + np.asarray(pair_cols, dtype=np.int64))
        pos = np.searchsorted(self.arc_keys, keys)
        pos = np.minimum(pos, self.A - 1)
        valid = self.arc_keys[pos] == keys
        return pos[valid]

    def start(self, init: NetworkSimplexState | None) -> None:
        """Build the initial basis: warm arcs, then staircase, then root.

        One mechanism covers the cold and warm cases: a priority-ordered
        arc *forest* is completed to a spanning tree with artificial
        root arcs, flows follow by leaf elimination, and any real arc
        forced to negative flow is dropped and the forest rebuilt (each
        round removes at least one real arc, so this terminates — in the
        worst case at the all-artificial basis).
        """
        from .onedim import _staircase_walk

        preferred = []
        if init is not None:
            if not isinstance(init, NetworkSimplexState):
                raise ValidationError(
                    "init must be a NetworkSimplexState (from a previous "
                    f"solve), got {type(init).__name__}")
            if init.shape != (self.n, self.m):
                raise ValidationError(
                    f"init state has shape {init.shape}, expected "
                    f"({self.n}, {self.m})")
            if init.tree_rows.size:
                if (init.tree_rows.min() < 0
                        or init.tree_rows.max() >= self.n
                        or init.tree_cols.min() < 0
                        or init.tree_cols.max() >= self.m):
                    raise ValidationError(
                        "init state tree arcs out of range for shape "
                        f"({self.n}, {self.m})")
                preferred.append(self._lookup_arcs(init.tree_rows,
                                                   init.tree_cols))
                self.warm_started = True
        st_rows, st_cols, _ = _staircase_walk(self.mu, self.nu)
        preferred.append(self._lookup_arcs(st_rows, st_cols))
        forest = np.concatenate(preferred) if preferred else \
            np.empty(0, dtype=np.intp)
        while True:
            tree_arcs = self._complete_forest(forest)
            self._build_tree(tree_arcs)
            self._eliminate_flows()
            negative = [a for a in tree_arcs
                        if a < self.A and self.flow[a] < _NEGATIVE_FLOW_TOL]
            if not negative:
                break
            dropped = set(negative)
            forest = np.array([a for a in tree_arcs
                               if a < self.A and a not in dropped],
                              dtype=np.intp)

    def _complete_forest(self, forest_ids) -> list:
        """Union-find the forest into a spanning tree rooted via big-M arcs.

        Detached components attach to the root through the artificial
        arc of a node chosen by the component's net balance, so the
        attachment flow (the balance itself) is always non-negative: a
        positive-balance component holds a source node and exports via
        ``source -> root``; a negative one holds a target and imports
        via ``root -> target``.
        """
        parent = np.arange(self.n_nodes)

        def find(x):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        tree_arcs = []
        for a in forest_ids:
            t, h = find(self.tails[a]), find(self.heads[a])
            if t != h:
                parent[t] = h
                tree_arcs.append(int(a))
        comp = np.fromiter((find(v) for v in range(self.n_nodes)),
                           dtype=np.intp, count=self.n_nodes)
        balance = np.zeros(self.n_nodes)
        np.add.at(balance, comp, self.balance)
        root_comp = comp[self.root]
        # Best attachment node per detached component: a source when the
        # component exports mass, a target when it imports — the
        # attachment arc's leaf-elimination flow is then the component
        # balance itself, never negative.
        attach: dict = {}
        for v in range(self.n + self.m):
            c = comp[v]
            if c == root_comp:
                continue
            right_type = (v < self.n) == (balance[c] > 0.0)
            if c not in attach or (right_type and not attach[c][1]):
                attach[c] = (v, right_type)
        for v, _ in attach.values():
            tree_arcs.append(self.A + v)
        return tree_arcs

    def _build_tree(self, tree_arcs) -> None:
        """Parent/depth/children/potentials from the spanning arc set."""
        adjacency: list = [[] for _ in range(self.n_nodes)]
        for a in tree_arcs:
            t, h = self.tails[a], self.heads[a]
            adjacency[t].append((h, a))
            adjacency[h].append((t, a))
        self.in_tree[:] = False
        self.in_tree[np.asarray(tree_arcs, dtype=np.intp)] = True
        parent, parent_arc = self.parent, self.parent_arc
        depth, pi, children = self.depth, self.pi, self.children
        parent[:] = -1
        parent_arc[:] = -1
        depth[:] = 0
        pi[:] = 0.0
        for c in children:
            c.clear()
        order = [self.root]
        seen = np.zeros(self.n_nodes, dtype=bool)
        seen[self.root] = True
        stack = [self.root]
        while stack:
            v = stack.pop()
            for (w, a) in adjacency[v]:
                if seen[w]:
                    continue
                seen[w] = True
                parent[w] = v
                parent_arc[w] = a
                depth[w] = depth[v] + 1
                children[v].add(w)
                if self.tails[a] == v:
                    pi[w] = pi[v] - self.costs[a]
                else:
                    pi[w] = pi[v] + self.costs[a]
                order.append(w)
                stack.append(w)
        if len(order) != self.n_nodes:
            raise ConvergenceError(
                "network simplex basis lost connectivity")
        self._order = order

    def _eliminate_flows(self) -> None:
        """Leaf elimination: tree-arc flows from the subtree balances."""
        self.flow[:] = 0.0
        excess = self.balance.copy()
        tails, flow, parent, parent_arc = (self.tails, self.flow,
                                           self.parent, self.parent_arc)
        for v in reversed(self._order[1:]):
            a = parent_arc[v]
            if tails[a] == v:
                flow[a] = excess[v]
            else:
                flow[a] = -excess[v]
            excess[parent[v]] += excess[v]

    # -- pricing --------------------------------------------------------

    def _refresh_candidates(self):
        """Full reduced-cost sweep over the non-tree real arcs;
        most-negative block.

        Tree arcs are left out: their reduced cost is zero only up to
        round-off, which at ``tol=0`` can dip below ``-price_tol`` and
        would otherwise top every sweep without ever being able to
        enter.
        """
        rc = (self.costs[:self.A] - self.pi[self.tails[:self.A]]
              + self.pi[self.heads[:self.A]])
        negative = np.flatnonzero((rc < -self.price_tol)
                                  & ~self.in_tree[:self.A])
        if negative.size == 0:
            return None
        if negative.size > self.block:
            keep = np.argpartition(rc[negative], self.block)[:self.block]
            negative = negative[keep]
        return negative

    def _first_negative(self):
        """Bland's rule: lowest-index real arc with negative reduced cost."""
        chunk = 8192
        for start in range(0, self.A, chunk):
            stop = min(start + chunk, self.A)
            rc = (self.costs[start:stop]
                  - self.pi[self.tails[start:stop]]
                  + self.pi[self.heads[start:stop]])
            hits = np.flatnonzero(rc < -self.price_tol)
            for j in hits:
                a = start + int(j)
                if not self.in_tree[a]:
                    return a
        return None

    # -- pivoting -------------------------------------------------------

    def run(self, max_iter: int) -> tuple:
        """Pivot to optimality; returns (pivots, degenerate, bland)."""
        pivots = degenerate = bland_pivots = 0
        bland_mode = False
        streak = 0
        candidates = None
        while True:
            enter = None
            if bland_mode:
                enter = self._first_negative()
            else:
                while True:
                    if candidates is None:
                        candidates = self._refresh_candidates()
                        if candidates is None:
                            break
                    rc = (self.costs[candidates]
                          - self.pi[self.tails[candidates]]
                          + self.pi[self.heads[candidates]])
                    j = int(np.argmin(rc))
                    # Candidates hold no tree arcs: a refresh leaves them
                    # out, and the entering arc (the only one to join
                    # the tree) is dropped from the list below.
                    if rc[j] < -self.price_tol:
                        enter = int(candidates[j])
                        keep = rc < -self.price_tol
                        keep[j] = False
                        candidates = (candidates[keep] if keep.any()
                                      else None)
                        break
                    candidates = None
            if enter is None:
                return pivots, degenerate, bland_pivots
            if pivots >= max_iter:
                raise ConvergenceError(
                    "network simplex exceeded its pivot budget",
                    iterations=max_iter)
            theta = self._pivot(enter)
            pivots += 1
            if bland_mode:
                bland_pivots += 1
            if theta <= _MASS_TOL:
                degenerate += 1
                streak += 1
                if streak >= _BLAND_TRIGGER:
                    bland_mode = True
            else:
                streak = 0
                if bland_mode:
                    bland_mode = False
                    candidates = None

    def _pivot(self, enter: int) -> float:
        """One primal pivot: push along the cycle of ``enter``; re-hang."""
        tails, heads, flow = self.tails, self.heads, self.flow
        parent, parent_arc, depth = (self.parent, self.parent_arc,
                                     self.depth)
        t, h = tails[enter], heads[enter]
        # Walk both endpoints up to the lowest common ancestor, recording
        # (arc, child endpoint) per step.  Cycle orientation is the
        # entering arc's direction t -> h, so on h's side (traversed
        # child -> parent, along the cycle) an arc gains flow when it
        # points child -> parent; on t's side (traversed against the
        # cycle) when it points parent -> child.
        t_arcs: list = []
        t_nodes: list = []
        h_arcs: list = []
        h_nodes: list = []
        a_node, b_node = t, h
        while a_node != b_node:
            if depth[a_node] >= depth[b_node]:
                t_arcs.append(parent_arc[a_node])
                t_nodes.append(a_node)
                a_node = parent[a_node]
            else:
                h_arcs.append(parent_arc[b_node])
                h_nodes.append(b_node)
                b_node = parent[b_node]
        theta = np.inf
        leave = -1
        leave_node = -1
        leave_on_t_side = False
        for a, x in zip(h_arcs, h_nodes):
            if tails[a] != x:        # arc points parent -> child: loses
                f = flow[a]
                if f < theta or (f == theta and a < leave):
                    theta, leave, leave_node = f, a, x
                    leave_on_t_side = False
        for a, x in zip(t_arcs, t_nodes):
            if tails[a] == x:        # arc points child -> parent: loses
                f = flow[a]
                if f < theta or (f == theta and a < leave):
                    theta, leave, leave_node = f, a, x
                    leave_on_t_side = True
        if leave < 0:
            raise ConvergenceError(
                "network simplex found an unbounded pivot cycle")
        theta = max(theta, 0.0)
        flow[enter] += theta
        for a, x in zip(h_arcs, h_nodes):
            if tails[a] == x:
                flow[a] += theta
            else:
                flow[a] -= theta
                if flow[a] < 0.0:
                    flow[a] = 0.0
        for a, x in zip(t_arcs, t_nodes):
            if tails[a] == x:
                flow[a] -= theta
                if flow[a] < 0.0:
                    flow[a] = 0.0
            else:
                flow[a] += theta
        # Re-hang the subtree cut off by the leaving arc from the
        # entering arc's endpoint inside it.
        self.in_tree[leave] = False
        self.in_tree[enter] = True
        q = t if leave_on_t_side else h
        other = h if leave_on_t_side else t
        path_nodes = [q]
        path_arcs = []
        v = q
        while v != leave_node:
            path_arcs.append(parent_arc[v])
            v = parent[v]
            path_nodes.append(v)
        self.children[parent[leave_node]].discard(leave_node)
        for i in range(len(path_arcs)):
            child, new_parent = path_nodes[i + 1], path_nodes[i]
            self.children[child].discard(new_parent)
            self.children[new_parent].add(child)
            parent[child] = new_parent
            parent_arc[child] = path_arcs[i]
        parent[q] = other
        parent_arc[q] = enter
        self.children[other].add(q)
        # Exact depth/potential recomputation over the re-hung subtree.
        pi, costs = self.pi, self.costs
        stack = [q]
        while stack:
            v = stack.pop()
            p = parent[v]
            a = parent_arc[v]
            depth[v] = depth[p] + 1
            if tails[a] == p:
                pi[v] = pi[p] - costs[a]
            else:
                pi[v] = pi[p] + costs[a]
            stack.extend(self.children[v])
        return float(theta)

    # -- results --------------------------------------------------------

    def check_feasible(self) -> None:
        art = self.flow[self.A:]
        worst = float(art.max()) if art.size else 0.0
        if worst > _ARTIFICIAL_FLOW_TOL:
            raise InfeasibleProblemError(
                "the arc list admits no coupling of the marginals "
                f"(stranded mass {worst:.3e}); widen the support")

    def real_flows(self) -> np.ndarray:
        return np.clip(self.flow[:self.A], 0.0, None)

    def objective(self) -> float:
        return float(np.dot(self.costs[:self.A], self.real_flows()))

    def state(self) -> NetworkSimplexState:
        ids = np.flatnonzero(self.in_tree[:self.A])
        return NetworkSimplexState(
            tree_rows=self.arc_rows[ids].copy(),
            tree_cols=self.arc_cols[ids].copy(),
            potentials_source=self.pi[:self.n].copy(),
            potentials_target=self.pi[self.n:self.n + self.m].copy())


def _bin_representatives(bins: np.ndarray, weights: np.ndarray,
                         n_coarse: int) -> np.ndarray:
    """Per coarse bin, the fine index carrying the most marginal mass.

    Deterministic: weight ties resolve to the largest fine index (stable
    lexsort order).  Bins with no fine member keep ``-1`` — a state arc
    touching one cannot be mapped and is dropped by the arc lookup.
    """
    bins = np.asarray(bins, dtype=np.intp)
    reps = np.full(n_coarse, -1, dtype=np.intp)
    order = np.lexsort((np.asarray(weights, dtype=float), bins))
    last = np.ones(order.size, dtype=bool)
    last[:-1] = bins[order][1:] != bins[order][:-1]
    winners = order[last]
    reps[bins[winners]] = winners
    return reps


def refine_state(state: NetworkSimplexState, source_bins, target_bins,
                 source_weights, target_weights) -> NetworkSimplexState:
    """Map a coarse-level basis onto the fine grid it was binned from.

    Each coarse node is represented by its heaviest fine member, so a
    coarse tree arc ``(I, J)`` becomes the fine arc between the two
    representatives; the coarse potentials broadcast over each bin.  The
    result warm-starts the fine restricted solve of the multiscale
    solver (``init=``): pairs absent from the fine arc list are dropped
    there, and flows are recomputed from the fine marginals.
    """
    source_bins = np.asarray(source_bins, dtype=np.intp)
    target_bins = np.asarray(target_bins, dtype=np.intp)
    n_c, m_c = state.shape
    if source_bins.size and (source_bins.min() < 0
                             or source_bins.max() >= n_c):
        raise ValidationError(
            f"source_bins out of range for a coarse state of shape "
            f"({n_c}, {m_c})")
    if target_bins.size and (target_bins.min() < 0
                             or target_bins.max() >= m_c):
        raise ValidationError(
            f"target_bins out of range for a coarse state of shape "
            f"({n_c}, {m_c})")
    mu = np.asarray(source_weights, dtype=float)
    nu = np.asarray(target_weights, dtype=float)
    reps_source = _bin_representatives(source_bins, mu, n_c)
    reps_target = _bin_representatives(target_bins, nu, m_c)
    fine_rows = reps_source[state.tree_rows]
    fine_cols = reps_target[state.tree_cols]
    mapped = (fine_rows >= 0) & (fine_cols >= 0)
    return NetworkSimplexState(
        tree_rows=fine_rows[mapped], tree_cols=fine_cols[mapped],
        potentials_source=state.potentials_source[source_bins],
        potentials_target=state.potentials_target[target_bins])
