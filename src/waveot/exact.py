"""Exact discrete optimal transport with ground cost |x - y|^s, 0 < s <= 1.

The solver is a dense transportation simplex (network simplex specialized
to the bipartite transportation polytope): northwest-corner starting basis
and Dantzig pricing that falls back to Bland's smallest-index rule whenever
a run of degenerate pivots is detected, which guarantees termination
without cycling.  Each pivot makes one pass over the basis tree, which
gives the duals and the parent and depth of every node; the entering arc's
cycle is then read off the parent pointers.  Degenerate bases are carried
explicitly as zero-flow basic arcs, so marginals stay exact instead of
being smeared by weight perturbations.  Residual problems past
_MAX_RESIDUAL_CELLS are refused before anything is allocated.

w1_cdf provides the closed-form 1-D W1 value (area between CDFs on the
merged support grid) used as an independent oracle for s = 1.
"""

from dataclasses import dataclass

import numpy as np

from ._num import abs_power
from .densities import DiscreteMeasure
from .errors import (InvalidExponent, InvalidGrid, SolverDidNotConverge,
                     UnbalancedMarginals)

__all__ = ["TransportPlan", "exact_ws", "w1_cdf"]

_BALANCE_TOL = 1e-9
_DEGENERATE_STREAK = 30
# pivot budget on an m x n residual: _PIVOTS_PER_NODE * (m + n) + _PIVOTS_EXTRA
_PIVOTS_PER_NODE = 200
_PIVOTS_EXTRA = 10_000
# most residual cells m * n; the cost matrix, the reduced costs and the
# cost rows as Python floats take about 48 bytes a cell, 200 MB at the limit
_MAX_RESIDUAL_CELLS = 1 << 22


@dataclass(frozen=True)
class TransportPlan:
    """Optimal coupling as sparse (source, target, mass) entries."""

    entries: list
    total_cost: float


def _check_balanced(mu: DiscreteMeasure, nu: DiscreteMeasure):
    for m in (mu, nu):
        if len(m) == 0:
            raise UnbalancedMarginals("measures must be nonempty")
        if not abs(m.weights.sum() - 1.0) <= _BALANCE_TOL:
            raise UnbalancedMarginals(
                f"weights sum to {m.weights.sum():.12g}, expected 1")


def w1_cdf(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """W1 between discrete measures: integral of |F_mu - F_nu| over the
    merged grid of support points (exact for discrete inputs)."""
    _check_balanced(mu, nu)
    pts = np.sort(np.concatenate([mu.positions, nu.positions]))
    cw_mu = np.concatenate([[0.0], np.cumsum(mu.weights)])
    cw_nu = np.concatenate([[0.0], np.cumsum(nu.weights)])
    f_mu = cw_mu[np.searchsorted(mu.positions, pts[:-1], side="right")]
    f_nu = cw_nu[np.searchsorted(nu.positions, pts[:-1], side="right")]
    return float(np.sum(np.abs(f_mu - f_nu) * np.diff(pts)))


def exact_ws(mu: DiscreteMeasure, nu: DiscreteMeasure, s: float):
    """Minimize sum gamma_ij |x_i - y_j|^s over transport plans.

    Returns (cost, TransportPlan); the plan indexes the original atoms
    (zero-weight atoms are pruned before solving and never carry mass).

    Because |x - y|^s is itself a metric for 0 < s <= 1, the optimal value
    depends only on mu - nu, so mass shared at exactly coincident
    positions is matched in place at zero cost and only the residual
    measures enter the simplex.  This is an exact reduction, and it makes
    solves between discretizations on a common grid fast.
    """
    if not 0.0 < s <= 1.0:
        raise InvalidExponent(f"s must lie in (0, 1], got {s}")
    _check_balanced(mu, nu)

    keep_i = np.flatnonzero(mu.weights > 0.0)
    keep_j = np.flatnonzero(nu.weights > 0.0)
    x = mu.positions[keep_i]
    y = nu.positions[keep_j]
    a = mu.weights[keep_i].copy()
    b = nu.weights[keep_j].copy()

    # positions are strictly increasing, so the matches come in ascending order
    _, ci, cj = np.intersect1d(x, y, assume_unique=True, return_indices=True)
    t = np.minimum(a[ci], b[cj])
    a[ci] -= t
    b[cj] -= t
    entries = list(zip(keep_i[ci].tolist(), keep_j[cj].tolist(), t.tolist()))

    ir = np.flatnonzero(a > 0.0)
    jr = np.flatnonzero(b > 0.0)
    total = 0.0
    if len(ir) > 0 and len(jr) > 0:
        if len(ir) * len(jr) > _MAX_RESIDUAL_CELLS:
            raise InvalidGrid(
                f"the {len(ir)} x {len(jr)} residual problem exceeds the solver's "
                f"budget of {_MAX_RESIDUAL_CELLS} cells; use fewer grid points")
        cost = abs_power(x[ir][:, None] - y[jr][None, :], s)
        flows = _transport_simplex(cost, a[ir], b[jr])
        for (ii, jj), f in flows.items():
            total += f * cost[ii, jj]
            if f > 0.0:
                entries.append((int(keep_i[ir[ii]]), int(keep_j[jr[jj]]), float(f)))
    return float(total), TransportPlan(entries=entries, total_cost=float(total))


def _northwest_corner(a, b):
    """Initial basic feasible solution with exactly m + n - 1 arcs
    (degenerate arcs carry flow zero)."""
    m, n = len(a), len(b)
    rem_a = a.astype(float).copy()
    rem_b = b.astype(float).copy()
    flows = {}
    i = j = 0
    while True:
        t = min(rem_a[i], rem_b[j])
        flows[(i, j)] = t
        rem_a[i] -= t
        rem_b[j] -= t
        if i == m - 1 and j == n - 1:
            break
        if rem_a[i] <= rem_b[j] and i < m - 1:
            i += 1
        elif j < n - 1:
            j += 1
        else:
            i += 1
    return flows


def _tree_duals(cost_rows, row_adj, col_adj, m, n):
    """One pass over the basis tree rooted at row 0: duals with u[0] = 0,
    and each node's parent and depth (columns encoded as m + j, the
    root's parent is -1); plain-Python traversal for speed."""
    u = [0.0] * m
    v = [0.0] * n
    parent = [-1] * (m + n)
    depth = [-1] * (m + n)
    depth[0] = 0
    stack = [0]
    push = stack.append
    while stack:
        k = stack.pop()
        below = depth[k] + 1
        if k < m:
            ck = cost_rows[k]
            uk = u[k]
            for j in row_adj[k]:
                c = m + j
                if depth[c] < 0:
                    depth[c] = below
                    parent[c] = k
                    v[j] = ck[j] - uk
                    push(c)
        else:
            j = k - m
            vk = v[j]
            for i in col_adj[j]:
                if depth[i] < 0:
                    depth[i] = below
                    parent[i] = k
                    u[i] = cost_rows[i][j] - vk
                    push(i)
    return u, v, parent, depth


def _cycle(parent, depth, ei, ej, m):
    """Arcs of the tree path that the entering arc (ei, ej) closes into a
    cycle, as (minus, plus): the arcs that lose theta and those that gain
    it.  The path is found by walking up from row ei and column m + ej
    until the walks meet.  The entering arc gains theta and the path from
    ei alternates -, +, -, ..., so an arc run from a row to a column loses
    it: a row's arc to its parent on the ei side, a column's on the ej
    side."""
    minus, plus = [], []
    a, b = ei, m + ej
    while a != b:
        if depth[a] >= depth[b]:
            p = parent[a]
            if a < m:
                minus.append((a, p - m))
            else:
                plus.append((p, a - m))
            a = p
        else:
            p = parent[b]
            if b >= m:
                minus.append((p, b - m))
            else:
                plus.append((b, p - m))
            b = p
    return minus, plus


def _transport_simplex(cost, a, b):
    """Solve the balanced transportation problem; returns the basic flow
    dict keyed by (row, col)."""
    m, n = cost.shape
    flows = _northwest_corner(a, b)
    row_adj = [set() for _ in range(m)]
    col_adj = [set() for _ in range(n)]
    for (i, j) in flows:
        row_adj[i].add(j)
        col_adj[j].add(i)

    cost_rows = cost.tolist()
    tol = 1e-12 * max(1.0, float(np.max(cost)))
    reduced = np.empty_like(cost)
    degenerate_streak = 0
    use_bland = False
    max_pivots = _PIVOTS_PER_NODE * (m + n) + _PIVOTS_EXTRA

    for _ in range(max_pivots):
        u, v, parent, depth = _tree_duals(cost_rows, row_adj, col_adj, m, n)
        np.subtract(cost, np.asarray(u)[:, None], out=reduced)
        reduced -= np.asarray(v)[None, :]

        if use_bland:
            neg = reduced.ravel() < -tol
            flat = int(np.argmax(neg))
            if not neg[flat]:
                break
        else:
            flat = int(np.argmin(reduced.ravel()))
            if reduced.ravel()[flat] >= -tol:
                break
        ei, ej = divmod(flat, n)

        minus, plus = _cycle(parent, depth, ei, ej, m)
        # the smallest flow to lose theta leaves, ties to the smallest arc
        theta, leaving = min((flows[arc], arc) for arc in minus)

        if theta <= tol:
            degenerate_streak += 1
            if degenerate_streak >= _DEGENERATE_STREAK:
                use_bland = True
        else:
            degenerate_streak = 0
            use_bland = False

        for arc in minus:
            nf = flows[arc] - theta
            flows[arc] = nf if nf > 0.0 else 0.0
        for arc in plus:
            flows[arc] += theta
        flows[(ei, ej)] = theta
        row_adj[ei].add(ej)
        col_adj[ej].add(ei)
        del flows[leaving]
        row_adj[leaving[0]].discard(leaving[1])
        col_adj[leaving[1]].discard(leaving[0])
    else:
        raise SolverDidNotConverge(
            f"transportation simplex did not converge within {max_pivots} pivots "
            f"on a {m} x {n} residual problem")

    return flows
