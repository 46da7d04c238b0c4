"""Exact discrete optimal transport with ground cost |x - y|^s, 0 < s <= 1.

The solver is a dense transportation simplex (network simplex specialized
to the bipartite transportation polytope): northwest-corner starting basis,
spanning-tree duals, and Dantzig pricing that falls back to Bland's
smallest-index rule whenever a run of degenerate pivots is detected, which
guarantees termination without cycling.  Degenerate bases are carried
explicitly as zero-flow basic arcs, so marginals stay exact instead of
being smeared by weight perturbations.

w1_cdf provides the closed-form 1-D W1 value (area between CDFs on the
merged support grid) used as an independent oracle for s = 1.
"""

from dataclasses import dataclass

import numpy as np

from ._num import abs_power
from .densities import DiscreteMeasure
from .errors import InvalidExponent, SolverDidNotConverge, UnbalancedMarginals

__all__ = ["TransportPlan", "exact_ws", "w1_cdf"]

_BALANCE_TOL = 1e-9
_DEGENERATE_STREAK = 30
# pivot budget on an m x n residual: _PIVOTS_PER_NODE * (m + n) + _PIVOTS_EXTRA
_PIVOTS_PER_NODE = 200
_PIVOTS_EXTRA = 10_000


@dataclass(frozen=True)
class TransportPlan:
    """Optimal coupling as sparse (source, target, mass) entries."""

    entries: list
    total_cost: float


def _check_balanced(mu: DiscreteMeasure, nu: DiscreteMeasure):
    for m in (mu, nu):
        if len(m) == 0:
            raise UnbalancedMarginals("measures must be nonempty")
        if abs(m.weights.sum() - 1.0) > _BALANCE_TOL:
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

    entries = []
    i = j = 0
    while i < len(x) and j < len(y):
        if x[i] == y[j]:
            t = min(a[i], b[j])
            if t > 0.0:
                entries.append((int(keep_i[i]), int(keep_j[j]), float(t)))
                a[i] -= t
                b[j] -= t
            i += 1
            j += 1
        elif x[i] < y[j]:
            i += 1
        else:
            j += 1

    ir = np.flatnonzero(a > 0.0)
    jr = np.flatnonzero(b > 0.0)
    total = 0.0
    if len(ir) > 0 and len(jr) > 0:
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


def _compute_duals(cost_rows, row_adj, col_adj, m, n):
    """Tree duals with u[0] = 0; plain-Python traversal for speed."""
    u = [0.0] * m
    v = [0.0] * n
    seen_u = bytearray(m)
    seen_v = bytearray(n)
    seen_u[0] = 1
    stack = [(0, True)]
    push = stack.append
    while stack:
        k, is_row = stack.pop()
        if is_row:
            ck = cost_rows[k]
            uk = u[k]
            for j in row_adj[k]:
                if not seen_v[j]:
                    seen_v[j] = 1
                    v[j] = ck[j] - uk
                    push((j, False))
        else:
            vk = v[k]
            for i in col_adj[k]:
                if not seen_u[i]:
                    seen_u[i] = 1
                    u[i] = cost_rows[i][k] - vk
                    push((i, True))
    return u, v


def _tree_path(row_adj, col_adj, src_row, dst_col, m):
    """Node path [row, col, row, ..., col] from src_row to dst_col through
    basic arcs; the tree structure makes it unique.  Columns are encoded
    as m + j internally."""
    parent = {src_row: -1}
    stack = [src_row]
    target = m + dst_col
    push = stack.append
    while stack:
        node = stack.pop()
        if node == target:
            break
        if node < m:
            for j in row_adj[node]:
                nxt = m + j
                if nxt not in parent:
                    parent[nxt] = node
                    push(nxt)
        else:
            for i in col_adj[node - m]:
                if i not in parent:
                    parent[i] = node
                    push(i)
    path = []
    node = target
    while node != -1:
        path.append(node)
        node = parent[node]
    path.reverse()
    return path


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
        u, v = _compute_duals(cost_rows, row_adj, col_adj, m, n)
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

        path = _tree_path(row_adj, col_adj, ei, ej, m)
        # entering arc gets +theta; walking the tree path from the entering
        # row, arcs alternate -, +, -, ... and the path has odd length
        cycle = []
        for k in range(len(path) - 1):
            na, nb = path[k], path[k + 1]
            arc = (na, nb - m) if na < m else (nb, na - m)
            cycle.append((arc, -1.0 if k % 2 == 0 else 1.0))

        theta = np.inf
        leaving = None
        for arc, sign in cycle:
            if sign < 0:
                f = flows[arc]
                if f < theta or (f == theta and (leaving is None or arc < leaving)):
                    theta = f
                    leaving = arc

        if theta <= tol:
            degenerate_streak += 1
            if degenerate_streak >= _DEGENERATE_STREAK:
                use_bland = True
        else:
            degenerate_streak = 0
            use_bland = False

        for arc, sign in cycle:
            nf = flows[arc] + sign * theta
            flows[arc] = nf if nf > 0.0 else 0.0
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
