"""Exact discrete optimal transport with ground cost |x - y|^s, 0 < s <= 1.

The solver is a dense transportation simplex (network simplex specialized
to the bipartite transportation polytope): a starting basis from the nested
plan, which is optimal at s = 1 and leaves a few pivots for s < 1 on a
shared grid, and block pricing over ceil(sqrt(m)) rows at a time.  Each
basic flow is a pair (value, k) for value + k * eps, Orden's perturbation
(each row's supply gains eps, the last column's demand m * eps), and the
leaving arc is the lexicographic minimum of the pairs.  No perturbed basic
flow is zero, so each pivot lowers the perturbed cost and no basis
repeats; only arcs the start adds where rounding splits its plan carry
(0.0, 0), and the pivot budget stays as a backstop.  The eps is symbolic,
so marginals stay exact.  The basis tree is one graph over m + n nodes,
rows 0 .. m - 1 and columns m + j, kept as one adjacency list that stores
each basic arc's cost when the arc enters the basis.  One pass over it
gives one array of duals and the parent and depth of every node; after a
pivot only the subtree that the leaving arc cuts off is walked again, and
the entering arc's cycle is read off the parent pointers.  Residual
problems past _MAX_RESIDUAL_CELLS are refused before anything is
allocated.

w1_cdf provides the closed-form 1-D W1 value (area between CDFs on the
merged support grid) used as an independent oracle for s = 1.
"""

import math
from dataclasses import replace

import numpy as np

from .densities import DiscreteMeasure
from .errors import InvalidGrid, SolverDidNotConverge, check_exponent, checked_instance

__all__ = ["exact_ws", "w1_cdf"]

# pivot budget on an m x n residual: _PIVOTS_PER_NODE * (m + n) + _PIVOTS_EXTRA
_PIVOTS_PER_NODE = 200
_PIVOTS_EXTRA = 10_000
# most residual cells m * n; by tracemalloc, building the cost matrix
# peaks at 8 bytes a cell (abs_power overwrites the differences), and the
# solve holds the costs, one block of reduced costs and the basis, 11.6-11.9
# bytes a cell on 300- and 600-point residuals, so under 50 MB at the limit
_MAX_RESIDUAL_CELLS = 1 << 22


def _reread(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Both measures re-read through DiscreteMeasure's constructor, whose
    rules then also refuse arrays a caller has edited through a view, and
    refused if their positions together span more than a double holds."""
    mu, nu = (replace(checked_instance(m, DiscreteMeasure, InvalidGrid)) for m in (mu, nu))
    ends = [m.positions.item(i) for m in (mu, nu) for i in (0, -1)]
    if not max(ends) - min(ends) < math.inf:  # Python floats: no numpy overflow warning
        raise InvalidGrid(f"the measures span [{min(ends)}, {max(ends)}], wider than a double")
    return mu, nu


def w1_cdf(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """W1 between discrete measures: integral of |F_mu - F_nu| over the
    merged grid of support points (exact for discrete inputs)."""
    mu, nu = _reread(mu, nu)
    pts = np.sort(np.concatenate([mu.positions, nu.positions]))
    cw_mu = np.concatenate([[0.0], np.cumsum(mu.weights)])
    cw_nu = np.concatenate([[0.0], np.cumsum(nu.weights)])
    f_mu = cw_mu[np.searchsorted(mu.positions, pts[:-1], side="right")]
    f_nu = cw_nu[np.searchsorted(nu.positions, pts[:-1], side="right")]
    return float(np.sum(np.abs(f_mu - f_nu) * np.diff(pts)))


def abs_power(x, s):
    """|x| ** s, elementwise, for s in (0, 1]; zeros map to zero.  Works in
    place: the float array x is overwritten with the result and returned,
    so callers pass a fresh array.  `x **= s` takes numpy's sqrt and
    identity paths at s = 0.5 and 1, as `np.abs(x) ** s` does, so the
    values are the same bits."""
    np.abs(x, out=x)
    x **= s
    return x


def exact_ws(mu: DiscreteMeasure, nu: DiscreteMeasure, s: float):
    """Minimize sum gamma_ij |x_i - y_j|^s over transport plans.

    Returns (cost, plan), the plan a list of (i, j, mass) triples over the
    original atoms, common-mass matches first; zero-weight atoms get none.

    Because |x - y|^s is itself a metric for 0 < s <= 1, the optimal value
    depends only on mu - nu, so mass shared at exactly coincident
    positions is matched in place at zero cost and only the residual
    measures enter the simplex.  This is an exact reduction, and it makes
    solves between discretizations on a common grid fast.
    """
    check_exponent(s)
    mu, nu = _reread(mu, nu)

    x, y = mu.positions, nu.positions
    a, b = mu.weights.copy(), nu.weights.copy()
    # positions are strictly increasing, so the matches come in ascending order
    _, ci, cj = np.intersect1d(x, y, assume_unique=True, return_indices=True)
    t = np.minimum(a[ci], b[cj])
    a[ci] -= t
    b[cj] -= t
    # an atom without mass matches nothing and never enters the residual
    matched = t > 0.0
    entries = list(zip(ci[matched].tolist(), cj[matched].tolist(), t[matched].tolist()))

    ir, jr = np.flatnonzero(a > 0.0), np.flatnonzero(b > 0.0)
    total = 0.0
    if len(ir) > 0 and len(jr) > 0:
        if len(ir) * len(jr) > _MAX_RESIDUAL_CELLS:
            raise InvalidGrid(
                f"the {len(ir)} x {len(jr)} residual problem exceeds the solver's "
                f"budget of {_MAX_RESIDUAL_CELLS} cells; use fewer grid points")
        xr, yr = x[ir], y[jr]
        cost = abs_power(xr[:, None] - yr[None, :], s)
        flows = _transport_simplex(cost, _nested_start(xr, yr, a[ir], b[jr]))
        for (ii, jj), (f, _) in flows.items():
            total += f * cost[ii, jj]
            if f > 0.0:
                entries.append((int(ir[ii]), int(jr[jj]), float(f)))
    return float(total), entries


def _nested_start(x, y, a, b):
    """Starting basis from the nested plan: m + n - 1 arcs keyed by (row,
    col) spanning the rows at x and the columns at y (sorted positions,
    none shared between the sides), each flow a pair (value, k) standing
    for value + k * eps.

    One scan in position order matches each atom against the unmatched
    mass of opposite sign on top of a stack, which holds one sign at a
    time.  The result is the level-by-level plan of F_mu - F_nu: W1-optimal
    and, like every optimal plan for s < 1, free of crossing arcs (McCann
    1999).  The symbolic eps on the masses keeps remainders from tying, so
    its arcs form one tree and every flow it places is positive in the
    perturbed problem; union-find joins what rounding or atoms without
    mass leave apart with (0.0, 0) arcs, each atom to the nearest earlier
    atom of the other side (or the first one).  Mass the scan cannot place,
    the rounding gap between the two sums, stays on the atoms of the
    larger side."""
    m, n = len(a), len(b)
    order = np.argsort(np.concatenate([x, y]), kind="stable").tolist()
    # a mass (value, e) stands for value + e * eps: each row with mass gains
    # eps and the last column their total, which keeps the stack from
    # emptying before the end (Orden's perturbation of the supplies)
    rows_with_mass = int(np.count_nonzero(a))
    mass = [(w, 1 if w > 0.0 else 0) for w in a.tolist()] + \
        [(w, 0) for w in b[:-1].tolist()] + [(float(b[-1]), rows_with_mass)]
    empty = (0.0, 0)
    flows = {}
    stack = []
    for k in order:
        w = mass[k]
        while w > empty and stack and (stack[-1] < m) != (k < m):
            top = stack[-1]
            t = min(w, mass[top])
            flows[(k, top - m) if k < m else (top, k - m)] = t
            w = (w[0] - t[0], w[1] - t[1])
            rest = mass[top] = (mass[top][0] - t[0], mass[top][1] - t[1])
            if rest <= empty:
                stack.pop()
        if w > empty:
            mass[k] = w
            stack.append(k)

    root = list(range(m + n))

    def find(k):
        while root[k] != k:
            root[k] = root[root[k]]
            k = root[k]
        return k

    for i, j in flows:
        root[find(i)] = find(m + j)
    last = [0, m]  # the first row and the first column
    for k in order:
        side = k >= m
        q = last[not side]
        if find(k) != find(q):
            root[find(k)] = find(q)
            flows[(q, k - m) if side else (k, q - m)] = empty
        last[side] = k
    assert len(flows) == m + n - 1
    return flows


def _tree_duals(adj, top, dual, parent, depth):
    """Walk the basis tree below node `top`, whose dual, parent and depth
    are set, and give each node below its own: the arc's cost minus the
    parent's dual, the parent, one more than the parent's depth.  Nodes
    are rows 0 .. m - 1 and columns m + j; adj[k] maps each node joined to
    k by a basic arc to the arc's cost.  From row 0 with dual 0, parent -1
    and depth 0 this is the full pass; a node's path from row 0 is unique,
    so a walk below any `top` gives the full pass's floating-point duals.
    Plain-Python traversal for speed."""
    stack = [top]
    push = stack.append
    while stack:
        k = stack.pop()
        up = parent[k]
        below = depth[k] + 1
        dk = dual[k]
        for node, c in adj[k].items():
            if node != up:
                depth[node] = below
                parent[node] = k
                dual[node] = c - dk
                push(node)


def _cycle(parent, depth, ei, ej, m):
    """Arcs of the tree path that the entering arc (ei, ej) closes into a
    cycle, as (minus, plus): the arcs that lose theta and those that gain
    it.  The path is found by walking up from row ei and column m + ej
    until the walks meet, the deeper end first and the ei end on ties.
    The entering arc gains theta and the path from ei alternates -, +, -,
    ..., so an arc run from a row to a column loses it: a row's arc to its
    parent on the ei walk, a column's on the ej walk."""
    minus, plus = [], []
    ends = [ei, m + ej]
    while ends[0] != ends[1]:
        side = depth[ends[0]] < depth[ends[1]]
        k = ends[side]
        p = parent[k]
        row = k < m
        (minus if row != side else plus).append((k, p - m) if row else (p, k - m))
        ends[side] = p
    return minus, plus


def _transport_simplex(cost, flows):
    """Solve the balanced transportation problem from the spanning-tree
    basis `flows` (arcs keyed by (row, col) to (value, eps count) pairs,
    updated in place); returns the optimal basic flows.  Each basic arc's
    cost is read from `cost` once, when the arc enters the basis.

    Pricing takes blocks of ceil(sqrt(m)) rows into one reused buffer,
    from the block that gave the last entering arc: the most negative arc
    of the first block with one below -tol enters, and the basis is
    optimal once a full cycle of blocks finds none (block pivoting,
    Grigoriadis 1986).  A pivot changes only the subtree that the leaving
    arc cuts off, so that subtree is hung from the entering arc and walked
    alone; the duals, parents and depths of the rest stay."""
    m, n = cost.shape
    size = m + n
    adj = [{} for _ in range(size)]
    for (i, j) in flows:
        adj[i][m + j] = adj[m + j][i] = cost.item(i, j)
    # pricing reads the array; walks write through a view of plain floats, at list speed
    dual = np.zeros(size)
    view, parent, depth = memoryview(dual), [-1] * size, [0] * size
    _tree_duals(adj, 0, view, parent, depth)

    tol = 1e-12 * max(1.0, float(np.max(cost)))
    step = math.isqrt(m - 1) + 1
    blocks = -(-m // step)
    buffer = np.empty((step, n))
    block = 0
    max_pivots = _PIVOTS_PER_NODE * (m + n) + _PIVOTS_EXTRA
    pivots = 0

    while True:
        for _ in range(blocks):
            lo = block * step
            hi = min(lo + step, m)
            reduced = buffer[:hi - lo]
            np.subtract(cost[lo:hi], dual[lo:hi, None], out=reduced)
            reduced -= dual[m:]
            flat = int(reduced.argmin())
            if reduced.item(flat) < -tol:
                break
            block = (block + 1) % blocks
        else:
            return flows
        if pivots == max_pivots:
            raise SolverDidNotConverge(
                f"transportation simplex did not converge within {max_pivots} "
                f"pivots on a {m} x {n} residual problem")
        pivots += 1
        ei, ej = divmod(flat, n)
        ei += lo

        minus, plus = _cycle(parent, depth, ei, ej, m)
        # the lexicographically smallest flow to lose theta leaves, ties
        # to the smallest arc
        theta, leaving = min((flows[arc], arc) for arc in minus)
        t, te = theta
        for arc in minus:
            f, e = flows[arc]
            flows[arc] = (f - t if f > t else 0.0, e - te)
        for arc in plus:
            f, e = flows[arc]
            flows[arc] = (f + t, e + te)
        flows[(ei, ej)] = theta
        c = adj[ei][m + ej] = adj[m + ej][ei] = cost.item(ei, ej)
        del flows[leaving]
        li, lj = leaving
        del adj[li][m + lj], adj[m + lj][li]
        # a leaving arc from row li up to its column lies on the walk from
        # ei, which it cuts off with row ei; else it cuts off column ej
        top, up = (ei, m + ej) if parent[li] == m + lj else (m + ej, ei)
        parent[top], depth[top], view[top] = up, depth[up] + 1, c - view[up]
        _tree_duals(adj, top, view, parent, depth)
