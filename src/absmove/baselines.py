"""Reference solvers: exact search and a K-means-seeded evolutionary climber.

The exact oracle certifies optimality on small and moderate instances; the
evolutionary baseline reproduces the classic init-then-mutate comparison
point. Both read the same assembled instance as the fast solver (its per-ABS
pools, ``z_sub`` and weights), so all three optimise one objective, and
return the same Placement type.
"""

from __future__ import annotations

import math

import numpy as np

from .bilp import BilpInstance, Placement, covered_weight, make_placement
from .errors import InfeasibleSetError, OracleCapError

# Candidates scored per covered_weight call in ea_step; bounds its memory.
_EA_BLOCK = 256


def exact_optimum(
    instance: BilpInstance, cap: int = 5_000_000, branch_and_bound: bool = True
) -> Placement:
    """Provably optimal placement by depth-first search over per-ABS pools.

    ABSs are processed smallest pool first; at each node candidates are
    ordered by marginal gain and the subtree is cut when the current value
    plus the sum of best-remaining marginals cannot beat the incumbent
    (coverage is submodular, so those marginals only shrink with depth).
    With ``branch_and_bound`` off, the raw enumeration size is checked
    against ``cap`` and oversized instances are rejected.

    Each node scores its whole free pool in one array step; a child's value
    is its parent's plus that gain, and the cells taken on the path are one
    mask over ``u_ids``.
    """
    z = instance.z_sub
    w = instance.weights
    pools = [np.asarray(p, dtype=int) for p in instance.per_abs_pos]
    order = sorted(range(instance.n_abs), key=lambda i: (len(pools[i]), i))
    pools = [pools[i] for i in order]

    space = math.prod(len(p) for p in pools)
    if not branch_and_bound and space > cap:
        raise OracleCapError(
            f"instance too large for exhaustive oracle: {space} > cap {cap}; "
            "enable branch_and_bound"
        )

    n = instance.n_abs
    best_val = -1
    best_cells: list[int] | None = None
    chosen: list[int] = []
    taken = np.zeros(instance.n_u, dtype=bool)

    def free_gains(depth: int, covered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pool = pools[depth][~taken[pools[depth]]]
        return pool, (z[pool] & ~covered) @ w

    def dfs(depth: int, covered: np.ndarray, value: int) -> None:
        nonlocal best_val, best_cells
        if depth == n:
            if value > best_val:
                best_val, best_cells = value, chosen.copy()
            return
        pool, g = free_gains(depth, covered)
        if branch_and_bound:
            bound = value
            for k in range(depth, n):
                gk = g if k == depth else free_gains(k, covered)[1]
                if gk.size:
                    bound += int(gk.max())
            if bound <= best_val:
                return
        if pool.size == 0:
            return
        last = branch_and_bound and depth == n - 1
        free, gains = pool.tolist(), g.tolist()
        for t in np.lexsort((pool, -g)).tolist():
            gain = gains[t]
            if last and value + gain <= best_val:
                break
            p = free[t]
            chosen.append(p)
            taken[p] = True
            dfs(depth + 1, covered | z[p], value + gain)
            taken[p] = False
            chosen.pop()

    dfs(0, np.zeros(len(w), dtype=bool), 0)
    if best_cells is None:
        raise InfeasibleSetError("no feasible assignment of distinct cells exists")
    # Undo the pool reordering so cells line up with ABS labels.
    by_abs = [0] * n
    for slot, i in enumerate(order):
        by_abs[i] = best_cells[slot]
    cells = instance.u_ids[np.array(by_abs, dtype=int)]
    return make_placement(cells, best_val)


def kmeans_centroids(gu_positions, n: int, seed: int = 0) -> np.ndarray:
    """Lloyd's algorithm on horizontal GU positions.

    Capped at 100 iterations, converged when no centroid moves more than
    1e-6 m. An emptied cluster is re-seeded at the GU farthest from its
    assigned centroid.
    """
    pts = np.atleast_2d(np.asarray(gu_positions, dtype=float))[:, :2]
    m = len(pts)
    if n < 1:
        raise ValueError("need at least one centroid")
    if m < n:
        raise ValueError(f"need at least {n} points, got {m}")
    rng = np.random.default_rng(seed)
    centroids = pts[rng.choice(m, size=n, replace=False)].copy()
    for _ in range(100):
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        new = centroids.copy()
        for k in range(n):
            mask = labels == k
            if mask.any():
                new[k] = pts[mask].mean(axis=0)
            else:
                new[k] = pts[d2[np.arange(m), labels].argmax()]
        shift = np.hypot(*(new - centroids).T).max()
        centroids = new
        if shift <= 1e-6:
            break
    return centroids


def kmeans_init(instance: BilpInstance, centroids) -> Placement:
    """Snap per-ABS centroids, from ``kmeans_centroids``, to distinct cells.

    Centroid i takes the cell of ABS i's pool nearest to it that no earlier
    centroid took. When earlier centroids took its whole pool, a free cell
    is routed to ABS i along an augmenting path (``BilpInstance.seat``),
    trying the free cells nearest centroid i first and keeping the later
    ABSs out of the path; InfeasibleSetError is raised only when no
    distinct assignment exists. The start is scored on the instance's
    objective.
    """
    n = instance.n_abs
    assign: list[int | None] = [None] * n
    held = np.zeros(instance.n_u, dtype=bool)
    for i, (c, pool) in enumerate(zip(centroids, instance.per_abs_pos)):
        own = pool[~held[pool]]
        if own.size:
            assign[i] = int(own[np.argmin(np.hypot(*(instance.u_xy[own] - c).T))])
        else:
            free = np.flatnonzero(~held)
            d = np.hypot(*(instance.u_xy[free] - c).T)
            if not any(instance.seat(assign, int(f), set(range(i + 1, n)))
                       for f in free[np.argsort(d, kind="stable")]):
                raise InfeasibleSetError(f"no distinct cell left for ABS {i}")
        held[assign[: i + 1]] = True
    value = covered_weight(instance.z_sub, assign, instance.weights)
    return make_placement(instance.u_ids[assign], value)


def ea_step(
    current: Placement,
    instance: BilpInstance,
    *,
    rounds: int,
    mutation_radius: float,
    seed: int,
) -> Placement:
    """One generation of mutate-and-select around a feasible placement.

    Every candidate perturbs the input placement: each ABS cell is redrawn
    uniformly from the cells of its pool within ``mutation_radius`` of its
    input cell, resampling a few times for distinctness and keeping the
    input cell when that fails; a round whose cells still collide is
    skipped. So drawing a candidate never depends on scoring one: the
    candidates are drawn in order and scored ``_EA_BLOCK`` at a time in one
    ``covered_weight`` call each, and the earliest candidate strictly better
    than the input and every candidate before it wins, as a one-by-one scan
    would pick. The unmutated incumbent is always in the running, so
    coverage never decreases. Iterative refinement, where wanted, is chained
    through successive calls. Each input cell must lie in its ABS's pool.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    if mutation_radius < 0.0:
        raise ValueError("mutation_radius must be non-negative")
    rng = np.random.default_rng(seed)
    xy = instance.u_xy
    n = instance.n_abs
    # Candidates are positions in u_ids, so distinct positions are distinct cells.
    base = [int(p) for p in instance.positions_of_cells(current.abs_cells)]
    for i, p in enumerate(base):
        if not instance.in_pool[p, i]:
            raise ValueError(
                f"start cell {int(instance.u_ids[p])} of ABS {i} lies outside its pool"
            )
    pools = []
    for p, pool in zip(base, instance.per_abs_pos):
        d = np.hypot(*(xy[pool] - xy[p]).T)
        pools.append(pool[d <= mutation_radius].tolist())

    best_pos = base
    best_val = current.coverage_value
    block: list[list[int]] = []
    for r in range(rounds):
        cand: list[int] = []
        for i in range(n):
            pos = base[i]
            for _ in range(8):
                pick = pools[i][rng.integers(len(pools[i]))]
                if pick not in cand:
                    pos = pick
                    break
            if pos in cand:
                continue
            cand.append(pos)
        if len(cand) == n:
            block.append(cand)
        if block and (len(block) == _EA_BLOCK or r == rounds - 1):
            vals = covered_weight(instance.z_sub, block, instance.weights)
            k = int(np.argmax(vals))
            if vals[k] > best_val:
                best_pos, best_val = block[k], int(vals[k])
            block = []
    return make_placement(instance.u_ids[best_pos], best_val)
