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

    def gains(pool: np.ndarray, covered: np.ndarray) -> np.ndarray:
        return (z[pool] & ~covered) @ w

    def dfs(depth: int, covered: np.ndarray, value: int) -> None:
        nonlocal best_val, best_cells
        if depth == n:
            if value > best_val:
                best_val, best_cells = value, chosen.copy()
            return
        if branch_and_bound:
            bound = value
            for k in range(depth, n):
                avail = pools[k][~np.isin(pools[k], chosen)]
                if avail.size:
                    bound += int(gains(avail, covered).max())
            if bound <= best_val:
                return
        pool = pools[depth][~np.isin(pools[depth], chosen)]
        if pool.size == 0:
            return
        g = gains(pool, covered)
        for t in np.lexsort((pool, -g)):
            if branch_and_bound and value + int(g[t]) <= best_val and depth == n - 1:
                break
            p = int(pool[t])
            chosen.append(p)
            dfs(depth + 1, covered | z[p], value + int((z[p] & ~covered) @ w))
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
    centroid took; the start is scored on the instance's objective.
    """
    chosen: list[int] = []
    for i, (c, pool) in enumerate(zip(centroids, instance.per_abs_pos)):
        d = np.hypot(*(instance.u_xy[pool] - c).T)
        for t in np.argsort(d, kind="stable"):
            if int(pool[t]) not in chosen:
                chosen.append(int(pool[t]))
                break
        else:
            raise InfeasibleSetError(f"no distinct cell left for ABS {i}")
    value = covered_weight(instance.z_sub, chosen, instance.weights)
    return make_placement(instance.u_ids[chosen], value)


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
    input cell when that fails. After ``rounds`` candidates the best one is
    returned, with the unmutated incumbent always in the running, so
    coverage never decreases. Iterative refinement, where wanted, is chained
    through successive calls.
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
    pools = []
    for p, pool in zip(base, instance.per_abs_pos):
        d = np.hypot(*(xy[pool] - xy[p]).T)
        pools.append(pool[d <= mutation_radius])

    best_pos = base
    best_val = current.coverage_value
    for _ in range(rounds):
        cand: list[int] = []
        for i in range(n):
            pos = base[i]
            for _ in range(8):
                pick = int(pools[i][rng.integers(len(pools[i]))])
                if pick not in cand:
                    pos = pick
                    break
            if pos in cand:
                continue
            cand.append(pos)
        if len(cand) != n:
            continue
        val = covered_weight(instance.z_sub, cand, instance.weights)
        if val > best_val:
            best_pos, best_val = cand, val
    return make_placement(instance.u_ids[best_pos], best_val)
