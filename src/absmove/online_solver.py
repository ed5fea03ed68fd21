"""Fast online placement solver.

One pass of projected dual subgradient ascent prices the rows, and each
variable is fixed greedily in a random order against its reduced cost. The
whole pass is repeated from independent seeds and the best repaired placement
wins, which turns extra compute directly into solution quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bilp import BilpInstance, Placement, covered_weight, make_placement
from .errors import InfeasibleSetError


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one solve call: the best restart's placement, every
    restart's repaired value, the a-priori gap bound and, when asked for,
    each restart's dual trace."""

    placement: Placement
    restart_values: tuple[int, ...]
    best_restart: int
    gap_bound: float
    dual_trace: tuple[tuple[float, ...], ...] | None = None

    @property
    def coverage_value(self) -> int:
        return self.placement.coverage_value


def dual_objective(instance: BilpInstance, y: np.ndarray) -> float:
    """Lagrangian dual value at multipliers y >= 0, per-variable normalized.

    Scaled so that n_cols * f(y) upper bounds the integer optimum; at y = 0
    it evaluates to sum(r) / n_cols.
    """
    y = np.asarray(y, dtype=float)
    slack = instance.r - instance.e.T @ y
    return float(instance.d @ y + np.clip(slack, 0.0, None).sum() / instance.n_cols)


def gap_bound(instance: BilpInstance, duplication: int) -> float:
    """A-priori bound on the expected optimality gap of the best restart.

    Scales the standard subgradient suboptimality estimate by the magnitudes
    of E and d, and shrinks with the square root of the restart count. Every
    entry of E is +-1 and the largest |d| is N / n_cols, so the bound follows
    from the instance sizes alone.
    """
    if duplication < 1:
        raise ValueError("duplication must be at least 1")
    return (
        instance.n_rows
        * (1.0 + instance.n_abs / instance.n_cols) ** 2
        * math.sqrt(instance.n_cols)
        / math.sqrt(duplication)
    )


def _greedy_pass(
    instance: BilpInstance,
    rng: np.random.Generator,
    track_dual: bool,
) -> tuple[np.ndarray, list[float]]:
    """One randomized fixing pass; returns the binary x and dual trace.

    Each column in turn is taken when its reward beats its price against the
    row multipliers y (a walk over E's columns), then y takes one projected
    subgradient step of size alpha = 1/sqrt(n_cols). The rows a column
    touches are read from z_sub and the pools, and y is held exactly in
    integer units of alpha / n_cols: a step moves the total row by -N and
    each ABS row by +1, a take moves the rows by n_cols times E's entries,
    and pair and cover rows only ever hold 0 or n_cols. C_v's price is never
    positive (only C_v raises its cover row), so it is always taken. a_t's
    pair rows are still 0 when it is priced, so its price is the total row
    minus its ABS rows minus n_cols per grid it covers whose cover row is
    raised; a_t is taken when that is negative.
    """
    n_v, n_u, n_cols = instance.n_v, instance.n_u, instance.n_cols
    n_head = 1 + instance.n_abs
    alpha = 1.0 / math.sqrt(n_cols)
    # One row-space vector, laid out as E's rows are.
    y = np.zeros(instance.n_rows, dtype=np.int64)
    head = y[:n_head]
    pair = y[n_head:n_head + n_u * n_v].reshape(n_u, n_v)
    cover = y[n_head + n_u * n_v:]
    drift = np.array([-instance.n_abs] + [1] * instance.n_abs, dtype=np.int64)
    # Head-row entries of each a column: +1 on the total row, -1 on the row
    # of every ABS whose pool holds the cell.
    touch = np.zeros((n_u, n_head), dtype=np.int64)
    touch[:, 0] = 1
    for n, pos in enumerate(instance.per_abs_pos):
        touch[pos, 1 + n] = -1
    covers = np.nonzero(instance.z_sub)[1]
    ptr = np.concatenate([[0], np.cumsum(instance.z_sub.sum(axis=1))]).tolist()
    x = np.zeros(n_cols, dtype=np.int8)
    trace: list[float] = []
    for j in rng.permutation(n_cols):
        if j < n_v:
            x[j] = 1
            cover[j] = n_cols
            pair[:, j] = 0
        else:
            t = j - n_v
            vs = covers[ptr[t]:ptr[t + 1]]
            if touch[t] @ head < cover[vs].sum():
                x[j] = 1
                head += n_cols * touch[t]
                pair[t, vs] = n_cols
                cover[vs] = 0
        head += drift
        np.maximum(head, 0, out=head)
        if track_dual:
            trace.append(dual_objective(instance, y * alpha / n_cols))
    return x, trace


def decode_and_repair(x: np.ndarray, instance: BilpInstance) -> Placement:
    """Turn a relaxed binary solution into a feasible placement.

    Selected cells beyond the ABS budget are dropped one at a time, always
    the one whose removal costs the least coverage (recomputed after each
    drop). The survivors are then matched to ABSs that can reach them, and
    any ABS left without a cell receives the reachable unused cell with the
    best marginal gain, falling back to an augmenting-path reassignment when
    its whole pool is taken.
    """
    x = np.asarray(x)
    n = instance.n_abs
    z = instance.z_sub
    w = instance.weights
    selected = list(np.flatnonzero(x[instance.n_v:] != 0))

    if len(selected) > n:
        # Grids covered exactly once pin their sole cell; dropping any other
        # cell is free for them, so the marginal loss is a masked weight sum.
        cnt = z[selected].sum(axis=0)
        while len(selected) > n:
            losses = (z[selected] & (cnt == 1)) @ w
            drop = int(np.argmin(losses))
            cnt -= z[selected[drop]]
            selected.pop(drop)

    pools = [set(p.tolist()) for p in instance.per_abs_pos]
    assign: list[int | None] = [None] * n
    owner: dict[int, int] = {}

    def try_assign(i: int, cell: int, visited: set[int]) -> bool:
        # Kuhn augmenting path: free cell, or evict an owner that can move.
        if cell in visited:
            return False
        visited.add(cell)
        holder = owner.get(cell)
        if holder is None:
            assign[i], owner[cell] = cell, i
            return True
        for alt in sorted(pools[holder]):
            if alt not in owner and try_assign(holder, alt, visited):
                assign[i], owner[cell] = cell, i
                return True
        for alt in sorted(pools[holder]):
            if alt in owner and try_assign(holder, alt, visited):
                assign[i], owner[cell] = cell, i
                return True
        return False

    def try_place(cell: int, visited: set[int]) -> bool:
        # Kuhn from the cell side: claim a reachable ABS, relocating the
        # cell it already holds when possible.
        for i in range(n):
            if cell in pools[i] and i not in visited:
                visited.add(i)
                held = assign[i]
                if held is None or try_place(held, visited):
                    assign[i], owner[cell] = cell, i
                    return True
        return False

    # Keep as many solver-selected cells as possible; matching (rather than
    # first-fit) makes an already-feasible selection survive unchanged.
    for cell in selected:
        try_place(cell, set())

    for i in range(n):
        if assign[i] is not None:
            continue
        free = sorted(c for c in pools[i] if c not in owner)
        if free:
            kept = [c for c in assign if c is not None]
            covered = z[np.array(kept, dtype=int)].any(axis=0) if kept else np.zeros(len(w), bool)
            gains = (z[np.array(free, dtype=int)] & ~covered) @ w
            best = max(range(len(free)), key=lambda t: (gains[t], -instance.u_ids[free[t]]))
            cell = free[best]
            assign[i], owner[cell] = cell, i
        else:
            ok = False
            for cell in sorted(pools[i]):
                if try_assign(i, cell, set()):
                    ok = True
                    break
            if not ok:
                raise InfeasibleSetError(
                    f"cannot assign distinct cells to all {n} ABSs; "
                    f"pool union is too small"
                )

    final = [c for c in assign if c is not None]
    cells = instance.u_ids[np.array(final, dtype=int)]
    return make_placement(cells, covered_weight(z, final, w))


def solve(
    instance: BilpInstance,
    duplication: int = 3,
    seed: int = 0,
    track_dual: bool = False,
) -> SolverReport:
    """Best-of-K randomized greedy solve of the placement instance.

    Restart k draws from default_rng([seed, k]), so raising ``duplication``
    with the same seed reruns the exact same first restarts and can only
    improve the returned coverage.
    """
    if duplication < 1:
        raise ValueError("duplication must be at least 1")
    best: Placement | None = None
    best_k = 0
    values: list[int] = []
    traces: list[tuple[float, ...]] = []
    for k in range(duplication):
        rng = np.random.default_rng([seed, k])
        x, trace = _greedy_pass(instance, rng, track_dual)
        placement = decode_and_repair(x, instance)
        values.append(placement.coverage_value)
        if track_dual:
            traces.append(tuple(trace))
        if best is None or placement.coverage_value > best.coverage_value:
            best, best_k = placement, k
    assert best is not None
    return SolverReport(
        placement=best,
        restart_values=tuple(values),
        best_restart=best_k,
        gap_bound=gap_bound(instance, duplication),
        dual_trace=tuple(traces) if track_dual else None,
    )
