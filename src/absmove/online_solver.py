"""Fast online placement solver.

One pass of projected dual subgradient descent prices the rows, and the
variables are fixed greedily in a random order against their reduced costs.
Between two taken cells the dual state moves in closed form, so a pass
prices a window of columns in one vector step and jumps from one take to
the next instead of walking column by column. The whole pass is repeated
from independent seeds and the best repaired placement wins, which turns
extra compute directly into solution quality.
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


# Columns priced per vector step. Takes come about every 60-100 columns
# on the benchmark scenes; a window that ends early at a take wastes the
# rest of its pricing, one that is too short costs a step per window.
_LOOKAHEAD = 128


def _greedy_pass(
    instance: BilpInstance, rng: np.random.Generator, track_dual: bool
) -> tuple[np.ndarray, list[float]]:
    """One randomized fixing pass; returns the binary x and dual trace.

    The columns are visited in a random order. Each is taken when its
    reward beats its price against the row multipliers y, and y then takes
    one projected subgradient step of size alpha = 1/sqrt(n_cols). y is
    held exactly in integer units of alpha / n_cols: a step moves the total
    row by -N and each ABS row by +1, a take of a_t moves the total row by
    +n_cols and the row of each ABS whose pool holds t (``in_pool[t]``) by
    -n_cols, and pair and cover rows only ever hold 0 or n_cols.

    C_v's price is never positive (only C_v raises its cover row), so every
    C column is taken. An event is a taken a-column. Between two events
    the state has a closed form in the steps k since the segment started:
    the total row is max(h0 - N*k, 0), each ABS row is h_n + k, and a
    grid's cover row is raised when it was raised at the segment start or
    its C column has come since. a_t's pair rows are still 0 when it is
    priced, so its price is the total row minus the rows of the ABSs whose
    pool holds t, minus n_cols per grid it covers whose cover row is
    raised; a_t is taken when that is negative. The pass prices the next
    ``_LOOKAHEAD`` columns from the closed form in one vector step, jumps
    to the first one taken, applies that take and starts the next segment
    after it. ``track_dual`` rebuilds every iterate y from the same closed
    form.
    """
    n_v, n_u, n_cols, n_abs = instance.n_v, instance.n_u, instance.n_cols, instance.n_abs
    z, in_pool = instance.z_sub, instance.in_pool
    members = in_pool.sum(axis=1)
    order = rng.permutation(n_cols)
    at = np.empty(n_cols, dtype=np.int64)
    at[order] = np.arange(n_cols)
    # Grid v's cover row is raised after every step from raised_from[v] on;
    # n_cols once a take has lowered it after its C column came.
    raised_from = at[:n_v].copy()
    # Position of each a-column's take, n_cols if none; read by the trace.
    taken_at = np.full(n_u, n_cols, dtype=np.int64)
    head = np.zeros(1 + n_abs, dtype=np.int64)
    drift = np.array([-n_abs] + [1] * n_abs, dtype=np.int64)
    x = np.zeros(n_cols, dtype=np.int8)
    x[:n_v] = 1
    trace: list[float] = []

    def record(stop: int) -> None:
        # The iterates after steps len(trace)..stop-1, step q being
        # q - s + 1 steps into the segment that starts at s with state head.
        alpha = 1.0 / math.sqrt(n_cols)
        c_at = at[:n_v]
        for q in range(len(trace), stop):
            k = q - s + 1
            taken = taken_at[:, None] <= q
            lowered = (taken_at[:, None] < c_at) & (c_at <= q)
            y = np.concatenate([
                [max(head[0] - n_abs * k, 0)],
                head[1:] + k,
                n_cols * (z & taken & ~lowered).ravel(),
                n_cols * (raised_from <= q),
            ])
            trace.append(dual_objective(instance, y * alpha / n_cols))

    s = 0
    while s < n_cols:
        cols = order[s:s + _LOOKAHEAD]
        pos = s + np.flatnonzero(cols >= n_v)
        t = order[pos] - n_v
        k = pos - s
        price = (
            np.maximum(head[0] - n_abs * k, 0)
            - in_pool[t] @ head[1:] - members[t] * k
            - n_cols * (z[t] & (raised_from < pos[:, None])).sum(axis=1)
        )
        hit = np.flatnonzero(price < 0)
        # Every column before p is left out; p is taken unless the window
        # ran out first.
        p = int(pos[hit[0]]) if hit.size else s + len(cols)
        if track_dual:
            record(p)
        head[0] = max(head[0] - n_abs * (p - s), 0)
        head[1:] += p - s
        s = p
        if hit.size:
            u = int(t[hit[0]])
            head[0] += n_cols
            head[1:] -= n_cols * in_pool[u]
            head += drift
            np.maximum(head, 0, out=head)
            vs = np.flatnonzero(z[u])
            raised_from[vs[raised_from[vs] < p]] = n_cols
            taken_at[u] = p
            x[n_v + u] = 1
            s = p + 1
            if track_dual:
                record(s)
    return x, trace


def decode_and_repair(x: np.ndarray, instance: BilpInstance) -> Placement:
    """Turn a relaxed binary solution into a feasible placement.

    Selected cells beyond the ABS budget are dropped one at a time, always
    the one whose removal costs the least coverage (recomputed after each
    drop). The survivors are then matched to ABSs that can reach them, as
    many as a matching can keep. Each ABS left without a cell, in index
    order, takes the free cell of its pool with the best marginal gain (the
    smaller id on ties). When every cell of its pool is held, a free cell is
    routed to it along an augmenting path instead, trying the free cells in
    id order and keeping the other cell-less ABSs out of the path. With no
    such path no distinct assignment exists, and InfeasibleSetError is
    raised.
    """
    x = np.asarray(x)
    n = instance.n_abs
    z = instance.z_sub
    w = instance.weights
    in_pool = instance.in_pool
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

    assign: list[int | None] = [None] * n

    def seat(cell: int, tried: set[int]) -> bool:
        # Kuhn augmenting path from the cell side: claim a reachable ABS in
        # index order, moving the cell it holds on to another ABS if need be.
        for i in np.flatnonzero(in_pool[cell]):
            if i not in tried:
                tried.add(i)
                if assign[i] is None or seat(assign[i], tried):
                    assign[i] = cell
                    return True
        return False

    # Keep as many solver-selected cells as possible; matching (rather than
    # first-fit) makes an already-feasible selection survive unchanged.
    for cell in selected:
        seat(cell, set())

    for i in range(n):
        if assign[i] is not None:
            continue
        held = np.zeros(instance.n_u, dtype=bool)
        held[[c for c in assign if c is not None]] = True
        free = np.flatnonzero(in_pool[:, i] & ~held)
        if free.size:
            gains = (z[free] & ~z[held].any(axis=0)) @ w
            assign[i] = int(free[np.argmax(gains)])
            continue
        idle = {j for j in range(i + 1, n) if assign[j] is None}
        if not any(seat(cell, set(idle)) for cell in np.flatnonzero(~held)):
            raise InfeasibleSetError(
                f"cannot assign distinct cells to all {n} ABSs; pool union is too small"
            )

    return make_placement(instance.u_ids[assign], covered_weight(z, assign, w))


def solve(
    instance: BilpInstance,
    duplication: int = 3,
    seed: int = 0,
    track_dual: bool = False,
) -> SolverReport:
    """Best-of-K randomized greedy solve of the placement instance.

    Each restart is one event-driven fixing pass followed by repair.
    Restart k draws its column order from default_rng([seed, k]), so raising
    ``duplication`` with the same seed reruns the exact same first restarts
    and can only improve the returned coverage.
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
