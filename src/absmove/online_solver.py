"""Fast online placement solver.

One pass of projected dual subgradient descent prices the rows, and the
variables are fixed greedily in a random order against their reduced costs.
Between two taken cells the dual state moves in closed form, so a pass
prices a window of columns in one vector step and jumps from one take to
the next instead of walking column by column. The whole pass is repeated
from independent seeds and the best repaired placement wins, which turns
extra compute directly into solution quality. The restarts' passes are
priced together, one window of each per vector step, but share no state:
each restart's x, decoded placement and value are those of its own pass.
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


# Columns of each pass priced per vector step. Takes come about every
# 60-100 columns on the benchmark scenes; a window that ends early at a take
# wastes the rest of its pricing, one that is too short costs a step per
# window. Timed on passes captured from benchmark trials (2 cores, median of
# 15 repeats, against 128): `family` (K=10) runs 5-12% faster at 64-96 and
# 8-45% slower at 32 or 160; `city` (K=3) runs 4-7% slower at 96, 10-15%
# slower at 64 and within 3% at 160. No width beats 128 on both.
_LOOKAHEAD = 128


def _greedy_pass(instance: BilpInstance, orders: np.ndarray) -> np.ndarray:
    """Fixing passes over the columns in each row of ``orders``, all at
    once; returns one binary x per row.

    Each column is taken when its reward beats its price against the row
    multipliers y, and y then takes one projected subgradient step of size
    alpha = 1/sqrt(n_cols). y is held exactly in integer units of
    alpha / n_cols: a step moves the total row by -N and each ABS row by +1,
    a take of a_t moves the total row by +n_cols and the row of each ABS
    whose pool holds t (``in_pool[t]``) by -n_cols, and pair and cover rows
    only ever hold 0 or n_cols.

    C_v's price is never positive (only C_v raises its cover row), so every
    C column is taken. An event is a taken a-column. Between two events
    the state has a closed form in the steps k since the segment started:
    the total row is max(h0 - N*k, 0), each ABS row is h_n + k, and a
    grid's cover row is raised when it was raised at the segment start or
    its C column has come since. a_t's pair rows are still 0 when it is
    priced, so its price is the total row minus the rows of the ABSs whose
    pool holds t, minus n_cols per grid it covers whose cover row is
    raised; a_t is taken when that is negative. Each iteration prices the
    next ``_LOOKAHEAD`` columns of every unfinished pass from the closed
    form in one vector step; each pass jumps to its first take, applies it
    and starts its next segment after it. A finished pass prices only pad
    columns and stays put, and the loop ends when every pass is finished.
    The passes share no state, so each row of x is the one its order alone
    gives.
    """
    n_v, n_cols, n_abs = instance.n_v, instance.n_cols, instance.n_abs
    n_runs = len(orders)
    run = np.arange(n_runs)[:, None]
    # Per-column tables, indexed by column id: a C column, and the pad
    # column n_cols that fills windows past the end, has an empty pool and
    # covers nothing, so its price is never negative.
    pool = np.zeros((n_cols + 1, n_abs), dtype=np.int64)
    pool[n_v:n_cols] = instance.in_pool
    cover = np.zeros((n_cols + 1, n_v), dtype=bool)
    cover[n_v:n_cols] = instance.z_sub
    members = pool.sum(axis=1)
    # What a take does to (total row, ABS rows), its step included.
    on_take = np.concatenate([np.full((n_cols + 1, 1), n_cols - n_abs), 1 - n_cols * pool], axis=1)
    padded = np.full((n_runs, n_cols + _LOOKAHEAD), n_cols, dtype=np.int64)
    padded[:, :n_cols] = orders
    # Positions are int32: the cover test compares n_v of them per priced
    # column, and at int64 it costs about twice as much.
    at = np.empty(orders.shape, dtype=np.int32)
    at[run, orders] = np.arange(n_cols)
    # Grid v's cover row in pass r is raised after every step from
    # raised_from[r, v] on; n_cols once a take has lowered it after its C
    # column came.
    raised_from = at[:, :n_v].copy()
    head = np.zeros((n_runs, 1 + n_abs), dtype=np.int64)
    x = np.zeros(orders.shape, dtype=np.int8)
    x[:, :n_v] = 1
    s = np.zeros(n_runs, dtype=np.int32)
    k = np.arange(_LOOKAHEAD, dtype=np.int32)
    while s.min() < n_cols:
        pos = s[:, None] + k
        cols = padded[run, pos]
        # Summing the bytes of this mask takes about half the time of
        # count_nonzero along its last axis.
        raised = cover[cols] & (raised_from[:, None] < pos[:, :, None])
        price = (
            np.maximum(head[:, :1] - n_abs * k, 0)
            - np.einsum("rln,rn->rl", pool[cols], head[:, 1:]) - members[cols] * k
            - n_cols * np.einsum("rlv->rl", raised.view(np.uint8), dtype=np.int64)
        )
        hit = price < 0
        took = hit.any(axis=1)
        first = hit.argmax(axis=1)
        # A pass leaves out every column before its first hit and takes that
        # one; with no hit it moves past its whole window, and once finished
        # by 0.
        gone = np.where(took, first, np.minimum(n_cols - s, _LOOKAHEAD))
        head[:, 0] = np.maximum(head[:, 0] - n_abs * gone, 0)
        head[:, 1:] += gone[:, None]
        s += gone
        runs = np.flatnonzero(took)
        if runs.size:
            u = cols[runs, first[runs]]
            head[runs] = np.maximum(head[runs] + on_take[u], 0)
            lowered = raised_from[runs]
            lowered[cover[u] & (lowered < s[runs, None])] = n_cols
            raised_from[runs] = lowered
            x[runs, u] = 1
            s[runs] += 1
    return x


def _dual_trace(instance: BilpInstance, order: np.ndarray, x: np.ndarray) -> tuple[float, ...]:
    """The pass's dual objective after every column, replayed over E: y, in
    integer units of alpha / n_cols, gains n_cols times column j when x[j],
    steps by -l and is projected onto y >= 0."""
    e, n_cols = instance.e, instance.n_cols
    data = n_cols * e.data.astype(np.int64)
    alpha = 1.0 / math.sqrt(n_cols)
    step = instance.l.astype(np.int64)
    y = np.zeros(instance.n_rows, dtype=np.int64)
    trace = []
    for j in order:
        if x[j]:
            col = slice(e.indptr[j], e.indptr[j + 1])
            y[e.indices[col]] += data[col]
        y -= step
        np.maximum(y, 0, out=y)
        trace.append(dual_objective(instance, y * alpha / n_cols))
    return tuple(trace)


def decode_and_repair(x: np.ndarray, instance: BilpInstance) -> Placement:
    """Turn a relaxed binary solution into a feasible placement.

    Selected cells beyond the ABS budget are dropped one at a time, always
    the one whose removal costs the least coverage (recomputed after each
    drop). The survivors are then matched to ABSs that can reach them, as
    many as a matching can keep. Each ABS left without a cell, in index
    order, takes the free cell of its pool with the best marginal gain (the
    smaller id on ties). When every cell of its pool is held, a free cell is
    routed to it along an augmenting path instead, trying the free cells by
    marginal gain (highest first, the smaller id on ties) and keeping the
    other cell-less ABSs out of the path. With no such path no distinct
    assignment exists, and InfeasibleSetError is raised.
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
    # Keep as many solver-selected cells as possible; matching (rather than
    # first-fit) makes an already-feasible selection survive unchanged.
    for cell in selected:
        instance.seat(assign, cell, set())

    for i in range(n):
        if assign[i] is not None:
            continue
        held = np.zeros(instance.n_u, dtype=bool)
        held[[c for c in assign if c is not None]] = True
        own = in_pool[:, i] & ~held
        free = np.flatnonzero(own if own.any() else ~held)
        gains = (z[free] & ~z[held].any(axis=0)) @ w
        if own.any():
            assign[i] = int(free[np.argmax(gains)])
            continue
        # A path grows the held set by exactly the routed cell, so the first
        # routable cell by gain is the best one.
        idle = {j for j in range(i + 1, n) if assign[j] is None}
        if not any(instance.seat(assign, int(c), set(idle))
                   for c in free[np.argsort(-gains, kind="stable")]):
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
    and can only improve the returned coverage. The K passes are priced
    together in one lockstep call; then each restart's x is decoded on its
    own, in restart order, and the first strictly best one wins.
    """
    if duplication < 1:
        raise ValueError("duplication must be at least 1")
    best: Placement | None = None
    best_k = 0
    values: list[int] = []
    traces: list[tuple[float, ...]] = []
    orders = np.stack([np.random.default_rng([seed, k]).permutation(instance.n_cols)
                       for k in range(duplication)])
    xs = _greedy_pass(instance, orders)
    for k in range(duplication):
        placement = decode_and_repair(xs[k], instance)
        values.append(placement.coverage_value)
        if track_dual:
            traces.append(_dual_trace(instance, orders[k], xs[k]))
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
