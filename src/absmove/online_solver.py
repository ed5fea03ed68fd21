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


def _pass_tables(instance: BilpInstance) -> tuple[np.ndarray, np.ndarray]:
    """Head-row entries of each a column and its pool-membership count.

    ``touch[t]`` holds +1 on the total row and -1 on the row of every ABS
    whose pool holds cell t; ``members[t]`` counts those ABSs. Both depend
    on the instance alone, so every restart of a solve shares them.
    """
    touch = np.zeros((instance.n_u, 1 + instance.n_abs), dtype=np.int64)
    touch[:, 0] = 1
    for n, pos in enumerate(instance.per_abs_pos):
        touch[pos, 1 + n] = -1
    return touch, -touch[:, 1:].sum(axis=1)


def _greedy_pass(
    instance: BilpInstance,
    rng: np.random.Generator,
    track_dual: bool,
    tables: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, list[float]]:
    """One randomized fixing pass; returns the binary x and dual trace.

    The columns are visited in a random order. Each is taken when its
    reward beats its price against the row multipliers y, and y then takes
    one projected subgradient step of size alpha = 1/sqrt(n_cols). y is
    held exactly in integer units of alpha / n_cols: a step moves the total
    row by -N and each ABS row by +1, a take moves the rows by n_cols times
    E's entries, and pair and cover rows only ever hold 0 or n_cols.

    C_v's price is never positive (only C_v raises its cover row), so every
    C column is taken. An event is a taken a-column. Between two events
    the state has a closed form in the steps k since the segment started:
    the total row is max(h0 - N*k, 0), each ABS row is h_n + k, and a
    grid's cover row is raised when it was raised at the segment start or
    its C column has come since. a_t's pair rows are still 0 when it is
    priced, so its price is the total row minus its ABS rows minus n_cols
    per grid it covers whose cover row is raised; a_t is taken when that
    is negative. The pass prices the next ``_LOOKAHEAD`` columns from the
    closed form in one vector step, jumps to the first one taken, applies
    that take and starts the next segment after it. ``track_dual``
    rebuilds every iterate y from the same closed form.
    """
    n_v, n_u, n_cols, n_abs = instance.n_v, instance.n_u, instance.n_cols, instance.n_abs
    touch, members = _pass_tables(instance) if tables is None else tables
    z = instance.z_sub
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
            + touch[t, 1:] @ head[1:] - members[t] * k
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
            head += n_cols * touch[u] + drift
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

    Each restart is one event-driven fixing pass followed by repair; the
    passes share the instance's head-row tables, built once here. Restart k
    draws its column order from default_rng([seed, k]), so raising
    ``duplication`` with the same seed reruns the exact same first restarts
    and can only improve the returned coverage.
    """
    if duplication < 1:
        raise ValueError("duplication must be at least 1")
    best: Placement | None = None
    best_k = 0
    values: list[int] = []
    traces: list[tuple[float, ...]] = []
    tables = _pass_tables(instance)
    for k in range(duplication):
        rng = np.random.default_rng([seed, k])
        x, trace = _greedy_pass(instance, rng, track_dual, tables)
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
