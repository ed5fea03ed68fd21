"""Per-period placement subproblem in sparse matrix form.

Variables are stacked as x = (C_1..C_V, a_1..a_U), where C_v indicates that
occupied ground grid v is covered and a_u that traversal cell u is selected.
The inequality system E x <= l stacks, in order: one total-count row, one
reachability row per ABS, one row per (selected-cell, grid) pair tying C_v to
a_u, and one row per grid tying C_v to the selected cells that cover it.
Binary bounds are left to the solvers. E is the reference encoding: the
solvers work from the connectivity block z_sub, and E is built only when a
caller asks for it (the dual objective, the test oracles and the
benchmark's traced nonzero count).

``feasible_sets`` gives each ABS its pool of reachable cells and ``assemble``
turns the pools and a GU snapshot into a BilpInstance. Every solver takes
that instance alone: the pools live on it as ``per_abs_pos`` and as the
cell-by-ABS table ``in_pool``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import InfeasibleSetError
from .gcm import Gcm, GridSpec


@dataclass(frozen=True)
class Placement:
    """One traversal cell per ABS; cells are distinct, indices 1-based."""

    abs_cells: tuple[int, ...]
    coverage_value: int

    def __post_init__(self) -> None:
        if len(self.abs_cells) == 0:
            raise ValueError("placement must contain at least one cell")
        if len(set(self.abs_cells)) != len(self.abs_cells):
            raise ValueError(f"placement cells must be distinct, got {self.abs_cells}")


def make_placement(cells, coverage_value: int) -> Placement:
    return Placement(abs_cells=tuple(int(c) for c in cells), coverage_value=int(coverage_value))


def feasible_sets(
    current_xy, spec: GridSpec, valid: np.ndarray, radius: float
) -> tuple[np.ndarray, ...]:
    """Per-ABS pools: the 1-based ids of the valid traversal cells within the
    flight radius of each ABS.

    ``current_xy`` is an (N, 2) array of horizontal positions and ``valid``
    the traversal-cell validity mask of the connectivity map.
    """
    current_xy = np.atleast_2d(np.asarray(current_xy, dtype=float))
    if radius < 0.0:
        raise ValueError("radius must be non-negative")
    centers = spec.traversal.centers[:, :2]
    pools = []
    for n, pos in enumerate(current_xy):
        d = np.hypot(centers[:, 0] - pos[0], centers[:, 1] - pos[1])
        ids = np.flatnonzero(valid & (d <= radius)) + 1
        if ids.size == 0:
            raise InfeasibleSetError(
                f"ABS {n} at ({pos[0]:.1f}, {pos[1]:.1f}) has no reachable valid cell "
                f"within radius {radius:.1f} m"
            )
        pools.append(ids.astype(np.int64))
    return tuple(pools)


def covered_weight(z: np.ndarray, rows, weights, cols=None) -> int | np.ndarray:
    """Total weight of the columns of the boolean map ``z`` (0-based traversal
    cells as rows) that at least one of ``rows`` covers, keeping only ``cols``
    when given. The package's one coverage count; no rows cover nothing.

    ``rows`` is one row set, scored as an int, or a (k, N) array of k sets of
    N rows each, scored in one array step as an int64 array of k counts.
    """
    rows = np.asarray(rows, dtype=np.int64)
    hit = z[rows] if cols is None else z[rows][..., cols]
    counts = hit.any(axis=-2) @ weights
    return int(counts) if rows.ndim == 1 else counts


def occupied_grids(spec: GridSpec, gu_positions, weight_multiplicity: bool = True):
    """Occupied ground grid ids (sorted, 1-based) and their objective weights.

    With ``weight_multiplicity`` a grid weighs its GU count, so covering every
    grid scores M; without it every occupied grid weighs 1.
    """
    gu_positions = np.atleast_2d(np.asarray(gu_positions, dtype=float))
    v_ids, counts = np.unique(spec.ground.cells_of(gu_positions), return_counts=True)
    weights = counts.astype(np.int64) if weight_multiplicity else np.ones(len(v_ids), np.int64)
    return v_ids, weights


@dataclass(eq=False)
class BilpInstance:
    """Instance data plus the index maps needed to decode solutions.

    Column k < n_v is C for grid ``v_ids[k]`` (weight ``weights[k]``); column
    n_v + t is a for traversal cell ``u_ids[t]``. The solvers read ``z_sub``,
    ``weights``, the pools (``per_abs_pos``, or as one table ``in_pool``) and
    the cell centres ``u_xy`` directly. The reference encoding ``e``, ``r``,
    ``l`` and ``d`` (``l`` divided by the variable count, matching the
    per-variable split of the dual objective) is built on first access only.
    """

    n_abs: int
    u_ids: np.ndarray
    v_ids: np.ndarray
    weights: np.ndarray
    z_sub: np.ndarray
    per_abs_pos: tuple[np.ndarray, ...]
    spec: GridSpec

    @cached_property
    def u_xy(self) -> np.ndarray:
        """Horizontal centres of the traversal cells in ``u_ids``, (n_u, 2)."""
        return self.spec.traversal.centers[self.u_ids - 1, :2]

    @cached_property
    def in_pool(self) -> np.ndarray:
        """(n_u, n_abs) bool: ``in_pool[t, i]`` when ABS i's pool holds ``u_ids[t]``."""
        table = np.zeros((self.n_u, self.n_abs), dtype=bool)
        for i, pos in enumerate(self.per_abs_pos):
            table[pos, i] = True
        return table

    @property
    def n_v(self) -> int:
        return len(self.v_ids)

    @property
    def n_u(self) -> int:
        return len(self.u_ids)

    @property
    def n_cols(self) -> int:
        return self.n_v + self.n_u

    @property
    def n_rows(self) -> int:
        return 1 + self.n_abs + self.n_u * self.n_v + self.n_v

    @cached_property
    def e(self) -> sparse.csc_matrix:
        n_abs, n_u, n_v = self.n_abs, self.n_u, self.n_v
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        data: list[np.ndarray] = []

        def put(r_, c_, v_):
            rows.append(np.asarray(r_, dtype=np.int64).ravel())
            cols.append(np.asarray(c_, dtype=np.int64).ravel())
            data.append(np.asarray(v_, dtype=float).ravel())

        # Total selected cells <= N.
        put(np.zeros(n_u), n_v + np.arange(n_u), np.ones(n_u))
        # At least one selected cell per ABS, as -sum <= -1.
        pu, pn = np.nonzero(self.in_pool)
        put(1 + pn, n_v + pu, -np.ones(len(pu)))
        # Pair rows: z_uv * a_u - C_v <= 0, laid out cell-major.
        base = 1 + n_abs
        put(base + np.arange(n_u * n_v), np.tile(np.arange(n_v), n_u), -np.ones(n_u * n_v))
        zu, zv = np.nonzero(self.z_sub)
        put(base + zu * n_v + zv, n_v + zu, np.ones(len(zu)))
        # Cover rows: C_v - sum_u z_uv a_u <= 0.
        base2 = 1 + n_abs + n_u * n_v
        put(base2 + np.arange(n_v), np.arange(n_v), np.ones(n_v))
        put(base2 + zv, n_v + zu, -np.ones(len(zu)))
        return sparse.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n_rows, self.n_cols),
        ).tocsc()

    @cached_property
    def r(self) -> np.ndarray:
        return np.concatenate([self.weights.astype(float), np.zeros(self.n_u)])

    @cached_property
    def l(self) -> np.ndarray:
        return np.concatenate(
            [[float(self.n_abs)], -np.ones(self.n_abs), np.zeros(self.n_u * self.n_v + self.n_v)]
        )

    @cached_property
    def d(self) -> np.ndarray:
        return self.l / self.n_cols

    def seat(self, assign: list, cell: int, tried: set[int]) -> bool:
        """Seat ``cell`` (a position in u_ids) along a Kuhn augmenting path.

        ``assign`` holds each ABS's cell position or None. The cell claims
        the first ABS in index order whose pool holds it and that is not in
        ``tried``, moving the cell that ABS holds on the same way; visited
        ABSs join ``tried``. On success one more ABS holds a cell and the
        held cells grow by exactly ``cell``; on failure ``assign`` is
        unchanged.
        """
        for i in np.flatnonzero(self.in_pool[cell]):
            if i not in tried:
                tried.add(i)
                if assign[i] is None or self.seat(assign, assign[i], tried):
                    assign[i] = cell
                    return True
        return False

    def positions_of_cells(self, cells) -> np.ndarray:
        """Map 1-based traversal cell ids to positions in u_ids."""
        cells = np.asarray(cells, dtype=np.int64)
        pos = np.searchsorted(self.u_ids, cells)
        if np.any(pos >= len(self.u_ids)) or np.any(self.u_ids[pos] != cells):
            raise ValueError("cell outside the instance's feasible union")
        return pos


def assemble(gcm: Gcm, pools, gu_positions, weight_multiplicity: bool = True) -> BilpInstance:
    """Instance for the current GU snapshot and the per-ABS pools.

    ``pools`` holds one array of 1-based traversal cell ids per ABS; their
    union gives the a columns. Only occupied ground grids get C columns,
    weighted as ``occupied_grids`` says.
    """
    v_ids, weights = occupied_grids(gcm.spec, gu_positions, weight_multiplicity)
    u_ids = np.unique(np.concatenate(pools)).astype(np.int64)
    return BilpInstance(
        n_abs=len(pools), u_ids=u_ids, v_ids=v_ids, weights=weights,
        z_sub=gcm.z[np.ix_(u_ids - 1, v_ids - 1)],
        per_abs_pos=tuple(np.searchsorted(u_ids, ids) for ids in pools),
        spec=gcm.spec,
    )


def evaluate_placement(
    gcm: Gcm, cells, gu_positions, weight_multiplicity: bool = True
) -> int:
    """Weighted count of GUs whose ground grid is covered by some cell."""
    v_ids, weights = occupied_grids(gcm.spec, gu_positions, weight_multiplicity)
    return covered_weight(gcm.z, np.asarray(cells, dtype=np.int64) - 1, weights, v_ids - 1)
