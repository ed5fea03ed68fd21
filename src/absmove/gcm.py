"""Plane discretization and the precomputed global connectivity map.

Both the traversal plane (at the flight altitude) and the ground plane are
split into uniform rectangular cells. Cells are indexed 1-based, row-major:
cell (i, j) flattens to (i - 1) * K2 + j, so cell 1 sits at the area corner.
``Plane`` holds that rule once; ``GridSpec.traversal`` and ``GridSpec.ground``
are the two planes.
The connectivity map stores one bit per (traversal cell, ground cell) pair:
whether a receiver at the ground cell's center is covered from the traversal
cell's center. ``build_gcm`` takes both branch verdicts once per map, from
``branch_verdicts`` over the grid of distinct horizontal offsets, and tests
sightlines only for the links whose two verdicts differ.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .channel import ChannelParams, branch_verdicts, coverage_mask
from .env import Environment, obstructed_mask
from .errors import ConfigError, GcmFormatError

GCM_MAGIC = b"GCM1"
GCM_VERSION = 1
_HEADER = struct.Struct("<4s5I4d")


@dataclass(frozen=True)
class Plane:
    """A uniform k1 x k2 grid over the d1 x d2 area, at height ``alt``.

    The package's one cell-id rule: cell (i, j), counted from 0 at the area
    corner, has the 1-based id i * k2 + j + 1 (second axis fastest) and its
    centre at ((i + 0.5) * d1 / k1, (j + 0.5) * d2 / k2, alt).
    """

    d1: float
    d2: float
    k1: int
    k2: int
    alt: float

    @property
    def size(self) -> int:
        return self.k1 * self.k2

    @cached_property
    def centers(self) -> np.ndarray:
        """Read-only (size, 3) table; row t is the centre of cell t + 1."""
        ii, jj = np.meshgrid(np.arange(self.k1), np.arange(self.k2), indexing="ij")
        x = (ii.ravel() + 0.5) * (self.d1 / self.k1)
        y = (jj.ravel() + 0.5) * (self.d2 / self.k2)
        table = np.column_stack([x, y, np.full(x.shape, self.alt)])
        table.flags.writeable = False
        return table

    def center(self, u: int) -> np.ndarray:
        """Centre of cell ``u`` as a fresh (3,) array."""
        if not 1 <= u <= self.size:
            raise ValueError(f"cell index {u} outside 1..{self.size}")
        return self.centers[u - 1].copy()

    def cells_of(self, xys) -> np.ndarray:
        """Ids of the cells containing (x, y) points, one per row of ``xys``."""
        xys = np.atleast_2d(np.asarray(xys, dtype=float))
        # Written as "inside" tests, so NaN coordinates fail them too.
        x, y = xys[:, 0], xys[:, 1]
        if not np.all((x >= 0) & (x <= self.d1) & (y >= 0) & (y <= self.d2)):
            raise ValueError("position outside the area")
        # Points on the far boundary fold into the last cell.
        i = np.minimum((xys[:, 0] * self.k1 / self.d1).astype(int), self.k1 - 1)
        j = np.minimum((xys[:, 1] * self.k2 / self.d2).astype(int), self.k2 - 1)
        return i * self.k2 + j + 1


@dataclass(frozen=True)
class GridSpec:
    """Cell counts and geometry for the traversal and ground planes."""

    d1: float
    d2: float
    k1: int
    k2: int
    k1p: int
    k2p: int
    abs_alt: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.d1, self.d2, self.abs_alt)):
            raise ValueError("area dimensions and abs_alt must be finite")
        if self.d1 <= 0.0 or self.d2 <= 0.0:
            raise ValueError("area dimensions must be positive")
        for name in ("k1", "k2", "k1p", "k2p"):
            val = getattr(self, name)
            if not isinstance(val, (int, np.integer)) or val < 1:
                raise ValueError(f"{name} must be a positive integer, got {val!r}")
        if self.abs_alt <= 0.0:
            raise ValueError("abs_alt must be positive")

    @property
    def diagonal(self) -> float:
        """Longest horizontal distance between two points of the area."""
        return math.hypot(self.d1, self.d2)

    @cached_property
    def traversal(self) -> Plane:
        """The ABS plane, at the flight altitude."""
        return Plane(self.d1, self.d2, self.k1, self.k2, self.abs_alt)

    @cached_property
    def ground(self) -> Plane:
        """The GU plane, labelled z = 0."""
        return Plane(self.d1, self.d2, self.k1p, self.k2p, 0.0)


@dataclass(eq=False)
class Gcm:
    """Connectivity bits plus the validity mask of traversal cells.

    ``z[u - 1, v - 1]`` is True when ground cell v is covered from traversal
    cell u. Rows of invalid cells (blocked at the flight altitude) are zero.
    """

    spec: GridSpec
    z: np.ndarray
    abs_cell_valid: np.ndarray
    eta: float

    def __post_init__(self) -> None:
        self.z = np.asarray(self.z, dtype=bool)
        self.abs_cell_valid = np.asarray(self.abs_cell_valid, dtype=bool)
        n_abs, n_gu = self.spec.traversal.size, self.spec.ground.size
        if self.z.shape != (n_abs, n_gu):
            raise ValueError("z shape does not match the grid spec")
        if self.abs_cell_valid.shape != (n_abs,):
            raise ValueError("validity mask shape does not match the grid spec")
        if np.any(self.z[~self.abs_cell_valid]):
            raise ValueError("invalid traversal cells must have empty rows")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gcm):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.eta == other.eta
            and np.array_equal(self.z, other.z)
            and np.array_equal(self.abs_cell_valid, other.abs_cell_valid)
        )


def valid_abs_cells(env: Environment, spec: GridSpec) -> np.ndarray:
    """Validity of each traversal cell: its center must clear every block
    that reaches the flight altitude."""
    centers = spec.traversal.centers
    return ~obstructed_mask(env, centers[:, :2], min_height=spec.abs_alt)


def nearest_valid_abs_cell(gcm: Gcm, xy) -> int:
    """Containing cell when valid, otherwise the closest valid cell center."""
    plane = gcm.spec.traversal
    u = int(plane.cells_of(xy)[0])
    if gcm.abs_cell_valid[u - 1]:
        return u
    if not gcm.abs_cell_valid.any():
        raise ValueError("no valid traversal cells")
    centers = plane.centers
    xy = np.asarray(xy, dtype=float)
    d2 = (centers[:, 0] - xy[0]) ** 2 + (centers[:, 1] - xy[1]) ** 2
    d2[~gcm.abs_cell_valid] = np.inf
    return int(np.argmin(d2)) + 1


def _axis_offsets(ground, traversal):
    """Distinct ground-minus-traversal offsets along one axis, and the index
    of each (traversal, ground) coordinate pair's offset among them."""
    offsets = ground[None, :] - traversal[:, None]
    values, inverse = np.unique(offsets, return_inverse=True)
    return values, inverse.reshape(offsets.shape)


def build_gcm(env: Environment, params: ChannelParams, spec: GridSpec) -> Gcm:
    """Evaluate the full channel chain between all cell-center pairs.

    Ground cells are evaluated at the receiver altitude from ``params``; the
    z = 0 coordinate of a ground cell is only a plane label. The chain runs
    once per map, over the distinct horizontal offsets, for both LoS bits
    (``branch_verdicts``). Per traversal row, each link reads its NLoS
    verdict from that table, and ``coverage_mask`` (sightline test included)
    decides the band of links whose LoS verdict differs.
    """
    if (env.d1, env.d2) != (spec.d1, spec.d2):
        raise ConfigError(
            f"environment area ({env.d1}, {env.d2}) does not match "
            f"grid area ({spec.d1}, {spec.d2})"
        )
    if spec.abs_alt != params.abs_alt:
        raise ConfigError(
            f"grid altitude {spec.abs_alt} does not match channel altitude {params.abs_alt}"
        )
    valid = valid_abs_cells(env, spec)
    eval_points = spec.ground.centers.copy()
    eval_points[:, 2] = params.gu_alt
    centers = spec.traversal.centers
    # Cell (i, j) has the x of row i and the y of column j on either plane.
    dx, inv_x = _axis_offsets(eval_points[:: spec.k2p, 0], centers[:: spec.k2, 0])
    dy, inv_y = _axis_offsets(eval_points[: spec.k2p, 1], centers[: spec.k2, 1])
    # Receivers at the offsets from a transmitter at the origin: each link
    # length is the float a per-link call computes.
    gx, gy = np.meshgrid(dx, dy, indexing="ij")
    offsets = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, params.gu_alt)])
    covered_los, covered_nlos = branch_verdicts(params, (0.0, 0.0, spec.abs_alt), offsets)
    los_table, nlos_table = covered_los.reshape(gx.shape), covered_nlos.reshape(gx.shape)
    z = np.zeros((spec.traversal.size, spec.ground.size), dtype=bool)
    for t in np.flatnonzero(valid):
        i, j = divmod(int(t), spec.k2)
        row = (inv_x[i][:, None], inv_y[j])
        covered_los, covered_nlos = los_table[row].ravel(), nlos_table[row].ravel()
        # Only where the two verdicts differ does the LoS bit decide.
        band = covered_los != covered_nlos
        covered_nlos[band] = coverage_mask(params, env, centers[t], eval_points[band])
        z[t] = covered_nlos
    return Gcm(spec=spec, z=z, abs_cell_valid=valid, eta=params.outage_threshold)


def save_gcm(gcm: Gcm, path: str | Path) -> None:
    """Write the bit-packed binary file (see the format notes in the README)."""
    spec = gcm.spec
    header = _HEADER.pack(
        GCM_MAGIC, GCM_VERSION, spec.k1, spec.k2, spec.k1p, spec.k2p,
        spec.d1, spec.d2, spec.abs_alt, gcm.eta,
    )
    valid_bits = np.packbits(gcm.abs_cell_valid, bitorder="little").tobytes()
    z_bits = np.packbits(gcm.z.ravel(), bitorder="little").tobytes()
    Path(path).write_bytes(header + valid_bits + z_bits)


def load_gcm(path: str | Path) -> Gcm:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise GcmFormatError(f"{path}: truncated header")
    magic, version, k1, k2, k1p, k2p, d1, d2, abs_alt, eta = _HEADER.unpack_from(raw)
    if magic != GCM_MAGIC:
        raise GcmFormatError(f"{path}: bad magic {magic!r}")
    if version != GCM_VERSION:
        raise GcmFormatError(f"{path}: unsupported version {version}")
    try:
        spec = GridSpec(d1=d1, d2=d2, k1=int(k1), k2=int(k2), k1p=int(k1p),
                        k2p=int(k2p), abs_alt=abs_alt)
    except ValueError as exc:
        raise GcmFormatError(f"{path}: invalid header fields: {exc}") from exc
    if not (0.0 < eta <= 1.0):
        raise GcmFormatError(f"{path}: outage threshold {eta} outside (0, 1]")
    n_abs, n_gu = spec.traversal.size, spec.ground.size
    n_valid_bytes = (n_abs + 7) // 8
    n_z_bytes = (n_abs * n_gu + 7) // 8
    expected = _HEADER.size + n_valid_bytes + n_z_bytes
    if len(raw) != expected:
        raise GcmFormatError(
            f"{path}: size {len(raw)} does not match expected {expected} bytes"
        )
    off = _HEADER.size
    valid = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8, count=n_valid_bytes, offset=off),
        count=n_abs, bitorder="little",
    ).astype(bool)
    off += n_valid_bytes
    z = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8, count=n_z_bytes, offset=off),
        count=n_abs * n_gu, bitorder="little",
    ).astype(bool).reshape(n_abs, n_gu)
    try:
        return Gcm(spec=spec, z=z, abs_cell_valid=valid, eta=float(eta))
    except ValueError as exc:
        raise GcmFormatError(f"{path}: inconsistent payload: {exc}") from exc
