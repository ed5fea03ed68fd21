"""Plane discretization and the precomputed global connectivity map.

Both the traversal plane (at the flight altitude) and the ground plane are
split into uniform rectangular cells. Cells are indexed 1-based, row-major:
cell (i, j) flattens to (i - 1) * K2 + j, so cell 1 sits at the area corner.
The connectivity map stores one bit per (traversal cell, ground cell) pair:
whether a receiver at the ground cell's center is covered from the traversal
cell's center.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import ChannelParams, coverage_mask
from .env import Environment, obstructed_mask
from .errors import ConfigError, GcmFormatError

GCM_MAGIC = b"GCM1"
GCM_VERSION = 1
_HEADER = struct.Struct("<4s5I4d")


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
        if self.d1 <= 0.0 or self.d2 <= 0.0:
            raise ValueError("area dimensions must be positive")
        for name in ("k1", "k2", "k1p", "k2p"):
            val = getattr(self, name)
            if not isinstance(val, (int, np.integer)) or val < 1:
                raise ValueError(f"{name} must be a positive integer, got {val!r}")
        if self.abs_alt <= 0.0:
            raise ValueError("abs_alt must be positive")

    @property
    def alpha1(self) -> float:
        return self.d1 / self.k1

    @property
    def alpha2(self) -> float:
        return self.d2 / self.k2

    @property
    def alpha1p(self) -> float:
        return self.d1 / self.k1p

    @property
    def alpha2p(self) -> float:
        return self.d2 / self.k2p

    @property
    def n_abs_cells(self) -> int:
        return self.k1 * self.k2

    @property
    def n_gu_cells(self) -> int:
        return self.k1p * self.k2p


def flatten_abs(spec: GridSpec, i: int, j: int) -> int:
    """1-based row-major index of traversal cell (i, j)."""
    if not (1 <= i <= spec.k1 and 1 <= j <= spec.k2):
        raise ValueError(f"cell ({i}, {j}) outside grid {spec.k1}x{spec.k2}")
    return (i - 1) * spec.k2 + j


def unflatten_abs(spec: GridSpec, u: int) -> tuple[int, int]:
    if not 1 <= u <= spec.n_abs_cells:
        raise ValueError(f"cell index {u} outside 1..{spec.n_abs_cells}")
    return (u - 1) // spec.k2 + 1, (u - 1) % spec.k2 + 1


def flatten_gu(spec: GridSpec, i: int, j: int) -> int:
    """1-based row-major index of ground cell (i, j)."""
    if not (1 <= i <= spec.k1p and 1 <= j <= spec.k2p):
        raise ValueError(f"cell ({i}, {j}) outside grid {spec.k1p}x{spec.k2p}")
    return (i - 1) * spec.k2p + j


def unflatten_gu(spec: GridSpec, v: int) -> tuple[int, int]:
    if not 1 <= v <= spec.n_gu_cells:
        raise ValueError(f"cell index {v} outside 1..{spec.n_gu_cells}")
    return (v - 1) // spec.k2p + 1, (v - 1) % spec.k2p + 1


def cell_center_abs(spec: GridSpec, u: int) -> np.ndarray:
    """3D center of a traversal cell, at the flight altitude."""
    i, j = unflatten_abs(spec, u)
    return np.array([(i - 0.5) * spec.alpha1, (j - 0.5) * spec.alpha2, spec.abs_alt])


def cell_center_gu(spec: GridSpec, v: int) -> np.ndarray:
    """3D center of a ground cell, on the z = 0 plane."""
    i, j = unflatten_gu(spec, v)
    return np.array([(i - 0.5) * spec.alpha1p, (j - 0.5) * spec.alpha2p, 0.0])


def abs_cell_centers(spec: GridSpec) -> np.ndarray:
    """(n_abs_cells, 3) centers; row t corresponds to cell index t + 1."""
    ii, jj = np.meshgrid(np.arange(spec.k1), np.arange(spec.k2), indexing="ij")
    x = (ii.ravel() + 0.5) * spec.alpha1
    y = (jj.ravel() + 0.5) * spec.alpha2
    return np.column_stack([x, y, np.full(x.shape, spec.abs_alt)])


def gu_cell_centers(spec: GridSpec) -> np.ndarray:
    """(n_gu_cells, 3) centers on the ground plane; row t is cell t + 1."""
    ii, jj = np.meshgrid(np.arange(spec.k1p), np.arange(spec.k2p), indexing="ij")
    x = (ii.ravel() + 0.5) * spec.alpha1p
    y = (jj.ravel() + 0.5) * spec.alpha2p
    return np.column_stack([x, y, np.zeros(x.shape)])


def _cells_of_positions(xys: np.ndarray, d1, d2, k1, k2) -> np.ndarray:
    xys = np.atleast_2d(np.asarray(xys, dtype=float))
    if np.any(xys[:, 0] < 0) or np.any(xys[:, 0] > d1) or np.any(
        xys[:, 1] < 0
    ) or np.any(xys[:, 1] > d2):
        raise ValueError("position outside the area")
    # Points on the far boundary fold into the last cell.
    i = np.minimum((xys[:, 0] * k1 / d1).astype(int), k1 - 1)
    j = np.minimum((xys[:, 1] * k2 / d2).astype(int), k2 - 1)
    return i * k2 + j + 1


def abs_cell_of_position(spec: GridSpec, xy) -> int:
    """Traversal cell containing an (x, y) point."""
    return int(_cells_of_positions(xy, spec.d1, spec.d2, spec.k1, spec.k2)[0])


def gu_cell_of_position(spec: GridSpec, xy) -> int:
    """Ground cell containing an (x, y) point."""
    return int(_cells_of_positions(xy, spec.d1, spec.d2, spec.k1p, spec.k2p)[0])


def gu_cells_of_positions(spec: GridSpec, xys) -> np.ndarray:
    return _cells_of_positions(xys, spec.d1, spec.d2, spec.k1p, spec.k2p)


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
        if self.z.shape != (self.spec.n_abs_cells, self.spec.n_gu_cells):
            raise ValueError("z shape does not match the grid spec")
        if self.abs_cell_valid.shape != (self.spec.n_abs_cells,):
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
    centers = abs_cell_centers(spec)
    return ~obstructed_mask(env, centers[:, :2], min_height=spec.abs_alt)


def nearest_valid_abs_cell(gcm: Gcm, xy) -> int:
    """Containing cell when valid, otherwise the closest valid cell center."""
    u = abs_cell_of_position(gcm.spec, xy)
    if gcm.abs_cell_valid[u - 1]:
        return u
    if not gcm.abs_cell_valid.any():
        raise ValueError("no valid traversal cells")
    centers = abs_cell_centers(gcm.spec)
    xy = np.asarray(xy, dtype=float)
    d2 = (centers[:, 0] - xy[0]) ** 2 + (centers[:, 1] - xy[1]) ** 2
    d2[~gcm.abs_cell_valid] = np.inf
    return int(np.argmin(d2)) + 1


def build_gcm(env: Environment, params: ChannelParams, spec: GridSpec) -> Gcm:
    """Evaluate the full channel chain between all cell-center pairs.

    Ground cells are evaluated at the receiver altitude from ``params``; the
    z = 0 coordinate of a ground cell is only a plane label.
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
    eval_points = gu_cell_centers(spec)
    eval_points[:, 2] = params.gu_alt
    z = np.zeros((spec.n_abs_cells, spec.n_gu_cells), dtype=bool)
    centers = abs_cell_centers(spec)
    for t in np.flatnonzero(valid):
        z[t] = coverage_mask(params, env, centers[t], eval_points)
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
    n_abs, n_gu = spec.n_abs_cells, spec.n_gu_cells
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
    return Gcm(spec=spec, z=z, abs_cell_valid=valid, eta=float(eta))
