"""Procedural urban environment: square building blocks and exact line-of-sight tests.

Blocks are axis-aligned square prisms standing on the ground plane. Line of
sight between two points holds when the open segment between them meets no
block interior; a contact of measure zero (grazing a face, edge, or corner)
still counts as line of sight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EnvironmentTooDenseError

# Cap on elements per temporary array in the vectorized segment/box test.
_LOS_CHUNK_ELEMS = 1 << 20


@dataclass(frozen=True)
class BuildingBlock:
    """One square prism: footprint center, half of the side length, height."""

    center_xy: tuple[float, float]
    half_width: float
    height: float

    def __post_init__(self) -> None:
        if self.half_width <= 0.0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        if self.height <= 0.0:
            raise ValueError(f"height must be positive, got {self.height}")

    @property
    def min_corner(self) -> np.ndarray:
        cx, cy = self.center_xy
        return np.array([cx - self.half_width, cy - self.half_width, 0.0])

    @property
    def max_corner(self) -> np.ndarray:
        cx, cy = self.center_xy
        return np.array([cx + self.half_width, cy + self.half_width, self.height])


@dataclass(frozen=True)
class Environment:
    """Rectangular area [0, d1] x [0, d2] populated with building blocks."""

    d1: float
    d2: float
    blocks: tuple[BuildingBlock, ...]
    seed: int

    def __post_init__(self) -> None:
        if self.d1 <= 0.0 or self.d2 <= 0.0:
            raise ValueError("area dimensions must be positive")

    @cached_property
    def _box_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        # (L, 3) min and max corners, shared by all vectorized queries.
        if not self.blocks:
            z = np.zeros((0, 3))
            return z, z
        mins = np.stack([b.min_corner for b in self.blocks])
        maxs = np.stack([b.max_corner for b in self.blocks])
        return mins, maxs

    @cached_property
    def _heights(self) -> np.ndarray:
        return np.array([b.height for b in self.blocks])


def check_layout(
    d1: float,
    d2: float,
    num_blocks: int,
    block_width: float,
    height_range: tuple[float, float],
) -> None:
    """Raise ValueError unless the block layout can be asked of the area.

    A layout that passes may still jam the random placement, which
    ``generate_environment`` reports as EnvironmentTooDenseError.
    """
    if d1 <= 0.0 or d2 <= 0.0:
        raise ValueError("area dimensions must be positive")
    if num_blocks < 0:
        raise ValueError("num_blocks must be non-negative")
    if block_width <= 0.0 or block_width > min(d1, d2):
        raise ValueError(f"block_width {block_width} does not fit the area")
    h_lo, h_hi = height_range
    if not (0.0 < h_lo <= h_hi):
        raise ValueError(f"invalid height range {height_range}")
    if num_blocks * block_width**2 >= d1 * d2:
        raise ValueError("total block footprint exceeds the area")


def generate_environment(
    d1: float,
    d2: float,
    num_blocks: int,
    block_width: float,
    height_range: tuple[float, float],
    seed: int,
    max_tries_per_block: int = 1000,
) -> Environment:
    """Draw non-overlapping blocks uniformly inside the area.

    Footprints lie fully inside [0, d1] x [0, d2] and have pairwise disjoint
    interiors (touching edges are allowed). Heights are uniform over
    ``height_range``. Rejection sampling with a bounded retry budget; raises
    ValueError on a layout ``check_layout`` refuses and
    EnvironmentTooDenseError when a block cannot be placed.
    """
    check_layout(d1, d2, num_blocks, block_width, height_range)
    h_lo, h_hi = height_range
    rng = np.random.default_rng(seed)
    heights = rng.uniform(h_lo, h_hi, size=num_blocks)
    half = block_width / 2.0
    placed_x = np.empty(num_blocks)
    placed_y = np.empty(num_blocks)
    for k in range(num_blocks):
        for _ in range(max_tries_per_block):
            cx = rng.uniform(half, d1 - half)
            cy = rng.uniform(half, d2 - half)
            # Interiors overlap only when both axis gaps are below one width.
            if k and np.any(
                (np.abs(placed_x[:k] - cx) < block_width)
                & (np.abs(placed_y[:k] - cy) < block_width)
            ):
                continue
            placed_x[k], placed_y[k] = cx, cy
            break
        else:
            raise EnvironmentTooDenseError(
                f"could not place block {k + 1}/{num_blocks} after "
                f"{max_tries_per_block} tries; environment too dense"
            )

    blocks = tuple(
        BuildingBlock((float(placed_x[k]), float(placed_y[k])), half, float(heights[k]))
        for k in range(num_blocks)
    )
    return Environment(d1=float(d1), d2=float(d2), blocks=blocks, seed=int(seed))


def _segments_blocked(
    p: np.ndarray, qs: np.ndarray, mins: np.ndarray, maxs: np.ndarray
) -> np.ndarray:
    """Slab test of open segments p->qs[i] against open boxes; (n,) bool.

    A segment is blocked when its intersection with some box interior has
    positive length, i.e. the slab interval clipped to (0, 1) is non-empty
    under strict inequalities. Grazing contacts and endpoints on faces pass.
    """
    n = qs.shape[0]
    blocked = np.zeros(n, dtype=bool)
    if mins.shape[0] == 0 or n == 0:
        return blocked
    n_chunk = max(1, (3 * _LOS_CHUNK_ELEMS) // max(1, mins.shape[0]))
    for s in range(0, n, n_chunk):
        qc = qs[s : s + n_chunk]
        d = qc - p  # (m, 3)
        seg_lo = np.minimum(p, qc)
        seg_hi = np.maximum(p, qc)
        # A positive-length interior crossing forces strict bbox overlap on
        # every axis, so this prune never changes the answer.
        cand = (
            (seg_lo[:, None, 0] < maxs[None, :, 0])
            & (seg_hi[:, None, 0] > mins[None, :, 0])
            & (seg_lo[:, None, 1] < maxs[None, :, 1])
            & (seg_hi[:, None, 1] > mins[None, :, 1])
            & (seg_lo[:, None, 2] < maxs[None, :, 2])
            & (seg_hi[:, None, 2] > mins[None, :, 2])
        )
        im, ib = np.nonzero(cand)
        if im.size == 0:
            continue
        dd = d[im]  # (P, 3)
        bmin, bmax = mins[ib], maxs[ib]
        # Second exact prune: the xy line misses the footprint when its
        # distance from the center exceeds the box support along the normal.
        adx, ady = np.abs(dd[:, 0]), np.abs(dd[:, 1])
        rel_x = 0.5 * (bmin[:, 0] + bmax[:, 0]) - p[0]
        rel_y = 0.5 * (bmin[:, 1] + bmax[:, 1]) - p[1]
        cross = dd[:, 0] * rel_y - dd[:, 1] * rel_x
        support = 0.5 * ((bmax[:, 0] - bmin[:, 0]) * ady + (bmax[:, 1] - bmin[:, 1]) * adx)
        keep = np.abs(cross) <= support
        if not keep.all():
            im, ib, dd = im[keep], ib[keep], dd[keep]
            bmin, bmax = bmin[keep], bmax[keep]
            if im.size == 0:
                continue
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (bmin - p) / dd
            t2 = (bmax - p) / dd
        lo = np.minimum(t1, t2)
        hi = np.maximum(t1, t2)
        # Axis-parallel segments: the slab is hit for all t when p sits
        # strictly inside it, never otherwise.
        par = dd == 0.0
        if par.any():
            inside = (p > bmin) & (p < bmax)
            lo = np.where(par, np.where(inside, -np.inf, np.inf), lo)
            hi = np.where(par, np.where(inside, np.inf, -np.inf), hi)
        hit = np.maximum(lo.max(axis=1), 0.0) < np.minimum(hi.min(axis=1), 1.0)
        if hit.any():
            view = blocked[s : s + n_chunk]
            view[im[hit]] = True
    return blocked


def los_blocked_mask(env: Environment, p, qs) -> np.ndarray:
    """Vectorized blockage test from one point to many; True means no LoS."""
    p = np.asarray(p, dtype=float)
    qs = np.asarray(qs, dtype=float)
    if p.shape != (3,) or qs.ndim != 2 or qs.shape[1] != 3:
        raise ValueError("expected p of shape (3,) and qs of shape (n, 3)")
    mins, maxs = env._box_bounds
    return _segments_blocked(p, qs, mins, maxs)


def is_los(env: Environment, p, q) -> bool:
    """True when the open segment p-q misses every block interior."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (3,) or q.shape != (3,):
        raise ValueError("expected two 3D points")
    if np.array_equal(p, q):
        raise ValueError("LoS between coincident points is undefined")
    return not bool(los_blocked_mask(env, p, q[None, :])[0])


def obstructed_mask(env: Environment, xys, min_height: float | None = None) -> np.ndarray:
    """True per point when it lies strictly inside some block footprint.

    With ``min_height`` set, only blocks at least that tall count; this is the
    exclusion test for the traversal plane at a given altitude. Without it the
    test is a plain footprint check for ground-level exclusion.
    """
    xys = np.atleast_2d(np.asarray(xys, dtype=float))
    mins, maxs = env._box_bounds
    if mins.shape[0] == 0:
        return np.zeros(xys.shape[0], dtype=bool)
    keep = slice(None) if min_height is None else env._heights >= min_height
    bmin = mins[keep]
    bmax = maxs[keep]
    if bmin.shape[0] == 0:
        return np.zeros(xys.shape[0], dtype=bool)
    x, y = xys[:, 0:1], xys[:, 1:2]
    inside = (
        (x > bmin[None, :, 0])
        & (x < bmax[None, :, 0])
        & (y > bmin[None, :, 1])
        & (y < bmax[None, :, 1])
    )
    return inside.any(axis=1)
