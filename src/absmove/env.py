"""Procedural urban environment: square building blocks and exact line-of-sight tests.

Blocks are axis-aligned square prisms standing on the ground plane. Line of
sight between two points holds when the open segment between them meets no
block interior; a contact of measure zero (grazing a face, edge, or corner)
still counts as line of sight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EnvironmentTooDenseError

# Largest link x block count whose LoS candidates come from the dense
# bounding-box test; larger queries gather them by azimuth, which costs less
# from about 6-10k pairs up (median per-call times on a 2-core x86 machine).
_DENSE_PAIRS = 1 << 13
# Angular widening (rad) and relative reach margin of the azimuth gather.
_AZIMUTH_PAD = 1e-9
# Key spacing of transmitters sorted together by the azimuth gather: an exact
# integer above 3 pi, so that no interval of one transmitter (within 2 pi of
# its own keys' centre) reaches another's keys (within pi of theirs).
_OWNER_SPAN = 16.0
# Rejection draws for one block's footprint before the layout counts as too dense.
_TRIES_PER_BLOCK = 1000


@dataclass(frozen=True)
class BuildingBlock:
    """One square prism: footprint center, half of the side length, height."""

    center_xy: tuple[float, float]
    half_width: float
    height: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (*self.center_xy, self.half_width, self.height)):
            raise ValueError("block center, half_width and height must be finite")
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
        if not (math.isfinite(self.d1) and math.isfinite(self.d2)):
            raise ValueError("area dimensions must be finite")
        if self.d1 <= 0.0 or self.d2 <= 0.0:
            raise ValueError("area dimensions must be positive")

    @cached_property
    def _box_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        # (3, L) min and max corners, x, y and z rows, shared by all
        # vectorized queries.
        if not self.blocks:
            z = np.zeros((3, 0))
            return z, z
        mins = np.stack([b.min_corner for b in self.blocks], axis=1)
        maxs = np.stack([b.max_corner for b in self.blocks], axis=1)
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
        for _ in range(_TRIES_PER_BLOCK):
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
                f"{_TRIES_PER_BLOCK} tries; environment too dense"
            )

    blocks = tuple(
        BuildingBlock((float(placed_x[k]), float(placed_y[k])), half, float(heights[k]))
        for k in range(num_blocks)
    )
    return Environment(d1=float(d1), d2=float(d2), blocks=blocks, seed=int(seed))


def _overlap(seg_lo, seg_hi, bmin, bmax) -> np.ndarray:
    """Strict overlap of segment and box bounds on x, y and z, which run
    along the first axis of every argument.

    A positive-length interior crossing forces it, so a pair that fails it
    cannot be blocked.
    """
    ok = (seg_lo < bmax) & (seg_hi > bmin)
    return ok[0] & ok[1] & ok[2]


def _columns(p: np.ndarray) -> np.ndarray:
    """Transmitter coordinates as columns: (3, 1) for one transmitter, (3, n)
    for one per link."""
    return p.T if p.ndim == 2 else p[:, None]


def _box_pairs(
    p: np.ndarray, qs: np.ndarray, mins: np.ndarray, maxs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(link, block) index pairs whose bounding boxes overlap strictly, found
    by one dense link x block test."""
    seg_lo = np.minimum(_columns(p), qs.T)[:, :, None]
    seg_hi = np.maximum(_columns(p), qs.T)[:, :, None]
    return np.nonzero(_overlap(seg_lo, seg_hi, mins[:, None, :], maxs[:, None, :]))


def _azimuth_pairs(
    p: np.ndarray, qs: np.ndarray, mins: np.ndarray, maxs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(link, block) index pairs where the link's azimuth from its transmitter
    lies in the block footprint's azimuth interval from there, the link
    reaches the footprint, and the bounding boxes overlap strictly.

    Over-includes by design: intervals are widened by _AZIMUTH_PAD rad and
    reach is compared with a relative _AZIMUTH_PAD margin, so every pair the
    exact test can find blocked is kept. A footprint whose closed square
    holds the transmitter's xy, or lies within rounding of it, spans every
    azimuth. With one transmitter per link, each run of links from one
    transmitter is an owner, and one sort serves every owner: a link's key
    is its azimuth plus _OWNER_SPAN times its owner's index, and each
    owner's intervals are shifted alike. Adding the same exact integer to
    both sides of a comparison rounds monotonically, so the shifted keys
    still only over-include.
    """
    origin = _columns(p)
    dx = qs[:, 0] - origin[0]
    dy = qs[:, 1] - origin[1]
    azimuth = np.arctan2(dy, dx)
    reach = np.hypot(dx, dy)
    if p.ndim == 1:
        tx, owner = p[None], None
    else:
        new = np.r_[True, (p[1:] != p[:-1]).any(axis=1)]
        tx, owner = p[new], np.cumsum(new) - 1
        azimuth = azimuth + _OWNER_SPAN * owner
    order = np.argsort(azimuth, kind="stable")
    sorted_az = azimuth[order]

    # One row per transmitter, one column per block. Corner azimuths as
    # offsets from the centre's: a footprint away from the transmitter spans
    # less than pi, so each offset wraps at most once.
    px, py = tx[:, 0:1], tx[:, 1:2]
    mid = np.arctan2(0.5 * (mins[1] + maxs[1]) - py, 0.5 * (mins[0] + maxs[0]) - px)
    corner_x = np.stack([mins[0], maxs[0], maxs[0], mins[0]])[:, None, :]
    corner_y = np.stack([mins[1], mins[1], maxs[1], maxs[1]])[:, None, :]
    off = np.arctan2(corner_y - py, corner_x - px) - mid
    off = (off + np.pi) % (2.0 * np.pi) - np.pi
    lo = mid + np.minimum(np.minimum(off[0], off[1]), np.minimum(off[2], off[3])) - _AZIMUTH_PAD
    hi = mid + np.maximum(np.maximum(off[0], off[1]), np.maximum(off[2], off[3])) + _AZIMUTH_PAD
    gap_x = np.maximum(np.maximum(mins[0] - px, px - maxs[0]), 0.0)
    gap_y = np.maximum(np.maximum(mins[1] - py, py - maxs[1]), 0.0)
    near = np.hypot(gap_x, gap_y)
    # The pad covers rounding that is small against the distance to the
    # footprint; nearer than this, the block takes every link of its owner
    # (every azimuth, but no other owner's keys).
    around = near <= 1e-5 * (1.0 + np.abs(px) + np.abs(py))
    lo[around], hi[around], near[around] = -4.0, 4.0, 0.0
    lo, hi, near, around = lo.ravel(), hi.ravel(), near.ravel(), around.ravel()

    # An interval that crosses the +-pi seam gets a copy shifted by 2 pi,
    # which holds its part on the other side.
    shift = np.where(lo < -np.pi, 2.0 * np.pi, np.where(hi > np.pi, -2.0 * np.pi, 0.0))
    wraps = np.flatnonzero((shift != 0.0) & ~around)
    cell = np.concatenate([np.arange(lo.size), wraps])
    lo = np.concatenate([lo, lo[wraps] + shift[wraps]])
    hi = np.concatenate([hi, hi[wraps] + shift[wraps]])
    if owner is not None:
        base = _OWNER_SPAN * (cell // mins.shape[1])
        lo, hi = lo + base, hi + base
    start = np.searchsorted(sorted_az, lo, "left")
    stop = np.searchsorted(sorted_az, hi, "right")
    count = stop - start
    first = np.cumsum(count) - count
    piece = np.repeat(np.arange(count.size), count)
    im = order[np.arange(piece.size) + (start - first)[piece]]
    cell = cell[piece]
    keep = reach[im] >= near[cell] * (1.0 - _AZIMUTH_PAD)
    im, cell = im[keep], cell[keep]
    ib = cell if owner is None else cell % mins.shape[1]
    origin = origin if owner is None else origin[:, im]
    seg_lo = np.minimum(origin, qs.T[:, im])
    seg_hi = np.maximum(origin, qs.T[:, im])
    keep = _overlap(seg_lo, seg_hi, mins[:, ib], maxs[:, ib])
    return im[keep], ib[keep]


def _blocked_by_pairs(
    p: np.ndarray,
    qs: np.ndarray,
    mins: np.ndarray,
    maxs: np.ndarray,
    im: np.ndarray,
    ib: np.ndarray,
) -> np.ndarray:
    """Exact slab test of candidate pairs (link im[k], block ib[k]) whose
    bounding boxes overlap strictly; (n,) bool.

    A segment is blocked when its intersection with some box interior has
    positive length, i.e. the slab interval clipped to (0, 1) is non-empty
    under strict inequalities. Grazing contacts and endpoints on faces pass.
    """
    blocked = np.zeros(qs.shape[0], dtype=bool)
    # Pairs run along the second axis, so each per-axis step is a flat array.
    per_link = p.ndim == 2
    pc = _columns(p)[:, im] if per_link else _columns(p)
    dd, bmin, bmax = qs.T[:, im] - pc, mins[:, ib], maxs[:, ib]
    # Exact prune: the xy line misses the footprint when its distance
    # from the center exceeds the box support along the normal.
    adx, ady = np.abs(dd[0]), np.abs(dd[1])
    rel_x = 0.5 * (bmin[0] + bmax[0]) - pc[0]
    rel_y = 0.5 * (bmin[1] + bmax[1]) - pc[1]
    cross = dd[0] * rel_y - dd[1] * rel_x
    support = 0.5 * ((bmax[0] - bmin[0]) * ady + (bmax[1] - bmin[1]) * adx)
    keep = np.abs(cross) <= support
    if not keep.all():
        im, dd, bmin, bmax = im[keep], dd[:, keep], bmin[:, keep], bmax[:, keep]
        if per_link:
            pc = pc[:, keep]
    if im.size == 0:
        return blocked
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (bmin - pc) / dd
        t2 = (bmax - pc) / dd
    lo = np.minimum(t1, t2)
    hi = np.maximum(t1, t2)
    # Axis-parallel segments: the slab is hit for all t when the
    # transmitter sits strictly inside it, never otherwise.
    par = dd == 0.0
    if par.any():
        inside = (pc > bmin) & (pc < bmax)
        lo = np.where(par, np.where(inside, -np.inf, np.inf), lo)
        hi = np.where(par, np.where(inside, np.inf, -np.inf), hi)
    enter = np.maximum(np.maximum(np.maximum(lo[0], lo[1]), lo[2]), 0.0)
    leave = np.minimum(np.minimum(np.minimum(hi[0], hi[1]), hi[2]), 1.0)
    blocked[im[enter < leave]] = True
    return blocked


def _segments_blocked(
    p: np.ndarray, qs: np.ndarray, mins: np.ndarray, maxs: np.ndarray
) -> np.ndarray:
    """Open segments p->qs[i] (p[i] with one transmitter per link) against
    open boxes; (n,) bool, True when blocked.

    Small queries take candidates from the dense bounding-box test, larger
    ones from the azimuth gather; both feed the same exact pair test.
    """
    if mins.shape[1] == 0 or qs.shape[0] == 0:
        return np.zeros(qs.shape[0], dtype=bool)
    gather = _box_pairs if qs.shape[0] * mins.shape[1] <= _DENSE_PAIRS else _azimuth_pairs
    return _blocked_by_pairs(p, qs, mins, maxs, *gather(p, qs, mins, maxs))


def link_endpoints(p, qs) -> tuple[np.ndarray, np.ndarray]:
    """``p`` and ``qs`` as float arrays: qs of shape (n, 3), and p one
    transmitter (3,) for every link or one per link (n, 3); ValueError on
    any other shape."""
    p = np.asarray(p, dtype=float)
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != 3 or p.shape not in ((3,), (qs.shape[0], 3)):
        raise ValueError("expected p of shape (3,) or (n, 3) and qs of shape (n, 3)")
    return p, qs


def los_blocked_mask(env: Environment, p, qs) -> np.ndarray:
    """Vectorized blockage test of many links; True means no LoS.

    ``p`` is one transmitter for every link, shape (3,), or one per link,
    shape (n, 3). Links from one transmitter are best passed in one run:
    the azimuth gather treats each run of equal rows as one transmitter.
    """
    p, qs = link_endpoints(p, qs)
    if not (np.isfinite(p).all() and np.isfinite(qs).all()):
        raise ValueError("sightline endpoints must be finite")
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
    if mins.shape[1] == 0:
        return np.zeros(xys.shape[0], dtype=bool)
    keep = slice(None) if min_height is None else env._heights >= min_height
    bmin = mins[:, keep]
    bmax = maxs[:, keep]
    if bmin.shape[1] == 0:
        return np.zeros(xys.shape[0], dtype=bool)
    x, y = xys[:, 0:1], xys[:, 1:2]
    inside = (
        (x > bmin[None, 0])
        & (x < bmax[None, 0])
        & (y > bmin[None, 1])
        & (y < bmax[None, 1])
    )
    return inside.any(axis=1)
