"""Output checks computed apart from the program.

Every check recomputes a result from first principles (scalar channel
formulas from ``tests/oracles.py``, plain cell arithmetic from the README's
map format, brute-force enumeration) or tests a property the method must
have. None compares against a stored copy of earlier output. A failed check
raises CheckFailed.
"""

from __future__ import annotations

import json
import math
import statistics
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import oracles

# Links whose scalar outage lies this close to the threshold are skipped:
# the package's series and the chi-square tail may round to either side.
OUTAGE_MARGIN = 1e-6
# Distance tolerance for movement-radius tests, relative to the radius.
RADIUS_TOL = 1e-9
_HEADER = struct.Struct("<4s5I4d")


class CheckFailed(AssertionError):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# Cell arithmetic, as the README's map format defines it


def abs_center(spec, u: int) -> tuple[float, float]:
    i, j = (u - 1) // spec.k2, (u - 1) % spec.k2
    return (i + 0.5) * spec.d1 / spec.k1, (j + 0.5) * spec.d2 / spec.k2


def gu_center(spec, v: int) -> tuple[float, float]:
    i, j = (v - 1) // spec.k2p, (v - 1) % spec.k2p
    return (i + 0.5) * spec.d1 / spec.k1p, (j + 0.5) * spec.d2 / spec.k2p


def gu_cell(spec, x: float, y: float) -> int:
    i = min(int(x * spec.k1p / spec.d1), spec.k1p - 1)
    j = min(int(y * spec.k2p / spec.d2), spec.k2p - 1)
    return i * spec.k2p + j + 1


def abs_cell(spec, x: float, y: float) -> int:
    i = min(int(x * spec.k1 / spec.d1), spec.k1 - 1)
    j = min(int(y * spec.k2 / spec.d2), spec.k2 - 1)
    return i * spec.k2 + j + 1


def _all_abs_centers(spec) -> np.ndarray:
    return np.array([abs_center(spec, u) for u in range(1, spec.k1 * spec.k2 + 1)])


def tall_footprint_cells(env, spec) -> np.ndarray:
    """Per ABS cell: its centre lies strictly inside the footprint of a
    block at least as tall as the flight altitude."""
    out = np.zeros(spec.k1 * spec.k2, dtype=bool)
    tall = [b for b in env.blocks if b.height >= spec.abs_alt]
    for u in range(1, len(out) + 1):
        x, y = abs_center(spec, u)
        for b in tall:
            cx, cy = b.center_xy
            if abs(x - cx) < b.half_width and abs(y - cy) < b.half_width:
                out[u - 1] = True
                break
    return out


# ---------------------------------------------------------------------------
# Scalar channel chain


def _k_factor(params, theta: float) -> float:
    k_min = 10.0 ** (params.k_min_db / 10.0)
    k_max = 10.0 ** (params.k_max_db / 10.0)
    return k_min * (k_max / k_min) ** (theta / (math.pi / 2.0))


def link_outage(params, los: bool, p, q) -> float:
    """Outage probability of one link from the literal formulas."""
    d2d = math.hypot(p[0] - q[0], p[1] - q[1])
    d3d = math.sqrt(d2d * d2d + (p[2] - q[2]) ** 2)
    pl = oracles.uma_path_loss_db(d2d, d3d, p[2], q[2], params.carrier_ghz, los)
    snr = 10.0 ** ((params.tx_power_dbm - params.noise_dbm - pl) / 10.0)
    k = _k_factor(params, math.atan2(p[2] - q[2], d2d)) if los else 0.0
    return oracles.outage(k, 10.0 ** (params.snr_threshold_db / 10.0) / snr)


_BOXES: dict[int, tuple] = {}


def _blocks_near(env, p, q) -> SimpleNamespace:
    """The environment cut down to blocks whose box, padded by a metre, meets
    the segment's bounding box; the sampler applies the same test itself, so
    its verdict is unchanged."""
    if id(env) not in _BOXES:
        lo = np.array([b.min_corner for b in env.blocks]).reshape(-1, 3)
        hi = np.array([b.max_corner for b in env.blocks]).reshape(-1, 3)
        _BOXES[id(env)] = (env, lo, hi)
    _, lo, hi = _BOXES[id(env)]
    seg_lo, seg_hi = np.minimum(p, q), np.maximum(p, q)
    hit = np.all((lo - 1.0 <= seg_hi) & (hi + 1.0 >= seg_lo), axis=1)
    return SimpleNamespace(blocks=[b for b, h in zip(env.blocks, hit) if h])


def link_verdict(env, params, p, q, expected: bool | None = None) -> bool | None:
    """Covered or not by the scalar chain; None for links the check cannot
    decide (a sightline grazing a block, or outage within OUTAGE_MARGIN of the
    threshold). The sightline is sampled only when the LoS and NLoS branches
    disagree. A verdict that disagrees with ``expected`` is re-examined with
    a 200x finer sightline sample before it stands."""
    if math.dist(p, q) < 10.0:
        return None  # below the path-loss model's distance floor
    eta = params.outage_threshold
    p_out = {los: link_outage(params, los, p, q) for los in (True, False)}
    near = {los: abs(v - eta) <= OUTAGE_MARGIN for los, v in p_out.items()}
    if not any(near.values()) and (p_out[True] < eta) == (p_out[False] < eta):
        return p_out[True] < eta
    verdict = None
    near_env = _blocks_near(env, p, q)
    for n_samples, eps in ((10_000, 1e-6), (2_000_000, 1e-4)):
        blocked = oracles.sampled_blocked_robust(near_env, p, q, n_samples=n_samples, eps=eps)
        if blocked is None or near[not blocked]:
            return None
        verdict = p_out[not blocked] < eta
        if expected is None or verdict == expected:
            return verdict
    return verdict


# ---------------------------------------------------------------------------
# Connectivity maps


def sample_bits(gcm, rng: np.random.Generator, n_each: int) -> list[tuple[int, int]]:
    """A seeded sample of (row, column) map positions: ``n_each`` set bits
    and ``n_each`` clear bits. Clear bits are drawn within the longest
    covered distance, where they can be wrong; far-away zeros would pass
    trivially."""
    spec = gcm.spec
    z = np.asarray(gcm.z, dtype=bool)
    abs_xy = _all_abs_centers(spec)
    gu_xy = np.array([gu_center(spec, v) for v in range(1, z.shape[1] + 1)])
    dist = np.hypot(abs_xy[:, None, 0] - gu_xy[None, :, 0], abs_xy[:, None, 1] - gu_xy[None, :, 1])
    reach = float(dist[z].max()) if z.any() else 0.0
    picks = []
    for pool in (np.argwhere(z), np.argwhere(~z & gcm.abs_cell_valid[:, None] & (dist <= reach))):
        if len(pool):
            chosen = pool[rng.choice(len(pool), size=min(n_each, len(pool)), replace=False)]
            picks.extend((int(t), int(v)) for t, v in chosen)
    return picks


def check_bits(env, params, gcm, picks) -> int:
    """Sampled map bits against the scalar chain; returns how many of them
    the chain could decide."""
    spec = gcm.spec
    decided = 0
    for t, v in picks:
        bit = bool(gcm.z[t, v])
        p = (*abs_center(spec, t + 1), spec.abs_alt)
        q = (*gu_center(spec, v + 1), params.gu_alt)
        verdict = link_verdict(env, params, p, q, expected=bit)
        if verdict is None:
            continue
        decided += 1
        require(verdict == bit,
                 f"map bit ({t + 1}, {v + 1}) is {int(bit)}, scalar chain says {int(verdict)}")
    require(decided >= len(picks) // 2, f"only {decided}/{len(picks)} sampled bits decidable")
    return decided


def check_gcm(env, params, gcm, rng: np.random.Generator, n_each: int, path: Path,
              gcm_io) -> dict:
    """Sampled map bits against the scalar chain, validity against tall
    footprints, and the file round trip against the README byte layout.

    ``gcm_io`` is the module providing save_gcm and load_gcm. Returns the
    map's valid-cell count and density.
    """
    spec = gcm.spec
    z = np.asarray(gcm.z, dtype=bool)
    valid = np.asarray(gcm.abs_cell_valid, dtype=bool)
    require(z.shape == (spec.k1 * spec.k2, spec.k1p * spec.k2p), "map shape")
    require(np.array_equal(valid, ~tall_footprint_cells(env, spec)),
             "validity mask differs from the tall-footprint test")
    require(not z[~valid].any(), "an invalid traversal cell has a nonempty row")
    decided = check_bits(env, params, gcm, sample_bits(gcm, rng, n_each))

    gcm_io.save_gcm(gcm, path)
    raw = path.read_bytes()
    n_u, n_v = z.shape
    require(len(raw) == 56 + (n_u + 7) // 8 + (n_u * n_v + 7) // 8, "map file byte count")
    magic, version, k1, k2, k1p, k2p, d1, d2, alt, eta = _HEADER.unpack_from(raw)
    require((magic, version, k1, k2, k1p, k2p) == (b"GCM1", 1, spec.k1, spec.k2, spec.k1p, spec.k2p)
             and (d1, d2, alt, eta) == (spec.d1, spec.d2, spec.abs_alt, params.outage_threshold),
             "map file header")
    off = 56 + (n_u + 7) // 8
    bits = np.unpackbits(np.frombuffer(raw[56:off], np.uint8), bitorder="little")[:n_u]
    require(np.array_equal(bits.astype(bool), valid), "validity bitset")
    bits = np.unpackbits(np.frombuffer(raw[off:], np.uint8), bitorder="little")[: n_u * n_v]
    require(np.array_equal(bits.astype(bool).reshape(n_u, n_v), z), "connectivity bitset")
    back = gcm_io.load_gcm(path)
    require(back == gcm, "load_gcm does not round-trip save_gcm")
    path.unlink()
    return {"valid_cells": int(valid.sum()), "density": float(z.mean()),
            "bits_checked": decided}


# ---------------------------------------------------------------------------
# Plans


def _weighted_cover(z, cells, gu_cells) -> int:
    rows = z[np.asarray(cells, dtype=int) - 1]
    return int(sum(bool(rows[:, v - 1].any()) for v in gu_cells))


def _pools(gcm, anchors, radius: float, slack: float) -> list[np.ndarray]:
    spec = gcm.spec
    xy = _all_abs_centers(spec)
    out = []
    for a in anchors:
        ax, ay = abs_center(spec, a)
        d = np.hypot(xy[:, 0] - ax, xy[:, 1] - ay)
        out.append(np.flatnonzero(gcm.abs_cell_valid & (d <= radius * (1.0 + slack))) + 1)
    return out


def _pair_optimum(z, pools, gu_cells) -> int:
    v, w = np.unique(np.asarray(gu_cells) - 1, return_counts=True)
    a, b = pools
    za, zb = z[a - 1][:, v], z[b - 1][:, v]
    val = (za[:, None, :] | zb[None, :, :]) @ w
    val[a[:, None] == b[None, :]] = -1
    return int(val.max())


def check_plan(state, gcm, cfg, rec) -> float | None:
    """One plan: distinct valid targets within reach of their anchors,
    planned value equal to coverage recomputed from map bits, and bounded by
    the optimum (brute-force pairs for two ABSs, the reachable union
    otherwise). Returns planned value over optimum for two-ABS plans."""
    spec = gcm.spec
    targets = tuple(int(c) for c in rec.target_cells)
    anchors = tuple(int(c) for c in state.anchor_cells)
    require(len(targets) == cfg.n_abs and len(set(targets)) == len(targets),
             f"period {rec.period}: targets {targets} not {cfg.n_abs} distinct cells")
    for t, a in zip(targets, anchors):
        require(bool(gcm.abs_cell_valid[t - 1]), f"period {rec.period}: target {t} invalid")
        (tx, ty), (ax, ay) = abs_center(spec, t), abs_center(spec, a)
        require(math.hypot(tx - ax, ty - ay) <= cfg.movement_radius * (1.0 + RADIUS_TOL),
                 f"period {rec.period}: target {t} out of reach of anchor {a}")
    gu_cells = [gu_cell(spec, float(x), float(y)) for x, y in state.gu_positions]
    if not cfg.weight_multiplicity:
        gu_cells = sorted(set(gu_cells))
    z = np.asarray(gcm.z, dtype=bool)
    value = _weighted_cover(z, targets, gu_cells)
    require(rec.planned_value == value,
             f"period {rec.period}: planned value {rec.planned_value}, map bits give {value}")
    if cfg.n_abs == 2:
        hi = _pair_optimum(z, _pools(gcm, anchors, cfg.movement_radius, RADIUS_TOL), gu_cells)
        require(value <= hi, f"period {rec.period}: value {value} above the optimum {hi}")
        if cfg.solver.name == "oracle":
            lo = _pair_optimum(z, _pools(gcm, anchors, cfg.movement_radius, -RADIUS_TOL), gu_cells)
            require(value >= lo, f"period {rec.period}: oracle value {value} below optimum {lo}")
        return value / hi if hi > 0 else 1.0
    union = np.concatenate(_pools(gcm, anchors, cfg.movement_radius, RADIUS_TOL))
    bound = _weighted_cover(z, np.unique(union), gu_cells)
    require(value <= bound, f"period {rec.period}: value {value} above union cover {bound}")
    return None


# ---------------------------------------------------------------------------
# Trials


def check_trial(cfg, env, gcm, abs_positions, gu_positions, cr_simplified, cr_actual,
                actual_steps) -> None:
    """Kinematics, per-step simplified coverage from map bits, and actual
    coverage from the scalar chain on the given (1-based) steps.

    Row i of the position arrays is the state after step i (row 0 the
    start); coverage entry i - 1 is measured on row i.
    """
    spec = gcm.spec
    abs_positions = np.asarray(abs_positions, dtype=float)
    gu_positions = np.asarray(gu_positions, dtype=float)
    n_steps = len(cr_simplified)
    require(abs_positions.shape[0] == n_steps + 1 == gu_positions.shape[0], "log lengths")
    eps = 1e-9
    hop = np.linalg.norm(np.diff(abs_positions, axis=0), axis=2)
    require(hop.max() <= cfg.abs_speed * cfg.step + eps, "ABS moved faster than abs_speed")
    walk = np.linalg.norm(np.diff(gu_positions, axis=0), axis=2)
    require(walk.max() <= cfg.gu_speed * cfg.step + eps, "GU moved faster than gu_speed")
    for arr in (abs_positions[..., :2], gu_positions):
        require(arr[..., 0].min() >= -eps and arr[..., 0].max() <= spec.d1 + eps
                 and arr[..., 1].min() >= -eps and arr[..., 1].max() <= spec.d2 + eps,
                 "position outside the area")
    require(np.allclose(abs_positions[..., 2], spec.abs_alt), "ABS left the flight altitude")

    z = np.asarray(gcm.z, dtype=bool)
    valid = np.asarray(gcm.abs_cell_valid, dtype=bool)
    xy = _all_abs_centers(spec)
    m = gu_positions.shape[1]
    for i in range(1, n_steps + 1):
        cells = []
        for x, y, _ in abs_positions[i]:
            u = abs_cell(spec, x, y)
            if not valid[u - 1]:
                d = (xy[:, 0] - x) ** 2 + (xy[:, 1] - y) ** 2
                d[~valid] = np.inf
                u = int(np.argmin(d)) + 1
            cells.append(u)
        gcells = [gu_cell(spec, x, y) for x, y in gu_positions[i]]
        count = _weighted_cover(z, cells, gcells)
        require(abs(cr_simplified[i - 1] - count / m) <= 1e-12,
                 f"step {i}: simplified coverage {cr_simplified[i - 1]} vs {count}/{m}")

    params = cfg.channel
    for i in actual_steps:
        covered = unknown = 0
        for x, y in gu_positions[i]:
            q = (float(x), float(y), params.gu_alt)
            verdicts = [link_verdict(env, params, tuple(map(float, p)), q)
                        for p in abs_positions[i]]
            if True in verdicts:
                covered += 1
            elif None in verdicts:
                unknown += 1
        got = cr_actual[i - 1] * m
        require(covered - 1e-9 <= got <= covered + unknown + 1e-9,
                 f"step {i}: actual coverage {got:.6f} of {m} outside "
                 f"[{covered}, {covered + unknown}] from the scalar chain")


# ---------------------------------------------------------------------------
# CLI batch exports


# Wall-clock fields: the only export content allowed to differ between runs.
_WALLCLOCK = {"periods.csv": "planning_time_s", "summary.csv": "planning_time_mean_s"}


def _mask_wallclock(path: str, blob: bytes) -> bytes:
    name = path.rsplit("/", 1)[-1]
    if name == "meta.json":
        meta = json.loads(blob)
        meta["mean_planning_time_s"] = None
        return json.dumps(meta, sort_keys=True).encode()
    if name in _WALLCLOCK:
        lines = blob.decode().splitlines()
        col = lines[0].split(",").index(_WALLCLOCK[name])
        masked = [lines[0]]
        for ln in lines[1:]:
            parts = ln.split(",")
            parts[col] = "x"
            masked.append(",".join(parts))
        return "\n".join(masked).encode()
    return blob


def _check_summary(files: dict[str, bytes]) -> None:
    """summary.csv means equal the means of the per-trial meta.json files."""
    lines = files["summary.csv"].decode().split()
    head = lines[0].split(",")
    metas = [json.loads(b) for p, b in files.items() if p.endswith("meta.json")]
    for ln in lines[1:]:
        row = dict(zip(head, ln.split(",")))
        group = [m for m in metas if m["solver"] == row["solver"]]
        require(int(row["n_trials"]) == len(group), f"{row['solver']}: trial count")
        for col, key in (("acr_simplified_mean", "acr_simplified"),
                         ("acr_actual_mean", "acr_actual"),
                         ("planning_time_mean_s", "mean_planning_time_s")):
            want = statistics.fmean(m[key] for m in group)
            got = float(row[col])
            require(abs(got - want) <= 1e-12 * max(1.0, abs(want)),
                    f"summary {row['solver']} {col} {got} vs meta mean {want}")


def check_batch_exports(cold: dict[str, bytes], warm: dict[str, bytes]) -> None:
    """A warm run's exports equal the cold run's but for wall-clock fields,
    and summary.csv means equal the means of the per-trial meta.json."""
    require(sorted(warm) == sorted(cold), "warm run wrote a different set of files")
    for path in cold:
        require(_mask_wallclock(path, warm[path]) == _mask_wallclock(path, cold[path]),
                f"warm {path} differs from the cold run's")
    _check_summary(warm)
