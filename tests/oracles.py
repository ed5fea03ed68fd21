"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against the published
formulas and first principles, avoiding the package's own code paths: path
loss as literal scalar arithmetic, Marcum Q through the noncentral chi-square
tail, line of sight by dense segment sampling, and the optimizers by plain
enumeration or an LP solver. Tests compare package outputs against these.
Five references instead keep a simpler form of a package routine: the
fixing pass as a literal column walk, the sightline gather without its
reach prune, the map build as the full chain on every link, the trial as
one loop that moves, flies, plans and scores step by step, and the
evolutionary step as one loop that scores each candidate as it is drawn.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import optimize, stats

SPEED_OF_LIGHT = 299792458.0


# ---------------------------------------------------------------------------
# Propagation formulas, literal transcription


def uma_path_loss_db(d2d: float, d3d: float, h_bs: float, h_ut: float,
                     fc_ghz: float, los: bool) -> float:
    """Urban-macro median path loss, scalar, no clamping."""
    d_bp = 4.0 * max(h_bs - 1.0, 0.0) * max(h_ut - 1.0, 0.0) * fc_ghz * 1e9 / SPEED_OF_LIGHT
    if d2d <= d_bp:
        pl_los = 28.0 + 22.0 * math.log10(d3d) + 20.0 * math.log10(fc_ghz)
    else:
        pl_los = (28.0 + 40.0 * math.log10(d3d) + 20.0 * math.log10(fc_ghz)
                  - 9.0 * math.log10(d_bp ** 2 + (h_bs - h_ut) ** 2))
    if los:
        return pl_los
    pl_nlos = 13.54 + 39.08 * math.log10(d3d) + 20.0 * math.log10(fc_ghz) - 0.6 * (h_ut - 1.5)
    return max(pl_los, pl_nlos)


def marcum_q1(a: float, b: float) -> float:
    """Q1(a, b) through the noncentral chi-square survival function."""
    return float(stats.ncx2.sf(b * b, df=2, nc=a * a))


def outage(k: float, q: float) -> float:
    """Rician outage P(|h|^2 < q) for unit-mean power and factor k."""
    return 1.0 - marcum_q1(math.sqrt(2.0 * k), math.sqrt(2.0 * (k + 1.0) * q))


def outage_mc(k: float, q: float, n: int, seed: int) -> float:
    """Monte-Carlo estimate of the Rician outage, own envelope sampler."""
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
    mu = math.sqrt(k / (k + 1.0))
    re = rng.normal(mu, sigma, size=n)
    im = rng.normal(0.0, sigma, size=n)
    power = re * re + im * im
    return float(np.mean(power < q))


def outage_mc_se(p: float, n: int) -> float:
    """Standard error of a binomial proportion at true probability p."""
    return math.sqrt(max(p * (1.0 - p), 1e-300) / n)


# ---------------------------------------------------------------------------
# Line of sight by segment sampling


def _boxes(env) -> tuple[np.ndarray, np.ndarray]:
    if not env.blocks:
        z = np.zeros((0, 3))
        return z, z
    mins = np.stack([b.min_corner for b in env.blocks])
    maxs = np.stack([b.max_corner for b in env.blocks])
    return mins, maxs


def _sample_window(p, d, lo, hi, n_samples: int) -> tuple[int, int] | None:
    """Sample indices that can fall strictly inside the box (lo, hi).

    A sample is p + t*d in floating point, within 2u(|p| + |d|) of the exact
    point on each axis (u the unit roundoff, t in [0, 1]). The window is the
    slab interval of t widened by several times that error over |d| (which
    also covers the rounding of the interval itself) and by two sample
    spacings, so every sample outside it is outside the box. An axis along
    which the segment does not move keeps every sample at p exactly.
    """
    t_lo, t_hi = 0.0, 1.0
    for a in range(3):
        if d[a] == 0.0:
            if not lo[a] < p[a] < hi[a]:
                return None
            continue
        t1 = (lo[a] - p[a]) / d[a]
        t2 = (hi[a] - p[a]) / d[a]
        pad = 8.0 * np.finfo(float).eps * (abs(p[a]) + abs(d[a]) + abs(lo[a]) + abs(hi[a]))
        pad /= abs(d[a])
        t_lo = max(t_lo, min(t1, t2) - pad)
        t_hi = min(t_hi, max(t1, t2) + pad)
        if t_lo > t_hi:
            return None
    # Sample i sits at t = (i + 1) / (n_samples + 1) up to rounding.
    first = max(math.floor(t_lo * (n_samples + 1)) - 3, 0)
    stop = min(math.ceil(t_hi * (n_samples + 1)) + 2, n_samples)
    return (first, stop) if first < stop else None


def sampled_blocked(env, p, q, n_samples: int = 10_000, inflate: float = 0.0) -> bool:
    """True when some interior sample point falls strictly inside a block.

    Blocks are inflated (or deflated, negative values) by ``inflate`` on
    every face before the strict-interior test. The candidate set is first
    cut down by an axis-aligned bounding-box overlap check on the segment,
    and each candidate is tested only at the samples of its slab window
    (``_sample_window``), which holds every sample that can lie inside it.
    The samples are the same points a scan of the whole segment evaluates.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mins, maxs = _boxes(env)
    if len(mins) == 0:
        return False
    mins = mins - inflate
    maxs = maxs + inflate
    seg_lo = np.minimum(p, q)
    seg_hi = np.maximum(p, q)
    cand = np.flatnonzero(np.all((mins <= seg_hi) & (maxs >= seg_lo), axis=1))
    if cand.size == 0:
        return False
    ts = np.linspace(0.0, 1.0, n_samples + 2)[1:-1]
    d = q - p
    for b in cand:
        window = _sample_window(p, d, mins[b], maxs[b], n_samples)
        if window is None:
            continue
        pts = p[None, :] + ts[window[0]:window[1], None] * d[None, :]
        inside = np.all((pts > mins[b]) & (pts < maxs[b]), axis=1)
        if inside.any():
            return True
    return False


def sampled_blocked_robust(env, p, q, n_samples: int = 10_000,
                           eps: float = 1e-6) -> bool | None:
    """Sampling verdict, or None when the pair grazes a block boundary."""
    hi = sampled_blocked(env, p, q, n_samples, inflate=eps)
    lo = sampled_blocked(env, p, q, n_samples, inflate=-eps)
    if hi != lo:
        return None
    return hi


# ---------------------------------------------------------------------------
# Azimuth gather without its reach prune


def unpruned_azimuth_pairs(
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

    The package's gather before it dropped, ahead of the corner azimuths,
    every (transmitter, block) cell beyond the transmitter's longest link.
    """
    from absmove.env import _AZIMUTH_PAD, _OWNER_SPAN, _columns, _overlap

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


# ---------------------------------------------------------------------------
# Connectivity map by the full chain


def full_chain_gcm(env, params, spec):
    """The map with every link through ``coverage_mask``: one call per valid
    traversal row, over all ground cells, sightline test included."""
    from absmove.channel import coverage_mask
    from absmove.gcm import Gcm, valid_abs_cells

    valid = valid_abs_cells(env, spec)
    eval_points = spec.ground.centers.copy()
    eval_points[:, 2] = params.gu_alt
    centers = spec.traversal.centers
    z = np.zeros((spec.traversal.size, spec.ground.size), dtype=bool)
    for t in np.flatnonzero(valid):
        z[t] = coverage_mask(params, env, centers[t], eval_points)
    return Gcm(spec=spec, z=z, abs_cell_valid=valid, eta=params.outage_threshold)


# ---------------------------------------------------------------------------
# Trial as one interleaved loop


def stepwise_trial(cfg, environment, gcm):
    """``run_trial`` as a single loop: each step moves the users, flies the
    fleet, tallies the placement constraints, scores both coverage modes
    (one ``coverage_mask`` call per ABS) and then fires that step's
    planning triggers.

    Package routines are looked up on ``absmove.sim`` at call time, so a
    test that patches one there patches this loop too.
    """
    from dataclasses import replace

    import absmove.sim as sim
    from absmove import evaluate_placement
    from absmove.errors import ContractViolationError, InfeasibleSetError

    n, m = cfg.n_abs, cfg.n_gus
    i_total, j_steps = cfg.n_steps, cfg.steps_per_period
    rng_init = np.random.default_rng([cfg.init_seed])
    rng_mob = np.random.default_rng([cfg.mobility_seed])

    valid_ids = np.flatnonzero(gcm.abs_cell_valid) + 1
    if len(valid_ids) < n:
        raise InfeasibleSetError(f"only {len(valid_ids)} valid cells for {n} ABSs")
    start_cells = tuple(int(c) for c in rng_init.choice(valid_ids, size=n, replace=False))
    centers = cfg.spec.traversal.centers
    abs_pos = centers[np.array(start_cells) - 1]
    gu_pos = sim.initial_gu_positions(environment, m, rng_init)

    triggers: dict[int, list[int]] = {}
    first_planned = 1 if cfg.plan_before_start else 2
    for e in range(first_planned, cfg.n_periods + 1):
        triggers.setdefault(max(0, (e - 1) * j_steps - cfg.lead_steps), []).append(e)

    records = {}
    if not cfg.plan_before_start:
        records[1] = sim.PeriodRecord(
            period=1, trigger_step=-1, anchor_cells=start_cells, target_cells=start_cells,
            planned_value=-1, planning_time_s=0.0, over_budget=False,
        )
    anchor = start_cells

    def fire_trigger(step_idx: int) -> None:
        nonlocal anchor
        for e in sorted(triggers.get(step_idx, [])):
            state = sim.PlanState(anchor_cells=anchor, gu_positions=gu_pos.copy(), period=e)
            records[e] = replace(sim.plan_period(state, gcm, cfg), trigger_step=step_idx)
            anchor = records[e].target_cells

    abs_hist = np.empty((i_total + 1, n, 3))
    gu_hist = np.empty((i_total + 1, m, 2))
    abs_hist[0], gu_hist[0] = abs_pos, gu_pos
    cr_simpl = np.empty(i_total)
    cr_act = np.empty(i_total)
    boundary_bad = 0
    exclusion_bad = 0
    h = cfg.channel.abs_alt

    fire_trigger(0)

    for i in range(1, i_total + 1):
        gu_pos = sim.step_gu(gu_pos, environment, cfg.gu_speed, cfg.step, rng_mob)

        step_in_period = (i - 1) % j_steps
        if step_in_period == 0:
            flown = records[(i - 1) // j_steps + 1]
            flight_target = centers[np.array(flown.target_cells) - 1]
            far = np.linalg.norm(flight_target[:, :2] - abs_pos[:, :2], axis=1)
            if np.any(far > cfg.movement_radius * (1.0 + 1e-9)):
                raise ContractViolationError("planned target outside the reachable flight radius")

        if step_in_period < cfg.flight_steps:
            time_left = cfg.flight_time - step_in_period * cfg.step
            abs_pos = sim.fly_step(abs_pos, flight_target, cfg.abs_speed, cfg.step, time_left)
            if step_in_period == cfg.flight_steps - 1:
                if not np.allclose(abs_pos, flight_target, atol=1e-6):
                    raise ContractViolationError("flight phase ended short of the target")
                abs_pos = flight_target.copy()

        xy = abs_pos[:, :2]
        out_of_area = (
            (xy[:, 0] < 0) | (xy[:, 0] > cfg.spec.d1)
            | (xy[:, 1] < 0) | (xy[:, 1] > cfg.spec.d2)
        )
        boundary_bad += int(out_of_area.sum())
        exclusion_bad += int(sim.obstructed_mask(environment, xy, min_height=h).sum())

        snapped = [sim.nearest_valid_abs_cell(gcm, p) for p in xy]
        cr_simpl[i - 1] = evaluate_placement(gcm, snapped, gu_pos) / m

        gu3 = np.column_stack([gu_pos, np.full(m, cfg.channel.gu_alt)])
        covered_act = np.zeros(m, dtype=bool)
        for p in abs_pos:
            covered_act |= sim.coverage_mask(cfg.channel, environment, p, gu3)
        cr_act[i - 1] = covered_act.mean()

        abs_hist[i], gu_hist[i] = abs_pos, gu_pos
        fire_trigger(i)

    return sim.TrialLog(
        cfg=cfg,
        cr_simplified=cr_simpl,
        cr_actual=cr_act,
        abs_positions=abs_hist,
        gu_positions=gu_hist,
        periods=tuple(records[e] for e in sorted(records)),
        boundary_violations=boundary_bad,
        exclusion_violations=exclusion_bad,
    )


# ---------------------------------------------------------------------------
# Placement optimizers by enumeration


def coverage_value(z_rows: np.ndarray, weights: np.ndarray) -> int:
    """Weighted union coverage of the given 0/1 rows."""
    if len(z_rows) == 0:
        return 0
    return int(weights @ np.asarray(z_rows, dtype=bool).any(axis=0))


def enumerate_optimum(z_sub: np.ndarray, weights: np.ndarray,
                      pools: list[np.ndarray]) -> int:
    """Best coverage over all distinct per-pool assignments, brute force."""
    best = -1
    for combo in itertools.product(*[list(map(int, p)) for p in pools]):
        if len(set(combo)) != len(combo):
            continue
        val = coverage_value(z_sub[list(combo)], weights)
        if val > best:
            best = val
    if best < 0:
        raise ValueError("no distinct assignment exists")
    return best


def enumerate_pairs(z_sub: np.ndarray, weights: np.ndarray,
                    cells: np.ndarray) -> int:
    """Best two-cell coverage over a shared pool by a double loop."""
    cells = [int(c) for c in cells]
    best = -1
    for a_i in range(len(cells)):
        for b_i in range(a_i + 1, len(cells)):
            val = coverage_value(z_sub[[cells[a_i], cells[b_i]]], weights)
            if val > best:
                best = val
    return best


def binary_optimum(instance) -> tuple[float, np.ndarray]:
    """Exhaustive scan of every binary x; returns (max r.x, argmax x).

    Only feasible vectors (E x <= l, elementwise with a small slack) count.
    Instances must stay tiny; the scan is 2**n_cols.
    """
    n = instance.n_cols
    if n > 20:
        raise ValueError(f"{n} columns is too many to enumerate")
    e = instance.e.toarray()
    best_val, best_x = -math.inf, None
    for bits in range(2 ** n):
        x = np.array([(bits >> t) & 1 for t in range(n)], dtype=float)
        if np.all(e @ x <= instance.l + 1e-9):
            val = float(instance.r @ x)
            if val > best_val:
                best_val, best_x = val, x
    if best_x is None:
        raise ValueError("no feasible binary point")
    return best_val, best_x


def lp_optimum(instance) -> tuple[float, np.ndarray]:
    """LP relaxation over the box [0, 1]; returns (optimum, dual vector)."""
    res = optimize.linprog(
        c=-instance.r,
        A_ub=instance.e,
        b_ub=instance.l,
        bounds=[(0.0, 1.0)] * instance.n_cols,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"LP solve failed: {res.message}")
    duals = -np.asarray(res.ineqlin.marginals, dtype=float)
    return -float(res.fun), np.clip(duals, 0.0, None)


def integer_csc_walk(instance, order) -> tuple[np.ndarray, list[np.ndarray]]:
    """The dual subgradient fixing pass as a literal walk over E's columns.

    Visits the columns in ``order``, prices each one as the dot product of
    its CSC column with y, takes it when its reward beats that price, adds
    alpha times the column to y, steps the rows by -alpha * d and projects
    onto y >= 0, with alpha = 1/sqrt(n_cols). y is kept in integer units of
    alpha / n_cols, so every sum is exact. Returns x and a copy of the
    scaled iterate after every column.
    """
    e = instance.e.tocsc()
    n_cols = instance.n_cols
    alpha = 1.0 / math.sqrt(n_cols)
    vals_int = e.data.astype(np.int64)
    assert np.array_equal(vals_int, e.data)
    step = np.rint(instance.d * n_cols).astype(np.int64)
    assert np.array_equal(step, instance.l)
    y = np.zeros(instance.n_rows, dtype=np.int64)
    x = np.zeros(n_cols, dtype=np.int8)
    iterates = []
    for j in order:
        lo, hi = e.indptr[j], e.indptr[j + 1]
        idx, vals = e.indices[lo:hi], vals_int[lo:hi]
        price = int(vals @ y[idx])
        take = instance.r[j] > price * (alpha / n_cols)
        if take:
            x[j] = 1
            y[idx] += n_cols * vals
        y -= step
        y = np.maximum(y, 0)
        iterates.append(y.copy())
    return x, iterates


def static_drop(selected: list[int], z_sub: np.ndarray, weights: np.ndarray,
                n_keep: int) -> int:
    """Coverage after dropping the least-marginal cells, all chosen upfront.

    Marginal losses are computed once against the full selected set; ties go
    to the earlier list position, matching a plain argmin scan.
    """
    sel = list(selected)
    cnt = np.asarray(z_sub, dtype=int)[sel].sum(axis=0)
    losses = [(int((z_sub[c].astype(bool) & (cnt == 1)) @ weights), pos)
              for pos, c in enumerate(sel)]
    order = sorted(losses, key=lambda t: (t[0], t[1]))
    drop_pos = {pos for _, pos in order[: len(sel) - n_keep]}
    keep = [c for pos, c in enumerate(sel) if pos not in drop_pos]
    return coverage_value(z_sub[keep], weights)


def greedy_fill(instance) -> tuple[list[int], int]:
    """Reference greedy assignment from empty: per ABS in order, take the
    reachable unused cell with the best marginal gain, breaking ties toward
    the smaller cell id. Returns (positions into u_ids, coverage)."""
    z = instance.z_sub
    w = instance.weights
    taken: list[int] = []
    for pool in instance.per_abs_pos:
        free = sorted(int(c) for c in pool if c not in taken)
        if not free:
            raise ValueError("greedy reference ran out of cells")
        covered = z[taken].any(axis=0) if taken else np.zeros(len(w), dtype=bool)
        gains = [(int((z[c] & ~covered) @ w), -int(instance.u_ids[c]), c) for c in free]
        gains.sort(key=lambda t: (t[0], t[1]), reverse=True)
        taken.append(gains[0][2])
    return taken, coverage_value(z[taken], w)


def sequential_ea_step(start_cells, start_value: int, instance, rounds: int,
                       mutation_radius: float, seed: int) -> tuple[tuple[int, ...], int]:
    """The evolutionary step as one loop that draws a candidate and scores it
    before drawing the next, keeping a candidate only when strictly better.
    Returns (1-based cells per ABS, coverage)."""
    rng = np.random.default_rng(seed)
    xy = instance.u_xy
    n = instance.n_abs
    base = [int(p) for p in np.searchsorted(instance.u_ids, start_cells)]
    pools = []
    for p, pool in zip(base, instance.per_abs_pos):
        d = np.hypot(*(xy[pool] - xy[p]).T)
        pools.append(pool[d <= mutation_radius])

    best_pos = base
    best_val = start_value
    for _ in range(rounds):
        cand: list[int] = []
        for i in range(n):
            pos = base[i]
            for _ in range(8):
                pick = int(pools[i][rng.integers(len(pools[i]))])
                if pick not in cand:
                    pos = pick
                    break
            if pos in cand:
                continue
            cand.append(pos)
        if len(cand) != n:
            continue
        val = coverage_value(instance.z_sub[cand], instance.weights)
        if val > best_val:
            best_pos, best_val = cand, val
    return tuple(int(c) for c in instance.u_ids[best_pos]), best_val


def two_means(points: np.ndarray) -> np.ndarray:
    """Globally optimal 2-means centroids by partition enumeration."""
    pts = np.asarray(points, dtype=float)
    m = len(pts)
    if m < 2 or m > 14:
        raise ValueError("enumeration oracle needs 2..14 points")
    best_sse, best = math.inf, None
    for bits in range(1, 2 ** (m - 1)):
        mask = np.array([(bits >> i) & 1 for i in range(m)], dtype=bool)
        a, b = pts[mask], pts[~mask]
        if len(a) == 0 or len(b) == 0:
            continue
        ca, cb = a.mean(axis=0), b.mean(axis=0)
        sse = ((a - ca) ** 2).sum() + ((b - cb) ** 2).sum()
        if sse < best_sse:
            best_sse = sse
            best = np.stack([ca, cb])
    assert best is not None
    return best[np.lexsort(best.T[::-1])]
