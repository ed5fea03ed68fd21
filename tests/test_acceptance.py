"""End-to-end acceptance checks: trial families, invariants, model validation.

The first three tests run seeded trial families and dominate the runtime of
the whole suite (several minutes); everything they measure is deterministic,
so the asserted numbers are stable across reruns. Planning times are wall
clock and only compared by ordering, never by value.

Scenario scale: families run on a 500 m square at 25 m grid length. Transmit
power sits 12 dB below the 1000 m-map default so the coverage footprint keeps
the same proportion to the map on the half-size area.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from conftest import random_instance

from absmove import (
    ChannelParams,
    evaluate_placement,
    feasible_sets,
    generate_environment,
)
from absmove.baselines import exact_optimum
from absmove.channel import db_to_linear, outage_probability
from absmove.config import merge_config, parse_trial_config
from absmove.env import is_los
from absmove.gcm import build_gcm, cell_center_abs, save_gcm
from absmove.online_solver import gap_bound, solve
from absmove.sim import (
    export_metrics_csv,
    export_periods_csv,
    export_trajectory_json,
    run_trial,
    validate_trial_log,
)

# Shared 50-scenario family: two ABSs chase twenty walkers for five periods.
FAMILY_SEEDS = range(50)
FAMILY_SOLVERS = {
    # Extra restarts reuse the same seed prefix, so they only ever help;
    # the speed margin over the exhaustive reference pays for them.
    "online": {"duplication": 10},
    # Plain enumeration, so the reference timing is the honest cost of
    # exactness rather than of a tuned search order.
    "oracle": {"oracle_branch_and_bound": False},
    # One-cell mutation: the evolutionary step polishes the k-means seed
    # locally instead of re-searching the whole reachable pool.
    "kmeans-ea": {"ea_mutation_radius": 25.0},
}


def family_config(solver_knobs: dict) -> dict:
    return merge_config({
        "area": {"d1": 500.0, "d2": 500.0},
        "grid": {"k1": 20, "k2": 20, "k1p": 20, "k2p": 20},
        "environment": {"num_blocks": 75},
        "channel": {"tx_power_dbm": -7.0},
        "timing": {"total_time": 100.0},
        "fleet": {"n_abs": 2, "n_gus": 20},
        "options": {"plan_before_start": True},
        "solver": solver_knobs,
    })


def quant_config(grid_length: float) -> dict:
    k = int(round(500.0 / grid_length))
    return merge_config({
        "area": {"d1": 500.0, "d2": 500.0},
        "grid": {"k1": k, "k2": k, "k1p": k, "k2p": k},
        "environment": {"num_blocks": 75},
        "channel": {"tx_power_dbm": -7.0},
        "timing": {"total_time": 60.0},
        "fleet": {"n_abs": 5, "n_gus": 100},
        "options": {"plan_before_start": True},
    })


def build_scene(cfg: dict, tc):
    env = generate_environment(
        tc.spec.d1, tc.spec.d2, tc.env.num_blocks, tc.env.block_width,
        (tc.env.height_low, tc.env.height_high), tc.env_seed,
    )
    return env, build_gcm(env, tc.channel, tc.spec)


@pytest.fixture(scope="module")
def family_runs():
    """One trial per (seed, solver); environment and map shared per seed."""
    runs = []
    for seed in FAMILY_SEEDS:
        entry = {"seed": seed, "trials": {}}
        gcm = None
        for name, knobs in FAMILY_SOLVERS.items():
            cfg = family_config(knobs)
            tc = parse_trial_config(cfg, seed=seed, solver_name=name)
            if gcm is None:
                env, gcm = build_scene(cfg, tc)
            entry["trials"][name] = (tc, run_trial(tc, env, gcm))
        entry["gcm"] = gcm
        runs.append(entry)
    return runs


@pytest.fixture(scope="module")
def quant_runs():
    """Matched-seed trials at 50, 25 and 12.5 m grid length."""
    runs = {g: [] for g in (50.0, 25.0, 12.5)}
    for seed in range(20):
        for g in runs:
            cfg = quant_config(g)
            tc = parse_trial_config(cfg, seed=seed)
            env, gcm = build_scene(cfg, tc)
            runs[g].append((tc, run_trial(tc, env, gcm), gcm))
    return runs


def test_online_solver_tracks_exact_reference(family_runs):
    """Best-of-10 online planning stays within 10% of exhaustive coverage
    per period while planning an order of magnitude faster."""
    planned = {
        name: np.array([[p.planned_value for p in e["trials"][name][1].periods]
                        for e in family_runs], dtype=float)
        for name in ("online", "oracle")
    }
    ratio = planned["online"].mean() / planned["oracle"].mean()
    t_online = np.mean([e["trials"]["online"][1].mean_planning_time for e in family_runs])
    t_oracle = np.mean([e["trials"]["oracle"][1].mean_planning_time for e in family_runs])
    assert ratio >= 0.90, f"per-period coverage ratio {ratio:.4f} below 0.90"
    assert t_online < t_oracle, (
        f"online planning {t_online * 1e3:.1f} ms not faster than "
        f"exhaustive {t_oracle * 1e3:.1f} ms"
    )


def test_online_solver_beats_kmeans_ea_baseline(family_runs):
    """Online placement wins on coverage rate in at least 80% of scenarios
    and in the mean."""
    a = np.array([e["trials"]["online"][1].acr_simplified for e in family_runs])
    b = np.array([e["trials"]["kmeans-ea"][1].acr_simplified for e in family_runs])
    wins = int(np.sum(a > b))
    assert wins >= math.ceil(0.8 * len(a)), f"only {wins}/{len(a)} scenario wins"
    assert a.mean() > b.mean(), f"means {a.mean():.4f} vs {b.mean():.4f}"


def test_grid_refinement_shrinks_quantization_gap(quant_runs):
    """Mean |simplified - actual| coverage gap shrinks and mean simplified
    coverage grows as the grid length halves twice."""
    gaps, simplified = [], []
    for g in (50.0, 25.0, 12.5):
        s = np.array([log.acr_simplified for _, log, _ in quant_runs[g]])
        a = np.array([log.acr_actual for _, log, _ in quant_runs[g]])
        gaps.append(np.abs(s - a).mean())
        simplified.append(s.mean())
    assert gaps[0] >= gaps[1] >= gaps[2], f"gap means not non-increasing: {gaps}"
    assert simplified[0] <= simplified[1] <= simplified[2], (
        f"simplified means not non-decreasing: {simplified}"
    )


def _fuzzed_instance(seed: int):
    # Shapes small enough that every binary point can be enumerated.
    return random_instance(
        seed,
        n_abs=1 + seed % 3,
        n_cells=5 + (seed // 3) % 3,
        n_grids=4 + seed % 2,
        n_gus=3 + seed % 5,
        density=0.3 + 0.05 * (seed % 6),
        shared_pools=bool(seed & 1),
    )


def test_dual_values_upper_bound_integer_optimum():
    """Scaled dual objective dominates the exhaustive binary optimum at
    every iterate of every restart, on 200 fuzzed instances."""
    for seed in range(200):
        _, _, _, inst = _fuzzed_instance(seed)
        opt, _ = oracles.binary_optimum(inst)
        report = solve(inst, duplication=2, seed=seed, track_dual=True)
        assert report.dual_trace is not None
        for trace in report.dual_trace:
            low = inst.n_cols * min(trace)
            assert low >= opt - 1e-9, (
                f"seed {seed}: dual value {low:.12f} under optimum {opt:.1f}"
            )


def test_objective_matches_decoded_placement_coverage():
    """r.x of every feasible binary point equals the evaluated coverage of
    the cells it selects, on 200 fuzzed instances."""
    checked = 0
    for seed in range(200):
        gcm, _, gu, inst = _fuzzed_instance(seed + 1000)
        n = inst.n_cols
        e = inst.e.toarray()
        pattern = (np.arange(2 ** n)[:, None] >> np.arange(n)[None, :]) & 1
        feasible = np.all(pattern @ e.T <= inst.l + 1e-9, axis=1)
        for x in pattern[feasible]:
            cells = inst.u_ids[np.flatnonzero(x[inst.n_v:])]
            got = evaluate_placement(gcm, cells, gu)
            assert float(inst.r @ x) == float(got), f"seed {seed + 1000}: {x}"
            checked += 1
    assert checked >= 200


def test_gap_bound_holds_and_scales_with_restarts():
    """Mean oracle-minus-online gap never exceeds the a-priori bound, and
    the bound falls exactly as the inverse square root of the restarts."""
    restarts = (1, 4, 16, 64)
    gaps = {k: [] for k in restarts}
    bounds = {k: [] for k in restarts}
    for seed in range(100):
        _, _, _, inst = _fuzzed_instance(seed + 3000)
        opt = exact_optimum(inst).coverage_value
        base = gap_bound(inst, 1)
        for k in restarts:
            report = solve(inst, duplication=k, seed=seed)
            gaps[k].append(opt - report.coverage_value)
            bounds[k].append(report.gap_bound)
            # Restart counts are powers of four, so the square roots and
            # the divisions are exact in binary floating point.
            assert report.gap_bound * math.sqrt(k) == base
    for k in restarts:
        mean_gap = np.mean(gaps[k])
        mean_bound = np.mean(bounds[k])
        assert mean_gap >= 0.0
        assert mean_gap <= mean_bound, f"K={k}: {mean_gap} above {mean_bound}"


def _check_trial_feasibility(tc, log, gcm) -> None:
    validate_trial_log(log, gcm)
    pos = np.asarray(log.abs_positions, dtype=float)
    step = np.linalg.norm(np.diff(pos, axis=0), axis=2)
    assert np.all(step <= tc.abs_speed * tc.step + 1e-9), "speed limit broken"
    assert np.all(pos[..., 0] >= -1e-9) and np.all(pos[..., 0] <= tc.spec.d1 + 1e-9)
    assert np.all(pos[..., 1] >= -1e-9) and np.all(pos[..., 1] <= tc.spec.d2 + 1e-9)
    for rec in log.periods:
        targets = list(rec.target_cells)
        assert len(set(targets)) == tc.n_abs, "duplicate target cells"
        anchors = pos[max(rec.trigger_step, 0)]
        pools = feasible_sets(anchors, tc.spec, gcm.abs_cell_valid, tc.movement_radius)
        for i, cell in enumerate(targets):
            assert cell in pools[i], (
                f"period {rec.period}: cell {cell} outside pool of ABS {i}"
            )


def test_logged_trials_respect_kinematics_and_pools(family_runs, quant_runs):
    """Every logged trajectory moves within speed and area limits; every
    planned placement stays inside the reachable pools, all cells distinct."""
    n_checked = 0
    for entry in family_runs:
        for tc, log in entry["trials"].values():
            _check_trial_feasibility(tc, log, entry["gcm"])
            n_checked += 1
    for trials in quant_runs.values():
        for tc, log, gcm in trials:
            _check_trial_feasibility(tc, log, gcm)
            n_checked += 1
    assert n_checked == len(FAMILY_SEEDS) * 3 + 60


# --- channel and line-of-sight validation --------------------------------


def _sampled_clear(env, p_arr, q_arr, n_samples: int = 1024) -> np.ndarray:
    """Midpoint-sampled obstruction verdicts for many segments at once."""
    mins, maxs = oracles._boxes(env)
    t = ((np.arange(n_samples) + 0.5) / n_samples)[None, :, None]
    clear = np.ones(len(p_arr), dtype=bool)
    for s in range(0, len(p_arr), 256):
        p = p_arr[s:s + 256]
        q = q_arr[s:s + 256]
        pts = p[:, None, :] + t * (q - p)[:, None, :]
        seg_lo = np.minimum(p, q)
        seg_hi = np.maximum(p, q)
        hit = np.zeros(len(p), dtype=bool)
        for b in range(len(mins)):
            # Strict bbox overlap prunes blocks the segment cannot touch.
            cand = np.all((seg_lo < maxs[b]) & (seg_hi > mins[b]), axis=1)
            rows = np.flatnonzero(cand & ~hit)
            if rows.size == 0:
                continue
            inside = np.all((pts[rows] > mins[b]) & (pts[rows] < maxs[b]), axis=2)
            hit[rows[inside.any(axis=1)]] = True
        clear[s:s + 256] = ~hit
    return clear


def test_outage_and_los_against_independent_oracles():
    """Closed-form outage matches Monte-Carlo Rician sampling within three
    standard errors on a 5x5 factor/threshold grid, and exact line-of-sight
    agrees with dense segment sampling on 1e5 random pairs."""
    params = ChannelParams()
    gamma = db_to_linear(params.snr_threshold_db)
    n_draws = 10_000_000
    for i, k in enumerate((0.0, 0.8, 3.0, 8.0, 20.0)):
        for j, q in enumerate((0.12, 0.35, 0.7, 1.1, 1.9)):
            p_closed = outage_probability(params, gamma / q, k)
            p_mc = oracles.outage_mc(k, q, n_draws, seed=7000 + 25 * i + j)
            se = oracles.outage_mc_se(p_mc, n_draws)
            assert abs(p_closed - p_mc) <= 3.0 * se, (
                f"K={k}, q={q}: closed {p_closed:.6f} vs mc {p_mc:.6f} (se {se:.2e})"
            )

    env = generate_environment(500.0, 500.0, 25, 35.0, (20.0, 85.0), seed=11)
    rng = np.random.default_rng(2024)
    n_pairs = 100_000
    p_arr = np.column_stack([rng.uniform(0.0, 500.0, n_pairs),
                             rng.uniform(0.0, 500.0, n_pairs),
                             np.full(n_pairs, 90.0)])
    q_arr = np.column_stack([rng.uniform(0.0, 500.0, n_pairs),
                             rng.uniform(0.0, 500.0, n_pairs),
                             np.full(n_pairs, 1.0)])
    exact = np.array([is_los(env, p_arr[i], q_arr[i]) for i in range(n_pairs)])
    sampled = _sampled_clear(env, p_arr, q_arr)
    hard = []
    for i in np.flatnonzero(exact != sampled):
        # Re-examine disagreements with a finer oracle; verdicts that flip
        # under a +/- epsilon inflation of the blocks are grazing and skipped.
        # Sample spacing here is 0.25 mm, so any crossing it still misses is
        # a graze thinner than that.
        blocked = oracles.sampled_blocked_robust(
            env, p_arr[i], q_arr[i], n_samples=2_000_000, eps=1e-4)
        if blocked is None:
            continue
        if blocked != (not exact[i]):
            hard.append(i)
    assert not hard, f"non-grazing line-of-sight disagreements at {hard[:5]}"


def test_metric_exports_are_deterministic(tmp_path):
    """Identical configs produce byte-identical connectivity maps, metric
    CSVs and trajectories across independent reruns."""
    cases = [(f"family-{name}", family_config(knobs), name)
             for name, knobs in FAMILY_SOLVERS.items()]
    cases.append(("quant-50", quant_config(50.0), None))
    for tag, cfg, solver in cases:
        blobs = []
        for attempt in ("a", "b"):
            tc = parse_trial_config(cfg, seed=0, solver_name=solver)
            env, gcm = build_scene(cfg, tc)
            gcm_path = tmp_path / f"{tag}-{attempt}.gcm"
            save_gcm(gcm, gcm_path)
            log = run_trial(tc, env, gcm)
            out = tmp_path / tag / attempt
            out.mkdir(parents=True)
            export_metrics_csv(log, out / "metrics.csv")
            export_periods_csv(log, out / "periods.csv")
            export_trajectory_json(log, out / "trajectory.json")
            rows = (out / "periods.csv").read_text().splitlines()
            cols = rows[0].split(",")
            t_col = cols.index("planning_time_s")
            masked = []
            for row in rows[1:]:
                parts = row.split(",")
                parts[t_col] = "x"
                masked.append(",".join(parts))
            blobs.append({
                "gcm": gcm_path.read_bytes(),
                "metrics": (out / "metrics.csv").read_bytes(),
                "trajectory": (out / "trajectory.json").read_bytes(),
                "periods_no_wallclock": masked,
            })
        for key in blobs[0]:
            assert blobs[0][key] == blobs[1][key], f"{tag}: {key} differs"
