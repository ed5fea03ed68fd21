"""Trial engine: GU mobility, ABS flight kinematics, periodic replanning.

A trial spans I = total_time/step steps grouped into E periods of J steps.
Each period opens with a flight phase toward the placement planned during the
previous period, then a hover/serve phase. Planning for period e is triggered
``lead`` steps before the period starts, using the GU positions reported at
that instant; GUs keep moving while the plan is computed, so the measured
coverage includes that staleness.

Coverage is logged per step in two modes: "simplified" snaps ABSs and GUs to
their grid cells and reads the connectivity map, "actual" evaluates the full
channel chain at the continuous positions.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

# kmeans_centroids stays importable here so tools can wrap each planning layer.
from .baselines import ea_step, exact_optimum, kmeans_centroids, kmeans_init  # noqa: F401
from .bilp import assemble, evaluate_placement, feasible_sets
from .channel import ChannelParams, coverage_mask
from .env import Environment, check_layout, obstructed_mask
from .errors import ConfigError, ContractViolationError, InfeasibleSetError
from .gcm import Gcm, GridSpec, nearest_valid_abs_cell
from .online_solver import solve


@dataclass(frozen=True)
class EnvConfig:
    """Building layout knobs; the area size comes from the grid spec.

    TrialConfig checks the layout against the area with ``check_layout``.
    """

    num_blocks: int = 300
    block_width: float = 25.0
    height_low: float = 30.0
    height_high: float = 89.0


@dataclass(frozen=True)
class SolverConfig:
    """Which placement solver runs each period, and its knobs."""

    name: str = "online"
    duplication: int = 3
    ea_rounds: int = 3000
    ea_mutation_radius: float | None = None
    oracle_cap: int = 5_000_000
    oracle_branch_and_bound: bool = True

    def __post_init__(self) -> None:
        if self.name not in ("online", "oracle", "kmeans-ea"):
            raise ConfigError(f"unknown solver {self.name!r}")
        if self.duplication < 1:
            raise ConfigError("duplication must be at least 1")
        if self.ea_rounds < 1:
            raise ConfigError("ea_rounds must be at least 1")
        if self.ea_mutation_radius is not None and self.ea_mutation_radius < 0.0:
            raise ConfigError(
                f"ea_mutation_radius must be non-negative, got {self.ea_mutation_radius}"
            )


def _check_multiple(name: str, value: float, step: float) -> int:
    k = value / step
    if not math.isfinite(k) or abs(k - round(k)) > 1e-9:
        raise ConfigError(f"{name} ({value} s) must be an integer multiple of {step} s")
    return int(round(k))


@dataclass(frozen=True)
class TrialConfig:
    """Full description of one trial; everything random is seeded here."""

    spec: GridSpec
    channel: ChannelParams
    env: EnvConfig = EnvConfig()
    solver: SolverConfig = SolverConfig()
    total_time: float = 200.0
    period: float = 20.0
    flight_time: float = 10.0
    service_time: float = 10.0
    planning_time: float = 5.0
    step: float = 1.0
    n_abs: int = 2
    n_gus: int = 20
    abs_speed: float = 30.0
    gu_speed: float = 2.0
    env_seed: int = 0
    mobility_seed: int = 1
    init_seed: int = 2
    solver_seed: int = 3
    plan_before_start: bool = False
    weight_multiplicity: bool = True

    def __post_init__(self) -> None:
        e = self.env
        try:
            check_layout(self.spec.d1, self.spec.d2, e.num_blocks, e.block_width,
                         (e.height_low, e.height_high))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if min(self.step, self.period, self.total_time) <= 0:
            raise ConfigError("step, period and total_time must be positive")
        if abs(self.flight_time + self.service_time - self.period) > 1e-9:
            raise ConfigError(
                f"flight_time + service_time must equal period: "
                f"{self.flight_time} + {self.service_time} != {self.period}"
            )
        if not 0 <= self.planning_time <= self.period:
            raise ConfigError("planning_time must lie in [0, period]")
        _check_multiple("total_time", self.total_time, self.step)
        _check_multiple("period", self.period, self.step)
        _check_multiple("flight_time", self.flight_time, self.step)
        if _check_multiple("total_time", self.total_time, self.period) < 1:
            raise ConfigError("total_time must span at least one period")
        if self.n_abs < 1 or self.n_gus < 1:
            raise ConfigError("n_abs and n_gus must be at least 1")
        if self.solver.name == "kmeans-ea" and self.n_gus < self.n_abs:
            raise ConfigError(
                f"kmeans-ea needs at least one GU per ABS to seed its clusters, "
                f"got n_gus={self.n_gus} < n_abs={self.n_abs}"
            )
        if self.abs_speed < 0 or self.gu_speed < 0:
            raise ConfigError("speeds must be non-negative")
        radius = self.solver.ea_mutation_radius
        if self.solver.name == "kmeans-ea" and radius is not None and radius > self.movement_radius:
            raise ConfigError(
                f"ea_mutation_radius {radius} exceeds the movement radius "
                f"{self.movement_radius} (abs_speed * flight_time)"
            )
        if abs(self.spec.abs_alt - self.channel.abs_alt) > 1e-9:
            raise ConfigError(
                f"grid altitude {self.spec.abs_alt} differs from channel altitude "
                f"{self.channel.abs_alt}"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.total_time / self.step))

    @property
    def steps_per_period(self) -> int:
        return int(round(self.period / self.step))

    @property
    def flight_steps(self) -> int:
        return int(round(self.flight_time / self.step))

    @property
    def n_periods(self) -> int:
        return int(round(self.total_time / self.period))

    @property
    def lead_steps(self) -> int:
        return math.ceil(self.planning_time / self.step - 1e-9)

    @property
    def movement_radius(self) -> float:
        return self.abs_speed * self.flight_time


@dataclass(frozen=True)
class PlanState:
    """Inputs frozen at the planning instant."""

    anchor_cells: tuple[int, ...]
    gu_positions: np.ndarray
    period: int


@dataclass(frozen=True)
class PeriodRecord:
    period: int
    trigger_step: int
    anchor_cells: tuple[int, ...]
    target_cells: tuple[int, ...]
    planned_value: int
    planning_time_s: float
    over_budget: bool
    gap_bound: float | None = None


@dataclass(frozen=True)
class TrialLog:
    cfg: TrialConfig
    cr_simplified: np.ndarray
    cr_actual: np.ndarray
    abs_positions: np.ndarray
    gu_positions: np.ndarray
    periods: tuple[PeriodRecord, ...]
    boundary_violations: int
    exclusion_violations: int

    @property
    def acr_simplified(self) -> float:
        return float(self.cr_simplified.mean())

    @property
    def acr_actual(self) -> float:
        return float(self.cr_actual.mean())

    @property
    def mean_planning_time(self) -> float:
        planned = [p.planning_time_s for p in self.periods if p.trigger_step >= 0]
        return float(np.mean(planned)) if planned else 0.0


def _period_seed(base: int, period: int, stream: int) -> int:
    return int(np.random.SeedSequence([base, period, stream]).generate_state(1)[0])


def initial_gu_positions(env: Environment, m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws over the area, rejecting points inside any footprint."""
    out = np.empty((m, 2))
    for i in range(m):
        for _ in range(1000):
            p = rng.uniform((0.0, 0.0), (env.d1, env.d2))
            if not obstructed_mask(env, p[None, :])[0]:
                out[i] = p
                break
        else:
            raise InfeasibleSetError("could not draw a free ground position in 1000 tries")
    return out


def step_gu(
    positions: np.ndarray,
    env: Environment,
    gu_speed: float,
    dt: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Constant-pace random-direction move, resampled away from obstacles.

    Every GU travels exactly gu_speed*dt in a fresh uniform direction; a
    move that would land outside the area or inside a footprint redraws its
    direction up to 100 times and then stays put for this step.
    """
    positions = np.asarray(positions, dtype=float)
    if gu_speed * dt == 0.0:
        return positions.copy()
    m = len(positions)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=m)
    step_len = gu_speed * dt
    cand = positions + step_len * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    inside = (
        (cand[:, 0] >= 0.0) & (cand[:, 0] <= env.d1)
        & (cand[:, 1] >= 0.0) & (cand[:, 1] <= env.d2)
    )
    bad = ~inside
    bad[inside] = obstructed_mask(env, cand[inside])
    out = cand.copy()
    for i in np.flatnonzero(bad):
        for _ in range(100):
            t = rng.uniform(0.0, 2.0 * np.pi)
            c = positions[i] + step_len * np.array([np.cos(t), np.sin(t)])
            if not (0.0 <= c[0] <= env.d1 and 0.0 <= c[1] <= env.d2):
                continue
            if not obstructed_mask(env, c[None, :])[0]:
                out[i] = c
                break
        else:
            out[i] = positions[i]
    return out


def fly_step(
    current: np.ndarray,
    target: np.ndarray,
    v_max: float,
    dt: float,
    time_left: float,
) -> np.ndarray:
    """One step of straight-line flight that arrives exactly on schedule.

    Speed is min(v_max, remaining_distance / remaining_flight_time), so the
    per-step displacement never exceeds v_max*dt and the target is reached
    by the end of the flight phase.
    """
    current = np.asarray(current, dtype=float)
    target = np.asarray(target, dtype=float)
    delta = target - current
    dist = np.linalg.norm(delta, axis=-1)
    out = current.copy()
    moving = dist > 0.0
    if not np.any(moving):
        return out
    if time_left <= 0.0:
        raise ContractViolationError("flight phase exhausted before arrival")
    speed = np.minimum(v_max, dist[moving] / time_left)
    step_len = np.minimum(speed * dt, dist[moving])
    out[moving] += delta[moving] * (step_len / dist[moving])[:, None]
    arrived = np.isclose(step_len, dist[moving])
    idx = np.flatnonzero(moving)[arrived]
    out[idx] = target[idx]
    return out


def plan_period(state: PlanState, gcm: Gcm, cfg: TrialConfig) -> PeriodRecord:
    """Solve one placement instance from the frozen planning inputs.

    Every solver plans from the same assembled instance; only the online
    solver gives a gap bound. Wall time is measured and compared against
    the planning budget; an overrun is flagged in the record but never
    aborts the trial.
    """
    anchor_xy = gcm.spec.traversal.centers[np.array(state.anchor_cells) - 1, :2]
    t0 = time.perf_counter()
    pools = feasible_sets(anchor_xy, gcm.spec, gcm.abs_cell_valid, cfg.movement_radius)
    instance = assemble(gcm, pools, state.gu_positions, cfg.weight_multiplicity)
    sc = cfg.solver
    bound = None
    if sc.name == "kmeans-ea":
        start = kmeans_init(
            instance, state.gu_positions, _period_seed(cfg.solver_seed, state.period, 1)
        )
        radius = cfg.movement_radius if sc.ea_mutation_radius is None else sc.ea_mutation_radius
        placement = ea_step(
            start,
            instance,
            rounds=sc.ea_rounds,
            mutation_radius=radius,
            seed=_period_seed(cfg.solver_seed, state.period, 2),
        )
    elif sc.name == "oracle":
        placement = exact_optimum(instance, sc.oracle_cap, sc.oracle_branch_and_bound)
    else:
        report = solve(
            instance,
            duplication=sc.duplication,
            seed=_period_seed(cfg.solver_seed, state.period, 0),
        )
        placement, bound = report.placement, report.gap_bound
    elapsed = time.perf_counter() - t0
    return PeriodRecord(
        period=state.period,
        trigger_step=-1,
        anchor_cells=state.anchor_cells,
        target_cells=placement.abs_cells,
        planned_value=placement.coverage_value,
        planning_time_s=elapsed,
        over_budget=elapsed > cfg.planning_time,
        gap_bound=bound,
    )


def run_trial(cfg: TrialConfig, environment: Environment, gcm: Gcm) -> TrialLog:
    """Execute one full trial and log both coverage modes every step."""
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
    gu_pos = initial_gu_positions(environment, m, rng_init)

    # Planning triggers: period e plans at step (e-1)*J - lead (clamped to 0).
    triggers: dict[int, list[int]] = {}
    first_planned = 1 if cfg.plan_before_start else 2
    for e in range(first_planned, cfg.n_periods + 1):
        triggers.setdefault(max(0, (e - 1) * j_steps - cfg.lead_steps), []).append(e)

    records: dict[int, PeriodRecord] = {}
    if not cfg.plan_before_start:
        # The only unplanned period: the ABSs hold their start cells.
        records[1] = PeriodRecord(
            period=1,
            trigger_step=-1,
            anchor_cells=start_cells,
            target_cells=start_cells,
            planned_value=-1,
            planning_time_s=0.0,
            over_budget=False,
        )
    # Where the ABSs will sit when the next planned period starts.
    anchor = start_cells

    def fire_trigger(step_idx: int) -> None:
        nonlocal anchor
        for e in sorted(triggers.get(step_idx, [])):
            state = PlanState(anchor_cells=anchor, gu_positions=gu_pos.copy(), period=e)
            records[e] = replace(plan_period(state, gcm, cfg), trigger_step=step_idx)
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
        gu_pos = step_gu(gu_pos, environment, cfg.gu_speed, cfg.step, rng_mob)

        step_in_period = (i - 1) % j_steps  # 0 on a period's first step
        if step_in_period == 0:
            # Every period flies to its record's targets; an unplanned
            # period's targets are where the ABSs already are.
            flown = records[(i - 1) // j_steps + 1]
            flight_target = centers[np.array(flown.target_cells) - 1]
            far = np.linalg.norm(flight_target[:, :2] - abs_pos[:, :2], axis=1)
            if np.any(far > cfg.movement_radius * (1.0 + 1e-9)):
                raise ContractViolationError("planned target outside the reachable flight radius")

        if step_in_period < cfg.flight_steps:
            time_left = cfg.flight_time - step_in_period * cfg.step
            abs_pos = fly_step(abs_pos, flight_target, cfg.abs_speed, cfg.step, time_left)
            if step_in_period == cfg.flight_steps - 1:
                if not np.allclose(abs_pos, flight_target, atol=1e-6):
                    raise ContractViolationError("flight phase ended short of the target")
                abs_pos = flight_target.copy()

        # Eq-style placement constraints: inside the area, outside tall
        # footprints. Violations are tallied, not fatal.
        xy = abs_pos[:, :2]
        out_of_area = (
            (xy[:, 0] < 0) | (xy[:, 0] > cfg.spec.d1)
            | (xy[:, 1] < 0) | (xy[:, 1] > cfg.spec.d2)
        )
        boundary_bad += int(out_of_area.sum())
        exclusion_bad += int(obstructed_mask(environment, xy, min_height=h).sum())

        snapped = [nearest_valid_abs_cell(gcm, p) for p in xy]
        cr_simpl[i - 1] = evaluate_placement(gcm, snapped, gu_pos) / m

        gu3 = np.column_stack([gu_pos, np.full(m, cfg.channel.gu_alt)])
        covered_act = np.zeros(m, dtype=bool)
        for p in abs_pos:
            covered_act |= coverage_mask(cfg.channel, environment, p, gu3)
        cr_act[i - 1] = covered_act.mean()

        abs_hist[i], gu_hist[i] = abs_pos, gu_pos
        fire_trigger(i)

    period_list = tuple(records[e] for e in sorted(records))
    return TrialLog(
        cfg=cfg,
        cr_simplified=cr_simpl,
        cr_actual=cr_act,
        abs_positions=abs_hist,
        gu_positions=gu_hist,
        periods=period_list,
        boundary_violations=boundary_bad,
        exclusion_violations=exclusion_bad,
    )


def validate_trial_log(log: TrialLog, gcm: Gcm | None = None) -> None:
    """Check the kinematic and accounting contracts of a finished trial.

    Raises ContractViolationError on the first failure.
    """
    cfg = log.cfg
    step_cap = cfg.abs_speed * cfg.step + 1e-9
    moves = np.linalg.norm(np.diff(log.abs_positions, axis=0), axis=2)
    if moves.size and moves.max() > step_cap:
        raise ContractViolationError(
            f"ABS displacement {moves.max():.12f} exceeds per-step cap {step_cap:.12f}"
        )
    xy = log.abs_positions[..., :2].reshape(-1, 2)
    if (
        (xy[:, 0] < -1e-9).any() or (xy[:, 0] > cfg.spec.d1 + 1e-9).any()
        or (xy[:, 1] < -1e-9).any() or (xy[:, 1] > cfg.spec.d2 + 1e-9).any()
    ):
        raise ContractViolationError("logged ABS position outside the service area")
    for name, cr in (("simplified", log.cr_simplified), ("actual", log.cr_actual)):
        if cr.min() < 0.0 or cr.max() > 1.0:
            raise ContractViolationError(f"{name} per-step CR outside [0, 1]")
    for rec in log.periods:
        if len(set(rec.target_cells)) != len(rec.target_cells):
            raise ContractViolationError(f"period {rec.period} targets not distinct")
        if gcm is not None:
            for c in rec.target_cells:
                if not gcm.abs_cell_valid[c - 1]:
                    raise ContractViolationError(
                        f"period {rec.period} target {c} is not a valid cell"
                    )


def export_metrics_csv(log: TrialLog, path) -> None:
    """Per-step coverage in both modes; floats via repr for stable bytes."""
    lines = ["step,cr_simplified,cr_actual"]
    for i in range(len(log.cr_simplified)):
        lines.append(f"{i + 1},{float(log.cr_simplified[i])!r},{float(log.cr_actual[i])!r}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def export_periods_csv(log: TrialLog, path) -> None:
    lines = [
        "period,trigger_step,anchor_cells,target_cells,planned_value,"
        "planning_time_s,over_budget,gap_bound"
    ]
    for rec in log.periods:
        anchor = ";".join(str(c) for c in rec.anchor_cells)
        target = ";".join(str(c) for c in rec.target_cells)
        bound = "" if rec.gap_bound is None else repr(rec.gap_bound)
        lines.append(
            f"{rec.period},{rec.trigger_step},{anchor},{target},{rec.planned_value},"
            f"{rec.planning_time_s!r},{int(rec.over_budget)},{bound}"
        )
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def export_trajectory_json(log: TrialLog, path) -> None:
    payload = {
        "step_seconds": log.cfg.step,
        "abs_positions": log.abs_positions.tolist(),
        "gu_positions": log.gu_positions.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
