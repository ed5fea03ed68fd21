"""Trial engine: GU mobility, ABS flight kinematics, periodic replanning.

A trial spans I = total_time/step steps grouped into E periods of J steps.
Each period opens with a flight phase toward the placement planned during the
previous period, then a hover/serve phase. Planning for period e is triggered
``lead`` steps before the period starts, using the GU positions reported at
that instant; GUs keep moving while the plan is computed, so the measured
coverage includes that staleness.

A plan reads only the map, the users at its trigger step and the cells the
previous period flies to, and the users never read the fleet, so
``run_trial`` runs in four phases: it draws every user path, plans every
period from those paths, flies the fleet to the plans, then scores both
coverage modes from the two position arrays. "Simplified" coverage snaps each
distinct ABS position to its grid cell once and reads the connectivity map
for all steps at once. "Actual" coverage evaluates the full channel chain at
the continuous positions, in one call per (period, ABS) over that ABS's J
steps and the M users. Each call takes both branch verdicts of every link,
and only the links whose two verdicts differ go through ``coverage_mask``.

Every solver is one ``SOLVERS`` entry: how it plans, and which trials it
cannot run.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .baselines import ea_step, exact_optimum, kmeans_centroids, kmeans_init
from .bilp import assemble, feasible_sets
from .channel import ChannelParams, ModelValidityWarning, branch_verdicts, coverage_mask
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
        if self.name not in SOLVERS:
            raise ConfigError(f"unknown solver {self.name!r}; known: {', '.join(SOLVERS)}")
        if self.duplication < 1:
            raise ConfigError("duplication must be at least 1")
        if self.ea_rounds < 1:
            raise ConfigError("ea_rounds must be at least 1")
        if self.oracle_cap < 1:
            raise ConfigError("oracle_cap must be at least 1")
        if self.ea_mutation_radius is not None and self.ea_mutation_radius < 0.0:
            raise ConfigError(
                f"ea_mutation_radius must be non-negative, got {self.ea_mutation_radius}"
            )


# Each entry calls its solver through this module's globals at call time, so
# a wrapper installed on ``absmove.sim.<name>`` sees every plan.
def _plan_online(instance, state: PlanState, cfg: TrialConfig):
    report = solve(instance, duplication=cfg.solver.duplication,
                   seed=derive_seed(cfg.solver_seed, state.period, 0))
    return report.placement, report.gap_bound


def _plan_oracle(instance, state: PlanState, cfg: TrialConfig):
    sc = cfg.solver
    return exact_optimum(instance, sc.oracle_cap, sc.oracle_branch_and_bound), None


def _plan_kmeans_ea(instance, state: PlanState, cfg: TrialConfig):
    sc = cfg.solver
    centroids = kmeans_centroids(state.gu_positions, instance.n_abs,
                                 derive_seed(cfg.solver_seed, state.period, 1))
    start = kmeans_init(instance, centroids)
    radius = cfg.movement_radius if sc.ea_mutation_radius is None else sc.ea_mutation_radius
    placement = ea_step(start, instance, rounds=sc.ea_rounds, mutation_radius=radius,
                        seed=derive_seed(cfg.solver_seed, state.period, 2))
    return placement, None


def _check_kmeans_ea(cfg: TrialConfig) -> None:
    if cfg.n_gus < cfg.n_abs:
        raise ConfigError(
            f"kmeans-ea needs at least one GU per ABS to seed its clusters, "
            f"got n_gus={cfg.n_gus} < n_abs={cfg.n_abs}"
        )
    radius = cfg.solver.ea_mutation_radius
    if radius is not None and radius > cfg.movement_radius:
        raise ConfigError(
            f"ea_mutation_radius {radius} exceeds the movement radius "
            f"{cfg.movement_radius} (abs_speed * flight_time)"
        )


# name -> (plan(instance, state, cfg) -> (Placement, gap bound or None),
#          check(cfg) raising ConfigError for a trial the solver cannot run, or None).
SOLVERS = {
    "online": (_plan_online, None),
    "oracle": (_plan_oracle, None),
    "kmeans-ea": (_plan_kmeans_ea, _check_kmeans_ea),
}


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
        if not 0 <= self.flight_time <= self.period:
            raise ConfigError("flight_time must lie in [0, period]")
        if not 0 <= self.planning_time <= self.period:
            raise ConfigError("planning_time must lie in [0, period]")
        _check_multiple("total_time", self.total_time, self.step)
        _check_multiple("period", self.period, self.step)
        _check_multiple("flight_time", self.flight_time, self.step)
        if _check_multiple("total_time", self.total_time, self.period) < 1:
            raise ConfigError("total_time must span at least one period")
        if self.n_abs < 1 or self.n_gus < 1:
            raise ConfigError("n_abs and n_gus must be at least 1")
        if self.abs_speed < 0 or self.gu_speed < 0:
            raise ConfigError("speeds must be non-negative")
        check = SOLVERS[self.solver.name][1]
        if check is not None:
            check(self)
        if self.spec.abs_alt != self.channel.abs_alt:
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


def derive_seed(*key: int) -> int:
    """Independent child seed for one named stream, e.g. (trial seed, stream)."""
    return int(np.random.SeedSequence([int(k) for k in key]).generate_state(1)[0])


def _free_ground(env: Environment, xys: np.ndarray) -> np.ndarray:
    """True per (k, 2) point that lies in the area and outside every footprint."""
    inside = ((xys >= 0.0) & (xys <= (env.d1, env.d2))).all(axis=1)
    return inside & ~obstructed_mask(env, xys)


def initial_gu_positions(env: Environment, m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws over the area, rejecting points inside any footprint."""
    out = np.empty((m, 2))
    for i in range(m):
        for _ in range(1000):
            p = rng.uniform((0.0, 0.0), (env.d1, env.d2))
            if _free_ground(env, p[None, :])[0]:
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
    theta = rng.uniform(0.0, 2.0 * np.pi, size=len(positions))
    step_len = gu_speed * dt
    out = positions + step_len * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    for i in np.flatnonzero(~_free_ground(env, out)):
        for _ in range(100):
            t = rng.uniform(0.0, 2.0 * np.pi)
            c = positions[i] + step_len * np.array([np.cos(t), np.sin(t)])
            if _free_ground(env, c[None, :])[0]:
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
    placement, bound = SOLVERS[cfg.solver.name][0](instance, state, cfg)
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
    """Execute one full trial and log both coverage modes every step.

    Phase 1 draws every user position, with one ``step_gu`` call per step
    from the mobility stream, which feeds nothing else. Phase 2 plans every
    period in period order: period e plans from the users at its trigger
    step max(0, (e-1)*J - lead), anchored at the previous period's targets.
    Triggers never fall as e grows, so this is the order in which they fire.
    Phase 3 flies the fleet period by period, with the flight contract
    checks at the steps where they apply. Phase 4 scores both modes from
    the two position arrays (``_simplified_cr`` and ``_actual_cr``).
    """
    n, m = cfg.n_abs, cfg.n_gus
    i_total, j_steps, f_steps = cfg.n_steps, cfg.steps_per_period, cfg.flight_steps
    rng_init = np.random.default_rng([cfg.init_seed])
    rng_mob = np.random.default_rng([cfg.mobility_seed])

    valid_ids = np.flatnonzero(gcm.abs_cell_valid) + 1
    if len(valid_ids) < n:
        raise InfeasibleSetError(f"only {len(valid_ids)} valid cells for {n} ABSs")
    start_cells = tuple(int(c) for c in rng_init.choice(valid_ids, size=n, replace=False))
    centers = cfg.spec.traversal.centers
    abs_pos = centers[np.array(start_cells) - 1]

    # Phase 1: user paths.
    gu_hist = np.empty((i_total + 1, m, 2))
    gu_hist[0] = initial_gu_positions(environment, m, rng_init)
    for i in range(1, i_total + 1):
        gu_hist[i] = step_gu(gu_hist[i - 1], environment, cfg.gu_speed, cfg.step, rng_mob)

    # Phase 2: plans. Unless planned before the start, period 1 is the only
    # unplanned period: the ABSs hold their start cells.
    records = [] if cfg.plan_before_start else [PeriodRecord(
        period=1, trigger_step=-1, anchor_cells=start_cells, target_cells=start_cells,
        planned_value=-1, planning_time_s=0.0, over_budget=False,
    )]
    for e in range(len(records) + 1, cfg.n_periods + 1):
        trigger = max(0, (e - 1) * j_steps - cfg.lead_steps)
        anchor = records[-1].target_cells if records else start_cells
        state = PlanState(anchor_cells=anchor, gu_positions=gu_hist[trigger].copy(), period=e)
        records.append(replace(plan_period(state, gcm, cfg), trigger_step=trigger))

    # Phase 3: flights. Period e fills steps (e-1)*J + 1 .. e*J.
    abs_hist = np.empty((i_total + 1, n, 3))
    abs_hist[0] = abs_pos
    for first, rec in zip(range(1, i_total + 1, j_steps), records):
        flight_target = centers[np.array(rec.target_cells) - 1]
        far = np.linalg.norm(flight_target[:, :2] - abs_pos[:, :2], axis=1)
        if np.any(far > cfg.movement_radius * (1.0 + 1e-9)):
            raise ContractViolationError("planned target outside the reachable flight radius")
        for k in range(f_steps):
            abs_pos = fly_step(abs_pos, flight_target, cfg.abs_speed, cfg.step,
                               cfg.flight_time - k * cfg.step)
            if k == f_steps - 1:
                if not np.allclose(abs_pos, flight_target, atol=1e-6):
                    raise ContractViolationError("flight phase ended short of the target")
                abs_pos = flight_target.copy()
            abs_hist[first + k] = abs_pos
        abs_hist[first + f_steps : first + j_steps] = abs_pos

    # Phase 4: scoring. Eq-style placement constraints (inside the area,
    # outside tall footprints) are tallied, not fatal.
    xy = abs_hist[1:, :, :2].reshape(-1, 2)
    h = cfg.channel.abs_alt
    out_of_area = (
        (xy[:, 0] < 0) | (xy[:, 0] > cfg.spec.d1)
        | (xy[:, 1] < 0) | (xy[:, 1] > cfg.spec.d2)
    )
    return TrialLog(
        cfg=cfg,
        cr_simplified=_simplified_cr(gcm, abs_hist[1:], gu_hist[1:]),
        cr_actual=_actual_cr(cfg, environment, abs_hist[1:], gu_hist[1:]),
        abs_positions=abs_hist,
        gu_positions=gu_hist,
        periods=tuple(records),
        boundary_violations=int(out_of_area.sum()),
        exclusion_violations=int(obstructed_mask(environment, xy, min_height=h).sum()),
    )


def _simplified_cr(gcm: Gcm, abs_steps: np.ndarray, gu_steps: np.ndarray) -> np.ndarray:
    """Per-step share of users whose ground grid some ABS's snapped cell
    covers; (I, N, 3) ABS and (I, M, 2) user positions in.

    Each distinct ABS position is snapped once. The count is an integer, so
    each step's share is the same float as ``evaluate_placement(...) / M``.
    """
    i_total, m, _ = gu_steps.shape
    distinct, inverse = np.unique(abs_steps[..., :2].reshape(-1, 2), axis=0, return_inverse=True)
    snapped = np.array([nearest_valid_abs_cell(gcm, p) for p in distinct])
    snapped = snapped[inverse.reshape(-1)].reshape(i_total, -1)
    grids = gcm.spec.ground.cells_of(gu_steps.reshape(-1, 2)).reshape(i_total, m)
    return gcm.z[snapped[:, :, None] - 1, grids[:, None, :] - 1].any(axis=1).sum(axis=1) / m


def _actual_cr(cfg: TrialConfig, environment: Environment, abs_steps: np.ndarray,
               gu_steps: np.ndarray) -> np.ndarray:
    """Per-step share of users some ABS covers through the full channel
    chain; (I, N, 3) ABS and (I, M, 2) user positions in.

    Each (period, ABS) is one call over that ABS's J steps and the M users,
    in step order, with one transmitter per link: J*M links, and a hover
    run is one run of equal transmitters. A call takes both branch
    verdicts of every link (``branch_verdicts``); only the band of links
    whose two verdicts differ goes through ``coverage_mask``, sightline test
    included, in a call made even when the band is empty. Every stage is
    elementwise per link, so the verdicts are those of per-step calls. The
    verdicts warn once per call for the links under the model floor, and the
    band call under them does not warn again, so each clamped link is
    counted once.
    """
    i_total, n, _ = abs_steps.shape
    m, j_steps = gu_steps.shape[1], cfg.steps_per_period
    gu3 = np.concatenate([gu_steps, np.full((i_total, m, 1), cfg.channel.gu_alt)], axis=2)
    hit = np.zeros((i_total, n, m), dtype=bool)
    for first in range(0, i_total, j_steps):
        steps = slice(first, first + j_steps)
        qs = gu3[steps].reshape(-1, 3)
        for k in range(n):
            ps = np.repeat(abs_steps[steps, k], m, axis=0)
            covered_los, covered = branch_verdicts(cfg.channel, ps, qs)
            band = covered_los != covered
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ModelValidityWarning)
                covered[band] = coverage_mask(cfg.channel, environment, ps[band], qs[band])
            hit[steps, k] = covered.reshape(-1, m)
    return hit.any(axis=1).mean(axis=1)


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


def write_csv(path, header, rows) -> None:
    """The one table format: a header line, then one line per row.

    A float cell (NumPy floats too) is written by ``repr(float(v))``, None
    as an empty cell and anything else by ``str``; every line ends in \\n.
    """
    def cell(v) -> str:
        if v is None:
            return ""
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)

    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(cell, row)) + "\n")


def export_metrics_csv(log: TrialLog, path) -> None:
    """Per-step coverage in both modes."""
    write_csv(path, ("step", "cr_simplified", "cr_actual"),
              zip(range(1, len(log.cr_simplified) + 1), log.cr_simplified, log.cr_actual))


def export_periods_csv(log: TrialLog, path) -> None:
    write_csv(
        path,
        ("period", "trigger_step", "anchor_cells", "target_cells", "planned_value",
         "planning_time_s", "over_budget", "gap_bound"),
        ((rec.period, rec.trigger_step, ";".join(map(str, rec.anchor_cells)),
          ";".join(map(str, rec.target_cells)), rec.planned_value, rec.planning_time_s,
          int(rec.over_budget), rec.gap_bound) for rec in log.periods),
    )


def export_trajectory_json(log: TrialLog, path) -> None:
    """Write the step length and the ABS and user positions per step as the
    bytes of ``json.dump`` with sorted keys, plus a newline.

    Each step's positions go through the C one-shot encoder on their own:
    about as fast as encoding the whole log in one call, while the encoder
    holds one step's pieces at a time instead of the whole file's.
    """
    with open(path, "w") as fh:
        for head, positions in (('{"abs_positions": ', log.abs_positions),
                                (', "gu_positions": ', log.gu_positions)):
            fh.write(head + "[" + ", ".join(json.dumps(p.tolist()) for p in positions) + "]")
        fh.write(', "step_seconds": ' + json.dumps(log.cfg.step) + "}\n")
