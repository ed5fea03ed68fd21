"""Trial simulator tests: mobility, flight, scheduling, logging contracts."""

import dataclasses
import json
import math

import numpy as np
import pytest

from absmove import (
    BuildingBlock,
    ChannelParams,
    ConfigError,
    ContractViolationError,
    EnvConfig,
    Environment,
    GridSpec,
    PlanState,
    SolverConfig,
    TrialConfig,
    assemble,
    build_gcm,
    evaluate_placement,
    exact_optimum,
    feasible_sets,
    fly_step,
    gap_bound,
    los_blocked_mask,
    nearest_valid_abs_cell,
    obstructed_mask,
    plan_period,
    run_trial,
    step_gu,
    validate_trial_log,
)
import absmove.sim as sim
import oracles
from absmove.channel import ModelValidityWarning
from absmove.sim import (
    export_metrics_csv,
    export_periods_csv,
    export_trajectory_json,
    initial_gu_positions,
    write_csv,
)


def tiny_cfg(**kw) -> TrialConfig:
    spec = GridSpec(d1=200.0, d2=200.0, k1=5, k2=5, k1p=5, k2p=5, abs_alt=90.0)
    base = dict(
        spec=spec,
        channel=ChannelParams(),
        env=EnvConfig(num_blocks=0),
        solver=SolverConfig(name="online", duplication=2),
        total_time=60.0,
        period=20.0,
        flight_time=10.0,
        planning_time=5.0,
        step=1.0,
        n_abs=2,
        n_gus=6,
        abs_speed=30.0,
        gu_speed=2.0,
    )
    base.update(kw)
    return TrialConfig(**base)


@pytest.fixture(scope="module")
def tiny_env():
    return Environment(d1=200.0, d2=200.0, blocks=(), seed=0)


@pytest.fixture(scope="module")
def tiny_gcm(tiny_env):
    return build_gcm(tiny_env, ChannelParams(), tiny_cfg().spec)


class TestTrialConfig:
    def test_phase_split_must_cover_period(self):
        # The service phase is what the flight leaves of the period.
        for flight_time in (21.0, -1.0):
            with pytest.raises(ConfigError, match="flight_time"):
                tiny_cfg(flight_time=flight_time)
        tiny_cfg(flight_time=0.0)
        tiny_cfg(flight_time=20.0)

    def test_planning_budget_bounds(self):
        with pytest.raises(ConfigError):
            tiny_cfg(planning_time=21.0)
        tiny_cfg(planning_time=0.0)
        tiny_cfg(planning_time=20.0)

    def test_divisibility(self):
        with pytest.raises(ConfigError):
            tiny_cfg(step=7.0)
        with pytest.raises(ConfigError):
            tiny_cfg(total_time=50.0)

    @pytest.mark.parametrize("timing", [
        {"step": 1e-320},
        {"total_time": 1e-320},
        {"period": 0.0, "flight_time": 0.0, "planning_time": 0.0},
    ])
    def test_degenerate_timing_is_config_error(self, timing):
        with pytest.raises(ConfigError):
            tiny_cfg(**timing)

    def test_altitude_consistency(self):
        with pytest.raises(ConfigError):
            tiny_cfg(channel=ChannelParams(abs_alt=120.0))

    def test_altitude_must_match_exactly(self, tiny_env):
        # The map build compares the two altitudes exactly, so the config
        # does too: an altitude it accepts always builds.
        channel = ChannelParams(abs_alt=90.0 + 1e-10)
        assert channel.abs_alt != 90.0
        with pytest.raises(ConfigError, match="differs from channel altitude"):
            tiny_cfg(channel=channel)
        with pytest.raises(ConfigError, match="does not match channel altitude"):
            build_gcm(tiny_env, channel, tiny_cfg().spec)
        cfg = tiny_cfg(channel=ChannelParams(abs_alt=90.0))
        build_gcm(tiny_env, cfg.channel, cfg.spec)

    def test_derived_quantities(self):
        cfg = tiny_cfg()
        assert cfg.n_steps == 60
        assert cfg.steps_per_period == 20
        assert cfg.flight_steps == 10
        assert cfg.n_periods == 3
        assert cfg.lead_steps == 5
        assert cfg.movement_radius == 300.0

    def test_kmeans_ea_needs_a_gu_per_abs(self):
        with pytest.raises(ConfigError, match="kmeans-ea"):
            tiny_cfg(solver=SolverConfig(name="kmeans-ea"), n_abs=3, n_gus=2)
        tiny_cfg(solver=SolverConfig(name="online"), n_abs=3, n_gus=2)
        tiny_cfg(solver=SolverConfig(name="kmeans-ea"), n_abs=3, n_gus=3)

    def test_ea_mutation_radius_bounds(self):
        with pytest.raises(ConfigError, match="non-negative"):
            SolverConfig(name="kmeans-ea", ea_mutation_radius=-5.0)
        # The movement radius of tiny_cfg is 30 m/s * 10 s = 300 m.
        with pytest.raises(ConfigError, match="movement radius"):
            tiny_cfg(solver=SolverConfig(name="kmeans-ea", ea_mutation_radius=1000.0))
        tiny_cfg(solver=SolverConfig(name="kmeans-ea", ea_mutation_radius=300.0))
        tiny_cfg(solver=SolverConfig(name="online", ea_mutation_radius=1000.0))

    def test_lead_rounds_up(self):
        assert tiny_cfg(planning_time=4.2).lead_steps == 5
        assert tiny_cfg(planning_time=5.0, step=2.0, flight_time=10.0).lead_steps == 3


class TestGuMobility:
    def test_initial_positions_clear_of_blocks(self, city_env):
        rng = np.random.default_rng(4)
        pts = initial_gu_positions(city_env, 50, rng)
        assert pts.shape == (50, 2)
        assert (pts >= 0.0).all() and (pts[:, 0] <= city_env.d1).all()
        assert not obstructed_mask(city_env, pts).any()

    def test_zero_speed_is_identity(self, tiny_env):
        rng = np.random.default_rng(0)
        pts = np.array([[10.0, 10.0], [150.0, 40.0]])
        out = step_gu(pts, tiny_env, 0.0, 1.0, rng)
        assert np.array_equal(out, pts)

    def test_exact_pace_in_open_terrain(self, tiny_env):
        rng = np.random.default_rng(1)
        pts = np.full((8, 2), 100.0)
        out = step_gu(pts, tiny_env, 2.0, 1.5, rng)
        d = np.hypot(*(out - pts).T)
        assert np.allclose(d, 3.0, atol=1e-12)

    def test_long_walk_containment(self, city_env):
        rng = np.random.default_rng(2)
        pts = initial_gu_positions(city_env, 20, rng)
        for _ in range(10_000):
            pts = step_gu(pts, city_env, 2.0, 1.0, rng)
        # Spot-check the invariant held at the end; per-step displacements
        # are constant, so a violation would persist.
        assert (pts >= 0.0).all()
        assert (pts[:, 0] <= city_env.d1).all() and (pts[:, 1] <= city_env.d2).all()
        assert not obstructed_mask(city_env, pts).any()

    def test_every_step_stays_legal(self, city_env):
        rng = np.random.default_rng(3)
        pts = initial_gu_positions(city_env, 10, rng)
        for _ in range(300):
            prev = pts
            pts = step_gu(pts, city_env, 3.0, 1.0, rng)
            d = np.hypot(*(pts - prev).T)
            # Either a full stride or a forced stay.
            assert np.all((np.abs(d - 3.0) < 1e-9) | (d < 1e-12))
            assert not obstructed_mask(city_env, pts).any()

    def test_deterministic(self, city_env):
        a = step_gu(np.full((4, 2), 50.0), city_env, 2.0, 1.0, np.random.default_rng(9))
        b = step_gu(np.full((4, 2), 50.0), city_env, 2.0, 1.0, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestFlyStep:
    def test_already_at_target(self):
        cur = np.array([[10.0, 10.0, 90.0]])
        out = fly_step(cur, cur.copy(), 30.0, 1.0, 0.0)
        assert np.array_equal(out, cur)

    def test_even_pacing_and_exact_arrival(self):
        # 150 m to cover in 10 s at a 30 m/s cap: ten equal 15 m steps.
        cur = np.array([[0.0, 0.0, 90.0]])
        tgt = np.array([[150.0, 0.0, 90.0]])
        time_left = 10.0
        for k in range(10):
            nxt = fly_step(cur, tgt, 30.0, 1.0, time_left)
            assert np.linalg.norm(nxt - cur) == pytest.approx(15.0, abs=1e-9)
            cur, time_left = nxt, time_left - 1.0
        assert np.array_equal(cur, tgt)

    def test_speed_cap_binds(self):
        cur = np.array([[0.0, 0.0, 90.0]])
        tgt = np.array([[500.0, 0.0, 90.0]])
        nxt = fly_step(cur, tgt, 30.0, 1.0, 10.0)
        assert np.linalg.norm(nxt - cur) == pytest.approx(30.0)

    def test_exhausted_budget_raises(self):
        cur = np.array([[0.0, 0.0, 90.0]])
        tgt = np.array([[1.0, 0.0, 90.0]])
        with pytest.raises(ContractViolationError):
            fly_step(cur, tgt, 30.0, 1.0, 0.0)


class TestPlanPeriod:
    def test_oracle_plan_is_optimal(self, tiny_env, tiny_gcm):
        cfg = tiny_cfg(solver=SolverConfig(name="oracle"))
        rng = np.random.default_rng(8)
        gu = rng.uniform(0, 200, size=(6, 2))
        state = PlanState(anchor_cells=(1, 25), gu_positions=gu, period=2)
        rec = plan_period(state, tiny_gcm, cfg)
        anchors = np.stack([cfg.spec.traversal.center(c)[:2] for c in (1, 25)])
        pools = feasible_sets(anchors, cfg.spec, tiny_gcm.abs_cell_valid, cfg.movement_radius)
        expect = exact_optimum(assemble(tiny_gcm, pools, gu))
        assert rec.planned_value == expect.coverage_value
        assert rec.anchor_cells == (1, 25)
        assert rec.gap_bound is None

    def test_kmeans_ea_plan_is_feasible(self, tiny_gcm):
        cfg = tiny_cfg(solver=SolverConfig(name="kmeans-ea", ea_rounds=50))
        rng = np.random.default_rng(9)
        gu = rng.uniform(0, 200, size=(8, 2))
        state = PlanState(anchor_cells=(3, 17), gu_positions=gu, period=1)
        rec = plan_period(state, tiny_gcm, cfg)
        assert len(set(rec.target_cells)) == 2
        assert rec.planned_value >= 0

    @pytest.mark.parametrize("wm", [True, False])
    @pytest.mark.parametrize("solver", list(sim.SOLVERS))
    def test_planned_value_is_the_instance_objective(self, tiny_gcm, solver, wm):
        cfg = tiny_cfg(solver=SolverConfig(name=solver, duplication=2, ea_rounds=50),
                       weight_multiplicity=wm)
        # Every GU shares its grid with another, so users and grids differ.
        gu = np.repeat(np.random.default_rng(11).uniform(0, 200, size=(4, 2)), 2, axis=0)
        state = PlanState(anchor_cells=(3, 17), gu_positions=gu, period=2)
        rec = plan_period(state, tiny_gcm, cfg)
        assert rec.planned_value == evaluate_placement(
            tiny_gcm, rec.target_cells, gu, weight_multiplicity=wm
        )

    def test_online_plan_carries_report(self, tiny_gcm):
        cfg = tiny_cfg()
        rng = np.random.default_rng(10)
        gu = rng.uniform(0, 200, size=(6, 2))
        state = PlanState(anchor_cells=(1, 2), gu_positions=gu, period=3)
        rec = plan_period(state, tiny_gcm, cfg)
        anchors = np.stack([cfg.spec.traversal.center(c)[:2] for c in (1, 2)])
        pools = feasible_sets(anchors, cfg.spec, tiny_gcm.abs_cell_valid, cfg.movement_radius)
        instance = assemble(tiny_gcm, pools, gu)
        assert rec.gap_bound == gap_bound(instance, cfg.solver.duplication)


class TestRunTrial:
    def test_schedule_and_records(self, tiny_env, tiny_gcm):
        cfg = tiny_cfg()
        log = run_trial(cfg, tiny_env, tiny_gcm)
        assert [r.period for r in log.periods] == [1, 2, 3]
        first, second, third = log.periods
        # First period hovers on a placeholder record.
        assert first.planned_value == -1 and first.trigger_step == -1
        assert first.target_cells == first.anchor_cells
        # Later periods plan one lead ahead of their start.
        assert second.trigger_step == 15
        assert third.trigger_step == 35
        # Anchoring chains through the latest planned targets.
        assert second.anchor_cells == first.target_cells
        assert third.anchor_cells == second.target_cells

    def test_plan_before_start(self, tiny_env, tiny_gcm):
        cfg = tiny_cfg(plan_before_start=True)
        log = run_trial(cfg, tiny_env, tiny_gcm)
        assert log.periods[0].trigger_step == 0
        assert log.periods[0].planned_value >= 0
        assert log.periods[1].anchor_cells == log.periods[0].target_cells

    def test_simultaneous_triggers_resolve_in_order(self, tiny_env, tiny_gcm):
        cfg = tiny_cfg(planning_time=20.0, plan_before_start=True)
        log = run_trial(cfg, tiny_env, tiny_gcm)
        assert log.periods[0].trigger_step == 0
        assert log.periods[1].trigger_step == 0
        assert log.periods[1].anchor_cells == log.periods[0].target_cells

    def test_flight_arrives_on_cell_centers(self, tiny_env, tiny_gcm):
        cfg = tiny_cfg()
        log = run_trial(cfg, tiny_env, tiny_gcm)
        j, f = cfg.steps_per_period, cfg.flight_steps
        for rec in log.periods:
            if rec.planned_value < 0:
                continue
            arrive = (rec.period - 1) * j + f
            expect = np.stack([cfg.spec.traversal.center(c) for c in rec.target_cells])
            assert np.allclose(log.abs_positions[arrive], expect, atol=1e-9)
            # Position holds through the service phase.
            assert np.array_equal(log.abs_positions[arrive], log.abs_positions[rec.period * j])

    def test_validates_and_counts_no_violations_in_open_terrain(self, tiny_env, tiny_gcm):
        log = run_trial(tiny_cfg(), tiny_env, tiny_gcm)
        validate_trial_log(log, tiny_gcm)
        assert log.boundary_violations == 0
        assert log.exclusion_violations == 0

    @pytest.mark.parametrize("weight_multiplicity", [True, False])
    def test_simplified_metric_replay(self, tiny_env, tiny_gcm, weight_multiplicity):
        # The per-step CR counts covered users even when planning counts
        # covered grids.
        cfg = tiny_cfg(weight_multiplicity=weight_multiplicity)
        log = run_trial(cfg, tiny_env, tiny_gcm)
        for i in range(cfg.n_steps):
            cells = [nearest_valid_abs_cell(tiny_gcm, p[:2]) for p in log.abs_positions[i + 1]]
            grids = cfg.spec.ground.cells_of(log.gu_positions[i + 1])
            covered = tiny_gcm.z[np.array(cells) - 1][:, grids - 1].any(axis=0)
            assert covered.mean() == pytest.approx(log.cr_simplified[i], abs=1e-12)

    @pytest.mark.parametrize("solver", list(sim.SOLVERS))
    def test_planning_never_builds_the_encoding(self, tiny_env, tiny_gcm, monkeypatch, solver):
        built, assemble_ = [], sim.assemble

        def recording_assemble(*args, **kwargs):
            built.append(assemble_(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(sim, "assemble", recording_assemble)
        cfg = tiny_cfg(solver=SolverConfig(name=solver, duplication=2), plan_before_start=True)
        run_trial(cfg, tiny_env, tiny_gcm)
        assert len(built) == cfg.n_periods
        for inst in built:
            assert not {"e", "r", "l", "d"} & set(vars(inst))

    def test_deterministic_replay(self, tiny_env, tiny_gcm):
        a = run_trial(tiny_cfg(), tiny_env, tiny_gcm)
        b = run_trial(tiny_cfg(), tiny_env, tiny_gcm)
        assert np.array_equal(a.cr_simplified, b.cr_simplified)
        assert np.array_equal(a.cr_actual, b.cr_actual)
        assert np.array_equal(a.abs_positions, b.abs_positions)
        assert np.array_equal(a.gu_positions, b.gu_positions)
        assert [r.target_cells for r in a.periods] == [r.target_cells for r in b.periods]

    def test_stationary_users_reach_static_optimum(self, tiny_env, tiny_gcm):
        cfg = tiny_cfg(
            gu_speed=0.0,
            solver=SolverConfig(name="oracle"),
            plan_before_start=True,
        )
        log = run_trial(cfg, tiny_env, tiny_gcm)
        validate_trial_log(log, tiny_gcm)
        # Movement radius 300 m spans the whole 200 m square, users never
        # move, so every period solves the same instance; after the first
        # flight the fleet parks on a static optimum.
        gu = log.gu_positions[0]
        pools = feasible_sets(
            log.abs_positions[0][:, :2], cfg.spec, tiny_gcm.abs_cell_valid, cfg.movement_radius
        )
        opt = exact_optimum(assemble(tiny_gcm, pools, gu))
        steady = log.cr_simplified[cfg.flight_steps:]
        assert np.allclose(steady, opt.coverage_value / cfg.n_gus, atol=1e-12)
        for rec in log.periods:
            assert rec.planned_value == opt.coverage_value

    def test_degenerate_threshold_gives_full_coverage(self, tiny_env):
        params = ChannelParams(outage_threshold=1.0)
        cfg = tiny_cfg(channel=params)
        gcm = build_gcm(tiny_env, params, cfg.spec)
        log = run_trial(cfg, tiny_env, gcm)
        assert log.acr_simplified == 1.0
        assert log.acr_actual == 1.0

    def test_mean_planning_time_over_planned_periods(self, tiny_env, tiny_gcm):
        log = run_trial(tiny_cfg(), tiny_env, tiny_gcm)
        planned = [r.planning_time_s for r in log.periods if r.trigger_step >= 0]
        assert log.mean_planning_time == pytest.approx(float(np.mean(planned)))
        assert log.mean_planning_time > 0.0


def assert_same_log(got, want):
    """Field-by-field equality of two trial logs, wall-clock planning time
    masked."""
    assert got.cfg == want.cfg
    for name in ("cr_simplified", "cr_actual", "abs_positions", "gu_positions"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    masked = [[dataclasses.replace(r, planning_time_s=0.0) for r in log.periods]
              for log in (got, want)]
    assert masked[0] == masked[1]
    assert got.boundary_violations == want.boundary_violations
    assert got.exclusion_violations == want.exclusion_violations


class TestAgainstStepwise:
    """``run_trial`` against the interleaved reference loop."""

    @pytest.mark.parametrize("before", [False, True])
    @pytest.mark.parametrize("solver", list(sim.SOLVERS))
    def test_tiny_scene(self, tiny_env, tiny_gcm, solver, before):
        cfg = tiny_cfg(solver=SolverConfig(name=solver, duplication=2, ea_rounds=50),
                       plan_before_start=before)
        assert_same_log(run_trial(cfg, tiny_env, tiny_gcm),
                        oracles.stepwise_trial(cfg, tiny_env, tiny_gcm))

    @pytest.mark.parametrize("before", [False, True])
    def test_still_users(self, tiny_env, tiny_gcm, before):
        cfg = tiny_cfg(gu_speed=0.0, plan_before_start=before)
        assert_same_log(run_trial(cfg, tiny_env, tiny_gcm),
                        oracles.stepwise_trial(cfg, tiny_env, tiny_gcm))

    @pytest.mark.parametrize("solver", ["online", "kmeans-ea"])
    def test_scene_with_blocks(self, city_env, city_gcm, spec20, solver):
        # 30 users against 40 blocks: a step's sightlines take the dense
        # gather, a hover run's the azimuth one.
        cfg = tiny_cfg(spec=spec20, n_gus=30, solver=SolverConfig(name=solver, ea_rounds=50))
        log = run_trial(cfg, city_env, city_gcm)
        assert_same_log(log, oracles.stepwise_trial(cfg, city_env, city_gcm))
        assert 0.0 < log.acr_actual < 1.0

    @pytest.mark.parametrize("tx_power_dbm", [5.0, 60.0])
    def test_one_call_per_period_and_abs(self, tiny_env, monkeypatch, tx_power_dbm):
        # Still users and one optimum: after the first flight the fleet
        # never moves again, so a hover run would span several periods. At
        # 60 dBm every link is covered with LoS and without, so every band
        # is empty.
        cfg = tiny_cfg(gu_speed=0.0, solver=SolverConfig(name="oracle"), plan_before_start=True,
                       channel=ChannelParams(tx_power_dbm=tx_power_dbm))
        gcm = build_gcm(tiny_env, cfg.channel, cfg.spec)
        calls, band, verdicts_, coverage_mask_ = [], [], sim.branch_verdicts, sim.coverage_mask

        def recording_verdicts(params, p, qs):
            calls.append((np.array(p), np.array(qs)))
            return verdicts_(params, p, qs)

        def recording_coverage_mask(params, env, p, qs):
            assert np.shape(p) == (len(qs), 3)
            band.append(len(qs))
            return coverage_mask_(params, env, p, qs)

        monkeypatch.setattr(sim, "branch_verdicts", recording_verdicts)
        monkeypatch.setattr(sim, "coverage_mask", recording_coverage_mask)
        log = run_trial(cfg, tiny_env, gcm)
        j, f, m, n = cfg.steps_per_period, cfg.flight_steps, cfg.n_gus, cfg.n_abs
        held = log.abs_positions[f:]
        assert (held == held[0]).all() and (log.abs_positions[0] != held[0]).any(axis=1).all()
        # One verdict call per (period, ABS), in that order, over the ABS's
        # J steps and the M users in step order: J*M links, one transmitter
        # per link.
        assert len(calls) == cfg.n_periods * n
        for c, (p, qs) in enumerate(calls):
            e, k = divmod(c, n)
            steps = slice(e * j + 1, (e + 1) * j + 1)
            assert p.shape == qs.shape == (j * m, 3)
            assert np.array_equal(p, np.repeat(log.abs_positions[steps, k], m, axis=0))
            assert np.array_equal(qs[:, :2], log.gu_positions[steps].reshape(-1, 2))
            assert (qs[:, 2] == cfg.channel.gu_alt).all()
        # One band call under each, so the traced site fires even on an
        # empty band.
        assert len(band) == len(calls)
        assert any(band) == (tx_power_dbm == 5.0)
        monkeypatch.undo()
        assert_same_log(log, oracles.stepwise_trial(cfg, tiny_env, gcm))


class TestFlightContracts:
    """The two flight contract errors, from the trial and the reference."""

    @pytest.mark.parametrize("trial", [run_trial, oracles.stepwise_trial],
                             ids=["run_trial", "stepwise"])
    def test_target_beyond_flight_radius(self, tiny_env, tiny_gcm, monkeypatch, trial):
        cfg = tiny_cfg(abs_speed=2.0)  # 20 m radius, 40 m cells
        plan_period_ = sim.plan_period
        centers = cfg.spec.traversal.centers

        def far_plan(state, gcm, cfg):
            rec = plan_period_(state, gcm, cfg)
            far = []
            for a in state.anchor_cells:
                d = np.linalg.norm(centers[:, :2] - centers[a - 1, :2], axis=1)
                d[np.array(far, dtype=int) - 1] = -1.0
                far.append(int(np.argmax(d)) + 1)
            return dataclasses.replace(rec, target_cells=tuple(far))

        monkeypatch.setattr(sim, "plan_period", far_plan)
        with pytest.raises(ContractViolationError,
                           match="planned target outside the reachable flight radius"):
            trial(cfg, tiny_env, tiny_gcm)

    @pytest.mark.parametrize("trial", [run_trial, oracles.stepwise_trial],
                             ids=["run_trial", "stepwise"])
    def test_flight_ends_short(self, tiny_env, tiny_gcm, monkeypatch, trial):
        cfg = tiny_cfg(plan_before_start=True)
        plan_period_ = sim.plan_period

        def moving_plan(state, gcm, cfg):
            rec = plan_period_(state, gcm, cfg)
            free = sorted(set(range(1, cfg.spec.traversal.size + 1)) - set(state.anchor_cells))
            return dataclasses.replace(rec, target_cells=tuple(free[: cfg.n_abs]))

        monkeypatch.setattr(sim, "plan_period", moving_plan)
        monkeypatch.setattr(sim, "fly_step", lambda current, *_: np.array(current, dtype=float))
        with pytest.raises(ContractViolationError, match="flight phase ended short of the target"):
            trial(cfg, tiny_env, tiny_gcm)


class TestClampWarnings:
    def test_low_altitude_trial_warns_from_the_simulator(self):
        # A 12 m square flown at 5 m: many links fall under the 10 m floor.
        spec = GridSpec(d1=12.0, d2=12.0, k1=2, k2=2, k1p=2, k2p=2, abs_alt=5.0)
        params = ChannelParams(abs_alt=5.0, gu_alt=1.0)
        env = Environment(d1=12.0, d2=12.0, blocks=(), seed=0)
        cfg = tiny_cfg(spec=spec, channel=params, env=EnvConfig(num_blocks=0, block_width=5.0),
                       gu_speed=0.5)
        with pytest.warns(ModelValidityWarning):
            gcm = build_gcm(env, params, spec)
        with pytest.warns(ModelValidityWarning) as record:
            log = run_trial(cfg, env, gcm)
        assert {r.filename for r in record} == {sim.__file__}
        # Each grouped call counts its own links once.
        counted = sum(int(str(r.message).split()[0]) for r in record)
        d2d = np.linalg.norm(log.abs_positions[1:, :, None, :2] - log.gu_positions[1:, None],
                             axis=-1)
        assert counted == int((np.hypot(d2d, 4.0) < 10.0).sum())
        assert max(int(str(r.message).split()[0]) for r in record) > cfg.n_gus


    def test_clamped_links_in_the_band_warn_once(self):
        # Flown at 5 m with a 3 m block between the cells: at -40 dBm the
        # LoS bit decides links from about 0.5 to 10 m long, so clamped links
        # fall in the band. The per-link verdicts count each clamped link,
        # and the band call under them stays silent.
        spec = GridSpec(d1=20.0, d2=20.0, k1=2, k2=2, k1p=2, k2p=2, abs_alt=5.0)
        params = ChannelParams(abs_alt=5.0, gu_alt=1.0, tx_power_dbm=-40.0)
        env = Environment(d1=20.0, d2=20.0, seed=0,
                          blocks=(BuildingBlock((10.0, 10.0), 2.0, 3.0),))
        cfg = tiny_cfg(spec=spec, channel=params, env=EnvConfig(num_blocks=0, block_width=4.0),
                       gu_speed=0.5)
        with pytest.warns(ModelValidityWarning):
            gcm = build_gcm(env, params, spec)
        with pytest.warns(ModelValidityWarning) as record:
            log = run_trial(cfg, env, gcm)
        assert {r.filename for r in record} == {sim.__file__}
        counted = sum(int(str(r.message).split()[0]) for r in record)
        ps = np.repeat(log.abs_positions[1:].reshape(-1, 3), cfg.n_gus, axis=0)
        qs = np.repeat(log.gu_positions[1:], cfg.n_abs, axis=0).reshape(-1, 2)
        qs = np.column_stack([qs, np.full(len(qs), params.gu_alt)])
        clamped = np.linalg.norm(ps - qs, axis=1) < 10.0
        assert counted == int(clamped.sum())
        with pytest.warns(ModelValidityWarning):
            covered_los, covered_nlos = sim.branch_verdicts(params, ps, qs)
        in_band = clamped & (covered_los != covered_nlos)
        assert in_band.any() and los_blocked_mask(env, ps[in_band], qs[in_band]).any()


class TestValidateTrialLog:
    @pytest.fixture()
    def good_log(self, tiny_env, tiny_gcm):
        return run_trial(tiny_cfg(), tiny_env, tiny_gcm)

    def test_detects_teleport(self, good_log):
        abs_pos = good_log.abs_positions.copy()
        abs_pos[3, 0, 0] += 100.0
        bad = dataclasses.replace(good_log, abs_positions=abs_pos)
        with pytest.raises(ContractViolationError, match="displacement"):
            validate_trial_log(bad)

    def test_detects_out_of_area(self, good_log):
        abs_pos = good_log.abs_positions.copy()
        abs_pos[:, 1, 0] = -50.0
        bad = dataclasses.replace(good_log, abs_positions=abs_pos)
        with pytest.raises(ContractViolationError):
            validate_trial_log(bad)

    def test_detects_cr_out_of_range(self, good_log):
        cr = good_log.cr_actual.copy()
        cr[0] = 1.5
        bad = dataclasses.replace(good_log, cr_actual=cr)
        with pytest.raises(ContractViolationError):
            validate_trial_log(bad)

    def test_detects_duplicate_targets(self, good_log, tiny_gcm):
        rec = good_log.periods[1]
        dup = dataclasses.replace(
            rec, target_cells=(rec.target_cells[0], rec.target_cells[0])
        )
        bad = dataclasses.replace(
            good_log, periods=(good_log.periods[0], dup, good_log.periods[2])
        )
        with pytest.raises(ContractViolationError, match="distinct"):
            validate_trial_log(bad, tiny_gcm)

    def test_detects_invalid_target_cell(self, good_log, tiny_gcm):
        import copy

        gcm = copy.deepcopy(tiny_gcm)
        gcm.abs_cell_valid[:] = False
        with pytest.raises(ContractViolationError, match="valid"):
            validate_trial_log(good_log, gcm)


class TestExports:
    def test_write_csv_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b", "c", "d"),
                  [(np.float64(0.1), np.int64(7), None, "x;y"), (1.5, 2, "", np.float32(0.5))])
        data = path.read_bytes()
        assert data == b"a,b,c,d\n0.1,7,,x;y\n1.5,2,,0.5\n"
        assert b"\r" not in data and data.endswith(b"\n")

    def test_write_csv_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["only"], iter(()))
        assert path.read_bytes() == b"only\n"

    def test_metrics_csv_roundtrip(self, tmp_path, tiny_env, tiny_gcm):
        log = run_trial(tiny_cfg(), tiny_env, tiny_gcm)
        path = tmp_path / "metrics.csv"
        export_metrics_csv(log, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,cr_simplified,cr_actual"
        assert len(lines) == 1 + len(log.cr_simplified)
        for i, line in enumerate(lines[1:]):
            s, a, b = line.split(",")
            assert int(s) == i + 1
            assert float(a) == log.cr_simplified[i]
            assert float(b) == log.cr_actual[i]

    def test_periods_csv(self, tmp_path, tiny_env, tiny_gcm):
        log = run_trial(tiny_cfg(), tiny_env, tiny_gcm)
        path = tmp_path / "periods.csv"
        export_periods_csv(log, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(log.periods)
        assert lines[1].startswith("1,-1,")

    @pytest.mark.parametrize("before", [False, True])
    @pytest.mark.parametrize("solver", list(sim.SOLVERS))
    def test_periods_csv_gap_bound(self, tmp_path, tiny_env, tiny_gcm, solver, before):
        cfg = tiny_cfg(solver=SolverConfig(name=solver, duplication=2, ea_rounds=50),
                       plan_before_start=before)
        log = run_trial(cfg, tiny_env, tiny_gcm)
        path = tmp_path / "periods.csv"
        export_periods_csv(log, path)
        lines = path.read_text().splitlines()
        col = lines[0].split(",").index("gap_bound")
        fields = [ln.split(",")[col] for ln in lines[1:]]
        assert len(fields) == len(log.periods) == cfg.n_periods
        for rec, field in zip(log.periods, fields):
            if solver == "online" and rec.trigger_step >= 0:
                assert rec.gap_bound > 0.0 and field == repr(rec.gap_bound)
            else:
                assert rec.gap_bound is None and field == ""
        # Only an unplanned first period writes a placeholder row.
        assert (log.periods[0].trigger_step < 0) == (not before)

    def test_trajectory_json(self, tmp_path, tiny_env, tiny_gcm):
        log = run_trial(tiny_cfg(), tiny_env, tiny_gcm)
        path = tmp_path / "traj.json"
        export_trajectory_json(log, path)
        data = json.loads(path.read_text())
        assert data["step_seconds"] == 1.0
        assert np.asarray(data["abs_positions"]).shape == log.abs_positions.shape
        assert np.asarray(data["gu_positions"]).shape == log.gu_positions.shape

    def test_trajectory_json_bytes_match_streamed_dump(self, tmp_path, tiny_env, tiny_gcm):
        log = run_trial(tiny_cfg(), tiny_env, tiny_gcm)
        awkward = np.array([0.1 + 0.2, 1e-300, -0.0, 123456789.123456789, 5e-324, 1e300])
        log = dataclasses.replace(
            log,
            abs_positions=np.resize(awkward, log.abs_positions.shape) * 370.0,
            gu_positions=np.resize(awkward[::-1], log.gu_positions.shape),
        )
        path = tmp_path / "traj.json"
        export_trajectory_json(log, path)
        payload = {
            "step_seconds": log.cfg.step,
            "abs_positions": log.abs_positions.tolist(),
            "gu_positions": log.gu_positions.tolist(),
        }
        with open(tmp_path / "streamed.json", "w") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
        assert path.read_bytes() == (tmp_path / "streamed.json").read_bytes()
        assert b"-0.0" in path.read_bytes() and b"1e-300" in path.read_bytes()
