"""Propagation chain tests: path loss and Rician K read from ``link_budget``,
outage, and the coverage verdict."""

import math

import numpy as np
import pytest

from absmove import (
    BuildingBlock,
    ChannelParams,
    Environment,
    ModelValidityWarning,
    coverage_mask,
    db_to_linear,
    is_los,
    link_budget,
    los_blocked_mask,
    outage_probability,
)
from absmove.channel import SPEED_OF_LIGHT, branch_verdicts

import oracles

# Hand-checked against the published formulas: ABS 90 m / GU 1 m / 2 GHz,
# 3D distance exactly 500 m (horizontal 492.0152436662913 m).
D2D_500 = 492.0152436662913
PL_LOS_500 = 106.89037996711195
PL_NLOS_500 = 125.33634768273122


def _receivers(*xs, alt=1.0):
    """Receivers on the x axis at one altitude."""
    return np.array([(x, 0.0, alt) for x in xs])


def _path_loss_db(params, env, p, qs):
    """Path loss in dB of each link, read back from the mean SNR."""
    snr, _ = link_budget(params, env, p, np.atleast_2d(np.asarray(qs, dtype=float)))
    return params.snr_gap_db - 10.0 * np.log10(snr)


def _k(params, env, p, qs):
    """Rician K of each link."""
    return link_budget(params, env, p, np.atleast_2d(np.asarray(qs, dtype=float)))[1]


class TestPathLoss:
    def test_los_hand_value(self, params, empty_env):
        pl = _path_loss_db(params, empty_env, (0.0, 0.0, 90.0), (D2D_500, 0.0, 1.0))
        assert math.isclose(pl[0], PL_LOS_500, rel_tol=1e-12)

    def test_nlos_hand_value(self, params):
        # A 60 m block straddles the midpoint of the same 500 m path.
        env = Environment(
            d1=600.0, d2=600.0,
            blocks=(BuildingBlock((246.0, 0.0), 10.0, 60.0),),
            seed=0,
        )
        pl = _path_loss_db(params, env, (0.0, 0.0, 90.0), (D2D_500, 0.0, 1.0))
        assert math.isclose(pl[0], PL_NLOS_500, rel_tol=1e-12)

    def test_matches_reference_formula_on_random_links(self, params, city_env):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p = rng.uniform((0, 0, 60), (500, 500, 120))
            q = rng.uniform((0, 0, 1), (500, 500, 2))
            d2d = math.hypot(p[0] - q[0], p[1] - q[1])
            d3d = float(np.linalg.norm(p - q))
            if d3d < 10.0:
                continue
            expect = oracles.uma_path_loss_db(
                d2d, d3d, p[2], q[2], params.carrier_ghz, is_los(city_env, p, q)
            )
            pl = _path_loss_db(params, city_env, p, q)
            assert math.isclose(pl[0], expect, rel_tol=1e-12)

    def test_breakpoint_collapses_at_the_default_gu_alt(self, params):
        # d'_BP = 4 (h_BS - 1 m)(h_UT - 1 m) f_c / c. At the default 1 m
        # receivers it is 0, so every LoS link with d2d > 0 takes the
        # post-breakpoint 40 log10 branch; straight below the ABS the two
        # branches agree. At 1.5 m it is about 1187 m.
        env = Environment(d1=3000.0, d2=3000.0, blocks=(), seed=0)
        h_bs, fc = params.abs_alt, params.carrier_ghz
        xs = (0.0, 30.0, 400.0, 1100.0, 1300.0, 2900.0)
        assert params.gu_alt == 1.0
        for h_ut, d_bp in ((params.gu_alt, 0.0),
                           (1.5, 4.0 * (h_bs - 1.0) * 0.5 * fc * 1e9 / SPEED_OF_LIGHT)):
            pl = _path_loss_db(params, env, (0.0, 0.0, h_bs), _receivers(*xs, alt=h_ut))
            for x, got in zip(xs, pl):
                d3d = math.hypot(x, h_bs - h_ut)
                near = 28.0 + 22.0 * math.log10(d3d) + 20.0 * math.log10(fc)
                far = (28.0 + 40.0 * math.log10(d3d) + 20.0 * math.log10(fc)
                       - 9.0 * math.log10(d_bp**2 + (h_bs - h_ut) ** 2))
                expect = oracles.uma_path_loss_db(x, d3d, h_bs, h_ut, fc, True)
                assert math.isclose(got, expect, rel_tol=1e-12)
                assert math.isclose(got, far if x > d_bp else near, rel_tol=1e-12)
                if x > 0.0:
                    assert abs(far - near) > 0.1
                elif d_bp == 0.0:
                    assert math.isclose(far, near, rel_tol=1e-12)
        assert 1186.0 < d_bp < 1188.0

    def test_short_link_clamped_with_warning(self, params, empty_env):
        with pytest.warns(ModelValidityWarning):
            pl = _path_loss_db(params, empty_env, (0.0, 0.0, 5.0), (3.0, 0.0, 1.0))
        expect = oracles.uma_path_loss_db(3.0, 10.0, 5.0, 1.0, params.carrier_ghz, True)
        assert math.isclose(pl[0], expect, rel_tol=1e-12)

    def test_clamp_warning_names_the_caller(self, params, empty_env):
        with pytest.warns(ModelValidityWarning) as record:
            coverage_mask(params, empty_env, (0.0, 0.0, 5.0), _receivers(3.0))
        assert record[0].filename == __file__

    def test_gain_decreases_with_distance(self, params, empty_env):
        snr, _ = link_budget(params, empty_env, (0.0, 0.0, 90.0),
                             _receivers(50.0, 100.0, 200.0, 400.0, 490.0))
        assert np.all(np.diff(snr) < 0.0)

    def test_nlos_never_beats_los(self, params):
        blocked = Environment(
            d1=600.0, d2=600.0,
            blocks=(BuildingBlock((150.0, 0.0), 10.0, 80.0),),
            seed=0,
        )
        clear = Environment(d1=600.0, d2=600.0, blocks=(), seed=0)
        xs = (120.0, 300.0, 480.0)
        p = (0.0, 0.0, 90.0)
        pl_clear = _path_loss_db(params, clear, p, _receivers(*xs))
        pl_blocked = _path_loss_db(params, blocked, p, _receivers(*xs))
        for x, a, b in zip(xs, pl_clear, pl_blocked):
            if x > 160.0:  # behind the block
                assert b > a
            else:
                assert b == a


class TestRicianK:
    def test_derived_coefficients(self, params):
        assert params.a1 == pytest.approx(1.0, rel=1e-12)
        assert params.a2 == pytest.approx(math.log(1000.0) / (math.pi / 2.0), rel=1e-12)

    def test_endpoint_straight_up(self, params, empty_env):
        k = _k(params, empty_env, (0.0, 0.0, 90.0), (0.0, 0.0, 1.0))
        assert k[0] == pytest.approx(1000.0, rel=1e-9)

    def test_endpoint_horizon(self, params, empty_env):
        k = _k(params, empty_env, (0.0, 0.0, 90.0), (1e9, 0.0, 1.0))
        assert k[0] == pytest.approx(1.0, rel=1e-6)

    def test_mid_angle_value(self, params, empty_env):
        # 45 degrees: dz == horizontal distance == 89 m.
        k = _k(params, empty_env, (0.0, 0.0, 90.0), (89.0, 0.0, 1.0))
        assert k[0] == pytest.approx(31.62277660168379, rel=1e-12)

    def test_monotone_in_elevation(self, params, empty_env):
        k = _k(params, empty_env, (0.0, 0.0, 90.0), _receivers(400.0, 200.0, 100.0, 50.0, 10.0))
        assert np.all(np.diff(k) > 0.0)

    def test_zero_on_blocked_links(self, params):
        env = Environment(
            d1=600.0, d2=600.0,
            blocks=(BuildingBlock((150.0, 0.0), 10.0, 80.0),),
            seed=0,
        )
        k = _k(params, env, (0.0, 0.0, 90.0), _receivers(120.0, 300.0))
        assert k[0] > 0.0 and k[1] == 0.0


class TestSnr:
    def test_example_gap(self, params, empty_env):
        # 5 dBm transmit over -112 dBm noise and the 500 m LoS hand value:
        # 117 - 106.89 dB of mean SNR.
        assert params.snr_gap_db == 117.0
        snr, _ = link_budget(params, empty_env, (0.0, 0.0, 90.0), _receivers(D2D_500))
        assert 10.0 * math.log10(snr[0]) == pytest.approx(117.0 - PL_LOS_500, abs=1e-9)

    def test_db_helpers_roundtrip(self):
        for db in (-120.0, -3.0, 0.0, 16.23):
            assert 10.0 * math.log10(db_to_linear(db)) == pytest.approx(db, abs=1e-12)


class TestOutage:
    def test_rayleigh_closed_form(self, params):
        # k = 0 and mean SNR equal to the threshold: 1 - exp(-1).
        gamma = db_to_linear(params.snr_threshold_db)
        p = outage_probability(params, gamma, 0.0)
        assert p == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_matches_chi_square_reference(self, params):
        gamma = db_to_linear(params.snr_threshold_db)
        for k in (0.0, 1.0, 5.0, 31.62, 316.0, 500.0, 1000.0):
            for ratio in (0.05, 0.3, 0.6, 0.8, 0.9, 0.95, 1.0, 4.0):
                expect = oracles.outage(k, ratio)
                got = outage_probability(params, gamma / ratio, k)
                assert got == pytest.approx(expect, abs=1e-12), (k, ratio)

    def test_monte_carlo_agreement(self, params):
        gamma = db_to_linear(params.snr_threshold_db)
        k, ratio, n = 10.0, 0.1, 1_000_000
        p = outage_probability(params, gamma / ratio, k)
        mc = oracles.outage_mc(k, ratio, n, seed=123)
        se = oracles.outage_mc_se(p, n)
        assert abs(mc - p) < 4.0 * se

    def test_zero_mean_snr_is_certain_outage(self, params):
        assert outage_probability(params, 0.0, 5.0) == 1.0

    def test_vanishes_at_high_snr(self, params):
        assert outage_probability(params, 1e12, 10.0) < 1e-9

    def test_monotone_in_mean_snr(self, params):
        vals = [outage_probability(params, s, 10.0) for s in (0.5, 1.0, 2.0, 8.0, 64.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_k_at_high_margin(self, params):
        # With mean SNR above threshold, a stronger LoS component helps.
        gamma = db_to_linear(params.snr_threshold_db)
        vals = [outage_probability(params, 10.0 * gamma, k) for k in (0.0, 1.0, 10.0, 100.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_negative_inputs(self, params):
        with pytest.raises(ValueError):
            outage_probability(params, -1.0, 0.0)
        with pytest.raises(ValueError):
            outage_probability(params, 1.0, -0.5)


class TestCoverage:
    def test_under_abs_is_covered(self, params, empty_env):
        q = np.array([[250.0, 250.0, 1.0]])
        assert coverage_mask(params, empty_env, (250.0, 250.0, 90.0), q)[0]

    def test_far_corner_behind_blocks_not_covered(self, params):
        env = Environment(
            d1=1400.0, d2=1400.0,
            blocks=(BuildingBlock((700.0, 700.0), 12.5, 50.0),),
            seed=0,
        )
        p = (0.0, 0.0, 90.0)
        q = np.array([[989.9, 989.9, 1.0]])  # about 1400 m away, behind the block
        assert not coverage_mask(params, env, p, q)[0]

    def test_no_receivers_gives_empty_mask(self, params, empty_env):
        mask = coverage_mask(params, empty_env, (250.0, 250.0, 90.0), np.zeros((0, 3)))
        assert mask.dtype == bool and mask.shape == (0,)

    def test_mixed_receiver_altitudes_rejected(self, params, empty_env):
        qs = np.array([[100.0, 100.0, 1.0], [200.0, 200.0, 2.0]])
        with pytest.raises(ValueError, match="uniform receiver altitude"):
            link_budget(params, empty_env, (250.0, 250.0, 90.0), qs)
        with pytest.raises(ValueError, match="uniform receiver altitude"):
            coverage_mask(params, empty_env, (250.0, 250.0, 90.0), qs)

    def test_per_link_transmitters_checked(self, params, empty_env):
        qs = np.array([[100.0, 100.0, 1.0], [200.0, 200.0, 1.0]])
        mixed = np.array([[0.0, 0.0, 90.0], [0.0, 0.0, 80.0]])
        for fn in (link_budget, coverage_mask):
            with pytest.raises(ValueError, match="uniform transmitter altitude"):
                fn(params, empty_env, mixed, qs)
            with pytest.raises(ValueError, match=r"\(3,\) or \(n, 3\)"):
                fn(params, empty_env, np.tile(mixed[0], (3, 1)), qs)
        with pytest.raises(ValueError, match="uniform transmitter altitude"):
            branch_verdicts(params, mixed, qs)

    def test_per_link_transmitters_match_one_call_each(self, params, city_env):
        rng = np.random.default_rng(4)
        tx = np.column_stack([rng.uniform(0, 500, (3, 2)), np.full(3, 90.0)])
        qs = np.column_stack([rng.uniform(0, 500, (90, 2)), np.full(90, 1.0)])
        owner = rng.integers(0, 3, 90)
        got = coverage_mask(params, city_env, tx[owner], qs)
        for k in range(3):
            want = coverage_mask(params, city_env, tx[k], qs[owner == k])
            assert np.array_equal(got[owner == k], want)
        assert got.any() and not got.all()

    def test_branch_verdicts_bracket_the_chain(self, params, city_env, empty_env):
        # Where the two verdicts agree, coverage_mask gives that verdict;
        # where they differ, the LoS bit decides.
        rng = np.random.default_rng(6)
        tx = np.column_stack([rng.uniform(0, 500, (4, 2)), np.full(4, 90.0)])
        ps = np.repeat(tx, 200, axis=0)
        qs = np.column_stack([rng.uniform(0, 500, (800, 2)), np.full(800, 1.0)])
        covered_los, covered_nlos = branch_verdicts(params, ps, qs)
        assert np.array_equal(covered_los, coverage_mask(params, empty_env, ps, qs))
        band = covered_los != covered_nlos
        assert band.any() and not band.all()
        got = coverage_mask(params, city_env, ps, qs)
        assert np.array_equal(got[~band], covered_nlos[~band])
        blocked = los_blocked_mask(city_env, ps, qs)
        assert np.array_equal(got[band], np.where(blocked, covered_nlos, covered_los)[band])

    def test_full_chain_against_reference(self, params, city_env):
        rng = np.random.default_rng(17)
        gamma = db_to_linear(params.snr_threshold_db)
        p = np.array([120.0, 380.0, 90.0])
        qs = np.column_stack([rng.uniform(0, 500, (60, 2)), np.full(60, 1.0)])
        mask = coverage_mask(params, city_env, p, qs)
        for i, q in enumerate(qs):
            los = is_los(city_env, p, q)
            d2d = math.hypot(p[0] - q[0], p[1] - q[1])
            d3d = float(np.linalg.norm(p - q))
            pl = oracles.uma_path_loss_db(d2d, max(d3d, 10.0), p[2], q[2],
                                          params.carrier_ghz, los)
            s = 10.0 ** ((params.snr_gap_db - pl) / 10.0)
            if los:
                theta = math.atan2(p[2] - q[2], d2d)
                k = params.a1 * math.exp(params.a2 * theta)
            else:
                k = 0.0
            p_out = oracles.outage(k, gamma / s)
            assert mask[i] == (p_out < params.outage_threshold), (i, p_out)

    def test_branch_verdict_table_matches_the_chain(self, params, empty_env):
        # A map build's verdict tables: one transmitter at the origin, the
        # grid of horizontal offsets as receivers. Receivers under a
        # roof-high slab have no LoS; on open ground all do.
        p = np.array([250.0, 250.0, 90.0])
        xs, ys = np.linspace(10.0, 490.0, 17), np.linspace(25.0, 475.0, 10)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        qs = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, 1.0)])
        offsets = qs - (p[0], p[1], 0.0)
        # Offsets symmetric about p, so lengths repeat.
        assert np.unique(np.hypot(offsets[:, 0], offsets[:, 1])).size < qs.shape[0] // 2
        slab = Environment(d1=500.0, d2=500.0, seed=0,
                           blocks=(BuildingBlock((250.0, 250.0), 250.0, 80.0),))
        covered_los, covered_nlos = branch_verdicts(params, (0.0, 0.0, 90.0), offsets)
        assert np.array_equal(covered_los, coverage_mask(params, empty_env, p, qs))
        assert np.array_equal(covered_nlos, coverage_mask(params, slab, p, qs))
        assert (covered_los != covered_nlos).any()

    def test_threshold_one_covers_everything_visible(self, empty_env):
        params = ChannelParams(outage_threshold=1.0)
        rng = np.random.default_rng(8)
        p = np.array([250.0, 250.0, 90.0])
        qs = np.column_stack([rng.uniform(0, 500, (30, 2)), np.full(30, 1.0)])
        assert coverage_mask(params, empty_env, p, qs).all()


class TestParamValidation:
    def test_threshold_bounds(self):
        ChannelParams(outage_threshold=1.0)  # degenerate but allowed
        with pytest.raises(ValueError):
            ChannelParams(outage_threshold=0.0)
        with pytest.raises(ValueError):
            ChannelParams(outage_threshold=1.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "tx_power_dbm", "noise_dbm", "carrier_ghz", "k_min_db", "k_max_db",
        "snr_threshold_db", "outage_threshold", "abs_alt", "gu_alt",
    ])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ChannelParams(**{field: value})
