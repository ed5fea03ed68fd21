"""Propagation chain tests: path loss, Rician statistics, outage, coverage."""

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
    is_covered,
    linear_to_db,
    marcum_q1,
    mean_gain,
    outage_probability,
    rician_k,
    sample_rician_power,
    snr,
)

import oracles

# Hand-checked against the published formulas: ABS 90 m / GU 1 m / 2 GHz,
# 3D distance exactly 500 m (horizontal 492.0152436662913 m).
D2D_500 = 492.0152436662913
PL_LOS_500 = 106.89037996711195
PL_NLOS_500 = 125.33634768273122


class TestPathLoss:
    def test_los_hand_value(self, params, empty_env):
        gain = mean_gain(params, empty_env, (0.0, 0.0, 90.0), (D2D_500, 0.0, 1.0))
        assert math.isclose(-10.0 * math.log10(gain), PL_LOS_500, rel_tol=1e-12)

    def test_nlos_hand_value(self, params):
        # A 60 m block straddles the midpoint of the same 500 m path.
        env = Environment(
            d1=600.0, d2=600.0,
            blocks=(BuildingBlock((246.0, 0.0), 10.0, 60.0),),
            seed=0,
        )
        gain = mean_gain(params, env, (0.0, 0.0, 90.0), (D2D_500, 0.0, 1.0))
        assert math.isclose(-10.0 * math.log10(gain), PL_NLOS_500, rel_tol=1e-12)

    def test_matches_reference_formula_on_random_links(self, params, city_env):
        from absmove import is_los

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
            gain = mean_gain(params, city_env, p, q)
            assert math.isclose(-10.0 * math.log10(gain), expect, rel_tol=1e-12)

    def test_short_link_clamped_with_warning(self, params, empty_env):
        with pytest.warns(ModelValidityWarning):
            gain = mean_gain(params, empty_env, (0.0, 0.0, 5.0), (3.0, 0.0, 1.0))
        expect = oracles.uma_path_loss_db(3.0, 10.0, 5.0, 1.0, params.carrier_ghz, True)
        assert math.isclose(-10.0 * math.log10(gain), expect, rel_tol=1e-12)

    def test_gain_decreases_with_distance(self, params, empty_env):
        gains = [
            mean_gain(params, empty_env, (0.0, 0.0, 90.0), (x, 0.0, 1.0))
            for x in (50.0, 100.0, 200.0, 400.0, 490.0)
        ]
        assert all(a > b for a, b in zip(gains, gains[1:]))

    def test_nlos_never_beats_los(self, params):
        blocked = Environment(
            d1=600.0, d2=600.0,
            blocks=(BuildingBlock((150.0, 0.0), 10.0, 80.0),),
            seed=0,
        )
        clear = Environment(d1=600.0, d2=600.0, blocks=(), seed=0)
        for x in (120.0, 300.0, 480.0):
            g_clear = mean_gain(params, clear, (0.0, 0.0, 90.0), (x, 0.0, 1.0))
            g_blocked = mean_gain(params, blocked, (0.0, 0.0, 90.0), (x, 0.0, 1.0))
            if x > 160.0:  # behind the block
                assert g_blocked < g_clear
            else:
                assert g_blocked == g_clear


class TestRicianK:
    def test_derived_coefficients(self, params):
        assert params.a1 == pytest.approx(1.0, rel=1e-12)
        assert params.a2 == pytest.approx(math.log(1000.0) / (math.pi / 2.0), rel=1e-12)

    def test_endpoint_straight_up(self, params):
        k = rician_k(params, (0.0, 0.0, 90.0), (0.0, 0.0, 1.0))
        assert k == pytest.approx(1000.0, rel=1e-9)

    def test_endpoint_horizon(self, params):
        k = rician_k(params, (0.0, 0.0, 90.0), (1e9, 0.0, 1.0))
        assert k == pytest.approx(1.0, rel=1e-6)

    def test_mid_angle_value(self, params):
        # 45 degrees: dz == horizontal distance == 89 m.
        k = rician_k(params, (0.0, 0.0, 90.0), (89.0, 0.0, 1.0))
        assert k == pytest.approx(31.62277660168379, rel=1e-12)

    def test_monotone_in_elevation(self, params):
        ks = [
            rician_k(params, (0.0, 0.0, 90.0), (x, 0.0, 1.0))
            for x in (400.0, 200.0, 100.0, 50.0, 10.0)
        ]
        assert all(a < b for a, b in zip(ks, ks[1:]))

    def test_transmitter_must_be_above(self, params):
        with pytest.raises(ValueError):
            rician_k(params, (0.0, 0.0, 1.0), (10.0, 0.0, 90.0))


class TestSnr:
    def test_example_gap(self, params):
        # 5 dBm transmit over -112 dBm noise and a -100 dB gain: 17 dB SNR.
        assert params.snr_gap_db == pytest.approx(117.0)
        val = snr(params, db_to_linear(-100.0))
        assert linear_to_db(val) == pytest.approx(17.0, abs=1e-9)

    def test_db_helpers_roundtrip(self):
        for x in (1e-12, 0.5, 1.0, 42.0):
            assert db_to_linear(linear_to_db(x)) == pytest.approx(x, rel=1e-12)


class TestMarcumQ1:
    def test_matches_chi_square_tail(self):
        # a = sqrt(2 K) reaches 44.7 at the 30 dB K ceiling of the paper's model.
        for a in (0.0, 0.3, 1.0, 2.0, 5.0, 8.0, 12.0, 20.0, 31.6, 44.7):
            for b in (0.0, 0.2, 1.0, 2.5, 6.0, 10.0, 25.0, 30.0, 40.0, 44.0, 45.0, 50.0):
                ref = oracles.marcum_q1(a, b)
                assert marcum_q1(a, b) == pytest.approx(ref, abs=1e-12), (a, b)

    def test_zero_a_closed_form(self):
        for b in (0.1, 1.0, 3.0):
            assert marcum_q1(0.0, b) == pytest.approx(math.exp(-b * b / 2.0), rel=1e-12)

    def test_edge_values(self):
        assert marcum_q1(2.0, 0.0) == 1.0
        assert marcum_q1(2.0, np.inf) == 0.0

    def test_vector_matches_scalar(self):
        a = np.array([0.0, 1.0, 4.0, 4.0])
        b = np.array([1.0, 1.0, 2.0, 9.0])
        vec = marcum_q1(a, b)
        assert vec.shape == (4,)
        for i in range(4):
            assert vec[i] == pytest.approx(marcum_q1(float(a[i]), float(b[i])), rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            marcum_q1(-1.0, 2.0)
        with pytest.raises(ValueError):
            marcum_q1(1.0, -2.0)


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
        assert is_covered(params, empty_env, (250.0, 250.0, 90.0), (250.0, 250.0, 1.0))

    def test_far_corner_behind_blocks_not_covered(self, params):
        env = Environment(
            d1=1400.0, d2=1400.0,
            blocks=(BuildingBlock((700.0, 700.0), 12.5, 50.0),),
            seed=0,
        )
        p = (0.0, 0.0, 90.0)
        q = (989.9, 989.9, 1.0)  # about 1400 m away, behind the block
        assert not is_covered(params, env, p, q)

    def test_mask_matches_scalar(self, params, city_env):
        rng = np.random.default_rng(3)
        p = np.array([250.0, 250.0, 90.0])
        qs = np.column_stack([rng.uniform(0, 500, (40, 2)), np.full(40, 1.0)])
        mask = coverage_mask(params, city_env, p, qs)
        for i, q in enumerate(qs):
            assert mask[i] == is_covered(params, city_env, p, q)

    def test_full_chain_against_reference(self, params, city_env):
        from absmove import is_los

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


class TestRicianSampler:
    def test_unit_mean_power(self):
        rng = np.random.default_rng(5)
        for k in (0.0, 1.0, 10.0, 100.0):
            power = sample_rician_power(k, rng, size=200_000)
            assert power.mean() == pytest.approx(1.0, abs=0.01)

    def test_k_zero_is_exponential(self):
        rng = np.random.default_rng(6)
        power = sample_rician_power(0.0, rng, size=200_000)
        # Exponential(1): variance 1, P(X < 1) = 1 - 1/e.
        assert power.var() == pytest.approx(1.0, abs=0.02)
        assert np.mean(power < 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=0.005)
