"""Environment generation, line of sight, and exclusion-zone tests."""

import numpy as np
import pytest

from absmove import (
    BuildingBlock,
    Environment,
    EnvironmentTooDenseError,
    generate_environment,
    is_los,
    los_blocked_mask,
    obstructed_mask,
)

from oracles import sampled_blocked, sampled_blocked_robust


def one_block_env(height: float = 50.0) -> Environment:
    # Box [40, 60] x [40, 60] x [0, height].
    return Environment(
        d1=100.0, d2=100.0,
        blocks=(BuildingBlock((50.0, 50.0), 10.0, height),),
        seed=0,
    )


class TestGeneration:
    def test_zero_blocks(self):
        env = generate_environment(500.0, 500.0, 0, 25.0, (30.0, 89.0), seed=3)
        assert env.blocks == ()
        assert (env.d1, env.d2) == (500.0, 500.0)

    def test_blocks_inside_disjoint_heights_in_range(self):
        env = generate_environment(1400.0, 1400.0, 300, 25.0, (30.0, 89.0), seed=7)
        assert len(env.blocks) == 300
        xs = np.array([b.center_xy[0] for b in env.blocks])
        ys = np.array([b.center_xy[1] for b in env.blocks])
        hs = np.array([b.height for b in env.blocks])
        assert np.all((xs >= 12.5) & (xs <= 1400.0 - 12.5))
        assert np.all((ys >= 12.5) & (ys <= 1400.0 - 12.5))
        assert np.all((hs >= 30.0) & (hs <= 89.0))
        assert all(b.half_width == 12.5 for b in env.blocks)
        # Interiors disjoint: some axis gap must reach one full width.
        dx = np.abs(xs[:, None] - xs[None, :])
        dy = np.abs(ys[:, None] - ys[None, :])
        overlap = (dx < 25.0) & (dy < 25.0)
        np.fill_diagonal(overlap, False)
        assert not overlap.any()

    def test_deterministic_in_seed(self):
        a = generate_environment(700.0, 700.0, 50, 25.0, (30.0, 89.0), seed=11)
        b = generate_environment(700.0, 700.0, 50, 25.0, (30.0, 89.0), seed=11)
        c = generate_environment(700.0, 700.0, 50, 25.0, (30.0, 89.0), seed=12)
        assert a == b
        assert a != c

    def test_too_dense_raises(self):
        # A 100 m square fits at most 9 disjoint 30 m footprints.
        with pytest.raises(EnvironmentTooDenseError):
            generate_environment(100.0, 100.0, 10, 30.0, (30.0, 89.0), seed=0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_environment(100.0, 100.0, 1, 200.0, (30.0, 89.0), seed=0)
        with pytest.raises(ValueError):
            generate_environment(100.0, 100.0, 16, 25.0, (30.0, 89.0), seed=0)
        with pytest.raises(ValueError):
            generate_environment(100.0, 100.0, 1, 25.0, (0.0, 89.0), seed=0)


class TestLineOfSight:
    def test_blocked_through_block(self):
        env = one_block_env()
        # Descending diagonal passes the block at about 45 m altitude.
        assert not is_los(env, (0.0, 0.0, 90.0), (100.0, 100.0, 1.0))
        assert sampled_blocked(env, (0.0, 0.0, 90.0), (100.0, 100.0, 1.0))

    def test_clear_beside_block(self):
        env = one_block_env()
        assert is_los(env, (0.0, 0.0, 90.0), (100.0, 0.0, 1.0))
        assert not sampled_blocked(env, (0.0, 0.0, 90.0), (100.0, 0.0, 1.0))

    def test_blocked_through_side_face(self):
        env = one_block_env()
        assert not is_los(env, (50.0, 0.0, 25.0), (50.0, 100.0, 25.0))

    def test_straight_down_onto_footprint(self):
        env = one_block_env()
        assert not is_los(env, (50.0, 50.0, 90.0), (50.0, 50.0, 1.0))

    def test_grazing_top_face_counts_as_los(self):
        env = one_block_env(height=50.0)
        assert is_los(env, (0.0, 50.0, 50.0), (100.0, 50.0, 50.0))
        # Just below the roof line the same path is blocked.
        assert not is_los(env, (0.0, 50.0, 49.999), (100.0, 50.0, 49.999))

    def test_grazing_vertical_edge_counts_as_los(self):
        env = one_block_env()
        assert is_los(env, (40.0, 0.0, 10.0), (40.0, 100.0, 10.0))

    def test_empty_env_always_clear(self, empty_env):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.uniform((0, 0, 1), (500, 500, 120))
            q = rng.uniform((0, 0, 1), (500, 500, 120))
            assert is_los(empty_env, p, q)

    def test_coincident_points_rejected(self, empty_env):
        with pytest.raises(ValueError):
            is_los(empty_env, (1.0, 2.0, 3.0), (1.0, 2.0, 3.0))

    def test_symmetry(self, city_env):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rng.uniform((0, 0, 1), (500, 500, 120))
            q = rng.uniform((0, 0, 1), (500, 500, 120))
            assert is_los(city_env, p, q) == is_los(city_env, q, p)

    def test_matches_sampling_oracle(self, city_env):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(200):
            p = rng.uniform((0, 0, 80), (500, 500, 100))
            q = rng.uniform((0, 0, 1), (500, 500, 2))
            verdict = sampled_blocked_robust(city_env, p, q)
            if verdict is None:
                continue
            checked += 1
            assert is_los(city_env, p, q) == (not verdict), (p, q)
        assert checked > 150

    def test_mask_agrees_with_scalar(self, city_env):
        rng = np.random.default_rng(9)
        p = np.array([250.0, 250.0, 90.0])
        qs = rng.uniform((0, 0, 1), (500, 500, 2), size=(64, 3))
        mask = los_blocked_mask(city_env, p, qs)
        for i, q in enumerate(qs):
            assert mask[i] == (not is_los(city_env, p, q))

    def test_blockage_monotone_in_height(self, city_env):
        taller = Environment(
            d1=city_env.d1, d2=city_env.d2,
            blocks=tuple(
                BuildingBlock(b.center_xy, b.half_width, b.height + 30.0)
                for b in city_env.blocks
            ),
            seed=city_env.seed,
        )
        rng = np.random.default_rng(13)
        p = np.array([10.0, 10.0, 95.0])
        qs = rng.uniform((0, 0, 1), (500, 500, 2), size=(128, 3))
        base = los_blocked_mask(city_env, p, qs)
        grown = los_blocked_mask(taller, p, qs)
        assert np.all(grown | ~base)  # blocked stays blocked

    def test_does_not_mutate_inputs(self, city_env):
        p = np.array([1.0, 2.0, 90.0])
        qs = np.array([[3.0, 4.0, 1.0], [5.0, 6.0, 1.0]])
        p0, qs0 = p.copy(), qs.copy()
        los_blocked_mask(city_env, p, qs)
        assert np.array_equal(p, p0) and np.array_equal(qs, qs0)


class TestObstruction:
    def test_inside_tall_footprint(self):
        env = one_block_env(height=95.0)
        assert obstructed_mask(env, (50.0, 50.0), min_height=90.0).tolist() == [True]

    def test_short_block_passes_height_filter(self):
        env = one_block_env(height=30.0)
        assert obstructed_mask(env, (50.0, 50.0), min_height=90.0).tolist() == [False]
        assert obstructed_mask(env, (50.0, 50.0)).tolist() == [True]  # ground-level check

    def test_outside_footprint(self):
        env = one_block_env(height=95.0)
        assert obstructed_mask(env, (10.0, 10.0), min_height=90.0).tolist() == [False]

    def test_footprint_edge_is_open(self):
        env = one_block_env(height=95.0)
        assert obstructed_mask(env, [(40.0, 50.0), (60.0, 60.0)]).tolist() == [False, False]

    def test_mask_vectorizes(self):
        env = one_block_env(height=95.0)
        pts = np.array([[50.0, 50.0], [10.0, 10.0], [41.0, 59.0]])
        assert obstructed_mask(env, pts).tolist() == [True, False, True]

