"""Exact-search and K-means/evolutionary baseline tests."""

import numpy as np
import pytest

from absmove import (
    ChannelParams,
    Environment,
    GridSpec,
    InfeasibleSetError,
    OracleCapError,
    assemble,
    build_gcm,
    covered_weight,
    ea_step,
    evaluate_placement,
    exact_optimum,
    kmeans_centroids,
    kmeans_init,
    make_placement,
    solve,
)

import oracles
from absmove.baselines import _EA_BLOCK
from conftest import random_instance, synth_gcm


class TestExactOptimum:
    def test_single_abs_is_argmax(self):
        for seed in range(5):
            _, _, _, inst = random_instance(seed, n_abs=1)
            best = exact_optimum(inst)
            per_cell = [
                covered_weight(inst.z_sub, [t], inst.weights) for t in inst.per_abs_pos[0]
            ]
            assert best.coverage_value == max(per_cell)

    def test_all_ones_connectivity(self):
        spec = GridSpec(d1=100.0, d2=100.0, k1=3, k2=3, k1p=3, k2p=3, abs_alt=90.0)
        gcm = synth_gcm(spec, np.ones((9, 9), dtype=bool))
        pool = np.arange(1, 10, dtype=np.int64)
        gu = spec.ground.centers[[0, 0, 4, 8], :2]
        inst = assemble(gcm, (pool, pool), gu)
        best = exact_optimum(inst)
        assert best.coverage_value == 4
        assert len(set(best.abs_cells)) == 2

    def test_pair_pool_against_double_loop(self):
        rng = np.random.default_rng(77)
        spec = GridSpec(d1=100.0, d2=100.0, k1=4, k2=4, k1p=3, k2p=3, abs_alt=90.0)
        z = np.zeros((16, 9), dtype=bool)
        pool = np.sort(rng.choice(16, size=15, replace=False) + 1).astype(np.int64)
        for u in pool:
            z[u - 1] = rng.random(9) < 0.35
        gcm = synth_gcm(spec, z)
        grids = rng.integers(1, 10, size=10)
        gu = spec.ground.centers[grids - 1, :2]
        inst = assemble(gcm, (pool, pool), gu)
        best = exact_optimum(inst)
        expect = oracles.enumerate_pairs(inst.z_sub, inst.weights, np.arange(inst.n_u))
        assert best.coverage_value == expect

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_product_enumeration(self, seed):
        _, _, _, inst = random_instance(seed, n_abs=2, n_cells=7, n_grids=5, n_gus=6)
        best = exact_optimum(inst)
        expect = oracles.enumerate_optimum(
            inst.z_sub, inst.weights, [np.asarray(p) for p in inst.per_abs_pos]
        )
        assert best.coverage_value == expect

    def test_branch_and_bound_agrees_with_plain_search(self):
        for seed in range(5):
            _, _, _, inst = random_instance(seed + 30, n_abs=2, n_cells=6)
            with_bnb = exact_optimum(inst, branch_and_bound=True)
            plain = exact_optimum(inst, branch_and_bound=False)
            assert with_bnb.coverage_value == plain.coverage_value

    @pytest.mark.parametrize("n_abs", [2, 3, 4])
    def test_branch_and_bound_keeps_plain_search_cells(self, n_abs):
        # The same cells, not only the same value: pins the search order.
        for seed in range(30):
            _, _, _, inst = random_instance(seed + 100 * n_abs, n_abs=n_abs,
                                            n_cells=n_abs + 4, shared_pools=True)
            plain = exact_optimum(inst, branch_and_bound=False)
            assert exact_optimum(inst, branch_and_bound=True) == plain

    def test_cap_rejects_oversized_plain_search(self):
        _, _, _, inst = random_instance(2, n_abs=2, n_cells=8, shared_pools=True)
        with pytest.raises(OracleCapError):
            exact_optimum(inst, cap=10, branch_and_bound=False)
        # Branch and bound ignores the cap.
        exact_optimum(inst, cap=10, branch_and_bound=True)

    def test_impossible_distinctness(self):
        spec = GridSpec(d1=100.0, d2=100.0, k1=2, k2=2, k1p=2, k2p=2, abs_alt=90.0)
        gcm = synth_gcm(spec, np.zeros((4, 4), dtype=bool))
        only = np.array([2], dtype=np.int64)
        gu = spec.ground.centers[:1, :2]
        inst = assemble(gcm, (only, only), gu)
        with pytest.raises(InfeasibleSetError):
            exact_optimum(inst)

    def test_cells_respect_pool_membership(self):
        for seed in range(5):
            _, pools, _, inst = random_instance(seed + 50, n_abs=3, n_cells=9)
            best = exact_optimum(inst)
            for i, c in enumerate(best.abs_cells):
                assert c in pools[i]

    def test_invariant_under_gu_permutation(self):
        gcm, pools, gu, inst = random_instance(4, n_gus=9)
        rng = np.random.default_rng(0)
        shuffled = gu[rng.permutation(len(gu))]
        a = exact_optimum(assemble(gcm, pools, gu))
        b = exact_optimum(assemble(gcm, pools, shuffled))
        assert a.coverage_value == b.coverage_value


class TestKmeans:
    def test_single_centroid_is_mean(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
        c = kmeans_centroids(pts, 1, seed=0)
        assert np.allclose(c, pts.mean(axis=0))

    def test_one_point_per_centroid(self):
        pts = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])
        c = kmeans_centroids(pts, 4, seed=1)
        assert np.allclose(np.sort(c, axis=0), np.sort(pts, axis=0))

    def test_two_separated_clusters_match_enumeration(self):
        rng = np.random.default_rng(3)
        a = rng.normal((50.0, 50.0), 3.0, size=(5, 2))
        b = rng.normal((400.0, 420.0), 3.0, size=(6, 2))
        pts = np.vstack([a, b])
        got = kmeans_centroids(pts, 2, seed=0)
        got = got[np.lexsort(got.T[::-1])]
        expect = oracles.two_means(pts)
        assert np.allclose(got, expect, atol=1e-9)

    def test_deterministic(self):
        pts = np.random.default_rng(9).uniform(0, 500, size=(30, 2))
        assert np.allclose(kmeans_centroids(pts, 3, seed=4), kmeans_centroids(pts, 3, seed=4))

    def test_validation(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            kmeans_centroids(pts, 0)
        with pytest.raises(ValueError):
            kmeans_centroids(pts, 4)


def all_cells_instance(gcm, gu, n_abs, weight_multiplicity=True):
    """Instance in which every ABS may take any valid cell."""
    ids = np.flatnonzero(gcm.abs_cell_valid) + 1
    return assemble(gcm, [ids] * n_abs, gu, weight_multiplicity)


class TestKmeansInit:
    def test_snaps_to_distinct_valid_cells(self, empty_gcm, spec20):
        rng = np.random.default_rng(6)
        gu = rng.uniform(0, 500, size=(12, 2))
        p = kmeans_init(all_cells_instance(empty_gcm, gu, 3), kmeans_centroids(gu, 3))
        assert len(set(p.abs_cells)) == 3
        assert all(empty_gcm.abs_cell_valid[c - 1] for c in p.abs_cells)
        assert p.coverage_value == evaluate_placement(empty_gcm, p.abs_cells, gu)

    @pytest.mark.parametrize("wm", [True, False])
    def test_value_follows_instance_weights(self, empty_gcm, wm):
        # Every GU shares its grid with another, so users and grids differ.
        gu = np.repeat(np.random.default_rng(4).uniform(0, 500, size=(5, 2)), 2, axis=0)
        p = kmeans_init(all_cells_instance(empty_gcm, gu, 2, wm), kmeans_centroids(gu, 2))
        assert p.coverage_value == evaluate_placement(
            empty_gcm, p.abs_cells, gu, weight_multiplicity=wm
        )
        assert p.coverage_value > 0

    def test_centroid_snap_is_nearest(self, empty_gcm, spec20):
        gu = np.array([[100.0, 100.0]] * 4)
        p = kmeans_init(all_cells_instance(empty_gcm, gu, 1), kmeans_centroids(gu, 1))
        centers = spec20.traversal.centers
        d = np.hypot(centers[:, 0] - 100.0, centers[:, 1] - 100.0)
        assert p.abs_cells[0] == int(np.argmin(d)) + 1

    def test_pools_restrict_the_snap(self, empty_gcm, spec20):
        gu = np.array([[100.0, 100.0]] * 3 + [[400.0, 400.0]] * 3)
        free = kmeans_init(all_cells_instance(empty_gcm, gu, 2), kmeans_centroids(gu, 2))
        pools = [np.array([1, 2], dtype=np.int64), np.array([2, 400], dtype=np.int64)]
        p = kmeans_init(assemble(empty_gcm, pools, gu), kmeans_centroids(gu, 2))
        assert all(c in pool for c, pool in zip(p.abs_cells, pools))
        assert p.abs_cells != free.abs_cells
        assert p.coverage_value == evaluate_placement(empty_gcm, p.abs_cells, gu)

    def test_exhausted_pool_raises(self, empty_gcm):
        gu = np.array([[100.0, 100.0], [110.0, 100.0], [400.0, 400.0]])
        pools = [np.array([5], dtype=np.int64)] * 2
        with pytest.raises(InfeasibleSetError, match="ABS 1"):
            kmeans_init(assemble(empty_gcm, pools, gu), kmeans_centroids(gu, 2))

    @pytest.fixture(scope="class")
    def corner(self):
        """A 100 m 4x4 empty map, two users, and cell 1's centre."""
        spec = GridSpec(d1=100.0, d2=100.0, k1=4, k2=4, k1p=4, k2p=4, abs_alt=90.0)
        env = Environment(d1=100.0, d2=100.0, blocks=(), seed=0)
        gcm = build_gcm(env, ChannelParams(), spec)
        return gcm, np.array([[10.0, 10.0], [60.0, 60.0]]), spec.traversal.centers[0, :2]

    @pytest.mark.parametrize("pools, want", [
        ([[1, 2], [1]], (2, 1)),
        ([[1, 2], [2, 3], [1]], (2, 3, 1)),
    ], ids=["pair", "chain"])
    def test_taken_pool_is_freed_along_a_path(self, corner, pools, want):
        # Every centroid sits on cell 1's centre, so the earlier ABSs take
        # the last one's whole pool; routing a free cell gives it one.
        gcm, gu, c1 = corner
        inst = assemble(gcm, [np.array(p, dtype=np.int64) for p in pools], gu)
        p = kmeans_init(inst, np.tile(c1, (len(pools), 1)))
        assert p.abs_cells == want == solve(inst).placement.abs_cells
        assert p.coverage_value == evaluate_placement(gcm, p.abs_cells, gu)

    def test_raises_only_without_a_distinct_assignment(self, corner):
        # ABSs 0-2 share cells 1 and 2; ABS 3's cells cannot help them.
        gcm, gu, c1 = corner
        pools = [np.array(p, dtype=np.int64) for p in ([1], [1, 2], [2], [3, 4])]
        inst = assemble(gcm, pools, gu)
        with pytest.raises(InfeasibleSetError, match="ABS 2"):
            kmeans_init(inst, np.tile(c1, (4, 1)))
        with pytest.raises(InfeasibleSetError):
            exact_optimum(inst)


def free_start(inst, seed):
    """Distinct random start cells, each from its ABS's pool, and their value."""
    rng = np.random.default_rng(seed)
    pos: list[int] = []
    for pool in inst.per_abs_pos:
        pos.append(next(int(p) for p in rng.permutation(pool) if p not in pos))
    return make_placement(inst.u_ids[pos], covered_weight(inst.z_sub, pos, inst.weights))


class TestEaStep:
    def make_setup(self, seed, n_cells=6):
        gcm, pools, gu, inst = random_instance(seed, n_abs=2, n_cells=n_cells,
                                               n_grids=5, n_gus=6, shared_pools=True)
        start_cells = [int(pools[0][0]), int(pools[1][1])]
        start = make_placement(start_cells, evaluate_placement(gcm, start_cells, gu))
        return inst, start

    @pytest.mark.parametrize("seed", range(6))
    def test_never_degrades(self, seed):
        inst, start = self.make_setup(seed)
        out = ea_step(start, inst, rounds=40, mutation_radius=1e6, seed=seed)
        assert out.coverage_value >= start.coverage_value
        assert len(set(out.abs_cells)) == 2

    def test_reaches_small_instance_optimum(self):
        inst, start = self.make_setup(2)
        opt = oracles.enumerate_optimum(
            inst.z_sub, inst.weights, [np.arange(inst.n_u)] * 2
        )
        out = ea_step(start, inst, rounds=3000, mutation_radius=1e6, seed=0)
        assert out.coverage_value == opt

    def test_incumbent_survives_zero_gain_landscape(self):
        spec = GridSpec(d1=100.0, d2=100.0, k1=3, k2=3, k1p=3, k2p=3, abs_alt=90.0)
        gcm = synth_gcm(spec, np.ones((9, 9), dtype=bool))
        pool = np.arange(1, 10, dtype=np.int64)
        gu = spec.ground.centers[[0, 3], :2]
        inst = assemble(gcm, (pool, pool), gu)
        start = make_placement([1, 2], evaluate_placement(gcm, [1, 2], gu))
        out = ea_step(start, inst, rounds=25, mutation_radius=1e6, seed=1)
        assert out.abs_cells == (1, 2)  # nothing strictly better exists

    def test_deterministic(self):
        inst, start = self.make_setup(3)
        knobs = dict(rounds=60, mutation_radius=1e6, seed=11)
        a = ea_step(start, inst, **knobs)
        b = ea_step(start, inst, **knobs)
        assert a.abs_cells == b.abs_cells and a.coverage_value == b.coverage_value

    @staticmethod
    def assert_matches_sequential(inst, start, **knobs):
        out = ea_step(start, inst, **knobs)
        cells, value = oracles.sequential_ea_step(
            start.abs_cells, start.coverage_value, inst, **knobs
        )
        assert (out.abs_cells, out.coverage_value) == (cells, value)

    @pytest.mark.parametrize("n_abs", range(1, 6))
    @pytest.mark.parametrize("shared", [False, True])
    def test_matches_sequential_loop(self, n_abs, shared):
        for seed in range(6):
            _, _, _, inst = random_instance(seed, n_abs=n_abs, n_cells=n_abs + 4,
                                            shared_pools=shared)
            start = free_start(inst, seed)
            for radius in (30.0, 1e6):
                self.assert_matches_sequential(inst, start, rounds=97,
                                               mutation_radius=radius, seed=seed)

    @pytest.mark.parametrize("n_abs", range(2, 6))
    def test_matches_sequential_loop_with_collisions(self, n_abs):
        # One spare cell: redraws collide, some exhaust all eight tries and
        # the round is skipped.
        for seed in range(4):
            _, _, _, inst = random_instance(seed, n_abs=n_abs, n_cells=n_abs + 1,
                                            shared_pools=True)
            self.assert_matches_sequential(inst, free_start(inst, seed), rounds=300,
                                           mutation_radius=1e6, seed=seed)

    @pytest.mark.parametrize("rounds", [1, _EA_BLOCK - 1, _EA_BLOCK, _EA_BLOCK + 1,
                                        2 * _EA_BLOCK + 57])
    def test_matches_sequential_loop_across_blocks(self, rounds):
        for seed in range(4):
            _, _, _, inst = random_instance(seed, n_abs=3, n_cells=9, n_grids=9,
                                            shared_pools=True, density=0.2)
            self.assert_matches_sequential(inst, free_start(inst, seed), rounds=rounds,
                                           mutation_radius=1e6, seed=seed)

    def test_matches_sequential_loop_on_zero_gain_landscape(self):
        spec = GridSpec(d1=100.0, d2=100.0, k1=3, k2=3, k1p=3, k2p=3, abs_alt=90.0)
        gcm = synth_gcm(spec, np.ones((9, 9), dtype=bool))
        pool = np.arange(1, 10, dtype=np.int64)
        inst = assemble(gcm, (pool, pool), spec.ground.centers[[0, 3], :2])
        start = make_placement([1, 2], covered_weight(inst.z_sub, [0, 1], inst.weights))
        for seed in range(5):
            self.assert_matches_sequential(inst, start, rounds=2 * _EA_BLOCK + 3,
                                           mutation_radius=1e6, seed=seed)

    @pytest.mark.parametrize("radius", [0.0, 1e6])
    def test_start_outside_its_pool_rejected(self, radius):
        spec = GridSpec(d1=100.0, d2=100.0, k1=3, k2=3, k1p=3, k2p=3, abs_alt=90.0)
        gcm = synth_gcm(spec, np.eye(9, dtype=bool))
        pools = (np.array([1, 2], dtype=np.int64), np.array([3, 4], dtype=np.int64))
        gu = spec.ground.centers[[0, 2, 3], :2]
        inst = assemble(gcm, pools, gu)
        # Cell 3 is in the instance, but only ABS 1 may take it.
        start = make_placement([3, 1], evaluate_placement(gcm, [3, 1], gu))
        with pytest.raises(ValueError, match="ABS 0"):
            ea_step(start, inst, rounds=10, mutation_radius=radius, seed=0)
        start = make_placement([2, 1], evaluate_placement(gcm, [2, 1], gu))
        with pytest.raises(ValueError, match="ABS 1"):
            ea_step(start, inst, rounds=10, mutation_radius=radius, seed=0)

    def test_config_validation(self):
        inst, start = self.make_setup(0)
        with pytest.raises(ValueError, match="rounds"):
            ea_step(start, inst, rounds=0, mutation_radius=1e6, seed=0)

    def test_mutation_radius_validated(self):
        # The bound by the movement radius is a TrialConfig check.
        inst, start = self.make_setup(0)
        with pytest.raises(ValueError, match="mutation_radius"):
            ea_step(start, inst, rounds=1, mutation_radius=-1.0, seed=0)
