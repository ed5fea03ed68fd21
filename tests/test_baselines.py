"""Exact-search and K-means/evolutionary baseline tests."""

import itertools

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
import absmove.baselines as baselines
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

    @classmethod
    def assert_scores_sequential_candidates(cls, inst, start, **knobs):
        """ea_step scores the very candidates the sequential loop scores, in
        order (as their stacked z rows), and picks the same one."""
        ours, theirs = [], []
        score_one = oracles.coverage_value

        def batched(z, rows, weights, cols=None):
            ours.extend(z[r].tobytes() for r in np.asarray(rows))
            return covered_weight(z, rows, weights, cols)

        def one(z_rows, weights):
            theirs.append(np.asarray(z_rows).tobytes())
            return score_one(z_rows, weights)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(baselines, "covered_weight", batched)
            m.setattr(oracles, "coverage_value", one)
            cls.assert_matches_sequential(inst, start, **knobs)
        first = next((k for k, pair in enumerate(zip(ours, theirs)) if pair[0] != pair[1]),
                     min(len(ours), len(theirs)))
        assert ours == theirs, f"candidate {first} differs from the sequential loop's"

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

    @pytest.mark.parametrize("radius", [float("nan"), -1e-9])
    def test_mutation_radius_nan_or_negative_rejected(self, radius):
        inst, start = self.make_setup(0)
        with pytest.raises(ValueError, match="mutation_radius must be non-negative"):
            ea_step(start, inst, rounds=1, mutation_radius=radius, seed=0)

    def test_infinite_radius_means_the_whole_pool(self):
        for seed in range(3):
            _, _, _, inst = random_instance(seed, n_abs=3, n_cells=7, shared_pools=True)
            start = free_start(inst, seed)
            knobs = dict(rounds=200, seed=seed)
            out = ea_step(start, inst, mutation_radius=float("inf"), **knobs)
            ref = ea_step(start, inst, mutation_radius=1e6, **knobs)
            assert (out.abs_cells, out.coverage_value) == (ref.abs_cells, ref.coverage_value)
            self.assert_matches_sequential(inst, start, mutation_radius=float("inf"), **knobs)

    def test_matches_sequential_loop_at_zero_radius(self):
        # Every pool is the start cell alone: the one candidate is the start.
        for seed in range(3):
            _, _, _, inst = random_instance(seed, n_abs=3, n_cells=8)
            start = free_start(inst, seed)
            out = ea_step(start, inst, rounds=300, mutation_radius=0.0, seed=seed)
            assert out.abs_cells == start.abs_cells
            self.assert_matches_sequential(inst, start, rounds=300, mutation_radius=0.0,
                                           seed=seed)

    def test_matches_sequential_loop_with_a_one_cell_pool(self):
        # ABS 0 can only stay on cell 5. At full radius ABS 1's pool also
        # holds it, so a first pick repeats it in about one round in eight;
        # at 40 m the pools hold 1, 3 and 2 cells.
        spec = GridSpec(d1=100.0, d2=100.0, k1=3, k2=3, k1p=3, k2p=3, abs_alt=90.0)
        z = np.random.default_rng(7).random((9, 9)) < 0.4
        gcm = synth_gcm(spec, z)
        pools = [np.array(p, dtype=np.int64) for p in ([5], range(2, 10), [1, 2, 3])]
        gu = spec.ground.centers[:, :2]
        inst = assemble(gcm, pools, gu)
        start = make_placement([5, 9, 1], evaluate_placement(gcm, [5, 9, 1], gu))
        for seed in range(6):
            for radius in (40.0, 1e6):
                self.assert_matches_sequential(inst, start, rounds=2 * _EA_BLOCK + 5,
                                               mutation_radius=radius, seed=seed)

    @staticmethod
    def first_repeat(inst, seed, rounds):
        """The first round whose first picks repeat a cell, at full radius,
        found by drawing every round's first picks in one call; exact as long
        as no earlier round repeats. None when no round repeats."""
        sizes = [len(pool) for pool in inst.per_abs_pos]
        draws = np.random.default_rng(seed).integers(0, np.tile(sizes, rounds))
        draws = draws.reshape(rounds, inst.n_abs)
        picks = np.sort([pool[d] for pool, d in zip(inst.per_abs_pos, draws.T)], axis=0)
        hit = np.flatnonzero((picks[1:] == picks[:-1]).any(axis=0))
        return int(hit[0]) if hit.size else None

    # Until the first repeated pick, draw blocks are the scoring blocks,
    # rounds [0, B), [B, 2B), [2B, 3B) and so on, or a block cut short by
    # the call's end, as at round 100 of a 101-round call; each edge is
    # also run followed by a full block.
    @pytest.mark.parametrize("where", [0, 100, _EA_BLOCK - 1, 2 * _EA_BLOCK - 1,
                                       3 * _EA_BLOCK - 1])
    def test_repeated_pick_at_a_block_edge(self, where):
        # A wide shared pool repeats a pick about once in 250 rounds; find
        # seeds whose first repeat falls on the first round, or on the last
        # round of a draw block.
        _, _, _, inst = random_instance(0, n_abs=2, n_cells=250, n_grids=16,
                                        shared_pools=True, density=0.1)
        start = free_start(inst, 0)
        hits = (s for s in range(40_000) if self.first_repeat(inst, s, where + 1) == where)
        seeds = list(itertools.islice(hits, 3))
        assert len(seeds) == 3
        for seed in seeds:
            for rounds in (where + 1, where + 1 + _EA_BLOCK):
                self.assert_scores_sequential_candidates(inst, start, rounds=rounds,
                                                         mutation_radius=1e6, seed=seed)

    @pytest.mark.parametrize("rounds", [_EA_BLOCK - 1, _EA_BLOCK + 1, 5 * _EA_BLOCK + 1])
    def test_matches_sequential_loop_with_one_spare_cell(self, rounds):
        for n_abs in (2, 4):
            for seed in range(3):
                _, _, _, inst = random_instance(seed, n_abs=n_abs, n_cells=n_abs + 1,
                                                shared_pools=True)
                self.assert_scores_sequential_candidates(inst, free_start(inst, seed),
                                                         rounds=rounds, mutation_radius=1e6,
                                                         seed=seed)

    def test_scores_at_most_one_block_per_call(self, monkeypatch):
        sizes = []

        def recording(z, rows, weights, cols=None):
            sizes.append(len(rows))
            return covered_weight(z, rows, weights, cols)

        monkeypatch.setattr(baselines, "covered_weight", recording)
        for n_abs, n_cells in ((2, 3), (3, 40)):
            _, _, _, inst = random_instance(1, n_abs=n_abs, n_cells=n_cells,
                                            shared_pools=True)
            start = free_start(inst, 1)
            sizes.clear()
            ea_step(start, inst, rounds=5 * _EA_BLOCK + 1, mutation_radius=1e6, seed=1)
            assert sizes and max(sizes) <= _EA_BLOCK
            assert sum(sizes) <= 5 * _EA_BLOCK + 1


class TestArrayBoundDraws:
    """ea_step draws a block of rounds with one ``integers`` call over an
    array of bounds, and rewinds by restoring ``bit_generator.state``; its
    outputs equal the scalar loop's only while both hold."""

    @pytest.mark.parametrize("seed", range(20))
    def test_array_of_bounds_draws_as_scalar_calls_in_order(self, seed):
        rng = np.random.default_rng(seed)
        highs = rng.integers(1, 300, size=40)
        highs[rng.integers(0, 40, size=8)] = 1  # a bound of 1 draws nothing
        scalar = np.random.default_rng([seed, 1])
        vector = np.random.default_rng([seed, 1])
        # An odd count of earlier 32-bit draws leaves half a 64-bit word buffered.
        for g in (scalar, vector):
            g.integers(7, size=seed % 4 * 2 + 1)
        one_by_one = [scalar.integers(int(h)) for h in highs]
        at_once = vector.integers(0, highs)
        assert at_once.tolist() == one_by_one, (
            "Generator.integers(0, highs) no longer draws as scalar calls made in order"
        )
        assert vector.integers(2**40, size=3).tolist() == scalar.integers(2**40, size=3).tolist(), (
            "Generator.integers(0, highs) no longer leaves the stream where scalar calls do"
        )

    def test_restoring_the_state_replays_the_draws(self):
        rng = np.random.default_rng(5)
        rng.integers(9)  # half a 64-bit word buffered
        state = rng.bit_generator.state
        first = rng.integers(0, np.array([5, 1, 300, 2] * 10))
        rng.bit_generator.state = state
        assert rng.integers(0, np.array([5, 1, 300, 2] * 10)).tolist() == first.tolist(), (
            "restoring bit_generator.state no longer replays the draws"
        )
