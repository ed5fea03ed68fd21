"""Tests for the randomized greedy solver, its dual bounds, and the repair."""

import math

import numpy as np
import pytest

from absmove import (
    GridSpec,
    InfeasibleSetError,
    assemble,
    decode_and_repair,
    dual_objective,
    evaluate_placement,
    gap_bound,
    solve,
)

import absmove.online_solver as online_solver
import oracles
from conftest import random_instance, synth_gcm
from test_bilp import tiny_two_cell_instance


def x_for_cells(inst, cells):
    x = np.zeros(inst.n_cols, dtype=np.int8)
    x[inst.n_v + inst.positions_of_cells(cells)] = 1
    return x


def dominant_cell_setup(n_gus=3):
    """Cell 1 covers every grid, cells 2..4 cover nothing."""
    spec = GridSpec(d1=100.0, d2=100.0, k1=4, k2=4, k1p=3, k2p=3, abs_alt=90.0)
    z = np.zeros((16, 9), dtype=bool)
    z[0, :] = True
    gcm = synth_gcm(spec, z)
    pool = np.array([1, 2, 3, 4], dtype=np.int64)
    centers = spec.ground.centers
    gu = centers[[0, 0, 1, 2][:n_gus + 1][:n_gus], :2]
    inst = assemble(gcm, (pool, pool), gu)
    return gu, inst


class TestGapBound:
    def test_hand_value(self):
        _, _, _, inst = tiny_two_cell_instance()
        # 5 rows, unit matrix entries, d peaks at 1/3, 3 columns.
        expect = 5.0 * (1.0 + 1.0 / 3.0) ** 2 * math.sqrt(3.0)
        assert gap_bound(inst, 1) == pytest.approx(expect, rel=1e-12)
        assert gap_bound(inst, 1) == pytest.approx(15.39600717839002, rel=1e-12)
        assert gap_bound(inst, 4) == pytest.approx(expect / 2.0, rel=1e-12)

    def test_shrinks_like_inverse_sqrt(self):
        _, _, _, inst = random_instance(5)
        b1 = gap_bound(inst, 1)
        for k in (4, 16, 64):
            assert gap_bound(inst, k) == pytest.approx(b1 / math.sqrt(k), rel=1e-12)

    def test_reported_by_solve(self):
        _, _, _, inst = random_instance(6)
        rep = solve(inst, duplication=4, seed=0)
        assert rep.gap_bound == pytest.approx(gap_bound(inst, 4), rel=1e-12)

    def test_rejects_bad_duplication(self):
        _, _, _, inst = random_instance(7)
        with pytest.raises(ValueError):
            gap_bound(inst, 0)


class TestDualObjective:
    @pytest.mark.parametrize("seed", range(5))
    def test_value_at_zero_is_total_weight(self, seed):
        _, _, _, inst = random_instance(seed, n_gus=7)
        f0 = dual_objective(inst, np.zeros(inst.n_rows))
        assert f0 * inst.n_cols == pytest.approx(inst.weights.sum())
        assert inst.weights.sum() == 7  # every user sits in some occupied grid

    @pytest.mark.parametrize("seed", range(6))
    def test_weak_duality_along_the_run(self, seed):
        _, _, _, inst = random_instance(seed, n_cells=6, n_grids=4, n_gus=5,
                                         shared_pools=True)
        ilp, _ = oracles.binary_optimum(inst)
        rep = solve(inst, duplication=2, seed=seed, track_dual=True)
        assert rep.dual_trace is not None
        for trace in rep.dual_trace:
            assert len(trace) == inst.n_cols
            for f in trace:
                assert inst.n_cols * f >= ilp - 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_strong_duality_at_lp_optimum(self, seed):
        _, _, _, inst = random_instance(seed + 60, n_cells=6, n_grids=4, n_gus=5)
        lp_val, y_star = oracles.lp_optimum(inst)
        assert inst.n_cols * dual_objective(inst, y_star) == pytest.approx(lp_val, abs=1e-6)


class TestDecodeAndRepair:
    def test_empty_selection_greedy_fill(self):
        for seed in range(6):
            _, _, _, inst = random_instance(seed, n_abs=2)
            placement = decode_and_repair(np.zeros(inst.n_cols), inst)
            positions, value = oracles.greedy_fill(inst)
            assert placement.coverage_value == value
            assert sorted(placement.abs_cells) == sorted(
                int(inst.u_ids[p]) for p in positions
            )

    def test_idempotent_on_feasible_selection(self):
        for seed in range(6):
            _, _, _, inst = random_instance(seed + 20, n_abs=2)
            first = decode_and_repair(np.zeros(inst.n_cols), inst)
            again = decode_and_repair(x_for_cells(inst, first.abs_cells), inst)
            assert sorted(again.abs_cells) == sorted(first.abs_cells)
            assert again.coverage_value == first.coverage_value

    def test_overfull_drop_beats_static_two(self):
        hits = 0
        for seed in range(10):
            _, _, _, inst = random_instance(seed, n_abs=2, n_cells=8, n_grids=6,
                                             n_gus=8, shared_pools=True)
            if inst.n_u < 4:
                continue
            rng = np.random.default_rng(seed)
            pick = rng.choice(inst.n_u, size=4, replace=False)
            cells = inst.u_ids[np.sort(pick)]
            placement = decode_and_repair(x_for_cells(inst, cells), inst)
            floor = oracles.static_drop(sorted(int(p) for p in pick), inst.z_sub,
                                        inst.weights, n_keep=2)
            assert placement.coverage_value >= floor
            hits += 1
        assert hits >= 8

    @pytest.mark.parametrize("seed", range(10))
    def test_repaired_placement_is_feasible(self, seed):
        gcm, pools, gu, inst = random_instance(seed + 200, n_abs=3, n_cells=10, n_grids=6)
        rng = np.random.default_rng(seed)
        x = (rng.random(inst.n_cols) < 0.4).astype(np.int8)
        placement = decode_and_repair(x, inst)
        cells = placement.abs_cells
        assert len(cells) == 3
        assert len(set(cells)) == 3
        for i, c in enumerate(cells):
            assert c in pools[i], f"ABS {i} got unreachable cell {c}"
        assert placement.coverage_value == evaluate_placement(gcm, cells, gu)

    def test_impossible_distinctness_raises(self):
        spec = GridSpec(d1=100.0, d2=100.0, k1=2, k2=2, k1p=2, k2p=2, abs_alt=90.0)
        gcm = synth_gcm(spec, np.zeros((4, 4), dtype=bool))
        only = np.array([3], dtype=np.int64)
        gu = spec.ground.centers[:1, :2]
        inst = assemble(gcm, (only, only), gu)
        with pytest.raises(InfeasibleSetError):
            decode_and_repair(np.zeros(inst.n_cols), inst)

    def test_augmenting_path_reassignment(self):
        # ABS 0 reaches both cells, ABS 1 only cell 2. A solution that hands
        # cell 2 to ABS 0 forces an eviction through the matching.
        spec = GridSpec(d1=100.0, d2=100.0, k1=2, k2=2, k1p=2, k2p=2, abs_alt=90.0)
        z = np.zeros((4, 4), dtype=bool)
        z[1, :] = True
        gcm = synth_gcm(spec, z)
        pools = (np.array([1, 2], dtype=np.int64), np.array([2], dtype=np.int64))
        gu = spec.ground.centers[:2, :2]
        inst = assemble(gcm, pools, gu)
        placement = decode_and_repair(x_for_cells(inst, [2]), inst)
        assert sorted(placement.abs_cells) == [1, 2]
        assert placement.abs_cells[1] == 2


class TestSolve:
    def test_dominant_cell_reaches_full_coverage(self):
        gu, inst = dominant_cell_setup()
        rep = solve(inst, duplication=1, seed=0)
        assert rep.coverage_value == inst.weights.sum() == len(gu)
        assert 1 in rep.placement.abs_cells

    def test_majority_of_seeds_reach_optimum(self):
        _, _, _, inst = random_instance(7, n_abs=2, n_cells=12, n_grids=6,
                                         n_gus=5, shared_pools=True)
        pools_pos = [np.arange(inst.n_u)] * 2
        opt = oracles.enumerate_optimum(inst.z_sub, inst.weights, pools_pos)
        hits = sum(
            solve(inst, duplication=3, seed=s).coverage_value == opt
            for s in range(100)
        )
        assert hits > 50, f"only {hits}/100 seeds reached the optimum {opt}"

    def test_restart_prefix_property(self):
        _, _, _, inst = random_instance(8)
        one = solve(inst, duplication=1, seed=5)
        three = solve(inst, duplication=3, seed=5)
        six = solve(inst, duplication=6, seed=5)
        assert three.restart_values[:1] == one.restart_values
        assert six.restart_values[:3] == three.restart_values
        assert six.coverage_value >= three.coverage_value >= one.coverage_value

    def test_deterministic_replay(self):
        _, _, _, inst = random_instance(9)
        a = solve(inst, duplication=4, seed=3)
        b = solve(inst, duplication=4, seed=3)
        assert a.placement.abs_cells == b.placement.abs_cells
        assert a.restart_values == b.restart_values
        assert a.best_restart == b.best_restart
        assert a.coverage_value == b.coverage_value

    def test_report_fields(self):
        _, _, _, inst = random_instance(10)
        rep = solve(inst, duplication=2, seed=1, track_dual=True)
        assert len(rep.restart_values) == 2
        assert rep.coverage_value == rep.placement.coverage_value == max(rep.restart_values)
        assert rep.restart_values[rep.best_restart] == rep.coverage_value
        assert rep.gap_bound == gap_bound(inst, 2)
        assert len(rep.dual_trace) == 2
        assert all(len(t) == inst.n_cols for t in rep.dual_trace)
        assert solve(inst, duplication=2, seed=1).dual_trace is None

    def test_validation(self):
        _, _, _, inst = random_instance(13)
        with pytest.raises(ValueError):
            solve(inst, duplication=0)


class TestGreedyPass:
    """The pass prices from z_sub and the pools; the reference walks E."""

    @staticmethod
    def pass_with_iterates(inst, seed):
        seen = []

        def record(instance, y):
            seen.append(np.array(y, copy=True))
            return 0.0

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(online_solver, "dual_objective", record)
            x, _ = online_solver._greedy_pass(inst, np.random.default_rng([seed, 0]), True)
        return x, seen

    @pytest.mark.parametrize("multiplicity", [True, False])
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("n_abs", [1, 2, 3])
    def test_matches_integer_walk_over_e(self, n_abs, shared, multiplicity):
        for seed in range(25):
            gcm, pools, gu, _ = random_instance(
                seed, n_abs=n_abs, n_cells=n_abs + 2 + seed % 5, n_grids=3 + seed % 5,
                n_gus=2 + seed % 9, density=0.2 + 0.1 * (seed % 5), shared_pools=shared,
            )
            inst = assemble(gcm, pools, gu, weight_multiplicity=multiplicity)
            x, seen = self.pass_with_iterates(inst, seed)
            order = np.random.default_rng([seed, 0]).permutation(inst.n_cols)
            want_x, want_y = oracles.integer_csc_walk(inst, order)
            assert np.array_equal(x, want_x), f"seed {seed}"
            alpha = 1.0 / math.sqrt(inst.n_cols)
            assert len(seen) == len(want_y) == inst.n_cols
            for got, want in zip(seen, want_y):
                assert np.array_equal(got, want * alpha / inst.n_cols), f"seed {seed}"
