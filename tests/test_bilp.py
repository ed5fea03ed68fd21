"""Feasible-set and instance-encoding tests for the placement subproblem."""

import numpy as np
import pytest

from absmove import (
    GridSpec,
    InfeasibleSetError,
    assemble,
    covered_weight,
    evaluate_placement,
    feasible_sets,
    make_placement,
)

import oracles
from conftest import random_instance, synth_gcm


class TestFeasibleSets:
    def test_brute_force_center_scan(self, empty_gcm, spec20):
        pools = feasible_sets([(250.0, 250.0)], spec20, empty_gcm.abs_cell_valid, radius=50.0)
        centers = spec20.traversal.centers
        d = np.hypot(centers[:, 0] - 250.0, centers[:, 1] - 250.0)
        expect = np.flatnonzero(d <= 50.0) + 1
        assert len(pools) == 1
        assert np.array_equal(pools[0], expect)

    def test_zero_radius_pins_current_cell(self, empty_gcm, spec20):
        pools = feasible_sets([(237.5, 237.5)], spec20, empty_gcm.abs_cell_valid, radius=0.0)
        assert pools[0].tolist() == [flatten(spec20, 237.5, 237.5)]

    def test_union_merges_overlapping_disks(self, empty_gcm, spec20):
        pools = feasible_sets([(100.0, 100.0), (130.0, 100.0)], spec20,
                              empty_gcm.abs_cell_valid, radius=60.0)
        assert len(pools) == 2
        inst = assemble(empty_gcm, pools, [(10.0, 10.0)])
        assert inst.n_abs == 2
        assert np.array_equal(inst.u_ids, np.unique(np.concatenate(pools)))

    def test_trapped_abs_raises(self, spec20):
        valid = np.zeros(400, dtype=bool)
        valid[399] = True  # only the far corner cell is valid
        with pytest.raises(InfeasibleSetError, match="ABS 0"):
            feasible_sets([(12.5, 12.5)], spec20, valid, radius=30.0)

    def test_negative_radius_rejected(self, empty_gcm, spec20):
        with pytest.raises(ValueError):
            feasible_sets([(10.0, 10.0)], spec20, empty_gcm.abs_cell_valid, radius=-1.0)


def flatten(spec, x, y):
    return int(spec.traversal.cells_of((x, y))[0])


def tiny_two_cell_instance():
    """One ABS, one occupied grid, two candidate cells, z = (1, 0)."""
    spec = GridSpec(d1=100.0, d2=100.0, k1=2, k2=2, k1p=2, k2p=2, abs_alt=90.0)
    z = np.zeros((4, 4), dtype=bool)
    z[0, 0] = True  # cell 1 covers grid 1; cell 2 covers nothing
    gcm = synth_gcm(spec, z)
    gu = spec.ground.centers[0:1, :2]
    pools = (np.array([1, 2], dtype=np.int64),)
    return gcm, pools, gu, assemble(gcm, pools, gu)


class TestAssembleExample:
    def test_shape_and_dense_rows(self):
        _, _, _, inst = tiny_two_cell_instance()
        assert (inst.n_v, inst.n_u) == (1, 2)
        assert inst.n_rows == 1 + 1 + 2 * 1 + 1 == 5
        assert inst.n_cols == 3
        dense = inst.e.toarray()
        expect = np.array(
            [
                [0.0, 1.0, 1.0],    # total count
                [0.0, -1.0, -1.0],  # reachability of the single ABS
                [-1.0, 1.0, 0.0],   # pair (cell 1, grid 1)
                [-1.0, 0.0, 0.0],   # pair (cell 2, grid 1)
                [1.0, -1.0, 0.0],   # cover row for grid 1
            ]
        )
        assert np.array_equal(dense, expect)
        assert np.array_equal(inst.r, [1.0, 0.0, 0.0])
        assert np.array_equal(inst.l, [1.0, -1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(inst.d, inst.l / 3.0)

    def test_enumerated_optimum_is_one(self):
        gcm, _, gu, inst = tiny_two_cell_instance()
        vals = {c: evaluate_placement(gcm, [c], gu) for c in (1, 2)}
        assert vals == {1: 1, 2: 0}
        best, _ = oracles.binary_optimum(inst)
        assert best == 1.0


class TestAssembleProperties:
    @pytest.mark.parametrize("seed", range(6))
    def test_dimension_formulas(self, seed):
        _, pools, _, inst = random_instance(seed, n_abs=2)
        assert inst.n_rows == 1 + inst.n_abs + inst.n_u * inst.n_v + inst.n_v
        assert inst.e.shape == (inst.n_rows, inst.n_cols)
        assert len(inst.r) == inst.n_cols
        assert len(inst.l) == inst.n_rows
        assert np.array_equal(inst.d, inst.l / inst.n_cols)
        assert np.array_equal(inst.u_ids, np.unique(np.concatenate(pools)))
        for pos, ids in zip(inst.per_abs_pos, pools):
            assert np.array_equal(inst.u_ids[pos], ids)
        expect = [inst.spec.traversal.center(int(u))[:2] for u in inst.u_ids]
        assert np.array_equal(inst.u_xy, expect)

    @pytest.mark.parametrize("seed", range(6))
    def test_pool_table_matches_positions(self, seed):
        _, _, _, inst = random_instance(seed, n_abs=1 + seed % 3, shared_pools=bool(seed & 1))
        assert inst.in_pool.shape == (inst.n_u, inst.n_abs)
        for i, pos in enumerate(inst.per_abs_pos):
            assert np.array_equal(np.flatnonzero(inst.in_pool[:, i]), np.sort(pos))

    def test_multiplicity_weights(self, spec20, empty_gcm):
        gus = np.array([[10.0, 10.0], [11.0, 11.0], [12.0, 10.5], [400.0, 400.0]])
        pools = feasible_sets([(250.0, 250.0)], spec20, empty_gcm.abs_cell_valid, radius=1000.0)
        inst = assemble(empty_gcm, pools, gus)
        assert sorted(inst.weights.tolist()) == [1, 3]
        assert inst.r[: inst.n_v].sum() == 4.0
        plain = assemble(empty_gcm, pools, gus, weight_multiplicity=False)
        assert plain.weights.tolist() == [1, 1]

    def test_encoding_built_on_first_access_only(self):
        _, _, _, inst = random_instance(4, n_abs=2)
        assert not {"e", "r", "l", "d"} & set(vars(inst))
        e = inst.e
        assert inst.e is e
        assert {"e"} == {"e", "r", "l", "d"} & set(vars(inst))

    def test_encoding_entries(self):
        # Rebuild E entry by entry from the row layout in the module notes.
        for seed in range(6):
            _, _, _, inst = random_instance(seed, n_abs=1 + seed % 3, shared_pools=bool(seed & 1))
            n_v, n_u = inst.n_v, inst.n_u
            want = np.zeros((inst.n_rows, inst.n_cols))
            want[0, n_v:] = 1.0
            for n, pos in enumerate(inst.per_abs_pos):
                want[1 + n, n_v + pos] = -1.0
            for t in range(n_u):
                for k in range(n_v):
                    row = 1 + inst.n_abs + t * n_v + k
                    want[row, k] = -1.0
                    want[row, n_v + t] = float(inst.z_sub[t, k])
                    cover = 1 + inst.n_abs + n_u * n_v + k
                    want[cover, k] = 1.0
                    want[cover, n_v + t] = -float(inst.z_sub[t, k])
            assert np.array_equal(inst.e.toarray(), want)
            assert inst.e.nnz == np.count_nonzero(want)

    def test_rhs_head_layout(self):
        _, _, _, inst = random_instance(3, n_abs=3)
        assert inst.l[0] == 3.0
        assert np.array_equal(inst.l[1:4], [-1.0, -1.0, -1.0])
        assert not inst.l[4:].any()

    def test_positions_of_cells(self):
        _, _, _, inst = random_instance(11)
        cells = inst.u_ids[[0, len(inst.u_ids) - 1]]
        pos = inst.positions_of_cells(cells)
        assert np.array_equal(inst.u_ids[pos], cells)
        outside = int(inst.u_ids.max()) + 1
        with pytest.raises(ValueError):
            inst.positions_of_cells([outside])


class TestEncodingSoundness:
    @pytest.mark.parametrize("seed", range(8))
    def test_objective_equals_coverage_on_feasible_points(self, seed):
        gcm, _, gu, inst = random_instance(
            seed, n_abs=2, n_cells=6, n_grids=4, n_gus=5, shared_pools=True
        )
        e = inst.e.toarray()
        checked = 0
        for bits in range(2 ** inst.n_cols):
            x = np.array([(bits >> t) & 1 for t in range(inst.n_cols)], dtype=float)
            if not np.all(e @ x <= inst.l + 1e-9):
                continue
            cells = inst.u_ids[np.flatnonzero(x[inst.n_v:] > 0.5)]
            got = evaluate_placement(gcm, cells, gu)
            assert float(inst.r @ x) == float(got)
            checked += 1
        assert checked > 1

    @pytest.mark.parametrize("seed", range(8))
    def test_binary_optimum_matches_exhaustive_placements(self, seed):
        _, _, _, inst = random_instance(
            seed + 100, n_abs=2, n_cells=6, n_grids=4, n_gus=5, shared_pools=True
        )
        best, _ = oracles.binary_optimum(inst)
        pools_pos = [np.arange(inst.n_u), np.arange(inst.n_u)]
        expect = oracles.enumerate_optimum(inst.z_sub, inst.weights, pools_pos)
        assert best == float(expect)

    @pytest.mark.parametrize("seed", range(5))
    def test_lp_upper_bounds_ilp(self, seed):
        _, _, _, inst = random_instance(seed + 40, n_abs=2, n_cells=6, n_grids=4,
                                         n_gus=5, shared_pools=True)
        lp_val, _ = oracles.lp_optimum(inst)
        ilp_val, _ = oracles.binary_optimum(inst)
        assert lp_val >= ilp_val - 1e-9


class TestEvaluate:
    def test_matches_instance_coverage(self):
        gcm, _, gu, inst = random_instance(9, n_abs=2)
        cells = [int(inst.u_ids[0]), int(inst.u_ids[-1])]
        pos = inst.positions_of_cells(cells)
        assert covered_weight(inst.z_sub, pos, inst.weights) == evaluate_placement(gcm, cells, gu)

    def test_empty_selection_covers_nothing(self, empty_gcm):
        assert evaluate_placement(empty_gcm, [], [[10.0, 10.0]]) == 0

    def test_column_selection_after_rows(self):
        z = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=bool)
        w = np.array([5, 7, 11])
        assert covered_weight(z, [0, 2], w) == 16
        assert covered_weight(z, [0, 2], w[[2, 1]], cols=[2, 1]) == 11
        assert covered_weight(z, [], w) == 0

    def test_row_sets_scored_at_once(self):
        gcm, _, _, inst = random_instance(21, n_abs=3, n_cells=8)
        sets = np.random.default_rng(0).integers(0, inst.n_u, size=(40, 3))
        got = covered_weight(inst.z_sub, sets, inst.weights)
        assert got.shape == (40,)
        assert got.tolist() == [covered_weight(inst.z_sub, s, inst.weights) for s in sets]
        cols = [2, 0]
        got = covered_weight(gcm.z, sets, inst.weights[:2], cols=cols)
        assert got.tolist() == [covered_weight(gcm.z, s, inst.weights[:2], cols) for s in sets]

    def test_multiplicity_toggle(self):
        gcm, _, gu, inst = random_instance(13, n_gus=9)
        cells = [int(c) for c in inst.u_ids[:2]]
        with_m = evaluate_placement(gcm, cells, gu, weight_multiplicity=True)
        without = evaluate_placement(gcm, cells, gu, weight_multiplicity=False)
        assert with_m >= without


class TestPlacement:
    def test_distinctness_enforced(self):
        with pytest.raises(ValueError):
            make_placement([3, 3], 0)

    def test_cells_and_value_are_plain_ints(self):
        p = make_placement(np.array([1, 400]), np.int64(7))
        assert p.abs_cells == (1, 400) and p.coverage_value == 7
        assert all(type(c) is int for c in (*p.abs_cells, p.coverage_value))
