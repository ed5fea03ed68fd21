"""Tests for the randomized greedy solver, its dual bounds, and the repair."""

import itertools
import math

import numpy as np
import pytest

from absmove import (
    GridSpec,
    InfeasibleSetError,
    assemble,
    build_gcm,
    decode_and_repair,
    dual_objective,
    evaluate_placement,
    feasible_sets,
    gap_bound,
    generate_environment,
    merge_config,
    parse_trial_config,
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


def tight_pool_instance(seed):
    """N = 2..5 ABSs over 9 cells with pools of 1-3 cells, random coverage,
    and a random selection of at most N cells; distinct cells may not exist."""
    rng = np.random.default_rng(seed)
    spec = GridSpec(d1=100.0, d2=100.0, k1=3, k2=3, k1p=3, k2p=3, abs_alt=90.0)
    gcm = synth_gcm(spec, rng.random((9, 9)) < 0.35)
    n = int(rng.integers(2, 6))
    pools = tuple(np.sort(rng.choice(9, size=int(rng.integers(1, 4)), replace=False) + 1)
                  for _ in range(n))
    gu = spec.ground.centers[rng.integers(0, 9, size=6), :2]
    inst = assemble(gcm, pools, gu)
    picked = rng.choice(inst.u_ids, size=int(rng.integers(0, min(n, inst.n_u) + 1)), replace=False)
    return gcm, pools, gu, inst, set(picked.tolist())


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


def held_pool_instance(seed):
    """N = 2..5 ABSs over 9 cells, N - 1 of them selected: ABS j < N - 1
    reaches selected cell held[j], up to two unselected cells and some of
    held[:j], and ABS N - 1 reaches only selected cells. The matching seats
    held[j] on ABS j, so ABS N - 1 goes to the held-pool fallback."""
    rng = np.random.default_rng(seed)
    spec = GridSpec(d1=100.0, d2=100.0, k1=3, k2=3, k1p=3, k2p=3, abs_alt=90.0)
    gcm = synth_gcm(spec, rng.random((9, 9)) < 0.35)
    n = int(rng.integers(2, 6))
    cells = rng.permutation(9) + 1
    held, rest = cells[:n - 1], cells[n - 1:]
    pools = [np.unique(np.concatenate([
        held[j:j + 1],
        rng.choice(rest, size=int(rng.integers(0, 3)), replace=False),
        rng.choice(held[:j], size=int(rng.integers(0, j + 1)), replace=False),
    ])) for j in range(n - 1)]
    pools.append(np.unique(rng.choice(held, size=int(rng.integers(1, n)), replace=False)))
    gu = spec.ground.centers[rng.integers(0, 9, size=6), :2]
    return gcm, pools, gu, assemble(gcm, tuple(pools), gu), sorted(held.tolist())


def assignable(cells, pools, abss):
    """Whether the cells can go to distinct ABSs among ``abss``, each cell
    in its ABS's pool."""
    return any(all(c in pools[j] for c, j in zip(cells, chosen))
               for chosen in itertools.permutations(abss, len(cells)))


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

    def test_held_pool_routes_a_free_cell_past_idle_abs(self):
        # ABS 0 keeps the selected cell 1, the whole pool of ABS 1. Free
        # cell 2 reaches only ABS 2, which holds no cell yet and stays out of
        # the path; free cell 3 moves ABS 0 on and frees cell 1 for ABS 1.
        spec = GridSpec(d1=100.0, d2=100.0, k1=2, k2=2, k1p=2, k2p=2, abs_alt=90.0)
        gcm = synth_gcm(spec, np.zeros((4, 4), dtype=bool))
        pools = tuple(np.array(p, dtype=np.int64) for p in ([1, 3], [1], [2, 3]))
        inst = assemble(gcm, pools, spec.ground.centers[:1, :2])
        placement = decode_and_repair(x_for_cells(inst, [1]), inst)
        assert placement.abs_cells == (3, 1, 2)

    @pytest.mark.parametrize("block", range(8))
    def test_tight_pools_against_enumeration(self, block):
        # Of these 800 instances 51 have no distinct assignment and 86 more
        # reach the held-pool fallback, 83 of them with N >= 3.
        for seed in range(100 * block, 100 * block + 100):
            gcm, pools, gu, inst, picked = tight_pool_instance(seed)
            pools = [set(p.tolist()) for p in pools]
            feasible = any(len(set(c)) == len(c) for c in itertools.product(*pools))
            if not feasible:
                with pytest.raises(InfeasibleSetError):
                    decode_and_repair(x_for_cells(inst, sorted(picked)), inst)
                continue
            placement = decode_and_repair(x_for_cells(inst, sorted(picked)), inst)
            cells = placement.abs_cells
            assert all(c in pool for c, pool in zip(cells, pools))
            assert placement.coverage_value == evaluate_placement(gcm, cells, gu)
            # Every selected cell a matching can keep is kept.
            options = [[c for c in pool if c in picked] + [None] for pool in pools]
            matched = max(
                len(kept) for kept in (
                    [c for c in choice if c is not None]
                    for choice in itertools.product(*options)
                ) if len(set(kept)) == len(kept)
            )
            assert len(picked & set(cells)) == matched

    def test_held_pool_fallback_takes_the_best_routable_cell(self):
        # The fallback routes one free cell and keeps every held one, so its
        # value is the best over the free cells whose addition still admits
        # a distinct assignment; with none, no such assignment exists.
        worse_in_id_order = 0
        for seed in range(400):
            gcm, pools, gu, inst, held = held_pool_instance(seed)
            pools = [set(p.tolist()) for p in pools]
            routable = [c for c in sorted(set().union(*pools) - set(held))
                        if assignable(held + [c], pools, range(len(pools)))]
            x = x_for_cells(inst, held)
            if not routable:
                with pytest.raises(InfeasibleSetError):
                    decode_and_repair(x, inst)
                continue
            values = [evaluate_placement(gcm, held + [c], gu) for c in routable]
            assert decode_and_repair(x, inst).coverage_value == max(values), f"seed {seed}"
            worse_in_id_order += values[0] < max(values)
        assert worse_in_id_order >= 20


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

    def test_decodes_each_restart_once_in_order(self, monkeypatch):
        # The passes run together, but each restart's x is decoded by its
        # own call through the module global, in restart order.
        _, _, _, inst = random_instance(14, n_cells=10, n_gus=9, shared_pools=True)
        real = online_solver.decode_and_repair
        seen = []

        def spy(x, instance):
            seen.append(np.array(x, copy=True))
            return real(x, instance)

        monkeypatch.setattr(online_solver, "decode_and_repair", spy)
        rep = solve(inst, duplication=5, seed=2)
        assert len(seen) == 5
        for k, x in enumerate(seen):
            order = np.random.default_rng([2, k]).permutation(inst.n_cols)
            assert np.array_equal(x, oracles.integer_csc_walk(inst, order)[0]), f"restart {k}"
        assert rep.restart_values == tuple(real(x, inst).coverage_value for x in seen)


def assert_matches_walk(inst, orders, iterates=True):
    """Run the passes on fixed orders, one per row, in one call, and compare
    each row with its own column walk: x always, and every iterate y of the
    dual trace when asked. Returns the x of every row."""
    orders = np.atleast_2d(orders)
    xs = online_solver._greedy_pass(inst, orders)
    assert xs.shape == orders.shape
    for r, (order, x) in enumerate(zip(orders, xs)):
        want_x, want_y = oracles.integer_csc_walk(inst, order)
        assert np.array_equal(x, want_x), f"row {r}"
        if not iterates:
            continue
        seen = []

        def record(instance, y):
            seen.append(np.array(y, copy=True))
            return 0.0

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(online_solver, "dual_objective", record)
            online_solver._dual_trace(inst, order, x)
        alpha = 1.0 / math.sqrt(inst.n_cols)
        assert len(seen) == len(want_y) == inst.n_cols
        for q, (got, want) in enumerate(zip(seen, want_y)):
            assert np.array_equal(got, want * alpha / inst.n_cols), f"row {r}, iterate {q}"
    return xs


class TestGreedyPass:
    """The pass prices from z_sub and the pools; the reference walks E."""

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
            assert_matches_walk(inst, [np.random.default_rng([seed, k]).permutation(inst.n_cols)
                                       for k in range(3)])

    @pytest.mark.parametrize("seed", range(6))
    def test_solve_trace_is_the_walk_on_each_restart_order(self, seed):
        _, _, _, inst = random_instance(seed + 40, n_abs=1 + seed % 3, n_cells=8,
                                         n_grids=5, n_gus=7, shared_pools=bool(seed & 1))
        rep = solve(inst, duplication=3, seed=seed, track_dual=True)
        alpha = 1.0 / math.sqrt(inst.n_cols)
        for k, trace in enumerate(rep.dual_trace):
            order = np.random.default_rng([seed, k]).permutation(inst.n_cols)
            _, want_y = oracles.integer_csc_walk(inst, order)
            want = tuple(dual_objective(inst, y * alpha / inst.n_cols) for y in want_y)
            assert trace == want, f"restart {k}"


def priced_windows(inst, order, x, width):
    """(start, stop, take position or None) of every window the event pass
    prices on this order, given the pass's x."""
    takes = iter([p for p, j in enumerate(order) if j >= inst.n_v and x[j]])
    nxt, s, out = next(takes, None), 0, []
    while s < inst.n_cols:
        stop = min(s + width, inst.n_cols)
        if nxt is not None and nxt < stop:
            out.append((s, stop, nxt))
            s, nxt = nxt + 1, next(takes, None)
        else:
            out.append((s, stop, None))
            s = stop
    return out


def crosses_window(inst, order, x, width):
    """Whether some segment between takes runs past one window."""
    return any(stop - s == width and take is None
               for s, stop, take in priced_windows(inst, order, x, width)[:-1])


@pytest.fixture(scope="module")
def family_scene():
    """The acceptance family's scene at seed 0: 500 m, 20x20 grids, 75 blocks."""
    cfg = merge_config({
        "area": {"d1": 500.0, "d2": 500.0},
        "grid": {"k1": 20, "k2": 20, "k1p": 20, "k2p": 20},
        "environment": {"num_blocks": 75},
        "channel": {"tx_power_dbm": -7.0},
        "fleet": {"n_abs": 2, "n_gus": 20},
    })
    tc = parse_trial_config(cfg, seed=0)
    env = generate_environment(
        tc.spec.d1, tc.spec.d2, tc.env.num_blocks, tc.env.block_width,
        (tc.env.height_low, tc.env.height_high), tc.env_seed,
    )
    return tc, build_gcm(env, tc.channel, tc.spec)


class TestEventPass:
    """The event pass against the column walk beyond one lookahead window."""

    def test_family_scene_snapshots(self, family_scene):
        tc, gcm = family_scene
        spec = gcm.spec
        valid = np.flatnonzero(gcm.abs_cell_valid) + 1
        width = online_solver._LOOKAHEAD
        crossed = 0
        for snap in range(6):
            rng = np.random.default_rng([7, snap])
            anchors = rng.choice(valid, size=tc.n_abs, replace=False)
            pools = feasible_sets(spec.traversal.centers[anchors - 1, :2], spec,
                                  gcm.abs_cell_valid, tc.movement_radius)
            gu = rng.uniform(0.0, [spec.d1, spec.d2], size=(tc.n_gus, 2))
            inst = assemble(gcm, pools, gu)
            assert inst.n_cols > 2 * width
            orders = np.stack([rng.permutation(inst.n_cols) for _ in range(4)])
            xs = assert_matches_walk(inst, orders)
            crossed += sum(crosses_window(inst, o, x, width) for o, x in zip(orders, xs))
        assert crossed >= 5

    @pytest.mark.parametrize("lookahead", [1, 5, 32, None])
    def test_fuzz_up_to_a_hundred_cells(self, lookahead):
        crossed = 0
        with pytest.MonkeyPatch.context() as mp:
            if lookahead is not None:
                mp.setattr(online_solver, "_LOOKAHEAD", lookahead)
            width = online_solver._LOOKAHEAD
            for seed in range(24):
                n_abs = 1 + seed % 4
                _, _, _, inst = random_instance(
                    seed + 300, n_abs=n_abs, n_cells=n_abs + 1 + 4 * seed,
                    n_grids=4 + 3 * seed, n_gus=5 + 4 * seed,
                    density=0.02 + 0.04 * (seed % 6), shared_pools=bool(seed & 1),
                )
                rng = np.random.default_rng([seed, 1])
                orders = np.stack([rng.permutation(inst.n_cols) for _ in range(1 + seed % 3)])
                xs = assert_matches_walk(inst, orders, iterates=seed % 3 == 0)
                crossed += sum(crosses_window(inst, o, x, width) for o, x in zip(orders, xs))
        # At the full window these instances fit in one or two windows; the
        # family scene test crosses it.
        assert lookahead is None or crossed >= 3

    @staticmethod
    def mid_instance(n_abs=3):
        return random_instance(11, n_abs=n_abs, n_cells=70, n_grids=40, n_gus=60,
                               density=0.08)[3]

    @pytest.mark.parametrize("lookahead", [4, None])
    @pytest.mark.parametrize("c_first", [True, False])
    def test_one_kind_of_column_first(self, lookahead, c_first):
        inst = self.mid_instance()
        rng = np.random.default_rng(3)
        c_cols = rng.permutation(inst.n_v)
        a_cols = inst.n_v + rng.permutation(inst.n_u)
        order = np.concatenate([c_cols, a_cols] if c_first else [a_cols, c_cols])
        with pytest.MonkeyPatch.context() as mp:
            if lookahead is not None:
                mp.setattr(online_solver, "_LOOKAHEAD", lookahead)
            assert_matches_walk(inst, order)

    @staticmethod
    def one_cell_instance():
        """One ABS with one cell over 141 occupied grids, a third of which
        it covers: its single a-column is taken wherever it comes but first.
        n_cols - 1 is no multiple of the windows tested, so where the take
        falls changes how many windows a pass needs."""
        spec = GridSpec(d1=100.0, d2=100.0, k1=4, k2=4, k1p=12, k2p=12, abs_alt=90.0)
        z = np.zeros((16, 144), dtype=bool)
        z[5, ::3] = True
        gcm = synth_gcm(spec, z)
        gu = spec.ground.centers[:141, :2]
        return assemble(gcm, (np.array([6], dtype=np.int64),), gu)

    @staticmethod
    def a_column_at(inst, p):
        """The order of C columns with the a-column put at position p."""
        return np.insert(np.arange(inst.n_v), p, inst.n_v)

    def test_pass_that_takes_nothing(self):
        # Visited first, the a-column's price is 0, so it is left out, and
        # every later column is a C column.
        inst = self.one_cell_instance()
        assert inst.n_v > online_solver._LOOKAHEAD
        x = assert_matches_walk(inst, self.a_column_at(inst, 0))[0]
        assert x[inst.n_v:].sum() == 0 and x[:inst.n_v].all()

    @pytest.mark.parametrize("lookahead", [5, 32, None])
    def test_passes_leave_in_different_iterations(self, lookahead):
        # One batch holds a pass that takes nothing, one that takes its last
        # column, one whose take falls in the last, partial window, and two
        # more; they need different numbers of windows.
        inst = self.one_cell_instance()
        with pytest.MonkeyPatch.context() as mp:
            if lookahead is not None:
                mp.setattr(online_solver, "_LOOKAHEAD", lookahead)
            width = online_solver._LOOKAHEAD
            last_start = (inst.n_cols - 1) // width * width
            assert inst.n_cols - last_start < width
            spots = [0, inst.n_cols - 1, (last_start + inst.n_cols - 1) // 2, 3, width]
            orders = np.stack([self.a_column_at(inst, p) for p in spots])
            xs = assert_matches_walk(inst, orders)
        taken = xs[:, inst.n_v]
        assert taken.tolist() == [0, 1, 1, 1, 1]
        windows = [priced_windows(inst, o, x, width) for o, x in zip(orders, xs)]
        take_stop = [next((stop for _, stop, take in w if take is not None), None)
                     for w in windows]
        assert take_stop[1] == take_stop[2] == inst.n_cols
        assert len({len(w) for w in windows}) > 1

    @pytest.mark.parametrize("lookahead", [1, 5, 32, None])
    @pytest.mark.parametrize("n_runs", [1, 2, 5, 10])
    def test_batch_rows_match_separate_walks(self, n_runs, lookahead):
        spread = 0
        with pytest.MonkeyPatch.context() as mp:
            if lookahead is not None:
                mp.setattr(online_solver, "_LOOKAHEAD", lookahead)
            width = online_solver._LOOKAHEAD
            for seed in range(4):
                n_abs = 1 + seed % 3
                _, _, _, inst = random_instance(
                    seed + 500, n_abs=n_abs, n_cells=n_abs + 20 + 10 * seed,
                    n_grids=10 + 8 * seed, n_gus=20 + 10 * seed, density=0.1,
                    shared_pools=bool(seed & 1),
                )
                rng = np.random.default_rng([seed, 5])
                orders = np.stack([rng.permutation(inst.n_cols) for _ in range(n_runs)])
                xs = assert_matches_walk(inst, orders, iterates=False)
                spread += len({len(priced_windows(inst, o, x, width))
                               for o, x in zip(orders, xs)}) > 1
        # A one-column window ends every pass after n_cols iterations.
        assert n_runs == 1 or width == 1 or spread >= 2

    @pytest.mark.parametrize("lookahead", [3, None])
    def test_single_abs(self, lookahead):
        inst = self.mid_instance(n_abs=1)
        with pytest.MonkeyPatch.context() as mp:
            if lookahead is not None:
                mp.setattr(online_solver, "_LOOKAHEAD", lookahead)
            for seed in range(4):
                assert_matches_walk(inst, np.random.default_rng([seed, 2]).permutation(inst.n_cols))

    @pytest.mark.parametrize("lookahead", [16, None])
    def test_take_in_last_partial_window(self, lookahead):
        inst = self.mid_instance()
        with pytest.MonkeyPatch.context() as mp:
            if lookahead is not None:
                mp.setattr(online_solver, "_LOOKAHEAD", lookahead)
            width = online_solver._LOOKAHEAD
            for seed in range(200):
                order = np.random.default_rng([seed, 3]).permutation(inst.n_cols)
                x, _ = oracles.integer_csc_walk(inst, order)
                if any(take is not None and stop == inst.n_cols and stop - s < width
                       for s, stop, take in priced_windows(inst, order, x, width)):
                    break
            else:
                pytest.fail("no order put a take in the last, partial window")
            assert_matches_walk(inst, order)

    def test_last_column_taken(self):
        inst = self.mid_instance()
        for seed in range(200):
            order = np.random.default_rng([seed, 4]).permutation(inst.n_cols)
            x, _ = oracles.integer_csc_walk(inst, order)
            if order[-1] >= inst.n_v and x[order[-1]]:
                break
        else:
            pytest.fail("no order took its last column")
        assert_matches_walk(inst, order)
