"""Environment generation, line of sight, and exclusion-zone tests."""

import math

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
import absmove.env as env_module
from absmove.env import _azimuth_pairs, _blocked_by_pairs, _box_pairs

from oracles import sampled_blocked, sampled_blocked_robust, unpruned_azimuth_pairs


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


# (p, q, blocked) links against one_block_env(): box [40, 60]^2 x [0, 50].
GRAZES = [
    ((0.0, 50.0, 50.0), (100.0, 50.0, 50.0), False),  # along the roof face
    ((40.0, 0.0, 10.0), (40.0, 100.0, 10.0), False),  # along a side face
    ((0.0, 40.0, 50.0), (100.0, 40.0, 50.0), False),  # along a roof edge
    ((0.0, 80.0, 10.0), (80.0, 0.0, 10.0), False),  # touches a vertical edge
    ((20.0, 20.0, 30.0), (60.0, 60.0, 70.0), False),  # touches a roof corner
    ((0.0, 0.0, 90.0), (40.0, 40.0, 50.0), False),  # ends on a roof corner
    ((0.0, 0.0, 90.0), (80.0, 80.0, 10.0), True),  # in through a roof corner
    ((0.0, 100.0, 10.0), (100.0, 0.0, 10.0), True),  # across the footprint
    ((0.0, 50.0, 49.999), (100.0, 50.0, 49.999), True),  # just under the roof
]
AXIS_PARALLEL = [
    ((50.0, 0.0, 25.0), (50.0, 100.0, 25.0), True),
    ((50.0, 0.0, 25.0), (50.0, 30.0, 25.0), False),  # stops short
    ((50.0, 0.0, 25.0), (50.0, 100.0, 60.0), True),  # constant x only
    ((40.0, 0.0, 25.0), (40.0, 100.0, 25.0), False),  # in a face plane
    ((60.0, 0.0, 25.0), (60.0, 100.0, 25.0), False),
    ((0.0, 0.0, 25.0), (100.0, 0.0, 25.0), False),  # beside the block
    ((0.0, 50.0, 49.0), (100.0, 50.0, 49.0), True),
    ((0.0, 50.0, 60.0), (100.0, 50.0, 60.0), False),  # over the roof
]
VERTICAL = [
    ((50.0, 50.0, 90.0), (50.0, 50.0, 1.0), True),  # through the roof
    ((40.0, 50.0, 90.0), (40.0, 50.0, 1.0), False),  # down a face
    ((40.0, 40.0, 90.0), (40.0, 40.0, 1.0), False),  # down an edge
    ((20.0, 20.0, 90.0), (20.0, 20.0, 1.0), False),  # beside the block
]


def both_paths(env: Environment, p, qs) -> np.ndarray:
    """Blocked mask from the dense and from the azimuth candidates, which
    must agree; the size switch in los_blocked_mask is bypassed. ``p`` is
    one transmitter (3,), which is also passed once per link (n, 3), or
    one per link."""
    p = np.asarray(p, dtype=float)
    qs = np.atleast_2d(np.asarray(qs, dtype=float))
    mins, maxs = env._box_bounds
    transmitters = [p] if p.ndim == 2 else [p, np.tile(p, (len(qs), 1))]
    masks = [_blocked_by_pairs(tx, qs, mins, maxs, *gather(tx, qs, mins, maxs))
             for tx in transmitters for gather in (_box_pairs, _azimuth_pairs)]
    for mask in masks[1:]:
        assert np.array_equal(masks[0], mask), np.flatnonzero(masks[0] != mask)
    return masks[0]


class TestCandidatePaths:
    """The azimuth gather and the dense bounding-box candidates give the same
    exact verdicts, including on every boundary case of the gather."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_scenes_agree_with_oracle(self, seed):
        rng = np.random.default_rng(seed)
        env = generate_environment(400.0, 400.0, 40, 25.0, (20.0, 100.0), seed=seed)
        block = env.blocks[0]
        corner = np.add(block.center_xy, block.half_width)
        edge = np.add(block.center_xy, (block.half_width, 0.0))
        for xy in (rng.uniform(0, 400, 2), corner, edge, block.center_xy):
            p = np.array([*xy, rng.uniform(40.0, 120.0)])
            qs = np.column_stack([rng.uniform(0, 400, (300, 2)), np.full(300, 1.5)])
            qs[:10, 0] = p[0]  # axis-parallel
            qs[10:20, 1] = p[1]
            qs[20, :2] = p[:2]  # vertical
            mask = both_paths(env, p, qs)
            assert np.array_equal(mask, los_blocked_mask(env, p, qs))
            for i in range(0, 300, 15):
                verdict = sampled_blocked_robust(env, p, qs[i])
                if verdict is not None:
                    assert mask[i] == verdict, (p, qs[i])

    @pytest.mark.parametrize("p, q, blocked", GRAZES)
    def test_face_edge_and_corner_grazes(self, p, q, blocked):
        env = one_block_env()  # box [40, 60] x [40, 60] x [0, 50]
        assert both_paths(env, p, [q]).tolist() == [blocked]
        assert both_paths(env, q, [p]).tolist() == [blocked]

    @pytest.mark.parametrize("xy", [(50.0, 50.0), (40.0, 50.0), (60.0, 60.0), (40.0, 40.0)])
    def test_abs_above_block(self, xy):
        # p over the footprint, on an edge, or on a corner of it.
        env = one_block_env(height=50.0)
        p = (*xy, 90.0)
        qs = np.array([
            (*xy, 1.0),  # straight down
            (50.0, 50.0, 1.0),  # into the footprint centre
            (45.0, 55.0, 1.0),
            (100.0, 50.0, 1.0),  # leaves over the roof
            (0.0, 0.0, 1.0),
            (-50.0, 50.0, 1.0),
        ])
        inside = (40.0 < xy[0] < 60.0) and (40.0 < xy[1] < 60.0)
        mask = both_paths(env, p, qs)
        assert mask.tolist()[:3] == [inside, True, True]
        assert not mask[3:].any()
        for q, blocked in zip(qs, mask):
            verdict = sampled_blocked_robust(env, p, q)
            assert verdict is None or verdict == blocked, q

    @pytest.mark.parametrize("p, q, blocked", AXIS_PARALLEL)
    def test_axis_parallel_links(self, p, q, blocked):
        env = one_block_env()
        assert both_paths(env, p, [q]).tolist() == [blocked]
        assert both_paths(env, q, [p]).tolist() == [blocked]

    def test_vertical_links(self):
        env = one_block_env(height=50.0)
        got = [both_paths(env, p, [q])[0] for p, q, _ in VERTICAL]
        assert got == [blocked for _, _, blocked in VERTICAL]

    def test_blocks_across_the_seam(self):
        # Seen from p, these blocks straddle the +-pi azimuth (the -x ray),
        # or touch it from one side.
        blocks = (
            BuildingBlock((20.0, 50.0), 10.0, 60.0),  # straddles the seam
            BuildingBlock((-20.0, 35.0), 5.0, 60.0),  # just below it
            BuildingBlock((-20.0, 65.0), 5.0, 60.0),  # just above it
            BuildingBlock((50.0, 80.0), 5.0, 60.0),  # away from it
        )
        env = Environment(d1=200.0, d2=200.0, blocks=blocks, seed=0)
        p = (50.0, 50.0, 90.0)
        ys = np.linspace(0.0, 100.0, 201)
        qs = np.column_stack([np.full(ys.size, -40.0), ys, np.full(ys.size, 1.0)])
        mask = both_paths(env, p, qs)
        assert mask[ys == 50.0].tolist() == [True]  # through the straddling block
        for q, blocked in zip(qs[::10], mask[::10]):
            verdict = sampled_blocked_robust(env, p, q)
            assert verdict is None or verdict == blocked, q
        # A seam-touching footprint: its bottom edge lies on p's y.
        touch = Environment(d1=200.0, d2=200.0, seed=0,
                            blocks=(BuildingBlock((20.0, 60.0), 10.0, 60.0),))
        got = both_paths(touch, p, [(-40.0, 50.0, 1.0), (-40.0, 50.5, 1.0),
                                    (-40.0, 49.5, 1.0)])
        assert got.tolist() == [False, True, False]

    @pytest.mark.parametrize("seed", range(6))
    def test_reach_prune_keeps_every_pair(self, seed):
        # Calls of several transmitters: away from blocks, over a footprint
        # (every azimuth), on its corner, and off one face by 10 m. Each has
        # a link of zero reach (straight down) and short or long links; the
        # face transmitter's longest link ends on that face, so its reach is
        # exactly the footprint's distance.
        rng = np.random.default_rng(seed)
        env = generate_environment(400.0, 400.0, 40, 25.0, (20.0, 100.0), seed=seed)
        mins, maxs = env._box_bounds
        block = env.blocks[0]
        tops = [rng.uniform(0, 400, 2), np.asarray(block.center_xy),
                np.add(block.center_xy, block.half_width)]
        receivers = []
        for xy in tops:
            spread = rng.choice([2.0, 20.0, 60.0, 400.0])
            receivers.append(xy + rng.uniform(-spread, spread, (int(rng.integers(2, 30)), 2)))
        face = np.array([block.center_xy[0] - block.half_width, block.center_xy[1]])
        tops.append(face - (10.0, 0.0))
        receivers.append(np.vstack([face, tops[-1] + rng.uniform(-5.0, 5.0, (8, 2))]))
        ps, qs = [], []
        for xy, q in zip(tops, receivers):
            q = np.vstack([xy, q])
            ps.append(np.tile((*xy, 90.0), (len(q), 1)))
            qs.append(np.column_stack([q, np.full(len(q), 1.5)]))

        def pairs(gather, p, q):
            return sorted(zip(*(a.tolist() for a in gather(p, q, mins, maxs))))

        # Each transmitter alone, as (3,) and as one row per link, then all
        # of them in one call.
        calls = [(p[0], q) for p, q in zip(ps, qs)] + list(zip(ps, qs))
        calls.append((np.concatenate(ps), np.concatenate(qs)))
        for p, q in calls:
            assert pairs(_azimuth_pairs, p, q) == pairs(unpruned_azimuth_pairs, p, q)

    def test_links_ending_at_the_nearest_distance(self):
        env = one_block_env(height=50.0)
        # Nearest footprint point is on a face, then at a corner.
        for p, q_at, q_past in (
            ((0.0, 50.0, 90.0), (40.0, 50.0, 1.0), (40.001, 50.0, 1.0)),
            ((0.0, 0.0, 90.0), (40.0, 40.0, 1.0), (40.001, 40.001, 1.0)),
        ):
            assert both_paths(env, p, [q_at, q_past]).tolist() == [False, True]
            short = np.subtract(q_at, (1e-9, 0.0, 0.0))
            assert both_paths(env, p, [short]).tolist() == [False]


def one_call_per_transmitter(env: Environment, ps, qs) -> np.ndarray:
    """Blocked mask of links with one transmitter each, from one
    los_blocked_mask call per distinct transmitter."""
    out = np.zeros(len(qs), dtype=bool)
    for tx in np.unique(ps, axis=0):
        sel = (ps == tx).all(axis=1)
        out[sel] = los_blocked_mask(env, tx, qs[sel])
    return out


class TestPerLinkTransmitters:
    """One transmitter per link, shape (n, 3), gives the verdicts of one call
    per transmitter, through the dense candidates and the azimuth gather,
    with each transmitter's links in one run or interleaved."""

    @pytest.fixture(params=["dense", "azimuth"])
    def gather(self, request, monkeypatch):
        monkeypatch.setattr(env_module, "_DENSE_PAIRS", 1 << 62 if request.param == "dense" else 0)

    @staticmethod
    def check(env, ps, qs, rng=None) -> np.ndarray:
        ps, qs = np.asarray(ps, dtype=float), np.asarray(qs, dtype=float)
        want = one_call_per_transmitter(env, ps, qs)
        assert np.array_equal(los_blocked_mask(env, ps, qs), want)
        assert np.array_equal(both_paths(env, ps, qs), want)
        # Shuffled, most links start a run of their own.
        shuffle = np.random.default_rng(rng).permutation(len(qs))
        assert np.array_equal(los_blocked_mask(env, ps[shuffle], qs[shuffle]), want[shuffle])
        return want

    @pytest.mark.parametrize("seed", range(4))
    def test_random_scenes(self, gather, seed):
        rng = np.random.default_rng(seed)
        env = generate_environment(400.0, 400.0, 40, 25.0, (20.0, 100.0), seed=seed)
        block = env.blocks[0]
        corner = np.add(block.center_xy, block.half_width)
        ps, qs = [], []
        # Away from blocks, over a footprint (every azimuth), on its corner.
        for xy in (rng.uniform(0, 400, 2), block.center_xy, corner, rng.uniform(0, 400, 2)):
            p = np.array([*xy, 90.0])
            q = np.column_stack([rng.uniform(0, 400, (80, 2)), np.full(80, 1.5)])
            q[:5, 0] = p[0]  # axis-parallel
            q[5:10, 1] = p[1]
            q[10, :2] = p[:2]  # vertical
            ps.append(np.tile(p, (80, 1)))
            qs.append(q)
        want = self.check(env, np.concatenate(ps), np.concatenate(qs), seed)
        assert want.any() and not want.all()

    def test_known_links_in_one_call(self, gather):
        # Every link its own transmitter, both ways round.
        cases = GRAZES + AXIS_PARALLEL + VERTICAL
        ps = [p for p, _, _ in cases] + [q for _, q, _ in cases]
        qs = [q for _, q, _ in cases] + [p for p, _, _ in cases]
        want = self.check(one_block_env(), ps, qs)
        assert want.tolist() == [blocked for _, _, blocked in cases] * 2

    def test_transmitters_above_a_footprint(self, gather):
        # Over the footprint, on an edge, on a corner, and beside it: the
        # block spans every azimuth of the first three.
        env = one_block_env(height=50.0)
        receivers = [(50.0, 50.0, 1.0), (45.0, 55.0, 1.0), (100.0, 50.0, 1.0),
                     (0.0, 0.0, 1.0), (-50.0, 50.0, 1.0)]
        tops = [(50.0, 50.0, 90.0), (40.0, 50.0, 90.0), (40.0, 40.0, 90.0), (30.0, 50.0, 90.0)]
        ps = [p for p in tops for _ in receivers]
        want = self.check(env, ps, receivers * len(tops))
        assert want.tolist() == [True, True, False, False, False] * len(tops)

    def test_blocks_across_the_seam(self, gather):
        # Seen from either transmitter, the first block straddles the +-pi
        # azimuth; both see each receiver at almost the same azimuth, so
        # their links interleave by azimuth, and by order too.
        blocks = (
            BuildingBlock((20.0, 50.0), 10.0, 60.0),
            BuildingBlock((-20.0, 35.0), 5.0, 60.0),
            BuildingBlock((-20.0, 65.0), 5.0, 60.0),
        )
        env = Environment(d1=200.0, d2=200.0, blocks=blocks, seed=0)
        ys = np.linspace(0.0, 100.0, 101)
        qs = np.column_stack([np.full(ys.size, -40.0), ys, np.full(ys.size, 1.0)])
        tx = np.array([[50.0, 50.0, 90.0], [50.0, 50.5, 90.0]])
        want = self.check(env, np.tile(tx, (ys.size, 1)), np.repeat(qs, 2, axis=0))
        assert want[np.repeat(ys == 50.0, 2)].all() and not want.all()

    def test_link_count_mismatch_rejected(self, city_env):
        qs = np.array([[100.0, 100.0, 1.0], [200.0, 200.0, 1.0]])
        for p in (np.tile((0.0, 0.0, 90.0), (3, 1)), np.zeros((1, 3)), np.zeros(2)):
            with pytest.raises(ValueError, match=r"p of shape \(3,\) or \(n, 3\)"):
                los_blocked_mask(city_env, p, qs)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_sightline_endpoints_rejected(self, city_env, bad):
        qs = np.array([[100.0, 100.0, 1.0], [200.0, 200.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            los_blocked_mask(city_env, (bad, 0.0, 90.0), qs)
        qs[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            los_blocked_mask(city_env, (0.0, 0.0, 90.0), qs)
        with pytest.raises(ValueError, match="finite"):
            is_los(city_env, (0.0, 0.0, 90.0), (bad, 1.0, 1.0))
        ps = np.array([[0.0, 0.0, 90.0], [0.0, bad, 90.0]])
        with pytest.raises(ValueError, match="finite"):
            los_blocked_mask(city_env, ps, qs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["x", "y", "half_width", "height"])
    def test_block_geometry_rejected(self, field, bad):
        kwargs = {"x": 0.0, "y": 0.0, "half_width": 5.0, "height": 10.0}
        kwargs[field] = bad
        with pytest.raises(ValueError, match="finite"):
            BuildingBlock((kwargs["x"], kwargs["y"]), kwargs["half_width"], kwargs["height"])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["d1", "d2"])
    def test_area_rejected(self, field, bad):
        kwargs = {"d1": 10.0, "d2": 10.0, "blocks": (), "seed": 0}
        kwargs[field] = bad
        with pytest.raises(ValueError, match="finite"):
            Environment(**kwargs)


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

