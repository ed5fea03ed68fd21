"""The sightline sampler in ``oracles`` against a scan of every sample."""

from types import SimpleNamespace

import numpy as np
import pytest

from absmove import BuildingBlock, Environment

import oracles

N_SAMPLES = 10_000
INFLATES = (0.0, 1e-6, -1e-6, 1e-4, -1e-4)


def full_scan(env, p, q, n_samples, inflate):
    """Every sample of the segment against every block the box test keeps."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if not env.blocks:
        return False
    mins = np.stack([b.min_corner for b in env.blocks]) - inflate
    maxs = np.stack([b.max_corner for b in env.blocks]) + inflate
    seg_lo = np.minimum(p, q)
    seg_hi = np.maximum(p, q)
    cand = np.flatnonzero(np.all((mins <= seg_hi) & (maxs >= seg_lo), axis=1))
    ts = np.linspace(0.0, 1.0, n_samples + 2)[1:-1]
    pts = p[None, :] + ts[:, None] * (q - p)[None, :]
    for b in cand:
        if np.all((pts > mins[b]) & (pts < maxs[b]), axis=1).any():
            return True
    return False


def _agree(env, pairs):
    for p, q in pairs:
        for inflate in INFLATES:
            got = oracles.sampled_blocked(env, p, q, N_SAMPLES, inflate=inflate)
            assert got == full_scan(env, p, q, N_SAMPLES, inflate), (p, q, inflate)


# One block with corners (90, 190, 0) and (110, 210, 40).
BLOCK = BuildingBlock((100.0, 200.0), 10.0, 40.0)
ONE_BLOCK = Environment(d1=300.0, d2=300.0, blocks=(BLOCK,), seed=0)


def test_random_pairs(city_env):
    rng = np.random.default_rng(5)
    pairs = [(rng.uniform((0, 0, 60), (500, 500, 120)), rng.uniform((0, 0, 0), (500, 500, 40)))
             for _ in range(150)]
    _agree(city_env, pairs)


@pytest.mark.parametrize("case,p,q", [
    # In the plane of the y = 190 face, and of the top face.
    ("face", (0.0, 190.0, 20.0), (300.0, 190.0, 20.0)),
    ("top", (0.0, 200.0, 40.0), (300.0, 200.0, 40.0)),
    ("face_slanted", (50.0, 190.0, 80.0), (150.0, 190.0, 1.0)),
    # Along the top edge at y = 190, and across it diagonally.
    ("edge", (0.0, 190.0, 40.0), (300.0, 190.0, 40.0)),
    ("edge_diagonal", (90.0, 150.0, 80.0), (90.0, 230.0, 0.0)),
    # Through the corner (90, 190, 40), outside the block on both sides.
    ("corner", (70.0, 210.0, 60.0), (110.0, 170.0, 20.0)),
    ("corner_steep", (90.0, 190.0, 90.0), (90.0, 190.0, 1.0)),
])
def test_grazes(case, p, q):
    _agree(ONE_BLOCK, [(p, q)])


@pytest.mark.parametrize("p,q", [
    ((0.0, 200.0, 20.0), (300.0, 200.0, 20.0)),    # along x, through the block
    ((100.0, 0.0, 20.0), (100.0, 300.0, 20.0)),    # along y
    ((100.0, 200.0, 90.0), (100.0, 200.0, 1.0)),   # straight down onto the roof
    ((100.0, 200.0, 90.0), (100.0, 200.0, 41.0)),  # straight down, stops above it
    ((0.0, 200.0, 39.9999), (300.0, 200.0, 40.0001)),  # nearly flat across the top
    ((100.0, 200.0, 90.0), (100.0 + 1e-9, 200.0, 1.0)),  # nearly vertical
    ((90.0, 200.0, 90.0), (90.0 + 1e-9, 200.0, 1.0)),  # nearly vertical, in a face
])
def test_axis_parallel(p, q):
    _agree(ONE_BLOCK, [(p, q)])


def test_chords_shorter_than_one_sample_spacing():
    """Links that cut a block edge along a chord holding exactly one sample,
    so a window one sample too narrow changes the verdict."""
    rng = np.random.default_rng(9)
    spacing = 1.0 / (N_SAMPLES + 1)
    pairs = []
    for j in range(40):
        t = (int(rng.integers(N_SAMPLES)) + 1) * spacing
        step = rng.uniform(40.0, 300.0) * spacing
        e = 0.1 * step
        if j % 2:  # the vertical edge at (90, 190), crossed in the horizontal plane
            c, d = np.array([90.0 + e, 190.0 + e, 20.0]), np.array([1.0, -1.0, 0.0])
        else:  # the top edge at y = 190, crossed climbing
            c, d = np.array([100.0, 190.0 + e, 40.0 - e]), np.array([0.0, 1.0, 1.0])
        d *= step / spacing / np.linalg.norm(d)
        p = c - t * d
        pairs.append((p, p + d))
        assert full_scan(ONE_BLOCK, p, p + d, N_SAMPLES, 0.0)
    _agree(ONE_BLOCK, pairs)


def test_duck_typed_environment():
    env = SimpleNamespace(blocks=[BLOCK])
    assert oracles.sampled_blocked(env, (0.0, 200.0, 20.0), (300.0, 200.0, 20.0))
    assert not oracles.sampled_blocked(env, (0.0, 0.0, 20.0), (300.0, 0.0, 20.0))
    assert not oracles.sampled_blocked(SimpleNamespace(blocks=[]), (0, 0, 1), (1, 1, 1))
