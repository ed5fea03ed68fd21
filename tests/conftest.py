"""Shared fixtures: environments, grids, connectivity maps, tiny instances."""

from __future__ import annotations

import numpy as np
import pytest

from absmove import (
    ChannelParams,
    Environment,
    Gcm,
    GridSpec,
    assemble,
    build_gcm,
    generate_environment,
)


@pytest.fixture(scope="session")
def params() -> ChannelParams:
    return ChannelParams()


@pytest.fixture(scope="session")
def empty_env() -> Environment:
    return Environment(d1=500.0, d2=500.0, blocks=(), seed=0)


@pytest.fixture(scope="session")
def city_env() -> Environment:
    return generate_environment(500.0, 500.0, 40, 25.0, (30.0, 89.0), seed=7)


@pytest.fixture(scope="session")
def spec20() -> GridSpec:
    return GridSpec(d1=500.0, d2=500.0, k1=20, k2=20, k1p=20, k2p=20, abs_alt=90.0)


@pytest.fixture(scope="session")
def empty_gcm(empty_env, params, spec20) -> Gcm:
    return build_gcm(empty_env, params, spec20)


@pytest.fixture(scope="session")
def city_gcm(city_env, params, spec20) -> Gcm:
    return build_gcm(city_env, params, spec20)


def synth_gcm(spec: GridSpec, z: np.ndarray, eta: float = 0.1,
              valid: np.ndarray | None = None) -> Gcm:
    """Wrap a hand-built connectivity matrix in a Gcm."""
    z = np.asarray(z, dtype=bool)
    if valid is None:
        valid = np.ones(spec.k1 * spec.k2, dtype=bool)
    return Gcm(spec=spec, z=z, abs_cell_valid=np.asarray(valid, dtype=bool), eta=eta)


def random_instance(seed: int, n_abs: int = 2, n_cells: int = 8, n_grids: int = 6,
                    n_gus: int = 8, density: float = 0.45, shared_pools: bool = False):
    """A small random placement instance plus the pieces it was built from.

    Returns (gcm, pools, gu_positions, instance). Pools always have at least
    n_abs + 1 cells so distinct assignments exist. The ground plane is 3x3,
    or the smallest square that holds n_grids grids.
    """
    rng = np.random.default_rng(seed)
    k = 4
    while k * k < n_cells:
        k += 1
    kp = 3
    while kp * kp < n_grids:
        kp += 1
    spec = GridSpec(d1=100.0, d2=100.0, k1=k, k2=k, k1p=kp, k2p=kp, abs_alt=90.0)
    n_total = spec.k1 * spec.k2
    z = np.zeros((n_total, kp * kp), dtype=bool)
    cells = rng.choice(n_total, size=n_cells, replace=False) + 1
    grids = rng.choice(kp * kp, size=n_grids, replace=False) + 1
    for u in cells:
        for v in grids:
            if rng.random() < density:
                z[u - 1, v - 1] = True
    gcm = synth_gcm(spec, z)

    centers = spec.ground.centers
    gu_grid = rng.choice(grids, size=n_gus, replace=True)
    gu_positions = centers[gu_grid - 1, :2]

    if shared_pools:
        pools = tuple(np.sort(cells.astype(np.int64)) for _ in range(n_abs))
    else:
        pools = []
        for _ in range(n_abs):
            size = int(rng.integers(n_abs + 1, n_cells + 1))
            pools.append(np.sort(rng.choice(cells, size=size, replace=False)).astype(np.int64))
        pools = tuple(pools)
    return gcm, pools, gu_positions, assemble(gcm, pools, gu_positions)
