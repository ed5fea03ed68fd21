"""Grid indexing and connectivity-map tests, including the binary format."""

import math
import struct

import numpy as np
import pytest

from absmove import (
    BuildingBlock,
    ChannelParams,
    ConfigError,
    Environment,
    GcmFormatError,
    GridSpec,
    ModelValidityWarning,
    Plane,
    build_gcm,
    coverage_mask,
    generate_environment,
    load_gcm,
    nearest_valid_abs_cell,
    save_gcm,
    valid_abs_cells,
)
from absmove import env as env_module
from absmove import gcm as gcm_module

import oracles


def _cell_of(plane: Plane, xy) -> int:
    return int(plane.cells_of(xy)[0])


class TestGridIndexing:
    def test_flatten_example(self):
        # 1-based cell (2, 3) of a 25x40 grid over 1000 m is cell 43.
        spec = GridSpec(d1=1000.0, d2=1000.0, k1=25, k2=40, k1p=40, k2p=40, abs_alt=90.0)
        plane = spec.traversal
        assert plane == Plane(1000.0, 1000.0, 25, 40, 90.0)
        assert np.array_equal(plane.center(43), [1.5 * 40.0, 2.5 * 25.0, 90.0])
        assert _cell_of(plane, plane.center(43)[:2]) == 43

    def test_first_cell_center(self, spec20):
        assert np.allclose(spec20.traversal.center(1), [12.5, 12.5, 90.0])

    def test_last_cell_center(self, spec20):
        last = spec20.traversal.size
        assert last == spec20.k1 * spec20.k2
        assert np.allclose(spec20.traversal.center(last), [487.5, 487.5, 90.0])

    def test_roundtrip_all_cells(self, spec20):
        for plane in (spec20.traversal, spec20.ground, Plane(1000.0, 600.0, 25, 40, 90.0)):
            ids = plane.cells_of(plane.centers[:, :2])
            assert np.array_equal(ids, np.arange(1, plane.size + 1))

    def test_gu_plane_independent_resolution(self):
        spec = GridSpec(d1=500.0, d2=500.0, k1=10, k2=10, k1p=25, k2p=25, abs_alt=90.0)
        assert spec.traversal.size == 100 and spec.ground.size == 625
        assert np.allclose(spec.traversal.center(1), [25.0, 25.0, 90.0])
        assert np.allclose(spec.ground.center(1), [10.0, 10.0, 0.0])
        assert np.allclose(spec.ground.center(625), [490.0, 490.0, 0.0])
        assert _cell_of(spec.ground, (495.0, 495.0)) == 625
        assert _cell_of(spec.traversal, (495.0, 495.0)) == 100

    def test_out_of_range_rejected(self, spec20):
        for plane in (spec20.traversal, spec20.ground):
            for bad in (0, -1, plane.size + 1):
                with pytest.raises(ValueError):
                    plane.center(bad)

    def test_centers_match_position_lookup(self, spec20):
        rng = np.random.default_rng(2)
        for plane in (spec20.traversal, spec20.ground):
            half = (plane.d1 / plane.k1 / 2, plane.d2 / plane.k2 / 2)
            for _ in range(100):
                xy = rng.uniform(0.0, 500.0, size=2)
                c = plane.center(_cell_of(plane, xy))
                assert abs(c[0] - xy[0]) <= half[0] + 1e-9
                assert abs(c[1] - xy[1]) <= half[1] + 1e-9

    def test_center_tables_match_scalars(self, spec20):
        for plane in (spec20.traversal, spec20.ground):
            assert plane.centers.shape == (plane.size, 3)
            for u in (1, 57, 400):
                assert np.array_equal(plane.centers[u - 1], plane.center(u))

    def test_centers_cached_and_read_only(self, spec20):
        plane = spec20.traversal
        assert spec20.traversal is plane and plane.centers is plane.centers
        assert not plane.centers.flags.writeable
        with pytest.raises(ValueError):
            plane.centers[0, 0] = -1.0

    def test_center_returns_a_copy(self, spec20):
        plane = spec20.ground
        c = plane.center(5)
        c[:] = -1.0
        assert np.array_equal(plane.center(5), plane.centers[4])
        assert plane.centers[4, 0] > 0.0

    def test_cells_of_far_edge_and_outside(self, spec20):
        for plane in (spec20.traversal, spec20.ground):
            assert _cell_of(plane, (500.0, 500.0)) == plane.size
            assert _cell_of(plane, (0.0, 0.0)) == 1
            assert np.array_equal(plane.cells_of([(500.0, 0.0), (0.0, 500.0)]),
                                  [plane.size - plane.k2 + 1, plane.k2])
            for bad in ((-1e-9, 10.0), (10.0, 500.0 + 1e-9), (math.nan, 1.0),
                        (1.0, math.nan), (math.inf, 1.0)):
                with pytest.raises(ValueError, match="outside the area"):
                    plane.cells_of(bad)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(d1=-1.0, d2=500.0, k1=10, k2=10, k1p=10, k2p=10, abs_alt=90.0)
        with pytest.raises(ValueError):
            GridSpec(d1=500.0, d2=500.0, k1=0, k2=10, k1p=10, k2p=10, abs_alt=90.0)
        with pytest.raises(ValueError):
            GridSpec(d1=500.0, d2=500.0, k1=10, k2=10, k1p=10, k2p=10, abs_alt=0.0)
        for field in ("d1", "d2", "abs_alt"):
            for bad in (math.nan, math.inf):
                kwargs = dict(d1=500.0, d2=500.0, k1=10, k2=10, k1p=10, k2p=10, abs_alt=90.0)
                kwargs[field] = bad
                with pytest.raises(ValueError, match="finite"):
                    GridSpec(**kwargs)


class TestValidity:
    def test_all_valid_when_blocks_below_altitude(self, city_env, spec20):
        # City blocks top out at 89 m, below the 90 m traversal plane.
        assert valid_abs_cells(city_env, spec20).all()

    def test_tall_block_invalidates_covering_cell(self, spec20):
        env = Environment(
            d1=500.0, d2=500.0,
            blocks=(BuildingBlock((112.5, 137.5), 20.0, 95.0),),
            seed=0,
        )
        valid = valid_abs_cells(env, spec20)
        u = _cell_of(spec20.traversal, (112.5, 137.5))
        assert not valid[u - 1]
        far = _cell_of(spec20.traversal, (400.0, 400.0))
        assert valid[far - 1]

    def test_invalid_rows_are_zero(self, params, spec20):
        env = Environment(
            d1=500.0, d2=500.0,
            blocks=(BuildingBlock((112.5, 137.5), 20.0, 95.0),),
            seed=0,
        )
        gcm = build_gcm(env, params, spec20)
        invalid = ~gcm.abs_cell_valid
        assert invalid.any()
        assert not gcm.z[invalid].any()

    def test_nearest_valid_cell(self, spec20, params):
        env = Environment(
            d1=500.0, d2=500.0,
            blocks=(BuildingBlock((112.5, 137.5), 20.0, 95.0),),
            seed=0,
        )
        gcm = build_gcm(env, params, spec20)
        # A position in a valid cell maps to its own cell.
        u = nearest_valid_abs_cell(gcm, (400.0, 400.0))
        assert u == _cell_of(spec20.traversal, (400.0, 400.0))
        # A position in the invalidated cell snaps to a neighbor.
        bad = _cell_of(spec20.traversal, (112.5, 137.5))
        snapped = nearest_valid_abs_cell(gcm, (112.5, 137.5))
        assert snapped != bad
        assert gcm.abs_cell_valid[snapped - 1]
        c = spec20.traversal.center(snapped)
        assert math.hypot(c[0] - 112.5, c[1] - 137.5) <= spec20.d1 / spec20.k1 + 1e-9


class TestBuild:
    def test_entries_match_full_chain(self, city_gcm, city_env, params, spec20):
        rng = np.random.default_rng(31)
        n_u, n_v = spec20.traversal.size, spec20.ground.size
        us = rng.integers(1, n_u + 1, size=1000)
        vs = rng.integers(1, n_v + 1, size=1000)
        for u, v in zip(us, vs):
            p = spec20.traversal.center(int(u))
            q = spec20.ground.center(int(v))
            q[2] = params.gu_alt
            covered = coverage_mask(params, city_env, p, q[None, :])[0]
            expect = city_gcm.abs_cell_valid[u - 1] and covered
            assert city_gcm.z[u - 1, v - 1] == expect, (u, v)

    def test_deterministic(self, city_env, params, spec20, city_gcm):
        again = build_gcm(city_env, params, spec20)
        assert again == city_gcm

    def test_directly_overhead_connected(self, empty_gcm, spec20):
        xy = (87.5, 162.5)  # centre of cell (4, 7) on both aligned planes
        u, v = _cell_of(spec20.traversal, xy), _cell_of(spec20.ground, xy)
        assert u == v == 3 * 20 + 7
        assert empty_gcm.z[u - 1, v - 1]

    def test_threshold_one_gives_all_ones(self, empty_env, spec20):
        params = ChannelParams(outage_threshold=1.0)
        gcm = build_gcm(empty_env, params, spec20)
        assert gcm.abs_cell_valid.all()
        assert gcm.z.all()

    def test_monotone_in_threshold(self, city_env, spec20, city_gcm):
        strict = build_gcm(city_env, ChannelParams(outage_threshold=0.02), spec20)
        # Tightening the outage threshold can only remove connections.
        assert not (strict.z & ~city_gcm.z).any()
        assert strict.z.sum() < city_gcm.z.sum()

    def test_coverage_disk_is_radially_closed(self, params):
        # Open terrain wide enough that coverage runs out before the border.
        spec = GridSpec(d1=3000.0, d2=3000.0, k1=6, k2=6, k1p=30, k2p=30, abs_alt=90.0)
        env = Environment(d1=3000.0, d2=3000.0, blocks=(), seed=0)
        gcm = build_gcm(env, params, spec)
        u = 2 * 6 + 3  # cell (3, 3)
        p = spec.traversal.center(u)
        centers = spec.ground.centers
        d = np.hypot(centers[:, 0] - p[0], centers[:, 1] - p[1])
        row = gcm.z[u - 1]
        assert row.any() and not row.all()
        assert d[row].max() <= d[~row].min() + 1e-9

    def test_clamped_links_warn_from_the_build(self):
        spec = GridSpec(d1=100.0, d2=100.0, k1=4, k2=4, k1p=4, k2p=4, abs_alt=5.0)
        env = Environment(d1=100.0, d2=100.0, blocks=(), seed=0)
        with pytest.warns(ModelValidityWarning) as record:
            build_gcm(env, ChannelParams(abs_alt=5.0, gu_alt=1.0), spec)
        assert {r.filename for r in record} == {gcm_module.__file__}

    def test_mismatched_area_rejected(self, params, spec20):
        env = Environment(d1=400.0, d2=500.0, blocks=(), seed=0)
        with pytest.raises(ConfigError):
            build_gcm(env, params, spec20)

    def test_mismatched_altitude_rejected(self, empty_env, spec20):
        with pytest.raises(ConfigError):
            build_gcm(empty_env, ChannelParams(abs_alt=120.0), spec20)


def _scene(d, k, num_blocks: int, seed: int = 0, **channel):
    """A generated scene: ``d`` is a side or (d1, d2), ``k`` one cell count
    for all four axes or (k1, k2, k1p, k2p)."""
    d1, d2 = (d, d) if np.isscalar(d) else d
    k1, k2, k1p, k2p = (k,) * 4 if np.isscalar(k) else k
    env = generate_environment(d1, d2, num_blocks, 25.0, (30.0, 89.0), seed=seed)
    params = ChannelParams(**channel)
    spec = GridSpec(d1=d1, d2=d2, k1=k1, k2=k2, k1p=k1p, k2p=k2p, abs_alt=params.abs_alt)
    return env, params, spec


def _file_bytes(gcm, path) -> bytes:
    save_gcm(gcm, path)
    return path.read_bytes()


class TestAgainstFullChain:
    """The band build writes the same file as the full chain on every link."""

    @pytest.mark.parametrize("scene", [
        pytest.param((500.0, 20, 75, {"tx_power_dbm": -7.0}), id="family"),
        pytest.param((500.0, 40, 75, {"tx_power_dbm": -7.0}), id="acceptance-12.5m"),
        pytest.param((1000.0, 20, 300, {}), id="city-20x20"),
        pytest.param((500.0, 20, 75, {"outage_threshold": 0.5}), id="eta-0.5"),
        pytest.param((500.0, 20, 75, {"outage_threshold": 0.9}), id="eta-0.9"),
        pytest.param((500.0, 20, 75, {"gu_alt": 1.5}), id="breakpoint-above-0"),
        pytest.param((500.0, 20, 75, {"k_min_db": 12.0, "k_max_db": 12.0}), id="flat-k"),
        # Unequal axes: a transposed or mis-strided verdict table shows here.
        pytest.param(((600.0, 400.0), (30, 20, 30, 20), 40, {}), id="rect-30x20"),
        pytest.param(((600.0, 400.0), (12, 8, 30, 20), 40, {}), id="rect-12x8-over-30x20"),
        pytest.param(((500.0, 300.0), (20, 7, 13, 40), 30, {"gu_alt": 1.5}),
                     id="rect-20x7-over-13x40"),
    ])
    def test_byte_identical_file(self, tmp_path, scene):
        d, k, num_blocks, channel = scene
        env, params, spec = _scene(d, k, num_blocks, **channel)
        fast = _file_bytes(build_gcm(env, params, spec), tmp_path / "band.gcm")
        full = _file_bytes(oracles.full_chain_gcm(env, params, spec), tmp_path / "full.gcm")
        assert fast == full

    def test_dense_candidates_give_the_same_file(self, tmp_path, monkeypatch):
        # Every sightline query of the reference takes the dense path.
        env, params, spec = _scene(500.0, 20, 75, seed=3, tx_power_dbm=-7.0)
        fast = _file_bytes(build_gcm(env, params, spec), tmp_path / "band.gcm")
        monkeypatch.setattr(env_module, "_DENSE_PAIRS", 1 << 62)
        full = _file_bytes(oracles.full_chain_gcm(env, params, spec), tmp_path / "full.gcm")
        assert fast == full


class TestBinaryFormat:
    def test_roundtrip(self, tmp_path, city_gcm):
        path = tmp_path / "map.gcm"
        save_gcm(city_gcm, path)
        assert load_gcm(path) == city_gcm

    def test_exact_file_size(self, tmp_path, city_gcm, spec20):
        path = tmp_path / "map.gcm"
        save_gcm(city_gcm, path)
        n_u, n_v = spec20.traversal.size, spec20.ground.size
        expected = 56 + (n_u + 7) // 8 + (n_u * n_v + 7) // 8
        assert path.stat().st_size == expected

    def test_save_is_byte_deterministic(self, tmp_path, city_gcm):
        p1, p2 = tmp_path / "a.gcm", tmp_path / "b.gcm"
        save_gcm(city_gcm, p1)
        save_gcm(city_gcm, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path, city_gcm):
        path = tmp_path / "map.gcm"
        save_gcm(city_gcm, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(GcmFormatError):
            load_gcm(path)

    def test_bad_version(self, tmp_path, city_gcm):
        path = tmp_path / "map.gcm"
        save_gcm(city_gcm, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(GcmFormatError):
            load_gcm(path)

    def test_truncated_payload(self, tmp_path, city_gcm):
        path = tmp_path / "map.gcm"
        save_gcm(city_gcm, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(GcmFormatError):
            load_gcm(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "map.gcm"
        path.write_bytes(b"GCM1\x01")
        with pytest.raises(GcmFormatError):
            load_gcm(path)

    def test_bad_threshold_field(self, tmp_path, city_gcm):
        path = tmp_path / "map.gcm"
        save_gcm(city_gcm, path)
        raw = bytearray(path.read_bytes())
        raw[48:56] = struct.pack("<d", 1.5)  # eta is the fourth double
        path.write_bytes(bytes(raw))
        with pytest.raises(GcmFormatError):
            load_gcm(path)

    @pytest.mark.parametrize("offset,value", [(24, math.nan), (40, math.inf)],
                             ids=["nan_d1", "inf_abs_alt"])
    def test_non_finite_header_field(self, tmp_path, city_gcm, offset, value):
        path = tmp_path / "map.gcm"
        save_gcm(city_gcm, path)
        raw = bytearray(path.read_bytes())
        raw[offset:offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(GcmFormatError, match="finite"):
            load_gcm(path)

    def test_cleared_validity_bit_on_covering_row(self, tmp_path, city_gcm):
        path = tmp_path / "map.gcm"
        save_gcm(city_gcm, path)
        raw = bytearray(path.read_bytes())
        u = int(np.flatnonzero(city_gcm.abs_cell_valid & city_gcm.z.any(axis=1))[0])
        raw[56 + u // 8] &= ~(1 << (u % 8)) & 0xFF  # validity bits follow the header
        path.write_bytes(bytes(raw))
        with pytest.raises(GcmFormatError, match="empty rows"):
            load_gcm(path)
