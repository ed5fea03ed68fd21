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
    Plane,
    build_gcm,
    is_covered,
    load_gcm,
    nearest_valid_abs_cell,
    save_gcm,
    valid_abs_cells,
)


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
            for bad in ((-1e-9, 10.0), (10.0, 500.0 + 1e-9)):
                with pytest.raises(ValueError, match="outside the area"):
                    plane.cells_of(bad)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(d1=-1.0, d2=500.0, k1=10, k2=10, k1p=10, k2p=10, abs_alt=90.0)
        with pytest.raises(ValueError):
            GridSpec(d1=500.0, d2=500.0, k1=0, k2=10, k1p=10, k2p=10, abs_alt=90.0)
        with pytest.raises(ValueError):
            GridSpec(d1=500.0, d2=500.0, k1=10, k2=10, k1p=10, k2p=10, abs_alt=0.0)


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
            expect = city_gcm.abs_cell_valid[u - 1] and is_covered(params, city_env, p, q)
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

    def test_mismatched_area_rejected(self, params, spec20):
        env = Environment(d1=400.0, d2=500.0, blocks=(), seed=0)
        with pytest.raises(ConfigError):
            build_gcm(env, params, spec20)

    def test_mismatched_altitude_rejected(self, empty_env, spec20):
        with pytest.raises(ConfigError):
            build_gcm(empty_env, ChannelParams(abs_alt=120.0), spec20)


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
