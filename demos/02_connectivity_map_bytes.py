"""Build a connectivity map, inspect its entries, and dump its file layout.

Run:  python demos/02_connectivity_map_bytes.py
"""

import struct
import tempfile
from pathlib import Path

import numpy as np

from absmove import ChannelParams, Environment, GridSpec, build_gcm, generate_environment
from absmove.channel import mean_gain, outage_probability, rician_k, snr
from absmove.env import BuildingBlock
from absmove.gcm import load_gcm, save_gcm


def channel_walkthrough(params: ChannelParams) -> None:
    open_land = Environment(d1=1000.0, d2=1000.0, blocks=(), seed=0)
    p = np.array([250.0, 250.0, params.abs_alt])
    print("outage versus ground distance (clear line of sight):")
    for dist in (50.0, 150.0, 300.0, 450.0):
        q = np.array([250.0 + dist, 250.0, params.gu_alt])
        k = rician_k(params, p, q)
        mean_snr = snr(params, mean_gain(params, open_land, p, q))
        pout = outage_probability(params, mean_snr, k)
        print(f"  {dist:5.0f} m: rician K {k:8.1f}, mean SNR {10 * np.log10(mean_snr):6.1f} dB, "
              f"outage {pout:.3g}")
    # Same geometry with one tower in the way: harsher path loss plus
    # Rayleigh fading (K = 0) push outage toward certainty.
    tower = Environment(d1=1000.0, d2=1000.0, seed=0, blocks=(
        BuildingBlock(center_xy=(325.0, 250.0), half_width=15.0, height=85.0),))
    q = np.array([400.0, 250.0, params.gu_alt])
    pout_nlos = outage_probability(params, snr(params, mean_gain(params, tower, p, q)), 0.0)
    print(f"  150 m with a tower in the way: outage {pout_nlos:.3f}\n")


def main() -> None:
    params = ChannelParams()
    channel_walkthrough(params)

    env = generate_environment(500.0, 500.0, 40, 30.0, (20.0, 80.0), seed=2)
    spec = GridSpec(d1=500.0, d2=500.0, k1=10, k2=10, k1p=10, k2p=10,
                    abs_alt=params.abs_alt)
    gcm = build_gcm(env, params, spec)
    print(f"map over a {spec.k1}x{spec.k2} aerial grid and {spec.k1p}x{spec.k2p} ground grid:")
    print(f"  valid hover cells {int(gcm.abs_cell_valid.sum())}/{spec.k1 * spec.k2}"
          f" (invalid ones sit over too-tall roofs)")
    print(f"  connectivity density {gcm.z.mean():.3f} at outage threshold {gcm.eta}")
    u = int(np.flatnonzero(gcm.abs_cell_valid)[0]) + 1
    print(f"  cell {u} centered at {spec.traversal.center(u)} covers "
          f"{int(gcm.z[u - 1].sum())} ground cells\n")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "demo.gcm"
        save_gcm(gcm, path)
        blob = path.read_bytes()
        again = load_gcm(path)
        assert np.array_equal(again.z, gcm.z)

    # File layout: 56-byte header, then two little-endian bitsets.
    header = struct.unpack("<4s5I4d", blob[:56])
    magic, version, k1, k2, k1p, k2p, d1, d2, alt, eta = header
    n_hover = k1 * k2
    n_pairs = n_hover * k1p * k2p
    validity_bytes = (n_hover + 7) // 8
    z_bytes = (n_pairs + 7) // 8
    print(f"file is {len(blob)} bytes:")
    print(f"  header  <4s5I4d : magic={magic!r} version={version} "
          f"grids=({k1},{k2},{k1p},{k2p})")
    print(f"                    area=({d1:.0f},{d2:.0f}) altitude={alt:.0f} eta={eta}")
    print(f"  validity bitset : {validity_bytes} bytes, one bit per hover cell")
    print(f"  z bitset        : {z_bytes} bytes, row-major over (hover, ground) pairs")
    assert len(blob) == 56 + validity_bytes + z_bytes


if __name__ == "__main__":
    main()
