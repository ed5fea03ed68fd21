"""SHA-256 digests of the program's outputs on fixed scenes.

``test_golden.py`` compares them with the ones recorded in ``golden.json``.
Running this file rewrites ``golden.json`` from the current code:

    PYTHONPATH=src python tests/golden.py

A change that moves a digest on purpose says which one and why.

The scenes:
- ``family``: the acceptance family scene (500 m, 20x20 grids, two ABSs,
  twenty users) at seeds 0-2, one trial per solver in ``sim.SOLVERS``,
  with ``metrics.csv``, ``trajectory.json`` and ``periods.csv`` of each
  trial and the ``.gcm`` bytes of each seed's map;
- ``maps``: the ``.gcm`` bytes of a 12.5 m grid on the family area and of
  the paper's default city, trial seed 0 both;
- ``batch``, ``batch-gu_speed``, ``batch-grid_length``: every file of a
  cold ``absmove run`` tree, ``gcm/`` included, for the batch scenario and
  for two sweeps of it, one keeping the map and one changing it.

The scenario text lives here, so editing a benchmark scenario moves no
digest. Only wall-clock fields are masked (``WALLCLOCK``).
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from absmove import build_gcm, generate_environment, run_trial, save_gcm
from absmove.cli import main as cli_main
from absmove.config import merge_config, parse_trial_config
from absmove.sim import (
    SOLVERS,
    export_metrics_csv,
    export_periods_csv,
    export_trajectory_json,
)

GOLDEN = Path(__file__).with_name("golden.json")

# The fields that hold wall-clock timings, by file name.
WALLCLOCK = {
    "periods.csv": ("planning_time_s", "over_budget"),
    "meta.json": ("mean_planning_time_s", "over_budget_periods"),
    "summary.csv": ("planning_time_mean_s",),
}

FAMILY = {
    "area": {"d1": 500.0, "d2": 500.0},
    "grid": {"k1": 20, "k2": 20, "k1p": 20, "k2p": 20},
    "environment": {"num_blocks": 75},
    "channel": {"tx_power_dbm": -7.0},
    "timing": {"total_time": 100.0},
    "fleet": {"n_abs": 2, "n_gus": 20},
    "options": {"plan_before_start": True},
    # Each knob is read by one solver only; the oracle searches with
    # branch and bound, which finds the plain enumeration's optimum fast.
    "solver": {"duplication": 10, "oracle_branch_and_bound": True, "ea_mutation_radius": 25.0},
}

BATCH = """\
area: {d1: 500.0, d2: 500.0}
grid: {k1: 20, k2: 20, k1p: 20, k2p: 20}
environment: {num_blocks: 75}
channel: {tx_power_dbm: -7.0}
timing: {total_time: 100.0}
fleet: {n_abs: 2, n_gus: 20}
options: {plan_before_start: true}
solver: {name: online, duplication: 10, oracle_branch_and_bound: true}
experiment:
  seeds: [0, 1, 2, 3]
  solvers: [online, oracle, kmeans-ea]
"""


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def mask(name: str, data: bytes) -> bytes:
    """``data`` with the wall-clock fields of a file called ``name`` blanked."""
    fields = WALLCLOCK.get(name)
    if fields is None:
        return data
    if name.endswith(".json"):
        obj = json.loads(data)
        for f in fields:
            obj[f] = None
        return (json.dumps(obj, sort_keys=True) + "\n").encode()
    rows = [ln.split(",") for ln in data.decode().splitlines()]
    cols = [rows[0].index(f) for f in fields]
    for row in rows[1:]:
        for c in cols:
            row[c] = ""
    return "".join(",".join(row) + "\n" for row in rows).encode()


def tree_digests(root: Path) -> dict[str, str]:
    """The digest of every file under ``root``, masked, by relative path."""
    return {p.relative_to(root).as_posix():
            hashlib.sha256(mask(p.name, p.read_bytes())).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _scene(cfg: dict, seed: int):
    """The environment and map of trial ``seed``."""
    tc = parse_trial_config(cfg, seed=seed)
    e = tc.env
    env = generate_environment(tc.spec.d1, tc.spec.d2, e.num_blocks, e.block_width,
                               (e.height_low, e.height_high), tc.env_seed)
    return env, build_gcm(env, tc.channel, tc.spec)


def family(work: Path) -> dict[str, str]:
    cfg = merge_config(FAMILY)
    for seed in range(3):
        env, gcm = _scene(cfg, seed)
        save_gcm(gcm, work / f"seed{seed}.gcm")
        for name in SOLVERS:
            log = run_trial(parse_trial_config(cfg, seed=seed, solver_name=name), env, gcm)
            out = work / f"seed{seed}" / name
            out.mkdir(parents=True)
            export_metrics_csv(log, out / "metrics.csv")
            export_periods_csv(log, out / "periods.csv")
            export_trajectory_json(log, out / "trajectory.json")
    return tree_digests(work)


def maps(work: Path) -> dict[str, str]:
    fine = dict(FAMILY, grid={"k1": 40, "k2": 40, "k1p": 40, "k2p": 40})
    for name, override in (("family-12.5m", fine), ("city", {})):
        _, gcm = _scene(merge_config(override), 0)
        save_gcm(gcm, work / f"{name}.gcm")
    return tree_digests(work)


def _batch(sweep: str | None):
    def run(work: Path) -> dict[str, str]:
        cfg = work / "batch.yaml"
        cfg.write_text(BATCH + (f"  sweep: {sweep}\n" if sweep else ""))
        out = work / "run"
        code = cli_main(["run", str(cfg), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"absmove run exited with {code}")
        return tree_digests(out)
    return run


SECTIONS = {
    "family": family,
    "maps": maps,
    "batch": _batch(None),
    "batch-gu_speed": _batch("{axis: gu_speed, values: [0.0, 2.0]}"),
    "batch-grid_length": _batch("{axis: grid_length, values: [50.0, 25.0]}"),
}


def main() -> int:
    digests = {}
    for name, compute in SECTIONS.items():
        with tempfile.TemporaryDirectory() as work:
            digests[name] = compute(Path(work))
    GOLDEN.write_text(json.dumps({"versions": versions(), "digests": digests},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({sum(map(len, digests.values()))} digests)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
