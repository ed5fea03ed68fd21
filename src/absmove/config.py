"""Config file schema, defaults, and experiment expansion.

A scenario is one YAML mapping; every key has a default chosen so that an
empty file reproduces the reference setup (1000x1000 m area, 25 m grids,
300 blocks, N=2 ABSs at 90 m, M=20 GUs, 200 s trials with 20 s periods).
Unknown keys fail loudly. All randomness flows from the named seeds here;
per-stream seeds are derived, never reused across streams.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .channel import ChannelParams
from .errors import ConfigError
from .gcm import GridSpec
from .sim import EnvConfig, SolverConfig, TrialConfig

CONFIG_VERSION = 1

DEFAULTS: dict = {
    "version": CONFIG_VERSION,
    "area": {"d1": 1000.0, "d2": 1000.0},
    "grid": {"k1": 40, "k2": 40, "k1p": 40, "k2p": 40},
    "channel": {
        "tx_power_dbm": 5.0,
        "noise_dbm": -112.0,
        "carrier_ghz": 2.0,
        "k_min_db": 0.0,
        "k_max_db": 30.0,
        "snr_threshold_db": 3.0,
        "outage_threshold": 0.1,
        "abs_alt": 90.0,
        "gu_alt": 1.0,
    },
    "environment": {
        "num_blocks": 300,
        "block_width": 25.0,
        "height_low": 30.0,
        "height_high": 89.0,
    },
    "timing": {
        "total_time": 200.0,
        "period": 20.0,
        "flight_time": 10.0,
        "service_time": 10.0,
        "planning_time": 5.0,
        "step": 1.0,
    },
    "fleet": {"n_abs": 2, "n_gus": 20, "abs_speed": 30.0, "gu_speed": 2.0},
    "solver": {
        "name": "online",
        "duplication": 3,
        "ea_rounds": 3000,
        "ea_mutation_radius": None,
        "oracle_cap": 5_000_000,
        "oracle_branch_and_bound": True,
    },
    "options": {"plan_before_start": False, "weight_multiplicity": True},
    "seed": 0,
    "experiment": {
        "seeds": [0],
        "solvers": ["online"],
        "sweep": {"axis": None, "values": []},
        "output_dir": "runs/experiment",
    },
}

SWEEP_AXES = ("grid_length", "n_abs", "n_gus", "num_blocks", "gu_speed")

# Streams hanging off one trial seed; never reuse an index for a new purpose.
_STREAM_ENV = 0
_STREAM_MOBILITY = 1
_STREAM_INIT = 2
_STREAM_SOLVER = 3


def derive_seed(trial_seed: int, stream: int) -> int:
    """Independent child seed for one named stream of a trial."""
    return int(np.random.SeedSequence([int(trial_seed), int(stream)]).generate_state(1)[0])


def _merge(defaults, override, path: str):
    if isinstance(defaults, dict):
        if not isinstance(override, dict):
            raise ConfigError(f"{path or 'config'} must be a mapping, got {type(override).__name__}")
        out = {}
        for key, dv in defaults.items():
            here = f"{path}.{key}" if path else key
            out[key] = _merge(dv, override[key], here) if key in override else dv
        unknown = set(override) - set(defaults)
        if unknown:
            where = path or "top level"
            raise ConfigError(f"unknown key(s) {sorted(unknown)} at {where}")
        return out
    return override


def merge_config(override: dict | None) -> dict:
    """Overlay a partial config onto the defaults, rejecting unknown keys."""
    cfg = _merge(DEFAULTS, override or {}, "")
    if cfg["version"] != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {cfg['version']!r}, expected {CONFIG_VERSION}")
    return cfg


def load_config(path) -> dict:
    """Read a YAML scenario file and fill in every default."""
    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must contain a YAML mapping")
    return merge_config(raw)


def _grid_spec(cfg: dict) -> GridSpec:
    a, g, ch = cfg["area"], cfg["grid"], cfg["channel"]
    try:
        return GridSpec(
            d1=float(a["d1"]), d2=float(a["d2"]),
            k1=int(g["k1"]), k2=int(g["k2"]), k1p=int(g["k1p"]), k2p=int(g["k2p"]),
            abs_alt=float(ch["abs_alt"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _channel_params(cfg: dict) -> ChannelParams:
    ch = cfg["channel"]
    try:
        return ChannelParams(
            tx_power_dbm=float(ch["tx_power_dbm"]),
            noise_dbm=float(ch["noise_dbm"]),
            carrier_ghz=float(ch["carrier_ghz"]),
            k_min_db=float(ch["k_min_db"]),
            k_max_db=float(ch["k_max_db"]),
            snr_threshold_db=float(ch["snr_threshold_db"]),
            outage_threshold=float(ch["outage_threshold"]),
            abs_alt=float(ch["abs_alt"]),
            gu_alt=float(ch["gu_alt"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_trial_config(
    cfg: dict,
    seed: int | None = None,
    solver_name: str | None = None,
) -> TrialConfig:
    """Build a TrialConfig from a fully merged config mapping.

    ``seed`` overrides the file's trial seed; ``solver_name`` swaps the
    solver while keeping its parameters.
    """
    trial_seed = int(cfg["seed"] if seed is None else seed)
    env = cfg["environment"]
    sol = dict(cfg["solver"])
    if solver_name is not None:
        sol["name"] = solver_name
    t, f, o = cfg["timing"], cfg["fleet"], cfg["options"]
    try:
        return TrialConfig(
            spec=_grid_spec(cfg),
            channel=_channel_params(cfg),
            env=EnvConfig(
                num_blocks=int(env["num_blocks"]),
                block_width=float(env["block_width"]),
                height_low=float(env["height_low"]),
                height_high=float(env["height_high"]),
            ),
            solver=SolverConfig(
                name=str(sol["name"]),
                duplication=int(sol["duplication"]),
                ea_rounds=int(sol["ea_rounds"]),
                ea_mutation_radius=(
                    None if sol["ea_mutation_radius"] is None else float(sol["ea_mutation_radius"])
                ),
                oracle_cap=int(sol["oracle_cap"]),
                oracle_branch_and_bound=bool(sol["oracle_branch_and_bound"]),
            ),
            total_time=float(t["total_time"]),
            period=float(t["period"]),
            flight_time=float(t["flight_time"]),
            service_time=float(t["service_time"]),
            planning_time=float(t["planning_time"]),
            step=float(t["step"]),
            n_abs=int(f["n_abs"]),
            n_gus=int(f["n_gus"]),
            abs_speed=float(f["abs_speed"]),
            gu_speed=float(f["gu_speed"]),
            env_seed=derive_seed(trial_seed, _STREAM_ENV),
            mobility_seed=derive_seed(trial_seed, _STREAM_MOBILITY),
            init_seed=derive_seed(trial_seed, _STREAM_INIT),
            solver_seed=derive_seed(trial_seed, _STREAM_SOLVER),
            plan_before_start=bool(o["plan_before_start"]),
            weight_multiplicity=bool(o["weight_multiplicity"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class ExperimentSpec:
    """A batch: seeds x solvers x sweep values over one base scenario."""

    base: dict
    seeds: tuple[int, ...]
    solvers: tuple[str, ...]
    sweep_axis: str | None
    sweep_values: tuple
    output_dir: str


def parse_experiment(cfg: dict) -> ExperimentSpec:
    exp = cfg["experiment"]
    seeds = tuple(int(s) for s in exp["seeds"])
    if not seeds:
        raise ConfigError("experiment.seeds must be nonempty")
    solvers = tuple(str(s) for s in exp["solvers"])
    if not solvers:
        raise ConfigError("experiment.solvers must be nonempty")
    axis = exp["sweep"]["axis"]
    values = tuple(exp["sweep"]["values"])
    if axis is not None:
        if axis not in SWEEP_AXES:
            raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
        if not values:
            raise ConfigError("sweep.values must be nonempty when an axis is set")
    # Parse every solver x sweep value once, so an unknown solver or an
    # impossible combination fails here, before any trial of the batch runs.
    for combo in [cfg] if axis is None else [apply_sweep(cfg, axis, v) for v in values]:
        for name in solvers:
            parse_trial_config(combo, solver_name=name)
    return ExperimentSpec(
        base=cfg,
        seeds=seeds,
        solvers=solvers,
        sweep_axis=axis,
        sweep_values=values,
        output_dir=str(exp["output_dir"]),
    )


def apply_sweep(cfg: dict, axis: str, value) -> dict:
    """Return a copy of the config with one sweep axis applied."""
    out = json.loads(json.dumps(cfg))  # deep copy of plain data
    if axis == "grid_length":
        for d_key, ks in (("d1", ("k1", "k1p")), ("d2", ("k2", "k2p"))):
            d = out["area"][d_key]
            k = d / float(value)
            if abs(k - round(k)) > 1e-9 or round(k) < 1:
                raise ConfigError(
                    f"grid length {value} does not divide {d_key}={d} into whole cells"
                )
            for kk in ks:
                out["grid"][kk] = int(round(k))
    elif axis == "n_abs":
        out["fleet"]["n_abs"] = int(value)
    elif axis == "n_gus":
        out["fleet"]["n_gus"] = int(value)
    elif axis == "num_blocks":
        out["environment"]["num_blocks"] = int(value)
    elif axis == "gu_speed":
        out["fleet"]["gu_speed"] = float(value)
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    return out


def gcm_cache_key(cfg: dict, env_seed: int) -> str:
    """Hash of everything that determines the connectivity map bytes."""
    payload = {
        "area": cfg["area"],
        "grid": cfg["grid"],
        "channel": cfg["channel"],
        "environment": cfg["environment"],
        "env_seed": int(env_seed),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
