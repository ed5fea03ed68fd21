"""Config file schema, defaults, and experiment expansion.

A scenario is one YAML mapping; every key has a default chosen so that an
empty file reproduces the reference setup (1000x1000 m area, 25 m grids,
300 blocks, N=2 ABSs at 90 m, M=20 GUs, 200 s trials with 20 s periods).
Unknown keys fail loudly. All randomness flows from the named seeds here;
per-stream seeds are derived, never reused across streams.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
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
            out[key] = _merge(dv, override[key], here) if key in override else copy.deepcopy(dv)
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


_KINDS = {int: "a whole number", float: "a finite number", bool: "true or false",
          str: "a string", list: "a list"}


def _cast(value, kind: type, where: str):
    """``value`` as ``kind``, or a ConfigError naming ``where``.

    Numbers may be YAML ints, floats or numeric strings ("1e3"); an int key
    takes a float only when it is whole, so 40.0 reads as 40 and 10.5 is
    refused rather than truncated. Booleans are never numbers.
    """
    if kind in (int, float):
        if not isinstance(value, bool):
            try:
                x = float(value)
            except (TypeError, ValueError):
                x = math.nan
            if math.isfinite(x) and (kind is float or x.is_integer()):
                return value if kind is int and isinstance(value, int) else kind(x)
    elif isinstance(value, kind):
        return value
    raise ConfigError(f"{where} must be {_KINDS[kind]}, got {value!r}")


def _get(cfg: dict, key: str, kind: type):
    """The value at the dotted ``key`` of a merged config, cast by ``_cast``."""
    value = cfg
    for part in key.split("."):
        value = value[part]
    return _cast(value, kind, key)


def _items(cfg: dict, key: str, kind: type) -> tuple:
    """The list at the dotted ``key``, each item cast by ``_cast``."""
    return tuple(_cast(v, kind, f"{key}[{i}]") for i, v in enumerate(_get(cfg, key, list)))


def parse_trial_config(
    cfg: dict,
    seed: int | None = None,
    solver_name: str | None = None,
) -> TrialConfig:
    """Build a TrialConfig from a fully merged config mapping.

    ``seed`` overrides the file's trial seed; ``solver_name`` swaps the
    solver while keeping its parameters.
    """
    trial_seed = _get(cfg, "seed", int) if seed is None else seed
    radius = cfg["solver"]["ea_mutation_radius"]
    try:
        return TrialConfig(
            spec=GridSpec(
                d1=_get(cfg, "area.d1", float), d2=_get(cfg, "area.d2", float),
                **{k: _get(cfg, f"grid.{k}", int) for k in ("k1", "k2", "k1p", "k2p")},
                abs_alt=_get(cfg, "channel.abs_alt", float),
            ),
            channel=ChannelParams(**{k: _get(cfg, f"channel.{k}", float) for k in cfg["channel"]}),
            env=EnvConfig(
                num_blocks=_get(cfg, "environment.num_blocks", int),
                **{k: _get(cfg, f"environment.{k}", float)
                   for k in ("block_width", "height_low", "height_high")},
            ),
            solver=SolverConfig(
                name=_get(cfg, "solver.name", str) if solver_name is None else solver_name,
                duplication=_get(cfg, "solver.duplication", int),
                ea_rounds=_get(cfg, "solver.ea_rounds", int),
                ea_mutation_radius=(
                    None if radius is None else _cast(radius, float, "solver.ea_mutation_radius")
                ),
                oracle_cap=_get(cfg, "solver.oracle_cap", int),
                oracle_branch_and_bound=_get(cfg, "solver.oracle_branch_and_bound", bool),
            ),
            **{k: _get(cfg, f"timing.{k}", float) for k in cfg["timing"]},
            n_abs=_get(cfg, "fleet.n_abs", int),
            n_gus=_get(cfg, "fleet.n_gus", int),
            abs_speed=_get(cfg, "fleet.abs_speed", float),
            gu_speed=_get(cfg, "fleet.gu_speed", float),
            env_seed=derive_seed(trial_seed, _STREAM_ENV),
            mobility_seed=derive_seed(trial_seed, _STREAM_MOBILITY),
            init_seed=derive_seed(trial_seed, _STREAM_INIT),
            solver_seed=derive_seed(trial_seed, _STREAM_SOLVER),
            **{k: _get(cfg, f"options.{k}", bool) for k in cfg["options"]},
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
    seeds = _items(cfg, "experiment.seeds", int)
    if not seeds or min(seeds) < 0:
        raise ConfigError("experiment.seeds must be a nonempty list of non-negative numbers")
    solvers = _items(cfg, "experiment.solvers", str)
    if not solvers:
        raise ConfigError("experiment.solvers must be nonempty")
    axis = cfg["experiment"]["sweep"]["axis"]
    values = tuple(_get(cfg, "experiment.sweep.values", list))
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
        output_dir=_get(cfg, "experiment.output_dir", str),
    )


def apply_sweep(cfg: dict, axis: str, value) -> dict:
    """Return a copy of the config with one sweep axis applied."""
    out = json.loads(json.dumps(cfg))  # deep copy of plain data
    where = f"sweep value for {axis}"
    if axis == "grid_length":
        length = _cast(value, float, where)
        for d_key, ks in (("d1", ("k1", "k1p")), ("d2", ("k2", "k2p"))):
            d = _get(out, f"area.{d_key}", float)
            k = d / length if length > 0 else 0.0
            if abs(k - round(k)) > 1e-9 or round(k) < 1:
                raise ConfigError(
                    f"grid length {value} does not divide {d_key}={d} into whole cells"
                )
            for kk in ks:
                out["grid"][kk] = int(round(k))
    elif axis in ("n_abs", "n_gus"):
        out["fleet"][axis] = _cast(value, int, where)
    elif axis == "num_blocks":
        out["environment"]["num_blocks"] = _cast(value, int, where)
    elif axis == "gu_speed":
        out["fleet"]["gu_speed"] = _cast(value, float, where)
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
