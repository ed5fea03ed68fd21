"""Config file schema, defaults, and experiment expansion.

A scenario is one YAML mapping; every key has a default chosen so that an
empty file reproduces the reference setup (1000x1000 m area, 25 m grids,
300 blocks, N=2 ABSs at 90 m, M=20 GUs, 200 s trials with 20 s periods).
Sections that set dataclass fields take each key's default and type from
its field. Unknown keys fail loudly. All randomness flows from the named
seeds here; per-stream seeds are derived, never reused across streams.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import typing
from dataclasses import dataclass, fields
from pathlib import Path

import yaml

from .channel import ChannelParams
from .errors import ConfigError
from .gcm import GridSpec
from .sim import EnvConfig, SolverConfig, TrialConfig, derive_seed

CONFIG_VERSION = 1


def _fields(cls: type, names: str | None = None) -> dict:
    """``{name: (default, type, nullable)}`` for the named fields of ``cls``."""
    hints = typing.get_type_hints(cls)
    out = {}
    for f in fields(cls):
        if names is None or f.name in names.split():
            args = typing.get_args(hints[f.name])  # (float, NoneType) for float | None
            out[f.name] = (f.default, args[0] if args else hints[f.name], type(None) in args)
    return out


# The config sections whose keys, defaults and types are dataclass fields.
_SECTIONS = {
    "channel": _fields(ChannelParams),
    "environment": _fields(EnvConfig),
    "timing": _fields(TrialConfig, "total_time period flight_time service_time planning_time step"),
    "fleet": _fields(TrialConfig, "n_abs n_gus abs_speed gu_speed"),
    "solver": _fields(SolverConfig),
    "options": _fields(TrialConfig, "plan_before_start weight_multiplicity"),
}

DEFAULTS: dict = {
    "version": CONFIG_VERSION,
    "area": {"d1": 1000.0, "d2": 1000.0},
    "grid": {"k1": 40, "k2": 40, "k1p": 40, "k2p": 40},
    **{name: {k: default for k, (default, _, _) in keys.items()}
       for name, keys in _SECTIONS.items()},
    "seed": 0,
    "experiment": {
        "seeds": [0],
        "solvers": ["online"],
        "sweep": {"axis": None, "values": []},
        "output_dir": "runs/experiment",
    },
}

# Sweep axes other than grid_length, each with the section of its key.
_SWEEP_KEYS = {"n_abs": "fleet", "n_gus": "fleet", "num_blocks": "environment", "gu_speed": "fleet"}
SWEEP_AXES = ("grid_length", *_SWEEP_KEYS)

# Streams hanging off one trial seed; never reuse an index for a new purpose.
_STREAM_ENV = 0
_STREAM_MOBILITY = 1
_STREAM_INIT = 2
_STREAM_SOLVER = 3


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
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
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


def _section(cfg: dict, name: str) -> dict:
    """One dataclass-backed section of a merged config, cast by its field types."""
    return {
        key: None if cfg[name][key] is None and nullable
        else _cast(cfg[name][key], kind, f"{name}.{key}")
        for key, (_, kind, nullable) in _SECTIONS[name].items()
    }


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
    sec = {name: _section(cfg, name) for name in _SECTIONS}
    if solver_name is not None:
        sec["solver"]["name"] = solver_name
    try:
        return TrialConfig(
            spec=GridSpec(
                d1=_get(cfg, "area.d1", float), d2=_get(cfg, "area.d2", float),
                **{k: _get(cfg, f"grid.{k}", int) for k in ("k1", "k2", "k1p", "k2p")},
                abs_alt=sec["channel"]["abs_alt"],
            ),
            channel=ChannelParams(**sec["channel"]),
            env=EnvConfig(**sec["environment"]),
            solver=SolverConfig(**sec["solver"]),
            **sec["timing"],
            **sec["fleet"],
            **sec["options"],
            env_seed=derive_seed(trial_seed, _STREAM_ENV),
            mobility_seed=derive_seed(trial_seed, _STREAM_MOBILITY),
            init_seed=derive_seed(trial_seed, _STREAM_INIT),
            solver_seed=derive_seed(trial_seed, _STREAM_SOLVER),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class ExperimentSpec:
    """A batch: seeds x solvers x sweep values over one base scenario.

    ``combos`` holds one ``(tag, sweep value, config)`` per sweep value, or
    ``("base", "", config)`` without a sweep.
    """

    combos: tuple[tuple[str, object, dict], ...]
    seeds: tuple[int, ...]
    solvers: tuple[str, ...]
    sweep_axis: str | None
    sweep_values: tuple
    output_dir: str


def _once(items, key: str, shown=None) -> None:
    """Refuse a list that names one trial twice, naming the repeat as ``shown``."""
    for i, item in enumerate(items):
        if item in items[:i]:
            raise ConfigError(f"{key} lists {(shown or items)[i]!r} more than once")


def parse_experiment(cfg: dict) -> ExperimentSpec:
    seeds = _items(cfg, "experiment.seeds", int)
    if not seeds or min(seeds) < 0:
        raise ConfigError("experiment.seeds must be a nonempty list of non-negative numbers")
    _once(seeds, "experiment.seeds")
    solvers = _items(cfg, "experiment.solvers", str)
    if not solvers:
        raise ConfigError("experiment.solvers must be nonempty")
    _once(solvers, "experiment.solvers")
    axis = cfg["experiment"]["sweep"]["axis"]
    values = tuple(_get(cfg, "experiment.sweep.values", list))
    if axis is None and values:
        raise ConfigError("sweep.values needs a sweep.axis")
    if axis is not None:
        if axis not in SWEEP_AXES:
            raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
        if not values:
            raise ConfigError("sweep.values must be nonempty when an axis is set")
    combos = (("base", "", cfg),) if axis is None else tuple(
        (f"{axis}={v}", v, apply_sweep(cfg, axis, v)) for v in values)
    _once([c for _, _, c in combos], "experiment.sweep.values", values)
    # Parse every solver x sweep value once, so an unknown solver or an
    # impossible combination fails here, before any trial of the batch runs.
    for _, _, combo in combos:
        for name in solvers:
            parse_trial_config(combo, solver_name=name)
    return ExperimentSpec(
        combos=combos,
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
    elif axis in _SWEEP_KEYS:
        section = _SWEEP_KEYS[axis]
        out[section][axis] = _cast(value, _SECTIONS[section][axis][1], where)
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
