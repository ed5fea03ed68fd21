"""Command-line entry point.

Subcommands: validate-config, build-gcm, run, plot-data. Exit codes: 0 on
success, 1 for an unexpected error, 2 for config problems, 3 for IO and
file-format problems, 4 for solver failures, 5 for contract violations
detected in produced logs. ``run`` replaces the results an earlier run
left in its directory but keeps its map cache, gcm/. It records a failed
trial in failures.csv under its code, keeps going and exits with the first
failure's code; ``plot-data`` exits 3 on a malformed file in the run
directory. Every CSV goes through ``sim.write_csv``. Relative output paths
are resolved under $ABSMOVE_OUTPUT_ROOT when set.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from .config import load_config, parse_experiment
from .env import Environment, generate_environment
from .errors import (
    ConfigError,
    ContractViolationError,
    EnvironmentTooDenseError,
    FileFormatError,
    InfeasibleSetError,
    OracleCapError,
)
from .gcm import Gcm, build_gcm, load_gcm, save_gcm
from .sim import (
    TrialConfig,
    export_metrics_csv,
    export_periods_csv,
    export_trajectory_json,
    run_trial,
    validate_trial_log,
    write_csv,
)

_SIDECAR_FORMAT = "absmove-gcm-cache"


def _out_root(path_str: str) -> Path:
    path = Path(path_str)
    root = os.environ.get("ABSMOVE_OUTPUT_ROOT")
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def _mean_std(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std())


# The columns of summary.csv; plots/acr_by_value.csv keeps _ACR_COLUMNS of them.
_SUMMARY_COLUMNS = (
    "axis", "value", "solver", "n_abs", "n_gus", "n_trials",
    "acr_simplified_mean", "acr_simplified_std", "acr_actual_mean",
    "acr_actual_std", "quantization_error_mean", "planning_time_mean_s",
)
_ACR_COLUMNS = ("axis", "value", "solver", "n_trials", "acr_simplified_mean",
                "acr_simplified_std", "acr_actual_mean", "acr_actual_std")


def _summary_row(metas: list[dict]) -> dict:
    """Mean and spread over the trials of one (sweep value, solver) group.

    The means sum in list order, so a caller that keeps its order keeps
    its bytes.
    """
    simp, simp_std = _mean_std([m["acr_simplified"] for m in metas])
    act, act_std = _mean_std([m["acr_actual"] for m in metas])
    quant, _ = _mean_std([m["quantization_error"] for m in metas])
    ptime, _ = _mean_std([m["mean_planning_time_s"] for m in metas])
    first = metas[0]
    return dict(zip(_SUMMARY_COLUMNS, (
        first["axis"] or "", first["value"], first["solver"], first["n_abs"], first["n_gus"],
        len(metas), simp, simp_std, act, act_std, quant, ptime,
    )))


def _build_env(tc: TrialConfig) -> Environment:
    e = tc.env
    return generate_environment(tc.spec.d1, tc.spec.d2, e.num_blocks, e.block_width,
                                (e.height_low, e.height_high), tc.env_seed)


def _write_cache_entry(gcm: Gcm, gcm_path: Path, key: str) -> Path:
    """Write the sidecar, then the map, each to a temp file moved into place.

    A run killed part-way leaves at worst a sidecar without its map, which
    the next run simply rebuilds over; never a map without its sidecar.
    Returns the sidecar path.
    """
    sidecar = Path(str(gcm_path) + ".json")
    tmp = Path(str(sidecar) + ".tmp")
    tmp.write_text(json.dumps({"format": _SIDECAR_FORMAT, "version": 1, "key": key},
                              sort_keys=True) + "\n")
    os.replace(tmp, sidecar)
    tmp = Path(str(gcm_path) + ".tmp")
    save_gcm(gcm, tmp)
    os.replace(tmp, gcm_path)
    return sidecar


def _gcm_for(key: str, tc: TrialConfig, env: Environment, cache_dir: Path | None) -> Gcm:
    """Build the connectivity map, or reuse a cache entry with a matching key.

    A cache file whose sidecar is absent, unreadable or disagrees with the
    config hash is a hard error; stale maps must never be consumed silently.
    """
    if cache_dir is None:
        return build_gcm(env, tc.channel, tc.spec)
    gcm_path = cache_dir / f"{key[:16]}.gcm"
    sidecar = Path(str(gcm_path) + ".json")
    if gcm_path.exists():
        if not sidecar.exists():
            raise FileFormatError(f"cache entry {gcm_path} has no sidecar; refusing to reuse")
        try:
            meta = json.loads(sidecar.read_text())
        except ValueError:  # not JSON, or not text at all
            meta = None
        if not isinstance(meta, dict) or (meta.get("format"), meta.get("key")) != (_SIDECAR_FORMAT, key):
            raise FileFormatError(
                f"cache entry {gcm_path} has an unreadable sidecar or does not match the "
                "current config; delete it or change the output directory"
            )
        return load_gcm(gcm_path)
    gcm = build_gcm(env, tc.channel, tc.spec)
    cache_dir.mkdir(parents=True, exist_ok=True)
    _write_cache_entry(gcm, gcm_path, key)
    return gcm


def cmd_validate_config(args) -> int:
    exp = parse_experiment(load_config(args.config))
    # The sizes are those of the first trial the batch runs.
    tc = exp.trials[0].config
    spec = tc.spec
    print(f"config ok: {args.config}")
    print(f"  area {spec.d1:.0f} x {spec.d2:.0f} m, "
          f"grids {spec.k1}x{spec.k2} (abs) / {spec.k1p}x{spec.k2p} (gu)")
    print(f"  fleet N={tc.n_abs} M={tc.n_gus}, movement radius {tc.movement_radius:.1f} m")
    print(f"  trial: {tc.n_steps} steps, {tc.n_periods} periods of {tc.steps_per_period}")
    print(f"  experiment: {len(exp.seeds)} seed(s), solvers {list(exp.solvers)}, "
          f"sweep {exp.sweep_axis or 'none'}")
    return 0


def cmd_build_gcm(args) -> int:
    # The map of the first trial the batch runs, under the key run caches it by.
    first = parse_experiment(load_config(args.config)).trials[0]
    tc = first.config
    gcm = build_gcm(_build_env(tc), tc.channel, tc.spec)
    out = _out_root(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    sidecar = _write_cache_entry(gcm, out, first.gcm_key)
    n_valid = int(gcm.abs_cell_valid.sum())
    print(f"wrote {out} ({n_valid}/{tc.spec.traversal.size} valid cells) and {sidecar}")
    return 0


_ERROR_CODES = (
    ((ConfigError, EnvironmentTooDenseError), 2),
    ((FileFormatError, OSError), 3),
    ((InfeasibleSetError, OracleCapError), 4),
    ((ContractViolationError,), 5),
)
_LABELS = {2: "config error", 3: "io error", 4: "solver error", 5: "contract violation"}


def _code_for(exc: Exception) -> int:
    for classes, code in _ERROR_CODES:
        if isinstance(exc, classes):
            return code
    return 1


def cmd_run(args) -> int:
    exp = parse_experiment(load_config(args.config))
    out = _out_root(args.out if args.out is not None else exp.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    cache_dir = None if args.no_gcm_cache else out / "gcm"

    # A directory holds one run: drop an earlier run's results, keep its maps.
    for stale in ("trials", "plots"):
        if (out / stale).exists():
            shutil.rmtree(out / stale)
    for stale in ("summary.csv", "failures.csv"):
        (out / stale).unlink(missing_ok=True)

    groups: dict[tuple[str, str], list[dict]] = {}
    failures: list[dict] = []
    # An environment and map live from the first trial with their key to the last.
    shared, last = {}, {t.gcm_key: i for i, t in enumerate(exp.trials)}
    for i, t in enumerate(exp.trials):
        tc, trial_dir = t.config, out / "trials" / t.tag / t.solver / f"seed{t.seed}"
        try:
            if t.gcm_key not in shared:
                env = _build_env(tc)
                shared[t.gcm_key] = (env, _gcm_for(t.gcm_key, tc, env, cache_dir))
            env, gcm = shared.pop(t.gcm_key) if i == last[t.gcm_key] else shared[t.gcm_key]
            log = run_trial(tc, env, gcm)
            validate_trial_log(log, gcm)
        except Exception as exc:  # noqa: BLE001 - record, then keep going
            code = _code_for(exc)
            failures.append({
                "tag": t.tag, "solver": t.solver, "seed": t.seed, "error": type(exc).__name__,
                "code": code, "message": str(exc).replace("\n", " ").replace(",", ";"),
            })
            continue
        trial_dir.mkdir(parents=True, exist_ok=True)
        export_metrics_csv(log, trial_dir / "metrics.csv")
        export_periods_csv(log, trial_dir / "periods.csv")
        export_trajectory_json(log, trial_dir / "trajectory.json")
        write_csv(trial_dir / "blocks.csv",
                  ("block", "center_x", "center_y", "half_width", "height"),
                  ((i, *b.center_xy, b.half_width, b.height) for i, b in enumerate(env.blocks)))
        meta = {
            "tag": t.tag,
            "axis": exp.sweep_axis,
            "value": t.value,
            "solver": t.solver,
            "seed": t.seed,
            "n_abs": tc.n_abs,
            "n_gus": tc.n_gus,
            "acr_simplified": log.acr_simplified,
            "acr_actual": log.acr_actual,
            "quantization_error": log.acr_simplified - log.acr_actual,
            "mean_planning_time_s": log.mean_planning_time,
            "boundary_violations": log.boundary_violations,
            "exclusion_violations": log.exclusion_violations,
            "over_budget_periods": sum(p.over_budget for p in log.periods),
        }
        (trial_dir / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
        groups.setdefault((t.tag, t.solver), []).append(meta)

    rows = [_summary_row(group) for group in groups.values()]
    write_csv(out / "summary.csv", _SUMMARY_COLUMNS, (row.values() for row in rows))
    if failures:
        write_csv(out / "failures.csv", list(failures[0]), (f.values() for f in failures))
        print(f"{len(failures)} trial(s) failed; see {out / 'failures.csv'}", file=sys.stderr)
        return failures[0]["code"]
    print(f"wrote {out / 'summary.csv'} ({len(rows)} row(s), "
          f"{sum(row['n_trials'] for row in rows)} trial(s))")
    return 0


def _read(path: Path, parse):
    """``parse`` applied to the text of ``path``; a malformed file is a FileFormatError."""
    try:
        return parse(path.read_text())
    except (ValueError, IndexError) as exc:  # JSON, number or shape errors
        raise FileFormatError(f"malformed {path}: {exc}") from exc


# The keys plot-data reads from each trial's meta.json and trajectory.json.
_META_KEYS = ("tag", "axis", "value", "solver", "seed", "n_abs", "n_gus", "acr_simplified",
              "acr_actual", "quantization_error", "mean_planning_time_s")
_TRAJECTORY_KEYS = ("abs_positions", "gu_positions")


def _json_object(keys):
    """A parser for JSON text that must be an object holding every one of ``keys``."""
    def parse(text: str) -> dict:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
        missing = [k for k in keys if k not in data]
        if missing:
            raise ValueError(f"missing key(s) {', '.join(missing)}")
        return data
    return parse


def _cr_columns(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The simplified and actual per-step CR columns of a metrics.csv."""
    body = text.strip().splitlines()[1:]
    cols = np.array([[float(x) for x in ln.split(",")[1:]] for ln in body])
    return cols[:, 0], cols[:, 1]


def cmd_plot_data(args) -> int:
    run_dir = _out_root(args.run_dir)
    summary = run_dir / "summary.csv"
    if not summary.exists():
        raise FileFormatError(f"{run_dir} is not a completed run directory (no summary.csv)")
    metas = sorted(run_dir.glob("trials/*/*/*/meta.json"))
    if not metas:
        raise FileFormatError(f"no trial logs under {run_dir}")
    plots = run_dir / "plots"
    plots.mkdir(exist_ok=True)

    groups: dict[tuple[str, str], list[tuple[dict, Path]]] = {}
    for path in metas:
        meta = _read(path, _json_object(_META_KEYS))
        groups.setdefault((meta["tag"], meta["solver"]), []).append((meta, path.parent))
    groups = dict(sorted(groups.items()))

    # Step-wise CR averaged over seeds, long format.
    step_rows = []
    for (tag, solver), items in groups.items():
        simp, act = zip(*(_read(tdir / "metrics.csv", _cr_columns) for _, tdir in items))
        means = zip(np.mean(simp, axis=0), np.mean(act, axis=0))
        step_rows += [(tag, solver, i, s, a) for i, (s, a) in enumerate(means, 1)]
    write_csv(plots / "stepwise_cr.csv",
              ("tag", "solver", "step", "cr_simplified_mean", "cr_actual_mean"), step_rows)

    # ACR per sweep value and solver, with spread across seeds.
    acr_rows = [_summary_row([m for m, _ in items]) for items in groups.values()]
    write_csv(plots / "acr_by_value.csv", _ACR_COLUMNS,
              ([row[c] for c in _ACR_COLUMNS] for row in acr_rows))

    # Trajectories plus block footprints for overlay plots.
    traj_rows = []
    for (tag, solver), items in groups.items():
        for meta, tdir in items:
            data = _read(tdir / "trajectory.json", _json_object(_TRAJECTORY_KEYS))
            seed = meta["seed"]
            for i, frame in enumerate(data["abs_positions"]):
                traj_rows += [(tag, solver, seed, i, "abs", k, *p) for k, p in enumerate(frame)]
            for i, frame in enumerate(data["gu_positions"]):  # ground users have no z
                traj_rows += [(tag, solver, seed, i, "gu", k, *p, None)
                              for k, p in enumerate(frame)]
    write_csv(plots / "trajectories.csv",
              ("tag", "solver", "seed", "step", "kind", "index", "x", "y", "z"), traj_rows)

    block_rows = []
    seen: set[tuple[str, int]] = set()
    for (tag, _), items in groups.items():
        for meta, tdir in items:
            key = (tag, meta["seed"])
            if key in seen:
                continue
            seen.add(key)
            body = (tdir / "blocks.csv").read_text().strip().splitlines()[1:]
            block_rows += [(tag, meta["seed"], *ln.split(",")) for ln in body]
    write_csv(plots / "blocks.csv",
              ("tag", "seed", "block", "center_x", "center_y", "half_width", "height"),
              block_rows)

    print(f"wrote plot data under {plots}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absmove",
        description="Aerial base station movement optimization over mobile ground users.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-config", help="parse a scenario file and report derived sizes")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate_config)

    p = sub.add_parser("build-gcm", help="precompute and save a connectivity map")
    p.add_argument("config")
    p.add_argument("out", help="output .gcm path; a .json sidecar is written next to it")
    p.set_defaults(func=cmd_build_gcm)

    p = sub.add_parser("run", help="run the experiment batch described by a scenario file")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="override experiment.output_dir")
    p.add_argument("--no-gcm-cache", action="store_true",
                   help="always rebuild connectivity maps in memory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("plot-data", help="emit plot-ready CSVs from a completed run")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_plot_data)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except Exception as exc:
        code = _code_for(exc)
        if code == 1:
            raise
        print(f"{_LABELS[code]}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
