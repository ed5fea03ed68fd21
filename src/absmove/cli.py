"""Command-line entry point.

Subcommands: validate-config, build-gcm, run, plot-data. Exit codes: 0 on
success, 1 for an unexpected error, 2 for config problems, 3 for IO and
file-format problems, 4 for solver failures, 5 for contract violations
detected in produced logs. ``run`` records a failed trial in failures.csv
under its code, keeps going and exits with the first failure's code.
Relative output paths are resolved under $ABSMOVE_OUTPUT_ROOT when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import (
    apply_sweep,
    gcm_cache_key,
    load_config,
    parse_experiment,
    parse_trial_config,
)
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
    TrialLog,
    export_metrics_csv,
    export_periods_csv,
    export_trajectory_json,
    run_trial,
    validate_trial_log,
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


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


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


def _gcm_for(cfg: dict, tc: TrialConfig, env: Environment, cache_dir: Path | None) -> Gcm:
    """Build the connectivity map, or reuse a cache entry with a matching key.

    A cache file whose sidecar is absent, unreadable or disagrees with the
    config hash is a hard error; stale maps must never be consumed silently.
    """
    if cache_dir is None:
        return build_gcm(env, tc.channel, tc.spec)
    key = gcm_cache_key(cfg, tc.env_seed)
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


def _export_blocks_csv(env: Environment, path: Path) -> None:
    lines = ["block,center_x,center_y,half_width,height"]
    for i, b in enumerate(env.blocks):
        lines.append(
            f"{i},{float(b.center_xy[0])!r},{float(b.center_xy[1])!r},"
            f"{float(b.half_width)!r},{float(b.height)!r}"
        )
    path.write_text("\n".join(lines) + "\n")


def cmd_validate_config(args) -> int:
    cfg = load_config(args.config)
    tc = parse_trial_config(cfg)
    exp = parse_experiment(cfg)
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
    cfg = load_config(args.config)
    tc = parse_trial_config(cfg)
    env = _build_env(tc)
    gcm = build_gcm(env, tc.channel, tc.spec)
    out = _out_root(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    sidecar = _write_cache_entry(gcm, out, gcm_cache_key(cfg, tc.env_seed))
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
    cfg = load_config(args.config)
    exp = parse_experiment(cfg)
    out = _out_root(args.out if args.out is not None else exp.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    cache_dir = None if args.no_gcm_cache else out / "gcm"

    combos: list[tuple[str, object, dict]] = []
    if exp.sweep_axis is None:
        combos.append(("base", "", exp.base))
    else:
        for value in exp.sweep_values:
            tag = f"{exp.sweep_axis}={value}"
            combos.append((tag, value, apply_sweep(exp.base, exp.sweep_axis, value)))

    rows: list[dict] = []
    failures: list[dict] = []
    metas: list[dict] = []
    for tag, value, combo_cfg in combos:
        shared: dict[int, tuple[Environment, Gcm]] = {}
        for solver in exp.solvers:
            logs: list[TrialLog] = []
            for seed in exp.seeds:
                tc = parse_trial_config(combo_cfg, seed=seed, solver_name=solver)
                trial_dir = out / "trials" / tag / solver / f"seed{seed}"
                try:
                    if seed not in shared:
                        env = _build_env(tc)
                        shared[seed] = (env, _gcm_for(combo_cfg, tc, env, cache_dir))
                    env, gcm = shared[seed]
                    log = run_trial(tc, env, gcm)
                    validate_trial_log(log, gcm)
                except Exception as exc:  # noqa: BLE001 - record, then keep going
                    code = _code_for(exc)
                    failures.append({
                        "tag": tag, "solver": solver, "seed": seed,
                        "error": type(exc).__name__, "message": str(exc), "code": code,
                    })
                    continue
                trial_dir.mkdir(parents=True, exist_ok=True)
                export_metrics_csv(log, trial_dir / "metrics.csv")
                export_periods_csv(log, trial_dir / "periods.csv")
                export_trajectory_json(log, trial_dir / "trajectory.json")
                _export_blocks_csv(env, trial_dir / "blocks.csv")
                meta = {
                    "tag": tag,
                    "axis": exp.sweep_axis,
                    "value": value,
                    "solver": solver,
                    "seed": seed,
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
                metas.append(meta)
                logs.append(log)
            if logs:
                simp, simp_std = _mean_std([lg.acr_simplified for lg in logs])
                act, act_std = _mean_std([lg.acr_actual for lg in logs])
                quant, _ = _mean_std([lg.acr_simplified - lg.acr_actual for lg in logs])
                ptime, _ = _mean_std([lg.mean_planning_time for lg in logs])
                rows.append({
                    "axis": exp.sweep_axis or "",
                    "value": value,
                    "solver": solver,
                    "n_abs": logs[0].cfg.n_abs,
                    "n_gus": logs[0].cfg.n_gus,
                    "n_trials": len(logs),
                    "acr_simplified_mean": simp,
                    "acr_simplified_std": simp_std,
                    "acr_actual_mean": act,
                    "acr_actual_std": act_std,
                    "quantization_error_mean": quant,
                    "planning_time_mean_s": ptime,
                })

    header = list(rows[0]) if rows else [
        "axis", "value", "solver", "n_abs", "n_gus", "n_trials",
        "acr_simplified_mean", "acr_simplified_std", "acr_actual_mean",
        "acr_actual_std", "quantization_error_mean", "planning_time_mean_s",
    ]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[h]) for h in header))
    (out / "summary.csv").write_text("\n".join(lines) + "\n")

    if failures:
        flines = ["tag,solver,seed,error,code,message"]
        for f in failures:
            msg = f["message"].replace("\n", " ").replace(",", ";")
            flines.append(f"{f['tag']},{f['solver']},{f['seed']},{f['error']},{f['code']},{msg}")
        (out / "failures.csv").write_text("\n".join(flines) + "\n")
        print(f"{len(failures)} trial(s) failed; see {out / 'failures.csv'}", file=sys.stderr)
        return failures[0]["code"]
    print(f"wrote {out / 'summary.csv'} ({len(rows)} row(s), {len(metas)} trial(s))")
    return 0


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

    trials = [json.loads(p.read_text()) for p in metas]
    groups: dict[tuple[str, str], list[tuple[dict, Path]]] = {}
    for meta, path in zip(trials, metas):
        groups.setdefault((meta["tag"], meta["solver"]), []).append((meta, path.parent))

    # Step-wise CR averaged over seeds, long format.
    step_lines = ["tag,solver,step,cr_simplified_mean,cr_actual_mean"]
    for (tag, solver), items in sorted(groups.items()):
        simp, act = [], []
        for _, tdir in items:
            body = (tdir / "metrics.csv").read_text().strip().splitlines()[1:]
            cols = np.array([[float(x) for x in ln.split(",")[1:]] for ln in body])
            simp.append(cols[:, 0])
            act.append(cols[:, 1])
        ms, ma = np.mean(simp, axis=0), np.mean(act, axis=0)
        for i in range(len(ms)):
            step_lines.append(f"{tag},{solver},{i + 1},{float(ms[i])!r},{float(ma[i])!r}")
    (plots / "stepwise_cr.csv").write_text("\n".join(step_lines) + "\n")

    # ACR per sweep value and solver, with spread across seeds.
    acr_lines = ["axis,value,solver,n_trials,acr_simplified_mean,acr_simplified_std,"
                 "acr_actual_mean,acr_actual_std"]
    for (tag, solver), items in sorted(groups.items()):
        vals_s = [m["acr_simplified"] for m, _ in items]
        vals_a = [m["acr_actual"] for m, _ in items]
        ms, ss = _mean_std(vals_s)
        ma, sa = _mean_std(vals_a)
        axis = items[0][0]["axis"] or ""
        value = items[0][0]["value"]
        acr_lines.append(
            f"{axis},{_fmt(value)},{solver},{len(items)},{ms!r},{ss!r},{ma!r},{sa!r}"
        )
    (plots / "acr_by_value.csv").write_text("\n".join(acr_lines) + "\n")

    # Trajectories plus block footprints for overlay plots.
    traj_lines = ["tag,solver,seed,step,kind,index,x,y,z"]
    for (tag, solver), items in sorted(groups.items()):
        for meta, tdir in items:
            data = json.loads((tdir / "trajectory.json").read_text())
            for i, frame in enumerate(data["abs_positions"]):
                for k, p in enumerate(frame):
                    traj_lines.append(
                        f"{tag},{solver},{meta['seed']},{i},abs,{k},{p[0]!r},{p[1]!r},{p[2]!r}"
                    )
            for i, frame in enumerate(data["gu_positions"]):
                for k, p in enumerate(frame):
                    traj_lines.append(
                        f"{tag},{solver},{meta['seed']},{i},gu,{k},{p[0]!r},{p[1]!r},"
                    )
    (plots / "trajectories.csv").write_text("\n".join(traj_lines) + "\n")

    block_lines = ["tag,seed,block,center_x,center_y,half_width,height"]
    seen: set[tuple[str, int]] = set()
    for (tag, _), items in sorted(groups.items()):
        for meta, tdir in items:
            key = (tag, meta["seed"])
            if key in seen:
                continue
            seen.add(key)
            body = (tdir / "blocks.csv").read_text().strip().splitlines()[1:]
            for ln in body:
                block_lines.append(f"{tag},{meta['seed']},{ln}")
    (plots / "blocks.csv").write_text("\n".join(block_lines) + "\n")

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
