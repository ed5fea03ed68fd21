#!/usr/bin/env python3
"""absmove benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload family --seed 1 --seconds 10 --trace 0

Run from the repository root. The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, every wall time
machine-normalised (see calib.py); with ``--trace 1`` they are the
per-layer ones from spans around the program's public functions. Progress,
reference figures and the raw (unnormalised) end-to-end values go to
standard error. Everything runs in this one process.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

import calib
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Plans timed per run, so that the 90th percentile has ten samples above it.
MIN_PLANS = 100
# A unit this long without an in-unit calibration sample is flagged: the
# host's speed drifts within it, which the brackets alone miss.
UNSAMPLED_S = 1.0
PROGRAM_MODULES = ("absmove.channel", "absmove.cli", "absmove.config", "absmove.env",
                   "absmove.gcm", "absmove.online_solver", "absmove.sim")


def _load_program() -> dict:
    """Import absmove from this checkout's sources, never from elsewhere."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "absmove" / "__init__.py").is_file() or not (tests / "oracles.py").is_file():
        sys.exit(f"bench: no absmove sources or tests/oracles.py under {ROOT}")
    sys.path[:0] = [str(src), str(tests)]
    mods = {name: importlib.import_module(name) for name in PROGRAM_MODULES}
    if Path(mods["absmove.sim"].__file__).resolve().parent != (src / "absmove").resolve():
        sys.exit("bench: absmove was imported from outside this checkout")
    return mods


def child_seed(*key: int) -> int:
    """A 31-bit seed derived from the workload seed and a position."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0]) & 0x7FFFFFFF


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class PlanRecorder:
    """Times every plan_period call and keeps what the checks need.

    Installed for the whole run, traced or not: it is the benchmark's only
    wrapper inside a trial. Before each plan it takes a calibration sample
    (outside the plan's own time and span), so that each plan is normalised
    by the machine speed measured right around it.
    """

    def __init__(self, run: "Run") -> None:
        sim = run.mods["absmove.sim"]
        self.run = run
        self._orig = sim.plan_period
        self.times: list[tuple[int | None, float]] = []
        self.values: list[int] = []
        self.captured: list[tuple] = []
        self.capture = False
        self.calls = 0
        self.failures = 0
        sim.plan_period = self._wrapper

    def _wrapper(self, state, gcm, cfg):
        self.calls += 1
        segment = self.run.sample()
        t0 = time.perf_counter()
        try:
            rec = self.run.call("sim.plan_period", self._orig, state, gcm, cfg)
        except Exception:
            self.failures += 1
            raise
        self.times.append((segment, time.perf_counter() - t0))
        self.values.append(rec.planned_value)
        if self.capture:
            self.captured.append((state, gcm, cfg, rec))
        return rec

    def take(self) -> list[tuple[int | None, float]]:
        out, self.times = self.times, []
        return out


@dataclass
class Tally:
    """Timings and counts of one phase (set-up or one round)."""

    norm: float = 0.0
    raw: float = 0.0
    steps: int = 0
    # Time of the units that simulate steps (trials, CLI runs) only.
    step_norm: float = 0.0
    step_raw: float = 0.0
    plan_norm: list = field(default_factory=list)
    plan_raw: list = field(default_factory=list)
    # (raw seconds, in-unit calibration samples) of every unit.
    units: list = field(default_factory=list)

    def sampling(self) -> str:
        """In-unit calibration samples per unit, flagging every unit longer
        than UNSAMPLED_S that was normalised by its brackets alone."""
        line = f"in-unit calibration samples per unit {[n for _, n in self.units]}"
        bare = [f"{raw:.2f} s" for raw, n in self.units if n == 0 and raw > UNSAMPLED_S]
        if bare:
            line += f"; NOT SAMPLED INSIDE (brackets alone): units of {', '.join(bare)}"
        return line


class Run:
    """Clock, recorder, optional tracer and operation counts of one run."""

    # Kernel samples inside a map build, at most one per this many seconds.
    BUILD_SAMPLE_GAP_S = 0.25

    def __init__(self, mods: dict) -> None:
        self.mods = mods
        self.clock = calib.Clock()
        self.tracer = None
        self.plans = PlanRecorder(self)
        self.attempted = 0
        self.failed = 0
        # A map build calls coverage_mask once per traversal cell; sampling
        # there tracks the host's speed through builds of up to half a
        # minute. If a later build stops calling it, the build falls back to
        # its brackets alone, and the set-up line on standard error flags it.
        gcm = mods["absmove.gcm"]
        row = gcm.coverage_mask

        def sampled_row(*args, **kwargs):
            if self.clock.due(self.BUILD_SAMPLE_GAP_S):
                self.sample()
            return row(*args, **kwargs)

        gcm.coverage_mask = sampled_row

    def sample(self) -> int | None:
        """A calibration sample inside the current unit. Traced, it is a span
        of its own, which the layer metrics take out of every enclosing span."""
        if self.tracer is None:
            return self.clock.sample()
        with self.tracer.span(spans.CALIBRATE):
            return self.clock.sample()

    def call(self, span: str, fn, *args):
        if self.tracer is None:
            return fn(*args)
        with self.tracer.span(span):
            return fn(*args)

    @contextlib.contextmanager
    def unit(self, tally: Tally, steps: int = 0):
        """One timed operation; a failure is counted and does not stop the run."""
        self.attempted += 1
        try:
            with self.clock.unit():
                yield
        except Exception:
            traceback.print_exc()
            self.failed += 1
            self.plans.take()
            return
        clock = self.clock
        tally.units.append((clock.last_raw, clock.last_samples))
        tally.norm += clock.last_norm
        tally.raw += clock.last_raw
        if steps:
            tally.steps += steps
            tally.step_norm += clock.last_norm
            tally.step_raw += clock.last_raw
        for segment, t in self.plans.take():
            tally.plan_raw.append(t)
            tally.plan_norm.append(t * clock.segment_factors[segment])


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Scene:
    base: object
    trials: list
    env: object = None
    gcm: object = None


class Family:
    """Acceptance-suite scenes: many small instances, online solver.

    Building layouts are fixed (trial seeds 0..n_scenes-1 of the scenario),
    so set-up builds the same maps in every run and quality varies only
    with what the workload seed drives: users' start and motion, ABS start
    cells, solver streams and planning snapshots.
    """

    scenario = "family.yaml"
    n_scenes = 4
    trials_per_scene = 6
    bits_per_map = 24
    # Steps whose actual coverage is recomputed with the scalar chain.
    actual_steps = 24

    def __init__(self, seed: int, mods: dict, work: Path) -> None:
        cfgmod = mods["absmove.config"]
        self.mods, self.seed, self.work = mods, seed, work
        cfg = cfgmod.load_config(BENCH / "scenarios" / self.scenario)
        self.scenes = []
        for j in range(self.n_scenes):
            base = cfgmod.parse_trial_config(cfg, seed=j)
            trials = [
                replace(cfgmod.parse_trial_config(cfg, seed=child_seed(seed, j, k)),
                        env_seed=base.env_seed)
                for k in range(self.trials_per_scene)
            ]
            self.scenes.append(Scene(base, trials))
        self.logs: list = []

    def setup(self, run: Run, tally: Tally) -> None:
        gen = self.mods["absmove.env"].generate_environment
        build = self.mods["absmove.gcm"].build_gcm
        for sc in self.scenes:
            tc = sc.base
            with run.unit(tally):
                sc.env = run.call("env.generate", gen, tc.spec.d1, tc.spec.d2, tc.env.num_blocks,
                                  tc.env.block_width, (tc.env.height_low, tc.env.height_high),
                                  tc.env_seed)
                sc.gcm = run.call("gcm.build", build, sc.env, tc.channel, tc.spec)

    def round(self, run: Run, tally: Tally, first: bool) -> list:
        sim = self.mods["absmove.sim"]
        outputs = []
        for sc in self.scenes:
            for tc in sc.trials:
                with run.unit(tally, steps=tc.n_steps):
                    if sc.gcm is None:
                        raise RuntimeError("scene set-up failed")
                    lg = run.call("sim.run_trial", sim.run_trial, tc, sc.env, sc.gcm)
                    outputs.append(lg.acr_actual)
                    if first:
                        self.logs.append((tc, sc, lg))
        return outputs

    def acr_actual(self) -> float:
        return float(np.mean([lg.acr_actual for _, _, lg in self.logs]))

    def check(self, run: Run, checks) -> dict:
        rng = np.random.default_rng(child_seed(self.seed, 2_000_003))
        info = {"maps": []}
        for j, sc in enumerate(self.scenes):
            info["maps"].append(checks.check_gcm(
                sc.env, sc.base.channel, sc.gcm, rng, self.bits_per_map,
                self.work / f"scene{j}.gcm", self.mods["absmove.gcm"]))
        picks = _step_sample(rng, [tc.n_steps for tc, _, _ in self.logs], self.actual_steps)
        for (tc, sc, lg), steps in zip(self.logs, picks):
            checks.check_trial(tc, sc.env, sc.gcm, lg.abs_positions, lg.gu_positions,
                               lg.cr_simplified, lg.cr_actual, steps)
        return info


class City(Family):
    """The paper's default map: one large scene, large instances."""

    scenario = "city.yaml"
    n_scenes = 1
    trials_per_scene = 4
    # A trial plans once per 20 steps, and a city step costs about a sixth
    # of a plan, so direct plans on seeded snapshots bring a run to
    # MIN_PLANS without tripling its length.
    sweep_plans = 64
    bits_per_map = 48
    actual_steps = 2

    def setup(self, run: Run, tally: Tally) -> None:
        super().setup(run, tally)
        self.snapshots = self._snapshots()

    def _snapshots(self) -> list:
        """Seeded planning inputs for direct plan_period calls: distinct
        valid anchor cells and users uniform over open ground."""
        sc = self.scenes[0]
        if sc.gcm is None:
            return []
        tc = sc.base
        rng = np.random.default_rng(child_seed(self.seed, 1_000_003))
        blocks = np.array([(*b.center_xy, b.half_width) for b in sc.env.blocks])
        valid = np.flatnonzero(sc.gcm.abs_cell_valid) + 1
        out = []
        for k in range(self.sweep_plans):
            anchors = tuple(int(c) for c in rng.choice(valid, size=tc.n_abs, replace=False))
            pts = []
            while len(pts) < tc.n_gus:
                x, y = rng.uniform(0.0, tc.spec.d1), rng.uniform(0.0, tc.spec.d2)
                inside = (np.abs(blocks[:, 0] - x) < blocks[:, 2]) & (np.abs(blocks[:, 1] - y) < blocks[:, 2])
                if not inside.any():
                    pts.append((x, y))
            out.append(self.mods["absmove.sim"].PlanState(
                anchor_cells=anchors, gu_positions=np.array(pts), period=k + 1))
        return out

    def round(self, run: Run, tally: Tally, first: bool) -> list:
        outputs = super().round(run, tally, first)
        sc, chunk = self.scenes[0], 16
        for s in range(0, len(self.snapshots), chunk):
            with run.unit(tally):
                for st in self.snapshots[s : s + chunk]:
                    self.mods["absmove.sim"].plan_period(st, sc.gcm, sc.base)
        return outputs


class Batch:
    """``absmove run`` over four seeds and all three solvers, cold then warm.

    The CLI derives a trial's city from its seed, so the only way to hold
    most cities fixed is to hold most seeds fixed: trial seeds 0..2 run in
    every batch and the fourth comes from the workload seed. Cities vary the
    batch's coverage far more than user motion does (see README).
    """

    scenario = "batch.yaml"
    fixed_seeds = (0, 1, 2)
    n_seeds = 4
    bits_per_map = 24
    actual_steps = 12

    def __init__(self, seed: int, mods: dict, work: Path) -> None:
        cfgmod = mods["absmove.config"]
        self.mods, self.seed, self.work = mods, seed, work
        cfg = cfgmod.load_config(BENCH / "scenarios" / self.scenario)
        cfg["experiment"]["seeds"] = [*self.fixed_seeds, 3 + child_seed(seed, 100)]
        self.cfg = cfg
        self.cfg_path = work / "batch.yaml"
        self.cfg_path.write_text(yaml.safe_dump(cfg, sort_keys=True))
        self.out = work / "run"
        exp = cfgmod.parse_experiment(cfg)
        self.trials = [(f"trials/base/{name}/seed{s}",
                        cfgmod.parse_trial_config(cfg, seed=s, solver_name=name))
                       for name in exp.solvers for s in exp.seeds]
        self.steps = sum(tc.n_steps for _, tc in self.trials)
        self.builds: list[tuple] = []
        self.codes: list[int] = []
        self.cold: dict = {}
        self.warm_builds = 0
        self.acr: list[float] = []
        cli = mods["absmove.cli"]
        orig = cli.build_gcm

        def counted_build(env, params, spec):
            gcm = orig(env, params, spec)
            self.builds.append((env, params, gcm))
            return gcm

        cli.build_gcm = counted_build

    def _cli_run(self, run: Run) -> None:
        main = self.mods["absmove.cli"].main
        with contextlib.redirect_stdout(sys.stderr):
            code = run.call("cli.run", main, ["run", str(self.cfg_path), "--out", str(self.out)])
        self.codes.append(code)
        if code != 0:
            raise RuntimeError(f"absmove run exited with {code}")

    def setup(self, run: Run, tally: Tally) -> None:
        with run.unit(tally):
            self._cli_run(run)
        self.cold = _exports(self.out)

    def round(self, run: Run, tally: Tally, first: bool) -> list:
        n_builds = len(self.builds)
        with run.unit(tally, steps=self.steps):
            self._cli_run(run)
        self.warm_builds += len(self.builds) - n_builds
        acr = [json.loads((self.out / p).read_text())["acr_actual"]
               for p in sorted(self.cold) if p.endswith("meta.json")]
        if first:
            self.acr = acr
        return acr

    def acr_actual(self) -> float:
        return float(np.mean(self.acr))

    def check(self, run: Run, checks) -> dict:
        req = checks.require
        req(all(c == 0 for c in self.codes), f"absmove run exit codes {self.codes}")
        req(not (self.out / "failures.csv").exists(), "absmove run wrote failures.csv")
        cold_builds = len(self.builds) - self.warm_builds
        req(cold_builds == self.n_seeds, f"cold run built {cold_builds} maps, not {self.n_seeds}")
        req(self.warm_builds == 0, f"warm runs built {self.warm_builds} maps from a full cache")
        warm = _exports(self.out)
        checks.check_batch_exports(self.cold, warm)

        rng = np.random.default_rng(child_seed(self.seed, 2_000_003))
        info = {"maps": []}
        scenes = {}
        for k, (env, params, gcm) in enumerate(self.builds):
            scenes[env.seed] = (env, gcm)
            info["maps"].append(checks.check_gcm(env, params, gcm, rng, self.bits_per_map,
                                                 self.work / f"map{k}.gcm",
                                                 self.mods["absmove.gcm"]))
        picks = _step_sample(rng, [tc.n_steps for _, tc in self.trials], self.actual_steps)
        for (tdir, tc), steps in zip(self.trials, picks):
            env, gcm = scenes[tc.env_seed]
            traj = json.loads(warm[f"{tdir}/trajectory.json"])
            rows = [ln.split(",") for ln in warm[f"{tdir}/metrics.csv"].decode().split()[1:]]
            cr = np.array([[float(a), float(b)] for _, a, b in rows])
            checks.check_trial(tc, env, gcm, traj["abs_positions"], traj["gu_positions"],
                               cr[:, 0], cr[:, 1], steps)
        return info


def _step_sample(rng: np.random.Generator, n_steps: list[int], k: int) -> list[list[int]]:
    """A seeded sample of k (trial, step) pairs, as per-trial step lists."""
    flat = [(t, s) for t, n in enumerate(n_steps) for s in range(1, n + 1)]
    out: list[list[int]] = [[] for _ in n_steps]
    for i in sorted(rng.choice(len(flat), size=min(k, len(flat)), replace=False)):
        t, s = flat[i]
        out[t].append(s)
    return out


def _exports(out: Path) -> dict[str, bytes]:
    files = [p for p in out.rglob("*") if p.is_file() and "gcm" not in p.relative_to(out).parts]
    return {str(p.relative_to(out)): p.read_bytes() for p in files}


WORKLOADS = {"family": Family, "city": City, "batch": Batch}


# ---------------------------------------------------------------------------
# Entry point


def _quantile(xs, q: float) -> float:
    return float(np.percentile(np.asarray(xs, dtype=float), q))


def end_to_end(setup: Tally, work: Tally, plan_values: list, acr: float, rss_mb: float,
               normalised: bool) -> dict:
    plans = work.plan_norm if normalised else work.plan_raw
    return {
        "setup_s": setup.norm if normalised else setup.raw,
        "steps_per_s": work.steps / (work.step_norm if normalised else work.step_raw),
        "plan_ms_p50": 1e3 * _quantile(plans, 50),
        "plan_ms_p90": 1e3 * _quantile(plans, 90),
        "plan_value": float(np.mean(plan_values)),
        "acr_actual": acr,
        "peak_rss_mb": rss_mb,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    mods = _load_program()
    import checks

    work = BENCH / "out" / f"{args.workload}-{args.seed}-{args.trace}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        return _run(args, mods, work, checks, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


def _run(args, mods, work, checks, units: dict) -> int:
    run = Run(mods)
    wl = WORKLOADS[args.workload](args.seed, mods, work)
    setup = Tally()
    traced = bool(args.trace)

    setup_tr = round_tr = None
    if traced:
        setup_tr = run.tracer = spans.Tracer()
        setup_tr.install(mods)
    try:
        wl.setup(run, setup)
    finally:
        if setup_tr is not None:
            setup_tr.uninstall()
            run.tracer = None
    run.plans.take()
    run.plans.values.clear()
    log(f"set-up: {setup.raw:.3f} s raw, {setup.norm:.3f} s normalised; {setup.sampling()}")

    rounds: list[Tally] = []
    outputs: list[tuple] = []
    t_start = time.perf_counter()
    while True:
        first = not rounds
        tally = Tally()
        run.plans.capture = first
        if traced and len(rounds) == 1:
            round_tr = run.tracer = spans.Tracer()
            round_tr.install(mods)
        try:
            out = wl.round(run, tally, first)
        finally:
            if round_tr is not None:
                round_tr.uninstall()
                run.tracer = None
        run.plans.capture = False
        outputs.append((tuple(run.plans.values), tuple(out)))
        run.plans.values.clear()
        rounds.append(tally)
        log(f"round {len(rounds) - 1}: {tally.raw:.3f} s raw, {tally.norm:.3f} s normalised; "
            f"{tally.sampling()}")
        elapsed = time.perf_counter() - t_start
        n_plans = sum(len(r.plan_raw) for r in rounds)
        if traced:
            if len(rounds) == 2:
                break
        elif (n_plans >= MIN_PLANS or not tally.plan_raw) and \
                elapsed + elapsed / len(rounds) > args.seconds:
            break
    if not outputs[0][0] or not any(r.plan_raw for r in rounds):
        log("no plan completed; nothing to report")
        return 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.attempted += run.plans.calls
    run.failed += run.plans.failures
    log(f"timed part: {len(rounds)} round(s), {time.perf_counter() - t_start:.2f} s wall; "
        f"calibration kernel median {1e3 * statistics.median(run.clock.samples):.3f} ms "
        f"over {len(run.clock.samples)} samples")

    correct = True
    t_checks = time.perf_counter()
    try:
        for r, o in enumerate(outputs[1:], start=1):
            checks.require(o == outputs[0], f"round {r} outputs differ from round 0")
        ratios = [checks.check_plan(*c) for c in run.plans.captured]
        info = wl.check(run, checks)
    except Exception as exc:  # noqa: BLE001 - any check that cannot finish is a failed check
        if not isinstance(exc, checks.CheckFailed):
            traceback.print_exc()
        log(f"CHECK FAILED: {exc}")
        correct = False
        ratios, info = [], {}
    log(f"checks: {time.perf_counter() - t_checks:.2f} s")
    for m in info.get("maps", []):
        log(f"map: {m['valid_cells']} valid cells, density {m['density']:.5f}, "
            f"{m['bits_checked']} bits checked")
    pair = [r for r in ratios if r is not None]
    if pair:
        log(f"planned value / brute-force optimum: mean {np.mean(pair):.4f}, "
            f"min {np.min(pair):.4f} over {len(pair)} plans")

    plan_values = outputs[0][0]
    if traced:
        metrics, extras, never = spans.layer_metrics(
            setup_tr, round_tr, setup.norm / setup.raw, rounds[1].norm / rounds[1].raw)
        untraced, traced_s = rounds[0].norm, rounds[1].norm
        metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced) / untraced
        for k, v in extras.items():
            log(f"extra layer {k}: {v:.6g}")
        if never:
            log("layers whose wrappers never fired (left out): " + ", ".join(never))
        result = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        work = Tally()
        for r in rounds:
            work.steps += r.steps
            work.step_norm += r.step_norm
            work.step_raw += r.step_raw
            work.plan_norm += r.plan_norm
            work.plan_raw += r.plan_raw
        e2e = end_to_end(setup, work, plan_values, wl.acr_actual(), rss_mb, True)
        raw = end_to_end(setup, work, plan_values, wl.acr_actual(), rss_mb, False)
        log("raw-metrics " + json.dumps(raw))
        log(f"plans timed: {len(work.plan_norm)}, steps: {work.steps}")
        result = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
