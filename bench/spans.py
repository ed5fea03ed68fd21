"""In-memory spans around the program's public functions, and the per-layer
metrics derived from them.

Wrappers replace a function's name in the namespace of the module that calls
it: the program's modules import with ``from .x import f``, so patching only
the defining module would miss every internal call. Each span records its
name, start, end and parent; self time is a span's duration minus the time
covered by its direct children (the program is single-threaded, so children
never overlap).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name, counter). A counter maps (args, result) to
# the work the call did: links evaluated, rows and nonzeros assembled.
_SITES = (
    ("absmove.cli", "generate_environment", "env.generate", None),
    ("absmove.cli", "build_gcm", "gcm.build", None),
    ("absmove.cli", "save_gcm", "gcm.save", None),
    ("absmove.cli", "load_gcm", "gcm.load", None),
    ("absmove.cli", "run_trial", "sim.run_trial", None),
    ("absmove.cli", "export_metrics_csv", "sim.export", None),
    ("absmove.cli", "export_periods_csv", "sim.export", None),
    ("absmove.cli", "export_trajectory_json", "sim.export", None),
    ("absmove.channel", "los_blocked_mask", "env.los", lambda a, r: len(r)),
    ("absmove.channel", "outage_probability", "channel.outage", lambda a, r: np.size(r)),
    ("absmove.sim", "step_gu", "sim.step_gu", None),
    ("absmove.sim", "nearest_valid_abs_cell", "gcm.snap", None),
    ("absmove.sim", "coverage_mask", "sim.actual_cov", None),
    ("absmove.sim", "feasible_sets", "bilp.feasible", None),
    ("absmove.sim", "assemble", "bilp.assemble", lambda a, r: (r.n_rows, r.e.nnz, r.n_cols)),
    ("absmove.sim", "solve", "online_solver.solve", None),
    ("absmove.online_solver", "decode_and_repair", "online_solver.decode", None),
    ("absmove.sim", "exact_optimum", "baselines.exact", None),
    ("absmove.sim", "kmeans_centroids", "baselines.kmeans", None),
    ("absmove.sim", "ea_step", "baselines.ea", None),
)

# Layer metrics every workload must produce, with the span names they need.
# A metric whose spans never fired is named and left out, never reported as
# zero: a refactor that bypasses a public function must not read as a gain.
# Map-build metrics come from the traced set-up, the rest from the traced
# round.
PER_LAYER = {
    "env.generate_s": ("env.generate",),
    "env.los_s": ("gcm.build", "env.los"),
    "env.los_links": ("gcm.build", "env.los"),
    "channel.outage_s": ("gcm.build", "channel.outage"),
    "channel.outage_links": ("gcm.build", "channel.outage"),
    "gcm.build_s": ("gcm.build",),
    "gcm.snap_ms": ("gcm.snap", "sim.step_gu"),
    "bilp.feasible_ms": ("bilp.feasible",),
    "bilp.assemble_ms": ("bilp.assemble",),
    "bilp.rows": ("bilp.assemble",),
    "bilp.nnz": ("bilp.assemble",),
    "online_solver.greedy_ms": ("online_solver.solve", "online_solver.decode"),
    "online_solver.decode_ms": ("online_solver.solve", "online_solver.decode"),
    "online_solver.columns": ("online_solver.solve", "bilp.assemble"),
    "sim.step_gu_ms": ("sim.step_gu",),
    "sim.actual_cov_ms": ("sim.actual_cov", "sim.step_gu"),
    "sim.self_ms": ("sim.run_trial", "sim.step_gu"),
}
SETUP_KEYS = frozenset(k for k in PER_LAYER if k.startswith(("env.", "channel.", "gcm.build")))

# Layers only the CLI batch exercises; reported beside the metrics, once for
# the traced cold run (set-up) and once for the traced warm run (round).
BATCH_ONLY = (
    "gcm.save_ms",
    "gcm.load_ms",
    "baselines.exact_ms",
    "baselines.kmeans_ms",
    "baselines.ea_ms",
    "sim.export_s",
    "cli.gcm_builds",
    "cli.gcm_cache_hits",
    "cli.self_s",
)


# Span name of the benchmark's own calibration samples.
CALIBRATE = "bench.calibrate"


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[int, object] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def install(self, modules: dict) -> None:
        for mod_name, attr, name, counter in _SITES:
            module = modules[mod_name]
            orig = getattr(module, attr)
            setattr(module, attr, self._wrap(orig, name, counter))
            self._patches.append((module, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def _wrap(self, fn, name, counter):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                self.counts[idx] = counter(args, out)
            return out

        return wrapper


def _durations(tr: Tracer) -> np.ndarray:
    """Span durations without the calibration samples taken inside them."""
    dur = np.asarray(tr.ends) - np.asarray(tr.starts)
    for i, name in enumerate(tr.names):
        if name == CALIBRATE:
            p = tr.parents[i]
            while p >= 0:
                dur[p] -= dur[i]
                p = tr.parents[p]
            dur[i] = 0.0
    return dur


def _under(tr: Tracer, ancestor: str, idxs) -> list[int]:
    """Indices from ``idxs`` that have a span named ``ancestor`` above them."""
    out = []
    for i in idxs:
        p = tr.parents[i]
        while p >= 0 and tr.names[p] != ancestor:
            p = tr.parents[p]
        if p >= 0:
            out.append(i)
    return out


def _self_times(tr: Tracer, dur: np.ndarray) -> np.ndarray:
    child = np.zeros(len(dur))
    for i, p in enumerate(tr.parents):
        if p >= 0:
            child[p] += dur[i]
    return dur - child


def _values(tr: Tracer, factor: float) -> tuple[dict[str, float], set[str]]:
    """Every derivable layer value of one tracer, and the span names seen.

    Per-step values divide by the steps taken inside the spans (one
    ``step_gu`` call per step). Durations are multiplied by ``factor``.
    """
    dur = _durations(tr) * factor
    selft = _self_times(tr, dur)
    by: dict[str, list[int]] = {}
    for i, n in enumerate(tr.names):
        by.setdefault(n, []).append(i)

    def ids(name):
        return by.get(name, [])

    def total(idx_list):
        return float(dur[idx_list].sum()) if idx_list else 0.0

    values: dict[str, float] = {}
    builds = ids("gcm.build")
    if builds:
        nb = len(builds)
        values["gcm.build_s"] = total(builds) / nb
        for key, name in (("env.los", "env.los"), ("channel.outage", "channel.outage")):
            under = _under(tr, "gcm.build", ids(name))
            if under:
                values[f"{key}_s"] = total(under) / nb
                values[f"{key}_links"] = sum(tr.counts[i] for i in under) / nb
    for key, name, scale in (
        ("env.generate_s", "env.generate", 1.0),
        ("gcm.save_ms", "gcm.save", 1e3),
        ("gcm.load_ms", "gcm.load", 1e3),
        ("bilp.feasible_ms", "bilp.feasible", 1e3),
        ("bilp.assemble_ms", "bilp.assemble", 1e3),
        ("baselines.exact_ms", "baselines.exact", 1e3),
        ("baselines.kmeans_ms", "baselines.kmeans", 1e3),
        ("baselines.ea_ms", "baselines.ea", 1e3),
    ):
        if ids(name):
            values[key] = scale * total(ids(name)) / len(ids(name))
    asm = ids("bilp.assemble")
    if asm:
        values["bilp.rows"] = float(np.mean([tr.counts[i][0] for i in asm]))
        values["bilp.nnz"] = float(np.mean([tr.counts[i][1] for i in asm]))
    solves = ids("online_solver.solve")
    decodes = ids("online_solver.decode")
    if solves and decodes:
        # Greedy passes are private; their time is solve minus decode.
        dec = total(decodes)
        values["online_solver.decode_ms"] = 1e3 * dec / len(solves)
        values["online_solver.greedy_ms"] = 1e3 * (total(solves) - dec) / len(solves)
    if solves and asm:
        # An online solve prices the instance its sibling assemble built.
        cols = []
        for s in solves:
            prior = [a for a in asm if a < s and tr.parents[a] == tr.parents[s]]
            if prior:
                cols.append(tr.counts[prior[-1]][2])
        if cols:
            values["online_solver.columns"] = float(np.mean(cols))
    steps = len(ids("sim.step_gu"))
    if steps:
        for key, name in (
            ("gcm.snap_ms", "gcm.snap"),
            ("sim.step_gu_ms", "sim.step_gu"),
            ("sim.actual_cov_ms", "sim.actual_cov"),
        ):
            if ids(name):
                values[key] = 1e3 * total(ids(name)) / steps
        if ids("sim.run_trial"):
            values["sim.self_ms"] = 1e3 * float(selft[ids("sim.run_trial")].sum()) / steps
    runs = ids("cli.run")
    if runs:
        nr = len(runs)
        values["sim.export_s"] = total(ids("sim.export")) / nr
        values["cli.gcm_builds"] = len(_under(tr, "cli.run", builds)) / nr
        values["cli.gcm_cache_hits"] = len(_under(tr, "cli.run", ids("gcm.load"))) / nr
        values["cli.self_s"] = float(selft[runs].sum()) / nr
    return values, set(by)


def layer_metrics(setup: Tracer, rnd: Tracer, setup_factor: float, round_factor: float):
    """Per-layer metrics, batch-only extras and the metrics whose spans never
    fired, from the traced set-up and the traced round.

    Times are scaled by each phase's machine-normalisation factor (nominal
    over raw seconds), as the end-to-end timings are.
    """
    sv, s_fired = _values(setup, setup_factor)
    rv, r_fired = _values(rnd, round_factor)
    metrics: dict[str, float] = {}
    never: list[str] = []
    for key, need in PER_LAYER.items():
        vals, fired = (sv, s_fired) if key in SETUP_KEYS else (rv, r_fired)
        if key in vals and set(need) <= fired:
            metrics[key] = vals[key]
        else:
            never.append(key)
    extras = {}
    for tag, vals in (("setup", sv), ("round", rv)):
        for key in BATCH_ONLY:
            if key in vals:
                extras[f"{tag}:{key}"] = vals[key]
    return metrics, extras, never
