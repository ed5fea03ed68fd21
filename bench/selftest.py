#!/usr/bin/env python3
"""Shows that the benchmark's output checks catch injected faults.

    python3 bench/selftest.py

Builds one family scene, runs one trial, confirms every check passes on the
real outputs, then injects one fault at a time into a copy and confirms the
matching check fails: a flipped map bit, a planned value off by one, a
target outside its pool, and a per-step coverage off by one user. Exits 0
when every fault is caught.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import replace

import numpy as np

import run as bench


def main() -> int:
    mods = bench._load_program()
    import checks

    sim, gcm_mod = mods["absmove.sim"], mods["absmove.gcm"]
    cfgmod = mods["absmove.config"]
    cfg = cfgmod.load_config(bench.BENCH / "scenarios" / "family.yaml")
    tc = cfgmod.parse_trial_config(cfg, seed=bench.child_seed(0, 0))
    env = mods["absmove.env"].generate_environment(
        tc.spec.d1, tc.spec.d2, tc.env.num_blocks, tc.env.block_width,
        (tc.env.height_low, tc.env.height_high), tc.env_seed)
    gcm = gcm_mod.build_gcm(env, tc.channel, tc.spec)
    recorder = bench.Run(mods).plans
    recorder.capture = True
    lg = sim.run_trial(tc, env, gcm)
    state, _, _, rec = recorder.captured[0]
    work = bench.BENCH / "out"
    work.mkdir(exist_ok=True)

    def bits(g, picks):
        checks.check_bits(env, tc.channel, g, picks)

    def plan(r):
        checks.check_plan(state, gcm, tc, r)

    def trial(cr):
        checks.check_trial(tc, env, gcm, lg.abs_positions, lg.gu_positions, cr,
                           lg.cr_actual, [1])

    picks = checks.sample_bits(gcm, np.random.default_rng(0), 24)
    checks.check_gcm(env, tc.channel, gcm, np.random.default_rng(0), 24,
                     work / "selftest.gcm", gcm_mod)
    with contextlib.suppress(OSError):
        work.rmdir()  # only when no benchmark run is using it
    for c in recorder.captured:
        checks.check_plan(*c)
    trial(lg.cr_simplified)
    print("ok: every check passes on the program's outputs")

    flipped = gcm_mod.Gcm(spec=gcm.spec, z=gcm.z.copy(), abs_cell_valid=gcm.abs_cell_valid,
                          eta=gcm.eta)
    decidable = [(t, v) for t, v in picks if checks.link_verdict(
        env, tc.channel, (*checks.abs_center(gcm.spec, t + 1), tc.spec.abs_alt),
        (*checks.gu_center(gcm.spec, v + 1), tc.channel.gu_alt)) is not None]
    t, v = decidable[0]
    flipped.z[t, v] = not flipped.z[t, v]

    anchor = checks.abs_center(gcm.spec, state.anchor_cells[0])
    far = max((u for u in np.flatnonzero(gcm.abs_cell_valid) + 1
               if u not in rec.target_cells),
              key=lambda u: np.hypot(*np.subtract(checks.abs_center(gcm.spec, u), anchor)))
    cr_off = lg.cr_simplified.copy()
    cr_off[0] += 1.0 / tc.n_gus

    faults = (
        ("flipped map bit", lambda: bits(flipped, [(t, v)])),
        ("planned value off by one", lambda: plan(replace(rec, planned_value=rec.planned_value + 1))),
        ("target outside its pool",
         lambda: plan(replace(rec, target_cells=(int(far),) + tuple(rec.target_cells[1:])))),
        ("simplified coverage off by one user", lambda: trial(cr_off)),
    )
    missed = 0
    for name, inject in faults:
        try:
            inject()
        except checks.CheckFailed as exc:
            print(f"ok: {name} caught: {exc}")
        else:
            print(f"MISSED: {name}")
            missed += 1
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
