#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics across runs and seeds.

    python3 bench/steady.py [--workloads family city batch] [--seeds 1 2 ...] [--seeds 11 12 ...]

Each ``--seeds`` gives one set of runs (default: seeds 1-10). The sets run
one after the other, each over every workload, one run at a time, for the
run_seconds of BENCHMARK.json. Per workload it then prints a Markdown table
with, for every end-to-end metric and set, the median, the quartiles, the
spread (distance between the quartiles over the median, as
statistics.quantiles(n=4) gives them) and max/min, for the normalised values
the benchmark reports and the raw wall-clock values side by side, next to
the metric's bound in BENCHMARK.json. It names the spreads above a third of
the bound (setup_s aside) and, given several sets, each set's medians
against the first set's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict, float]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = next(json.loads(ln.split(" ", 1)[1]) for ln in proc.stderr.splitlines()
               if ln.startswith("raw-metrics "))
    return result, raw, wall


def stats(values: list[float]) -> tuple[float, float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med, max(values) / min(values)


def _cell(s: tuple) -> str:
    med, q1, q3, spread, ratio = s
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] | {spread:.3f} | {ratio:.3f}"


def report(wl: str, sets: list[list[tuple]], bounds: dict) -> None:
    tags = [chr(ord("A") + i) for i in range(len(sets))]
    walls = ", ".join(f"{statistics.fmean(w for *_, w in runs):.1f} s in set {t}"
                      for t, runs in zip(tags, sets))
    attempted = sorted({r["attempted"] for runs in sets for _, r, _, _ in runs})
    shares = sorted({r["failed"] / r["attempted"] for runs in sets for _, r, _, _ in runs})
    correct = all(r["correct"] for runs in sets for _, r, _, _ in runs)
    print(f"**{wl}** (mean wall time per run: {walls}; attempted {attempted}, "
          f"failed shares {shares}, all correct: {correct})\n")
    print("| metric | bound | set | normalised median [q1, q3] | spread | max/min "
          "| raw median [q1, q3] | spread | max/min |")
    print("|---|---|---|---|---|---|---|---|---|")
    wide, medians = [], {}
    for name, bound in bounds.items():
        for tag, runs in zip(tags, sets):
            norm = stats([r["metrics"][name]["value"] for _, r, _, _ in runs])
            raw = stats([w[name] for _, _, w, _ in runs])
            medians[name, tag] = norm[0]
            print(f"| `{name}` | {bound} | {tag} | {_cell(norm)} | {_cell(raw)} |")
            if name != "setup_s" and norm[3] > bound / 3:
                wide.append(f"`{name}` {norm[3]:.3f} in set {tag}")
    print()
    print("Spreads above a third of the bound: " + (", ".join(wide) or "none") + ".")
    for tag in tags[1:]:
        shifts = ", ".join(f"`{n}` {100 * (medians[n, tag] / medians[n, 'A'] - 1):+.1f}%"
                           for n in bounds)
        print(f"Median {tag} against A: {shifts}.")
    print(flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, action="append",
                    help="one set of seeds; repeat for further sets (default: 1-10)")
    args = ap.parse_args()
    seed_sets = args.seeds or [list(range(1, 11))]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[list[tuple]]] = {wl: [] for wl in args.workloads}
    for k, seeds in enumerate(seed_sets):
        for wl in args.workloads:
            runs[wl].append([])
            for seed in seeds:
                result, raw, wall = run_once(wl, seed, spec["run_seconds"])
                runs[wl][k].append((seed, result, raw, wall))
                vals = " ".join(f"{n}={v['value']:.6g}" for n, v in result["metrics"].items())
                print(f"set {chr(ord('A') + k)} {wl} seed {seed}: {wall:.1f} s, "
                      f"correct={result['correct']} failed={result['failed']}/"
                      f"{result['attempted']} {vals}", flush=True)
    print()
    for wl, sets in runs.items():
        report(wl, sets, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
