"""Plan a single period with the online solver, the exact oracle, and the
k-means + evolutionary baseline, all from the same assembled instance.

Run:  python demos/03_one_period_three_solvers.py
"""

import time

import numpy as np

from absmove import (
    ChannelParams,
    GridSpec,
    assemble,
    build_gcm,
    feasible_sets,
    generate_environment,
)
from absmove.baselines import ea_step, exact_optimum, kmeans_centroids, kmeans_init
from absmove.online_solver import solve

N_ABS = 2
N_GUS = 20


def main() -> None:
    rng = np.random.default_rng(17)
    env = generate_environment(500.0, 500.0, 75, 25.0, (30.0, 89.0), seed=17)
    params = ChannelParams(tx_power_dbm=-7.0)
    spec = GridSpec(d1=500.0, d2=500.0, k1=20, k2=20, k1p=20, k2p=20, abs_alt=90.0)
    gcm = build_gcm(env, params, spec)

    gu_positions = rng.uniform(0.0, 500.0, size=(N_GUS, 2))
    anchors = rng.uniform(100.0, 400.0, size=(N_ABS, 2))
    pools = feasible_sets(anchors, spec, gcm.abs_cell_valid, radius=300.0)
    print(f"{N_ABS} vehicles, {N_GUS} users, pools of "
          f"{[len(p) for p in pools]} reachable cells\n")

    instance = assemble(gcm, pools, gu_positions)

    t0 = time.perf_counter()
    report = solve(instance, duplication=10, seed=0)
    t_online = time.perf_counter() - t0
    print(f"online (10 restarts): covers {report.coverage_value}/{N_GUS} "
          f"in {t_online * 1e3:6.1f} ms  cells {report.placement.abs_cells}")
    print(f"  restart values {report.restart_values}, "
          f"a-priori gap bound {report.gap_bound:.0f}")

    t0 = time.perf_counter()
    best = exact_optimum(instance)
    t_pruned = time.perf_counter() - t0
    print(f"oracle (pruned):      covers {best.coverage_value}/{N_GUS} "
          f"in {t_pruned * 1e3:6.1f} ms  cells {best.abs_cells}")

    t0 = time.perf_counter()
    plain = exact_optimum(instance, branch_and_bound=False)
    t_plain = time.perf_counter() - t0
    print(f"oracle (plain scan):  covers {plain.coverage_value}/{N_GUS} "
          f"in {t_plain * 1e3:6.1f} ms  cells {plain.abs_cells}")

    t0 = time.perf_counter()
    seeded = kmeans_init(instance, kmeans_centroids(gu_positions, instance.n_abs, seed=1))
    polished = ea_step(seeded, instance, rounds=3000, mutation_radius=25.0, seed=1)
    t_ea = time.perf_counter() - t0
    print(f"k-means + mutation:   covers {polished.coverage_value}/{N_GUS} "
          f"in {t_ea * 1e3:6.1f} ms  cells {polished.abs_cells}")

    ratio = report.coverage_value / best.coverage_value
    print(f"\nonline reaches {ratio:.0%} of the optimum; the exhaustive scan "
          f"costs {t_plain / t_online:.0f}x its time, and the gap between the "
          f"two oracles is what branch-and-bound pruning buys")


if __name__ == "__main__":
    main()
