"""Multi-ABS movement optimization over mobile ground users.

Pipeline: site-specific air-to-ground channel -> precomputed cell-to-cell
connectivity map -> per-period integer placement instances -> fast online
randomized solver, benchmarked against an exact oracle and an evolutionary
baseline inside a deterministic trial simulator.
"""

from .baselines import ea_step, exact_optimum, kmeans_centroids, kmeans_init
from .bilp import (
    BilpInstance,
    Placement,
    assemble,
    covered_weight,
    evaluate_placement,
    feasible_sets,
    make_placement,
)
from .channel import (
    ChannelParams,
    ModelValidityWarning,
    coverage_mask,
    db_to_linear,
    is_covered,
    linear_to_db,
    marcum_q1,
    mean_gain,
    outage_probability,
    rician_k,
    sample_rician_power,
    snr,
)
from .config import (
    ExperimentSpec,
    derive_seed,
    gcm_cache_key,
    load_config,
    merge_config,
    parse_experiment,
    parse_trial_config,
)
from .env import (
    BuildingBlock,
    Environment,
    generate_environment,
    is_los,
    los_blocked_mask,
    obstructed_mask,
)
from .errors import (
    AbsmoveError,
    ConfigError,
    ContractViolationError,
    EnvironmentTooDenseError,
    FileFormatError,
    GcmFormatError,
    InfeasibleSetError,
    OracleCapError,
)
from .gcm import (
    Gcm,
    GridSpec,
    Plane,
    build_gcm,
    load_gcm,
    nearest_valid_abs_cell,
    save_gcm,
    valid_abs_cells,
)
from .online_solver import SolverReport, decode_and_repair, dual_objective, gap_bound, solve
from .sim import (
    EnvConfig,
    PeriodRecord,
    PlanState,
    SolverConfig,
    TrialConfig,
    TrialLog,
    fly_step,
    plan_period,
    run_trial,
    step_gu,
    validate_trial_log,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
