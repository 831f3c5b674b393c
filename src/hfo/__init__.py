"""Simulation and analysis toolkit for sampled-data feedback optimization of
linear time-invariant plants."""

__version__ = "0.1.0"

from .hybrid import (
    HybridArc,
    JumpStats,
    State,
    check_non_zeno,
    jump_stats,
    next_event,
    simulate,
)
from .model import (
    Ball,
    Box,
    HybridFOModel,
    JumpPolicy,
    ModelParams,
    Objective,
    Perturbation,
    Plant,
    Timers,
    make_state,
    strict_initial_state,
    validate,
)
from .analysis import (
    Constants,
    bound_thm1,
    bound_thm2,
    check_bound,
    constants,
    dist_to_A,
    estimate_M,
    fixed_point_z,
    rate_check,
    reconstruct_blocks,
    reconstruct_x,
    solve_optimal,
)
from .robustness import (
    ClosenessResult,
    closeness,
    iota_magnitude,
    robustness_sweep,
)
from .config import ScenarioConfig, parse_config
