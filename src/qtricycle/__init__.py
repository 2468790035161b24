"""Finite-time performance of a driven two-level quantum tricycle.

A two-level system shuttles heat between three reservoirs (cold, hot,
pump) through cosine frequency sweeps joined by instantaneous quenches.
The package computes the slow-driving heat expansion per branch, assembles
cycle metrics (COP, cooling rate, figure of merit), validates the expansion
against brute-force master-equation integration, and solves the
Lagrange-multiplier time-allocation problem for the optimal operating
curves.
"""

__version__ = "0.1.0"

from .protocol import (
    TricycleConfig,
    BranchProtocol,
    derive_linked_params,
    frequency,
    frequency_derivative,
)
from .lindblad import (
    DensityVector,
    bose_occupation,
    damping_rate,
    gibbs_state,
    liouvillian,
)
from .thermo import (
    BranchThermo,
    equilibrium_entropy,
    branch_entropy_change,
    sigma_coefficient,
    branch_heat,
    perturbed_state,
    ts_trajectory,
)
from .oracle import propagate, heat_via_trajectory
from .cycle import (
    CycleMetrics,
    cycle_coefficients,
    evaluate_cycle,
    reversible_cop,
    reversible_amplitude,
    zeroth_heat_sum,
    zeroth_heat_sum_curve,
)
from .optimize import (
    AllocationSolution,
    SweepRecord,
    balanced_tau_h,
    solve_time_allocation,
    optimal_curve,
    max_cooling_rate,
    max_figure_of_merit,
    alpha_sweep,
    envelope_curve,
    time_allocation_profile,
    free_time_sweep,
)
from .errors import ConfigError, ConvergenceError, PositivityError

__all__ = [
    "__version__",
    "TricycleConfig", "BranchProtocol", "derive_linked_params",
    "frequency", "frequency_derivative",
    "DensityVector", "bose_occupation", "damping_rate", "gibbs_state",
    "liouvillian",
    "BranchThermo", "equilibrium_entropy", "branch_entropy_change",
    "sigma_coefficient", "branch_heat", "perturbed_state", "ts_trajectory",
    "propagate", "heat_via_trajectory",
    "CycleMetrics", "cycle_coefficients", "evaluate_cycle", "reversible_cop",
    "reversible_amplitude", "zeroth_heat_sum", "zeroth_heat_sum_curve",
    "AllocationSolution", "SweepRecord", "balanced_tau_h",
    "solve_time_allocation", "optimal_curve", "max_cooling_rate",
    "max_figure_of_merit", "alpha_sweep", "envelope_curve",
    "time_allocation_profile", "free_time_sweep",
    "ConfigError", "ConvergenceError", "PositivityError",
]
