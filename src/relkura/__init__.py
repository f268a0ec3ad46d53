"""Coupled phase-oscillator lab: classical Kuramoto dynamics and bounded-velocity variants.

The package is organized as a small numpy library:

* :mod:`relkura.models` -- the drive-response family (forward map,
  inverse, slopes, admissibility checks).
* :mod:`relkura.dynamics` -- fixed-step RK4 integration in first-order
  and momentum form.
* :mod:`relkura.diagnostics` -- observables (diameters, order parameter,
  potential, energy, predicted contraction rate, decay fits).
* :mod:`relkura.experiments` -- seeded, reproducible scenario runners
  with JSON-serializable reports.
* :mod:`relkura.cli` -- the ``relkura`` command.
"""

from .diagnostics import (
    DecayFit,
    DiagnosticsSeries,
    OrderParameter,
    PotentialValue,
    compute_diagnostics,
    energy,
    fit_decay_rate,
    l1_discrepancy,
    order_parameter,
    phase_diameter,
    potential,
    predicted_rate,
    theta_star,
    write_diagnostics_csv,
)
from .dynamics import (
    MomentumState,
    MomentumTrajectory,
    PhaseState,
    SystemConfig,
    Trajectory,
    coupling,
    induced_frequencies,
    momentum_rhs,
    rhs,
    rk4_step,
    simulate,
    simulate_momentum,
    write_trajectory_csv,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateFitError,
    DomainError,
    RelkuraError,
    UnsupportedModelError,
)
from .experiments import (
    RNG_ALGORITHM,
    ExperimentReport,
    PredicateOutcome,
    SamplingSpec,
    make_rng,
    run_four_model_comparison,
    run_limit_scaling,
    run_rate_vs_c,
    run_rcs_crosscheck,
    run_sync_predicates,
    sample_ensemble,
    sample_protocol_ensemble,
)
from .models import (
    AdmissibilityReport,
    FrequencyResponse,
    ModelKind,
    classical,
    proper_velocity,
    rapidity,
    relativistic,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "ConfigError",
    "ConvergenceError",
    "DecayFit",
    "DegenerateFitError",
    "DiagnosticsSeries",
    "DomainError",
    "ExperimentReport",
    "FrequencyResponse",
    "ModelKind",
    "MomentumState",
    "MomentumTrajectory",
    "OrderParameter",
    "PhaseState",
    "PotentialValue",
    "PredicateOutcome",
    "RelkuraError",
    "RNG_ALGORITHM",
    "SamplingSpec",
    "SystemConfig",
    "Trajectory",
    "UnsupportedModelError",
    "classical",
    "compute_diagnostics",
    "coupling",
    "energy",
    "fit_decay_rate",
    "induced_frequencies",
    "l1_discrepancy",
    "make_rng",
    "momentum_rhs",
    "order_parameter",
    "phase_diameter",
    "potential",
    "predicted_rate",
    "proper_velocity",
    "rapidity",
    "relativistic",
    "rhs",
    "rk4_step",
    "run_four_model_comparison",
    "run_limit_scaling",
    "run_rate_vs_c",
    "run_rcs_crosscheck",
    "run_sync_predicates",
    "sample_ensemble",
    "sample_protocol_ensemble",
    "simulate",
    "simulate_momentum",
    "theta_star",
    "write_diagnostics_csv",
    "write_trajectory_csv",
    "__version__",
]
