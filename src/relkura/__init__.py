"""Coupled phase-oscillator lab: classical Kuramoto dynamics and bounded-velocity variants.

The package is organized as a small numpy library:

* :mod:`relkura.models` -- the drive-response family (forward map,
  inverse, slopes, admissibility checks).
* :mod:`relkura.dynamics` -- fixed-step RK4 integration in first-order
  form (one system or a batch as one state) and momentum form (both
  forms of one system as one state).
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
    MomentumTrajectory,
    SystemConfig,
    Trajectory,
    coupling,
    induced_frequencies,
    rhs,
    simulate,
    simulate_batch,
    simulate_both_forms,
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
    "MomentumTrajectory",
    "OrderParameter",
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
    "order_parameter",
    "phase_diameter",
    "potential",
    "predicted_rate",
    "proper_velocity",
    "rapidity",
    "relativistic",
    "rhs",
    "run_four_model_comparison",
    "run_limit_scaling",
    "run_rate_vs_c",
    "run_rcs_crosscheck",
    "run_sync_predicates",
    "sample_ensemble",
    "sample_protocol_ensemble",
    "simulate",
    "simulate_batch",
    "simulate_both_forms",
    "simulate_momentum",
    "theta_star",
    "write_diagnostics_csv",
    "write_trajectory_csv",
    "__version__",
]
