"""Coupled phase-oscillator lab: classical Kuramoto dynamics and bounded-velocity variants.

The package is organized as a small numpy library:

* :mod:`relkura.models` -- the drive-response family (forward map,
  inverse, slopes).
* :mod:`relkura.dynamics` -- fixed-step RK4 integration in first-order
  form (one system or a batch as one state) and momentum form (both
  forms of one system as one state).
* :mod:`relkura.diagnostics` -- observables (diameters, order parameter,
  potential, energy, predicted contraction rate, decay fits).
* :mod:`relkura.experiments` -- seeded, reproducible scenario runners
  with JSON-serializable reports.
* :mod:`relkura.cli` -- the ``relkura`` command.

The package re-exports each library module's ``__all__``; that list is the
one place a public name is declared.
"""

from . import diagnostics, dynamics, errors, experiments, models
from .diagnostics import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .errors import *  # noqa: F403
from .experiments import *  # noqa: F403
from .models import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *diagnostics.__all__,
    *dynamics.__all__,
    *errors.__all__,
    *experiments.__all__,
    *models.__all__,
]
