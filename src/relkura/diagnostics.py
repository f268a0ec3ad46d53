"""Observables over phase configurations and recorded trajectories.

Scalar observables (diameter, order parameter, predicted contraction
rate) operate on single configurations; the potential and the energy
take one configuration or a stack of them along the last axis.  The
trajectory-level helpers evaluate the observables along a recorded run
and export the series as plot-ready CSV, written a block of rows at a
time with the bytes of ``np.savetxt`` at ``%.16e``.  Every series (the
order parameter, the potential's phasor spread, the energy) is taken
over the 4096-float row blocks of ``dynamics._row_blocks``, each row
reduced as in one pass over all rows, so the floats do not depend on the
blocking and no temporary outgrows a block, or one row where a row is
wider (n > 4096); only the potential's linear term ``theta @ omega`` is
one product over all rows.  The potential's phasor spread keeps
cos(x) - 1 as -2 sin(x/2)**2 (``_shifted_phasors``), since its
deviations from the mean are the digits it reports; the coupling's O(n)
sums in ``dynamics`` take plain cos(x), which they use whole.  The
order parameter of a configuration and of each recorded row come from
one rule (``_order_rows``), which also owns the ``R_UNDEFINED_BELOW``
cut.

The energy observable is the integral of w * F'(w) from 0 to |w_i| per
oscillator, summed; each bounded kind has it in closed form:
c**2 * (gamma - 1) (proper-velocity), c**2 * ln(gamma) (rapidity) and
c**2 * (gamma - 1) + (gamma**2 - 1) - ln(gamma) (full relativistic).
They are taken at every bound in the u = |w|/c and s = 1 - u**2 of
``models._span_ratio``, with root = sqrt(s): c**2 * (gamma - 1) =
(w / root) * (w / (1 + root)), gamma**2 - 1 = g = u**2 / s and
c**2 * ln(gamma) = (w / root) * ((w / root) * log1p(g) / g) / 2 (the
ratio is 1 where g underflows to 0).  No factor c * c is formed and
nothing cancels, so each term is within a few ulps, or over- or
underflows only where its value does, for every bound from 1e-300 to
1e300.  The classical kind has no finite velocity bound and no such
energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SystemConfig, Trajectory, _row_blocks, _write_csv
from .errors import ConfigError, DegenerateFitError, DomainError, UnsupportedModelError
from .models import FrequencyResponse, ModelKind, _span_ratio

__all__ = [
    "OrderParameter",
    "DecayFit",
    "DiagnosticsSeries",
    "phase_diameter",
    "order_parameter",
    "potential",
    "energy",
    "predicted_rate",
    "fit_decay_rate",
    "theta_star",
    "compute_diagnostics",
    "write_diagnostics_csv",
]

# Below this magnitude the centroid of the unit phasors is numerically
# zero and the mean phase angle carries no information.
R_UNDEFINED_BELOW = 1e-12


@dataclass(frozen=True)
class OrderParameter:
    """Centroid length r in [0, 1] and mean phase phi in (-pi, pi].

    ``phi`` is None when r is numerically zero (balanced configurations
    such as antipodal pairs), where the mean phase is undefined.
    """

    r: float
    phi: float | None


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit log(values) ~ intercept - rate * t."""

    rate: float
    intercept: float
    rms_residual: float


def phase_diameter(theta) -> float:
    """max(theta) - min(theta); phases are unwrapped so this can exceed 2*pi."""
    th = np.asarray(theta, dtype=float)
    if th.size == 0:
        raise ConfigError("theta", "phase_diameter needs at least one phase")
    return float(np.ptp(th))


def _order_rows(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r = |mean e^{i theta}| and its angle phi along the last axis.

    phi is nan where r <= R_UNDEFINED_BELOW.  The one rule behind
    ``order_parameter`` and the order series of ``compute_diagnostics``.
    """
    z = np.exp(1j * theta).mean(axis=-1)
    r = np.abs(z)
    return r, np.where(r > R_UNDEFINED_BELOW, np.angle(z), np.nan)


def order_parameter(theta) -> OrderParameter:
    th = np.asarray(theta, dtype=float)
    if th.size == 0:
        raise ConfigError("theta", "order_parameter needs at least one phase")
    r, phi = _order_rows(th.reshape(-1))
    return OrderParameter(float(r), None if np.isnan(phi) else float(phi))


def _shifted_phasors(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sin(x) and cos(x) - 1 of x = theta minus each row's first phase.

    Identical phases give exact zeros, large unwrapped phases cost no
    digits, and cos(x) - 1, taken as -2 sin(x/2)**2, keeps its relative
    precision near synchrony where 1 - cos(x) would be rounding noise.
    """
    shifted = theta - theta[..., :1]
    return np.sin(shifted), -2.0 * np.sin(0.5 * shifted) ** 2


def _phasor_spread(theta: np.ndarray) -> np.ndarray:
    """sum_j |e^{i theta_j} - z|**2 along the last axis, z the row's mean phasor.

    Equal to n * (1 - r**2), i.e. sum_ij (1 - cos(theta_j - theta_i)) / n,
    in O(n).  The shifted phasors keep every term free of cancellation, so
    nearly synchronised rows, where n - n * r**2 is rounding noise, keep
    full relative precision.  The rows are taken in ``_row_blocks``, so no
    temporary outgrows one block; each row is reduced as in one pass over
    all rows.
    """
    n = theta.shape[-1]
    flat = theta.reshape(-1, n)
    out = np.empty(len(flat))
    for rows in _row_blocks(len(flat), n):
        sin_dev, cos_dev = _shifted_phasors(flat[rows])
        sin_dev -= sin_dev.mean(axis=-1, keepdims=True)
        cos_dev -= cos_dev.mean(axis=-1, keepdims=True)
        out[rows] = (sin_dev * sin_dev + cos_dev * cos_dev).sum(axis=-1)
    return out.reshape(theta.shape[:-1])


def potential(theta, kappa: float, omega):
    """Gradient-flow potential -omega . theta + pair term, along the last axis.

    ``theta`` is one configuration (n,) or a stack (..., n); the result is
    a scalar or one value per row.  The pair term is the pairwise
    (1 - cos) sum scaled by kappa/(2n), evaluated in O(n) as
    kappa/2 * sum_j |e^{i theta_j} - z|**2, z the row's mean phasor, a
    form that keeps its digits near synchrony; with omega = 0 the
    potential is the pair term alone.  Unless sum(omega) = 0 the linear
    term makes the potential meaningful only up to drift.
    """
    th = np.asarray(theta, dtype=float)
    om = np.asarray(omega, dtype=float)
    if th.size == 0:
        raise ConfigError("theta", "potential needs at least one phase")
    if om.shape != th.shape[-1:]:
        raise ConfigError("omega", "potential needs an omega of the phases' last-axis length")
    return -(th @ om) + 0.5 * kappa * _phasor_spread(th)


def energy(model: FrequencyResponse, theta_dot):
    """Total kinetic-type energy of the velocities, along the last axis.

    ``theta_dot`` is one configuration (n,), giving a float, or a stack
    (..., n), giving one value per row; each row is summed as a
    configuration alone is, so the values do not depend on the stacking.
    Raises UnsupportedModelError for the classical kind and DomainError
    when any |theta_dot| of the input reaches the velocity bound.
    """
    if model.kind is ModelKind.CLASSICAL:
        raise UnsupportedModelError("the classical kind has no bounded-velocity energy")
    td = np.atleast_1d(np.asarray(theta_dot, dtype=float))
    c = model.velocity_bound
    if not np.all(np.isfinite(td)) or np.any(np.abs(td) >= c):
        raise DomainError(f"velocities must satisfy |theta_dot| < {c}")
    u, _, s = _span_ratio(td, c)
    root = np.sqrt(s)
    scaled = td / root
    gamma2_m1 = u * u / s
    with np.errstate(over="ignore"):
        if model.kind is ModelKind.RAPIDITY:
            log1p_ratio = np.divide(np.log1p(gamma2_m1), gamma2_m1,
                                    out=np.ones_like(gamma2_m1), where=gamma2_m1 > 0.0)
            # scaled * scaled overflows next to bounds above ~3e146, where the energy is finite
            terms = 0.5 * scaled * (scaled * log1p_ratio)
        else:
            c2_gamma_m1 = scaled * (td / (1.0 + root))
            if model.kind is ModelKind.PROPER_VELOCITY:
                terms = c2_gamma_m1
            else:
                terms = c2_gamma_m1 + gamma2_m1 - 0.5 * np.log1p(gamma2_m1)
    total = terms.sum(axis=-1)
    return float(total) if td.ndim == 1 else total


def predicted_rate(config: SystemConfig, initial_diameter: float) -> float:
    """Guaranteed contraction rate for a homogeneous ensemble.

    kappa * sin(D0)/D0 * min of the inverse-response slope over the drive
    range [nu - kappa, nu + kappa], valid when the initial diameter D0 is
    inside (0, pi).  Requires all natural frequencies equal.
    """
    om = config.omega
    if float(np.ptp(om)) != 0.0:
        raise DomainError("predicted_rate requires identical natural frequencies")
    if not (0.0 < initial_diameter < math.pi):
        raise DomainError("predicted_rate requires 0 < initial_diameter < pi")
    nu = float(om[0])
    floor = config.model.min_velocity_slope(nu - config.kappa, nu + config.kappa)
    return config.kappa * (math.sin(initial_diameter) / initial_diameter) * floor


def fit_decay_rate(times, values) -> DecayFit:
    """Fit log(values) linearly in time; rate is the negated slope.

    The least-squares line is taken in closed form on centred times:
    slope = sum((t - mean t) * (l - mean l)) / sum((t - mean t)**2) and
    intercept = mean l - slope * mean t, with l = log(values).  The
    residuals l - (slope * t + intercept) are taken centred too, as
    (l - mean l) - slope * (t - mean t) less their float mean, so a
    window far from t = 0 keeps its digits.  Elementwise sums call no
    LAPACK routine, whose first call would leave about 1 MB of BLAS
    workspace resident for the rest of the process.  Requires at least
    three samples, strictly positive values, and distinct times whose
    squared deviations from their mean do not all underflow to 0.
    """
    t = np.asarray(times, dtype=float).reshape(-1)
    v = np.asarray(values, dtype=float).reshape(-1)
    if t.shape != v.shape or t.size < 3:
        raise DegenerateFitError("fit needs matching times/values with >= 3 samples")
    if np.ptp(t) == 0.0:
        raise DegenerateFitError("fit needs at least two distinct times")
    t_mean = t.mean()
    t_dev = t - t_mean
    t_spread = (t_dev * t_dev).sum()
    if t_spread == 0.0:
        raise DegenerateFitError("fit needs times whose squared deviations do not underflow")
    if not np.all(v > 0.0):
        raise DegenerateFitError("fit needs strictly positive values")
    logs = np.log(v)
    log_mean = logs.mean()
    log_dev = logs - log_mean
    slope = (t_dev * log_dev).sum() / t_spread
    intercept = log_mean - slope * t_mean
    resid = log_dev - slope * t_dev
    # the residuals of the exact fit sum to 0; their float mean is the
    # rounding of the two means, which would be all of the rms of an exact line
    resid -= resid.mean()
    rms = float(np.sqrt(np.mean(resid * resid)))
    return DecayFit(rate=float(-slope), intercept=float(intercept), rms_residual=rms)


def theta_star(kappa: float, omega_diameter: float) -> float:
    """Phase-lock half-angle asin(D(omega)/kappa); needs kappa > D(omega) >= 0."""
    if not (0.0 <= omega_diameter < kappa):
        raise DomainError("theta_star requires kappa > omega_diameter >= 0")
    return math.asin(omega_diameter / kappa)


# ----------------------------------------------------------------------
# trajectory-level series
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsSeries:
    """Observables along one recorded trajectory.

    ``order_phi`` holds nan where the order parameter magnitude is
    numerically zero; ``energy`` is all-nan for the classical kind.
    ``omega_diameter`` is D(omega) of the generating config.
    """

    times: np.ndarray
    phase_diameter: np.ndarray
    frequency_diameter: np.ndarray
    order_r: np.ndarray
    order_phi: np.ndarray
    potential: np.ndarray
    energy: np.ndarray
    omega_diameter: float

    def write_csv(self, path) -> None:
        write_diagnostics_csv(self, path)


def compute_diagnostics(config: SystemConfig, trajectory: Trajectory) -> DiagnosticsSeries:
    """Every observable at every recorded row, taken over row blocks.

    The order parameter and the energy come from one pass over the
    ``_row_blocks`` of recorded rows, and the potential's phasor spread
    from its own pass over the same blocks; every row gets the floats of
    a call on it alone.
    """
    th = trajectory.thetas
    vd = trajectory.theta_dots
    m, n = th.shape
    r, phi, en = np.empty(m), np.empty(m), np.full(m, np.nan)
    bounded = config.model.kind is not ModelKind.CLASSICAL
    for rows in _row_blocks(m, n):
        r[rows], phi[rows] = _order_rows(th[rows])
        if bounded:
            en[rows] = energy(config.model, vd[rows])
    return DiagnosticsSeries(
        times=trajectory.times,
        phase_diameter=np.ptp(th, axis=1),
        frequency_diameter=np.ptp(vd, axis=1),
        order_r=r,
        order_phi=phi,
        potential=potential(th, config.kappa, config.omega),
        energy=en,
        omega_diameter=float(np.ptp(config.omega)),
    )


def write_diagnostics_csv(series: DiagnosticsSeries, path) -> None:
    """Write ``t,diameter,freq_diameter,r,phi,potential,energy`` at 17 significant digits."""
    _write_csv(
        path,
        ["t", "diameter", "freq_diameter", "r", "phi", "potential", "energy"],
        [
            series.times,
            series.phase_diameter,
            series.frequency_diameter,
            series.order_r,
            series.order_phi,
            series.potential,
            series.energy,
        ],
    )
