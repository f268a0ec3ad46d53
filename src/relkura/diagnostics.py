"""Observables over phase configurations and recorded trajectories.

Scalar observables (diameter, order parameter, predicted contraction
rate) operate on single configurations; the potential and the energy
take one configuration or a stack of them along the last axis.  The
trajectory-level helpers evaluate the observables along a recorded run
and export the series as plot-ready CSV, written a block of rows at a
time with the bytes of ``np.savetxt`` at ``%.16e``.  Every series (the
diameters, the order parameter, the potential's linear term and phasor
spread, the energy) comes from one rule on a block of recorded rows
(``_diagnostics_rows``), each row reduced as in a call on it alone, so
the floats do not depend on the blocking and no temporary outgrows a
block, or one row where a row is wider (n > 4096).
``compute_diagnostics`` applies it to the 4096-float row blocks of
``dynamics._row_blocks``, and the scenario runners to each block they
stream (``_diagnostics_csv``).  The potential's phasor spread keeps
cos(x) - 1 as -2 sin(x/2)**2 (``_shifted_phasors``), since its
deviations from the mean are the digits it reports; the coupling's O(n)
sums in ``dynamics`` take plain cos(x), which they use whole.  The
order parameter of a configuration and of each recorded row come from
one rule (``_order_rows``), which also owns the ``R_UNDEFINED_BELOW``
cut.

The energy observable is the integral of w * F'(w) from 0 to |w_i| per
oscillator, summed, for every kind; each has it in closed form: w**2 / 2
(classical, F' = 1), c**2 * (gamma - 1) (proper-velocity), c**2 *
ln(gamma) (rapidity) and c**2 * (gamma - 1) + (gamma**2 - 1) - ln(gamma)
(full relativistic).  Each bounded kind's energy tends to the classical
one as c grows, the gap falling as 1/c**2.  The bounded terms are taken
at every bound in the u = |w|/c and s = 1 - u**2 of
``models._span_ratio``, with root = sqrt(s): c**2 * (gamma - 1) =
(w / root) * (w / (1 + root)), gamma**2 - 1 = g = u**2 / s and
c**2 * ln(gamma) = (w / root) * ((w / root) * log1p(g) / g) / 2 (the
ratio is 1 where g underflows to 0).  No factor c * c is formed and
nothing cancels, so each term is within a few ulps, or over- or
underflows only where its value does, for every bound from 1e-300 to
1e300.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SystemConfig, Trajectory, _csv_header, _csv_rows, _row_blocks, _write_csv
from .errors import ConfigError, DegenerateFitError, DomainError
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


def _phases(theta, caller: str) -> np.ndarray:
    """``theta`` as floats; ConfigError("theta") unless it holds >= 1 phase, all finite."""
    th = np.asarray(theta, dtype=float)
    if th.size == 0 or not np.all(np.isfinite(th)):
        raise ConfigError("theta", f"{caller} needs at least one phase, every phase finite")
    return th


def phase_diameter(theta) -> float:
    """max(theta) - min(theta); phases are unwrapped so this can exceed 2*pi."""
    return float(np.ptp(_phases(theta, "phase_diameter")))


def _order_rows(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r = |mean e^{i theta}| and its angle phi along the last axis.

    phi is nan where r <= R_UNDEFINED_BELOW.  The one rule behind
    ``order_parameter`` and the order series of ``compute_diagnostics``.
    """
    z = np.exp(1j * theta).mean(axis=-1)
    r = np.abs(z)
    return r, np.where(r > R_UNDEFINED_BELOW, np.angle(z), np.nan)


def order_parameter(theta) -> OrderParameter:
    r, phi = _order_rows(_phases(theta, "order_parameter").reshape(-1))
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
    full relative precision.
    """
    sin_dev, cos_dev = _shifted_phasors(theta)
    sin_dev -= sin_dev.mean(axis=-1, keepdims=True)
    cos_dev -= cos_dev.mean(axis=-1, keepdims=True)
    return (sin_dev * sin_dev + cos_dev * cos_dev).sum(axis=-1)


def potential(theta, kappa: float, omega):
    """Gradient-flow potential -omega . theta + pair term, along the last axis.

    ``theta`` is one configuration (n,) or a stack (..., n); the result is
    a scalar or one value per row.  The pair term is the pairwise
    (1 - cos) sum scaled by kappa/(2n), evaluated in O(n) as
    kappa/2 * sum_j |e^{i theta_j} - z|**2, z the row's mean phasor, a
    form that keeps its digits near synchrony; with omega = 0 the
    potential is the pair term alone.  Unless sum(omega) = 0 the linear
    term makes the potential meaningful only up to drift.  Both terms are
    row-wise reductions over ``_row_blocks`` of the rows, so no temporary
    outgrows one block and every row gets the floats of a call on it alone.
    """
    th = _phases(theta, "potential")
    om = np.asarray(omega, dtype=float)
    if om.shape != th.shape[-1:]:
        raise ConfigError("omega", "potential needs an omega of the phases' last-axis length")
    flat = th.reshape(-1, om.size)
    out = np.empty(len(flat))
    for rows in _row_blocks(len(flat), om.size):
        block = flat[rows]
        out[rows] = 0.5 * kappa * _phasor_spread(block) - (block * om).sum(axis=-1)
    return out.reshape(th.shape[:-1])[()]


def _energy_terms(model: FrequencyResponse, td: np.ndarray) -> np.ndarray:
    """The integral of w * F'(w) from 0 to |w| for each velocity of ``td``."""
    if model.kind is ModelKind.CLASSICAL:
        # halved first: (w / 2) * w overflows only where w**2 / 2 does
        return (0.5 * td) * td
    u, _, s = _span_ratio(td, model.velocity_bound)
    root = np.sqrt(s)
    scaled = td / root
    gamma2_m1 = u * u / s
    if model.kind is ModelKind.RAPIDITY:
        log1p_ratio = np.divide(np.log1p(gamma2_m1), gamma2_m1,
                                out=np.ones_like(gamma2_m1), where=gamma2_m1 > 0.0)
        # scaled * scaled overflows next to bounds above ~3e146, where the energy is finite
        return 0.5 * scaled * (scaled * log1p_ratio)
    c2_gamma_m1 = scaled * (td / (1.0 + root))
    if model.kind is ModelKind.PROPER_VELOCITY:
        return c2_gamma_m1
    return c2_gamma_m1 + gamma2_m1 - 0.5 * np.log1p(gamma2_m1)


def energy(model: FrequencyResponse, theta_dot):
    """Total kinetic-type energy of the velocities, along the last axis.

    ``theta_dot`` is one configuration (n,), giving a float, or a stack
    (..., n), giving one value per row; each row is summed as a
    configuration alone is, so the values do not depend on the stacking.
    For the classical kind it is sum(w**2) / 2.  Raises DomainError, as
    ``momentum`` does, unless every |theta_dot| is finite and below the
    velocity bound; an energy beyond the largest float is inf.
    """
    td = np.atleast_1d(np.asarray(theta_dot, dtype=float))
    model._require_subluminal(td)
    with np.errstate(over="ignore"):
        total = _energy_terms(model, td).sum(axis=-1)
    return float(total) if td.ndim == 1 else total


def predicted_rate(config: SystemConfig, initial_diameter: float) -> float:
    """Guaranteed contraction rate for a homogeneous ensemble.

    kappa * sin(D0)/D0 * min of the inverse-response slope over the drive
    range [nu - kappa, nu + kappa], valid when the initial diameter D0 is
    inside (0, pi).  The slope is even and falls with |drive|, so the
    minimum is its value at |nu| + kappa.  Requires all natural
    frequencies equal.
    """
    om = config.omega
    if float(np.ptp(om)) != 0.0:
        raise DomainError("predicted_rate requires identical natural frequencies")
    if not (0.0 < initial_diameter < math.pi):
        raise DomainError("predicted_rate requires 0 < initial_diameter < pi")
    floor = config.model.velocity_slope(abs(float(om[0])) + config.kappa)
    return config.kappa * (math.sin(initial_diameter) / initial_diameter) * floor


def fit_decay_rate(times, values) -> DecayFit:
    """Fit log(values) linearly in time; rate is the negated slope.

    The least-squares line is taken in closed form on centred times:
    slope = sum((t - mean t) * (l - mean l)) / sum((t - mean t)**2) and
    intercept = mean l - slope * mean t, with l = log(values).  The
    residuals l - (slope * t + intercept) are taken centred too, as
    (l - mean l) - slope * (t - mean t) less their float mean, so a
    window far from t = 0 keeps its digits.  The times enter scaled by
    the power of two 2**-k that brings max |t| into [0.5, 1), and the
    slope leaves scaled back by 2**k.  The scaling is exact, so a fit
    whose unscaled sums are normal keeps its floats, and no sum over- or
    underflows for any finite times; only a rate beyond the largest
    float comes back inf.  Elementwise sums call no LAPACK routine, whose
    first call would leave about 1 MB of BLAS workspace resident for the
    rest of the process.  Requires at least three samples, finite times
    and values, strictly positive values and two distinct times.
    """
    t = np.asarray(times, dtype=float).reshape(-1)
    v = np.asarray(values, dtype=float).reshape(-1)
    if t.shape != v.shape or t.size < 3:
        raise DegenerateFitError("fit needs matching times/values with >= 3 samples")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise DegenerateFitError("fit needs finite times and values")
    if not np.all(v > 0.0):
        raise DegenerateFitError("fit needs strictly positive values")
    k = int(np.frexp(np.max(np.abs(t)))[1])
    u = np.ldexp(t, -k)
    if np.ptp(u) == 0.0:
        raise DegenerateFitError("fit needs at least two distinct times")
    u_mean = u.mean()
    u_dev = u - u_mean
    logs = np.log(v)
    log_mean = logs.mean()
    log_dev = logs - log_mean
    # the slope per unit of scaled time: scaled_slope * u is slope * t, the 2**k cancelling
    scaled_slope = (u_dev * log_dev).sum() / (u_dev * u_dev).sum()
    intercept = log_mean - scaled_slope * u_mean
    resid = log_dev - scaled_slope * u_dev
    # the residuals of the exact fit sum to 0; their float mean is the
    # rounding of the two means, which would be all of the rms of an exact line
    resid -= resid.mean()
    rms = float(np.sqrt(np.mean(resid * resid)))
    with np.errstate(over="ignore"):
        rate = -float(np.ldexp(scaled_slope, -k))
    return DecayFit(rate=rate, intercept=float(intercept), rms_residual=rms)


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
    numerically zero.
    """

    times: np.ndarray
    phase_diameter: np.ndarray
    frequency_diameter: np.ndarray
    order_r: np.ndarray
    order_phi: np.ndarray
    potential: np.ndarray
    energy: np.ndarray


# The columns of a diagnostics CSV, in the order of DiagnosticsSeries' fields.
_DIAGNOSTICS_HEADER = ("t", "diameter", "freq_diameter", "r", "phi", "potential", "energy")


def _series_columns(series: DiagnosticsSeries) -> list[np.ndarray]:
    """The series' arrays in field order, the columns of its CSV."""
    return [getattr(series, f.name) for f in dataclasses.fields(series)]


def _diagnostics_rows(config: SystemConfig, times, thetas, theta_dots) -> DiagnosticsSeries:
    """Every observable at a few recorded rows: phases and velocities (rows, n).

    The one rule behind ``compute_diagnostics`` and the runners' streamed
    diagnostics, which take it one block of rows at a time; every row gets
    the floats of a call on it alone, so the series do not depend on the
    blocking.
    """
    r, phi = _order_rows(thetas)
    return DiagnosticsSeries(
        times=times,
        phase_diameter=np.ptp(thetas, axis=1),
        frequency_diameter=np.ptp(theta_dots, axis=1),
        order_r=r,
        order_phi=phi,
        potential=potential(thetas, config.kappa, config.omega),
        energy=energy(config.model, theta_dots),
    )


def compute_diagnostics(config: SystemConfig, trajectory: Trajectory) -> DiagnosticsSeries:
    """Every observable at every recorded row, taken over row blocks.

    ``_diagnostics_rows`` of each ``_row_blocks`` block of recorded rows,
    copied into one array per series.
    """
    th, vd = trajectory.thetas, trajectory.theta_dots
    m, n = th.shape
    columns = [np.empty(m) for _ in _DIAGNOSTICS_HEADER[1:]]
    for rows in _row_blocks(m, n):
        block = _diagnostics_rows(config, trajectory.times[rows], th[rows], vd[rows])
        for column, values in zip(columns, _series_columns(block)[1:]):
            column[rows] = values
    return DiagnosticsSeries(trajectory.times, *columns)


def _diagnostics_csv(fh, config: SystemConfig):
    """Start a diagnostics CSV on the binary file ``fh``; return its row appender.

    Writes the header ``t,diameter,freq_diameter,r,phi,potential,energy``.
    The appender takes (times, thetas, theta_dots) of k recorded rows of
    ``config``'s system and writes the k rows of their ``_diagnostics_rows``
    at 17 significant digits.
    """
    _csv_header(fh, _DIAGNOSTICS_HEADER)
    return lambda times, thetas, theta_dots: _csv_rows(
        fh, _series_columns(_diagnostics_rows(config, times, thetas, theta_dots)))


def write_diagnostics_csv(series: DiagnosticsSeries, path) -> None:
    """Write ``t,diameter,freq_diameter,r,phi,potential,energy`` at 17 significant digits."""
    _write_csv(path, _DIAGNOSTICS_HEADER, _series_columns(series))
