"""Observables over phase configurations and recorded trajectories.

Scalar observables (diameter, order parameter, predicted contraction
rate) operate on single configurations; the potential and the energy
take one configuration or a stack of them along the last axis.  The
trajectory-level helpers evaluate the observables along a recorded run
and export the series as plot-ready CSV, written a block of rows at a
time with the bytes of ``np.savetxt`` at ``%.16e``.  Every series (the
order parameter, the potential's phasor spread, the energy) is taken
over ``_OUTPUT_BLOCK_FLOATS`` row blocks, each row reduced as in one
pass over all rows, so no temporary outgrows a block and the floats do
not depend on the blocking; only the potential's linear term
``theta @ omega`` is one product over all rows.  The order parameter of
a configuration and of each recorded row come from one rule
(``_order_rows``), which also owns the ``R_UNDEFINED_BELOW`` cut.

The energy observable is the integral of w * F'(w) from 0 to |w_i| per
oscillator, summed; each bounded kind has it in closed form:
c**2 * (gamma - 1) (proper-velocity), c**2 * ln(gamma) (rapidity) and
c**2 * (gamma - 1) + (gamma**2 - 1) - ln(gamma) (full relativistic).
They are evaluated through span = (c - w) * (c + w), with
gamma - 1 = w**2 / (sqrt(span) * (c + sqrt(span))),
gamma**2 - 1 = w**2 / span and ln(gamma) = log1p(gamma**2 - 1) / 2, so
neither small speeds nor speeds next to the bound lose digits to
cancellation.  Above c ~ 6.7e153, where these c**2-sized intermediates
overflow, and below c ~ 1e-146, where the span can underflow, the terms
are taken in u = w / c instead, with no factor c * c formed.  The
classical kind has no finite velocity bound and no such energy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    _OUTPUT_BLOCK_FLOATS,
    SystemConfig,
    Trajectory,
    _row_blocks,
    _shifted_phasors,
    _write_csv,
)
from .errors import DegenerateFitError, DomainError, UnsupportedModelError
from .models import FrequencyResponse, ModelKind, _span_underflows

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

# The energy terms are taken scaled by c above this bound, where
# root * (c + root), about 2 c**2, can overflow (and c * c does above
# 1.34e154), and below c ~ 1e-146, where the span (c - w) * (c + w) can
# underflow (``_span_underflows``).
_ENERGY_SCALED_ABOVE = math.sqrt(sys.float_info.max / 4.0)


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
        raise ValueError("phase_diameter needs at least one phase")
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
        raise ValueError("order_parameter needs at least one phase")
    r, phi = _order_rows(th.reshape(-1))
    return OrderParameter(float(r), None if np.isnan(phi) else float(phi))


def _phasor_spread(theta: np.ndarray) -> np.ndarray:
    """sum_j |e^{i theta_j} - z|**2 along the last axis, z the row's mean phasor.

    Equal to n * (1 - r**2), i.e. sum_ij (1 - cos(theta_j - theta_i)) / n,
    in O(n).  The shifted phasors keep every term free of cancellation, so
    nearly synchronised rows, where n - n * r**2 is rounding noise, keep
    full relative precision.  The rows are taken in ``_row_blocks`` of
    ``_OUTPUT_BLOCK_FLOATS``, so no temporary outgrows one block; each row
    is reduced as in one pass over all rows.
    """
    n = theta.shape[-1]
    flat = theta.reshape(-1, n)
    out = np.empty(len(flat))
    for rows in _row_blocks(len(flat), n, _OUTPUT_BLOCK_FLOATS):
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
    if th.size == 0 or om.shape != th.shape[-1:]:
        raise ValueError("potential needs phases and an omega of their last-axis length")
    return -(th @ om) + 0.5 * kappa * _phasor_spread(th)


def _energy_terms_scaled(kind: ModelKind, td: np.ndarray, c: float) -> np.ndarray:
    """The energy terms of ``energy`` for a huge or a tiny bound.

    Taken in u = td / c and s = (1 - u) * (1 + u) with root = sqrt(s):
    c**2 (gamma - 1) = (td / root) * (td / (1 + root)), gamma**2 - 1 = g
    = u**2 / s and c**2 ln(gamma) = (td / root)**2 / 2 * log1p(g) / g,
    whose last factor is 1 where g underflows to 0.  No factor c * c is
    formed, so a term over- or underflows only where its value does.
    """
    u = td / c
    s = (1.0 - u) * (1.0 + u)
    root = np.sqrt(s)
    scaled = td / root
    gamma2_m1 = u * u / s
    with np.errstate(over="ignore"):
        if kind is ModelKind.RAPIDITY:
            log1p_ratio = np.divide(np.log1p(gamma2_m1), gamma2_m1,
                                    out=np.ones_like(gamma2_m1), where=gamma2_m1 > 0.0)
            return 0.5 * scaled * scaled * log1p_ratio
        c2_gamma_m1 = scaled * (td / (1.0 + root))
    if kind is ModelKind.PROPER_VELOCITY:
        return c2_gamma_m1
    return c2_gamma_m1 + gamma2_m1 - 0.5 * np.log1p(gamma2_m1)


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
    if c > _ENERGY_SCALED_ABOVE or _span_underflows(c * c, 1.0):
        terms = _energy_terms_scaled(model.kind, td, c)
    else:
        span = (c - td) * (c + td)
        root = np.sqrt(span)
        gamma_m1 = td * td / (root * (c + root))
        gamma2_m1 = td * td / span
        if model.kind is ModelKind.PROPER_VELOCITY:
            terms = c * c * gamma_m1
        else:
            log_gamma = 0.5 * np.log1p(gamma2_m1)
            if model.kind is ModelKind.RAPIDITY:
                terms = c * c * log_gamma
            else:
                terms = c * c * gamma_m1 + gamma2_m1 - log_gamma
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

    Requires at least three samples, strictly positive values, and
    non-degenerate times.
    """
    t = np.asarray(times, dtype=float).reshape(-1)
    v = np.asarray(values, dtype=float).reshape(-1)
    if t.shape != v.shape or t.size < 3:
        raise DegenerateFitError("fit needs matching times/values with >= 3 samples")
    if np.ptp(t) == 0.0:
        raise DegenerateFitError("fit needs at least two distinct times")
    if not np.all(v > 0.0):
        raise DegenerateFitError("fit needs strictly positive values")
    logs = np.log(v)
    slope, intercept = np.polyfit(t, logs, 1)
    resid = logs - (slope * t + intercept)
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
    ``_OUTPUT_BLOCK_FLOATS`` blocks of recorded rows, and the potential's
    phasor spread from its own pass over the same blocks; every row gets
    the floats of a call on it alone.
    """
    th = trajectory.thetas
    vd = trajectory.theta_dots
    m, n = th.shape
    r, phi, en = np.empty(m), np.empty(m), np.full(m, np.nan)
    bounded = config.model.kind is not ModelKind.CLASSICAL
    for rows in _row_blocks(m, n, _OUTPUT_BLOCK_FLOATS):
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
        "t,diameter,freq_diameter,r,phi,potential,energy",
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
