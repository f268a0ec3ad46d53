"""Observable computations against frozen high-precision references.

The energy references were computed with 50-digit quadrature of the
drive-derivative integral; the potential and order-parameter spot values
with 50-digit trigonometric sums.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relkura import (
    DiagnosticsSeries,
    SystemConfig,
    classical,
    compute_diagnostics,
    energy,
    fit_decay_rate,
    order_parameter,
    phase_diameter,
    potential,
    predicted_rate,
    proper_velocity,
    rapidity,
    relativistic,
    simulate,
    theta_star,
    write_diagnostics_csv,
)
from relkura.errors import DegenerateFitError, DomainError, UnsupportedModelError

# 50-digit references
SPOT_THETA = np.array([0.3, -1.1, 2.0])
SPOT_OMEGA = np.array([0.1, -0.2, 0.1])
SPOT_KAPPA = 0.7
SPOT_PAIR_TERM = 0.92353625038933142
SPOT_VALUE = 0.47353625038933142
SPOT_R = 0.34704706639860081
SPOT_PHI = 0.30596952400076557

ENERGY_FULL_06_C1 = 0.58935644868579024
ENERGY_PV_06_C1 = 0.25000000000000000
ENERGY_RAP_06_C1 = 0.22314355131420976
ENERGY_FULL_12_C2 = 1.3393564486857902

PREDICTED_RATE_D2_C1 = 0.14508921556143863  # kappa=1, nu=0, D0=2, full kind


# ----------------------------------------------------------------------
# scalar observables
# ----------------------------------------------------------------------


def test_phase_diameter():
    assert phase_diameter([0.5]) == 0.0
    assert phase_diameter([-1.0, 2.5, 0.0]) == 3.5
    assert phase_diameter([4.0, 10.0]) == 6.0  # unwrapped, may exceed 2*pi
    with pytest.raises(ValueError):
        phase_diameter([])


def test_order_parameter_aligned():
    op = order_parameter(np.full(5, 0.7))
    assert op.r == pytest.approx(1.0, abs=1e-15)
    assert op.phi == pytest.approx(0.7, abs=1e-15)


def test_order_parameter_balanced_has_no_phase():
    op = order_parameter([0.25, 0.25 + math.pi])
    assert op.r <= 1e-12
    assert op.phi is None


def test_order_parameter_spot_value():
    op = order_parameter(SPOT_THETA)
    assert op.r == pytest.approx(SPOT_R, rel=1e-14)
    assert op.phi == pytest.approx(SPOT_PHI, rel=1e-14)


def test_potential_spot_value_and_order_identity():
    # with zero frequencies the potential is the pair term alone
    pair = potential(SPOT_THETA, SPOT_KAPPA, np.zeros(3))
    assert pair == pytest.approx(SPOT_PAIR_TERM, rel=1e-14)
    assert potential(SPOT_THETA, SPOT_KAPPA, SPOT_OMEGA) == pytest.approx(SPOT_VALUE, rel=1e-14)
    # kappa*n/2 * (1 - r^2) is an exact rewriting of the pair sum
    r = order_parameter(SPOT_THETA).r
    assert 0.5 * SPOT_KAPPA * 3 * (1.0 - r * r) == pytest.approx(pair, rel=1e-13)


@pytest.mark.parametrize("n", [3, 40])
@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("spread", [1e-12, 1e-6, 1e-3])
def test_potential_pair_term_keeps_digits_near_synchrony(n, offset, spread):
    theta = offset + spread * np.random.default_rng(n).uniform(-0.5, 0.5, n)
    with mpmath.workdps(50):
        phases = [mpmath.mpf(float(t)) for t in theta]
        exact = sum(1 - mpmath.cos(b - a) for a in phases for b in phases) * 0.7 / (2 * n)
    # n**2 minus the cos sum cancels to rounding noise here; the pair term must not
    pair = potential(theta, 0.7, np.zeros(n))
    assert abs(pair - float(exact)) <= 1e-13 * float(exact)


def test_potential_shape_mismatch():
    with pytest.raises(ValueError):
        potential(SPOT_THETA, 1.0, np.zeros(2))


# ----------------------------------------------------------------------
# energy
# ----------------------------------------------------------------------


def test_energy_reference_values():
    assert energy(relativistic(1.0), [0.6]) == pytest.approx(ENERGY_FULL_06_C1, rel=1e-12)
    assert energy(proper_velocity(1.0), [0.6]) == pytest.approx(ENERGY_PV_06_C1, rel=1e-12)
    assert energy(rapidity(1.0), [0.6]) == pytest.approx(ENERGY_RAP_06_C1, rel=1e-12)
    assert energy(relativistic(2.0), [1.2]) == pytest.approx(ENERGY_FULL_12_C2, rel=1e-12)


def test_energy_sums_over_oscillators_and_is_even():
    model = relativistic(1.0)
    single = energy(model, [0.6])
    assert energy(model, [0.6, -0.6, 0.0]) == pytest.approx(2.0 * single, rel=1e-12)
    assert energy(model, np.zeros(4)) == 0.0


def test_energy_increases_with_speed():
    speeds = [0.1, 0.3, 0.6, 0.9, 0.99, 0.999999, 0.9999999, 1.0 - 1e-9]
    for model in (relativistic(1.0), proper_velocity(1.0), rapidity(1.0)):
        values = [energy(model, [u]) for u in speeds]
        assert values[0] > 0.0, model.kind
        assert all(b > a for a, b in zip(values, values[1:])), model.kind


def _energy_reference(kind: str, w: float, c: float):
    """Closed-form energy at 50 digits, evaluated at the same float w."""
    with mpmath.workdps(50):
        w, c = mpmath.mpf(w), mpmath.mpf(c)
        gamma = 1 / mpmath.sqrt(1 - (w / c) ** 2)
        if kind == "proper-velocity":
            return c * c * (gamma - 1)
        if kind == "rapidity":
            return c * c * mpmath.log(gamma)
        return c * c * (gamma - 1) + (gamma * gamma - 1) - mpmath.log(gamma)


# v/c spread evenly in log10 of both v/c and 1 - v/c, so that both ends of
# [1e-12, 1 - 1e-9] get cases and not only the middle of the interval
SPEED_RATIOS = st.one_of(
    st.floats(-12.0, 0.0).map(lambda e: 10.0**e),
    st.floats(-9.0, 0.0).map(lambda e: 1.0 - 10.0**e),
).filter(lambda r: 1e-12 <= r <= 1.0 - 1e-9)


@pytest.mark.parametrize("make", [relativistic, proper_velocity, rapidity])
@settings(deadline=None, derandomize=True, database=None)
@given(c=st.floats(1e-3, 1e3), ratio=SPEED_RATIOS, sign=st.sampled_from([1.0, -1.0]))
def test_energy_matches_high_precision_closed_form(make, c, ratio, sign):
    model = make(c)
    w = sign * ratio * c
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = energy(model, [w])
    want = _energy_reference(model.kind.value, w, c)
    assert abs(mpmath.mpf(got) - want) <= 1e-10 * want


def test_energy_rejects_classical_and_superluminal():
    with pytest.raises(UnsupportedModelError):
        energy(classical(), [0.5])
    with pytest.raises(DomainError):
        energy(relativistic(1.0), [1.0])
    with pytest.raises(DomainError):
        energy(relativistic(1.0), [0.5, math.nan])


# ----------------------------------------------------------------------
# guaranteed rate, lock angle, decay fit
# ----------------------------------------------------------------------


def test_predicted_rate_reference_value():
    cfg = SystemConfig(10, 1.0, np.zeros(10), relativistic(1.0), 0.01, 1.0)
    assert predicted_rate(cfg, 2.0) == pytest.approx(PREDICTED_RATE_D2_C1, rel=1e-9)


def test_predicted_rate_classical_is_sinc_factor():
    cfg = SystemConfig(5, 2.0, np.zeros(5), classical(), 0.01, 1.0)
    d0 = 1.3
    assert predicted_rate(cfg, d0) == pytest.approx(2.0 * math.sin(d0) / d0, rel=1e-15)


def test_predicted_rate_requires_homogeneous_and_half_circle():
    hetero = SystemConfig(2, 1.0, np.array([0.1, -0.1]), classical(), 0.01, 1.0)
    with pytest.raises(DomainError):
        predicted_rate(hetero, 1.0)
    hom = SystemConfig(2, 1.0, np.zeros(2), classical(), 0.01, 1.0)
    for bad in (0.0, math.pi, 4.0):
        with pytest.raises(DomainError):
            predicted_rate(hom, bad)


def test_theta_star():
    assert theta_star(1.0, 0.3) == pytest.approx(math.asin(0.3), rel=1e-15)
    assert theta_star(2.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        theta_star(1.0, 1.0)  # needs kappa strictly above the spread
    with pytest.raises(DomainError):
        theta_star(1.0, -0.1)


def test_fit_decay_rate_recovers_exact_exponential():
    t = np.linspace(0.0, 5.0, 26)
    fit = fit_decay_rate(t, 3.5 * np.exp(-0.8 * t))
    assert fit.rate == pytest.approx(0.8, rel=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.5), rel=1e-12)
    assert fit.rms_residual < 1e-12


def test_fit_decay_rate_degenerate_inputs():
    with pytest.raises(DegenerateFitError):
        fit_decay_rate([0.0, 1.0], [1.0, 0.5])  # too few samples
    with pytest.raises(DegenerateFitError):
        fit_decay_rate([1.0, 1.0, 1.0], [1.0, 0.5, 0.2])  # no time spread
    with pytest.raises(DegenerateFitError):
        fit_decay_rate([0.0, 1.0, 2.0], [1.0, 0.0, 0.5])  # log needs positive


# ----------------------------------------------------------------------
# trajectory series
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_run():
    om = np.array([0.05, -0.1, 0.02, 0.03])
    cfg = SystemConfig(4, 1.0, om, relativistic(1.0), 0.01, 2.0, 10)
    traj = simulate(cfg, np.array([0.4, -0.9, 1.2, 0.1]))
    return cfg, traj


def test_compute_diagnostics_matches_pointwise_observables(small_run):
    cfg, traj = small_run
    series = compute_diagnostics(cfg, traj)
    assert np.array_equal(series.times, traj.times)
    # one potential per recorded row
    assert np.array_equal(series.potential, potential(traj.thetas, cfg.kappa, cfg.omega))
    assert series.omega_diameter == pytest.approx(np.ptp(cfg.omega), rel=1e-15)
    for k in range(traj.times.size):
        th = traj.thetas[k]
        assert series.phase_diameter[k] == phase_diameter(th)
        assert series.frequency_diameter[k] == np.ptp(traj.theta_dots[k])
        op = order_parameter(th)
        assert series.order_r[k] == pytest.approx(op.r, rel=1e-14)
        assert series.order_phi[k] == pytest.approx(op.phi, rel=1e-13)
        assert series.potential[k] == pytest.approx(
            potential(th, cfg.kappa, cfg.omega), rel=1e-13)
        assert series.energy[k] == pytest.approx(
            energy(cfg.model, traj.theta_dots[k]), rel=1e-12)


def test_compute_diagnostics_classical_energy_is_nan():
    cfg = SystemConfig(2, 1.0, np.zeros(2), classical(), 0.1, 1.0, 1)
    traj = simulate(cfg, np.array([0.3, -0.3]))
    series = compute_diagnostics(cfg, traj)
    assert np.all(np.isnan(series.energy))
    assert np.all(np.isfinite(series.phase_diameter))


def test_diagnostics_csv_round_trip(tmp_path, small_run):
    cfg, traj = small_run
    series = compute_diagnostics(cfg, traj)
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(series, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,diameter,freq_diameter,r,phi,potential,energy"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (series.times.size, 7)
    assert np.allclose(data[:, 1], series.phase_diameter, rtol=1e-15)
    assert np.allclose(data[:, 6], series.energy, rtol=1e-15)


def test_diagnostics_series_write_method(tmp_path):
    series = DiagnosticsSeries(
        times=np.array([0.0, 1.0]),
        phase_diameter=np.array([1.0, 0.5]),
        frequency_diameter=np.array([0.2, 0.1]),
        order_r=np.array([0.9, 0.95]),
        order_phi=np.array([0.0, 0.0]),
        potential=np.array([1.0, 0.8]),
        energy=np.array([math.nan, math.nan]),
        omega_diameter=0.0,
    )
    path = tmp_path / "series.csv"
    series.write_csv(path)
    body = path.read_text().splitlines()
    assert len(body) == 3
    assert "nan" in body[1]
