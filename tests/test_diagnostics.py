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
from relkura.diagnostics import _shifted_phasors
from relkura.dynamics import Trajectory
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
    with pytest.raises(ValueError) as info:
        phase_diameter([])
    assert info.value.field == "theta"


def test_order_parameter_aligned():
    op = order_parameter(np.full(5, 0.7))
    assert op.r == pytest.approx(1.0, abs=1e-15)
    assert op.phi == pytest.approx(0.7, abs=1e-15)


def test_order_parameter_balanced_has_no_phase():
    op = order_parameter([0.25, 0.25 + math.pi])
    assert op.r <= 1e-12
    assert op.phi is None


def test_order_parameter_rejects_no_phases():
    with pytest.raises(ValueError) as info:
        order_parameter([])
    assert info.value.field == "theta"


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
    with pytest.raises(ValueError) as info:
        potential(SPOT_THETA, 1.0, np.zeros(2))
    assert info.value.field == "omega"
    with pytest.raises(ValueError) as info:
        potential([], 1.0, [])
    assert info.value.field == "theta"


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


def _energy_reference_small_ratio(kind: str, w: float, c: float):
    """The closed-form energy at 50 digits, free of cancellation at tiny w / c."""
    with mpmath.workdps(50):
        w, c = mpmath.mpf(w), mpmath.mpf(c)
        u2 = (w / c) ** 2
        root = mpmath.sqrt(1 - u2)
        c2_gamma_m1 = w * w / (root * (1 + root))
        log_gamma = -mpmath.log1p(-u2) / 2
        if kind == "proper-velocity":
            return c2_gamma_m1
        if kind == "rapidity":
            return c * c * log_gamma
        return c2_gamma_m1 + u2 / (1 - u2) - log_gamma


@pytest.mark.parametrize("make", [relativistic, proper_velocity, rapidity])
@pytest.mark.parametrize("c", [1.3e154, 1e155, 1e200, 1e300])
def test_energy_for_huge_bounds_matches_mpmath(make, c):
    # unscaled, root * (c + root) would overflow above c ~ 9.5e153 (the terms
    # with gamma - 1 would read 0) and c * c above 1.34e154 (NaN); the terms
    # are taken in u = w / c and form neither
    model = make(c)
    speeds = np.array([0.5, -3.0, 1e-150, 1e100, -1e150])
    assert np.array_equal(energy(model, np.stack([speeds, speeds])), [energy(model, speeds)] * 2)
    for w in speeds:
        want = _energy_reference_small_ratio(model.kind.value, w, c)
        value = energy(model, [w])
        assert math.isfinite(value)
        assert abs(mpmath.mpf(value) - want) <= 1e-10 * want, (w, value)
    assert energy(model, 0.5) == pytest.approx(0.125, rel=1e-15)
    assert energy(model, 0.0) == 0.0


@pytest.mark.parametrize("make", [relativistic, proper_velocity, rapidity])
@pytest.mark.parametrize("c", [1e-60, 1e-100, 1e-160, 1e-200, 1e-300])
def test_energy_for_tiny_bounds_matches_mpmath(make, c):
    # unscaled, span = (c - w) * (c + w) would underflow below c ~ 1.49e-154
    # (NaN from 0 / 0); the terms are taken in u = w / c and form no span.
    # The full kind's energy is O(1) in w / c; the other two are O(c**2) and
    # underflow to 0 below c ~ 1e-162
    model = make(c)
    speeds = c * np.array([0.5, -0.99, 1e-8, 1e-60])
    assert np.array_equal(energy(model, np.stack([speeds, speeds])), [energy(model, speeds)] * 2)
    for w in speeds:
        want = _energy_reference_small_ratio(model.kind.value, w, c)
        value = energy(model, [w])
        if want < 2.0**-1075:
            assert value == 0.0, w
        else:
            # a subnormal value keeps the absolute spacing 2**-1074 only
            assert abs(mpmath.mpf(value) - want) <= max(1e-10 * want, 2.0**-1074), (w, value)
    assert energy(model, 0.0) == 0.0


def test_energy_rejects_classical_and_superluminal():
    with pytest.raises(UnsupportedModelError):
        energy(classical(), [0.5])
    with pytest.raises(DomainError):
        energy(relativistic(1.0), [1.0])
    with pytest.raises(DomainError):
        energy(relativistic(1.0), [0.5, math.nan])


def _velocity_stack(c, rows, n, seed):
    """(rows, n) velocities spread over (-c, c), one row at 0.9999 c."""
    rng = np.random.default_rng(seed)
    stack = rng.uniform(-c, c, size=(rows, n)) * 0.999
    stack[rows // 2, 0] = 0.9999 * c
    return stack


@pytest.mark.parametrize("make", [relativistic, proper_velocity, rapidity])
@pytest.mark.parametrize("n", [1, 10, 1000])
@pytest.mark.parametrize("c", [1.0, 1.28])
def test_stacked_energy_equals_each_row_alone(make, n, c):
    model = make(c)
    stack = _velocity_stack(c, 7, n, seed=n)
    want = np.array([energy(model, row) for row in stack])
    assert np.array_equal(energy(model, stack), want)
    # a strided view and a (2, 7, n) stack give each row the same floats
    wide = np.stack([stack, -stack], axis=1)
    assert np.array_equal(energy(model, wide[:, 0]), want)
    assert np.array_equal(energy(model, np.stack([stack, stack])), np.stack([want, want]))


@pytest.mark.parametrize("make", [relativistic, proper_velocity, rapidity])
def test_compute_diagnostics_energy_equals_each_row_alone_across_blocks(make):
    # 10 oscillators make 409 rows per energy block; 1000 rows end mid-block
    model = make(1.28)
    cfg = SystemConfig(10, 1.0, np.linspace(-0.2, 0.2, 10), model, 0.01, 9.99, 1)
    traj = simulate(cfg, np.linspace(-1.0, 1.0, 10))
    assert traj.times.size == 1000
    series = compute_diagnostics(cfg, traj)
    want = np.array([energy(model, row) for row in traj.theta_dots])
    assert np.array_equal(series.energy, want)


def test_energy_of_one_configuration_is_a_float():
    model = rapidity(2.0)
    assert type(energy(model, np.array([0.3, -1.2, 0.0]))) is float
    assert type(energy(model, [0.5])) is float
    assert type(energy(model, 0.5)) is float
    assert energy(model, np.zeros((3, 4))).shape == (3,)


@pytest.mark.parametrize("make", [relativistic, proper_velocity, rapidity])
def test_stacked_energy_rejects_any_row_at_the_bound(make):
    stack = _velocity_stack(1.0, 5, 10, seed=0)
    stack[3, 7] = -1.0
    with pytest.raises(DomainError):
        energy(make(1.0), stack)
    stack[3, 7] = math.inf
    with pytest.raises(DomainError):
        energy(make(1.0), stack)


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


def test_predicted_rate_for_huge_bounds_is_the_classical_rate():
    # the full kind's slope floor is 1 - O(1/c**2); c * c overflows at 1e200
    for c in (1e150, 1e200):
        cfg = SystemConfig(5, 2.0, np.zeros(5), relativistic(c), 0.01, 1.0)
        assert predicted_rate(cfg, 1.3) == pytest.approx(2.0 * math.sin(1.3) / 1.3, rel=1e-10)


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


@st.composite
def _decay_samples(draw):
    """(times, values): a noisy exponential sampled far from t = 0."""
    times = np.sort(draw(st.lists(st.floats(1e3, 1e3 + 40.0), min_size=3, max_size=50,
                                  unique=True)))
    rate = 10.0 ** draw(st.floats(-3.0, 1.0))
    log_start = draw(st.floats(1.0, 5.0))
    noise = draw(st.lists(st.floats(-1e-2, 1e-2), min_size=len(times), max_size=len(times)))
    return times, np.exp(log_start - rate * (times - 1e3) + np.array(noise))


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(samples=_decay_samples())
def test_fit_decay_rate_matches_a_high_precision_least_squares_fit(samples):
    times, values = samples
    fit = fit_decay_rate(times, values)
    with mpmath.workdps(50):
        t = [mpmath.mpf(float(x)) for x in times]
        logs = [mpmath.mpf(float(x)) for x in np.log(values)]
        t_mean, log_mean = sum(t) / len(t), sum(logs) / len(t)
        slope = (sum((a - t_mean) * (b - log_mean) for a, b in zip(t, logs))
                 / sum((a - t_mean) ** 2 for a in t))
        intercept = log_mean - slope * t_mean
        rms = mpmath.sqrt(sum((b - slope * a - intercept) ** 2 for a, b in zip(t, logs))
                          / len(t))
    assert abs(fit.rate + float(slope)) <= 1e-12 * abs(float(slope))
    assert abs(fit.intercept - float(intercept)) <= 1e-12 * abs(float(intercept))
    assert abs(fit.rms_residual - float(rms)) <= 1e-12


def test_fit_decay_rate_degenerate_inputs():
    with pytest.raises(DegenerateFitError):
        fit_decay_rate([0.0, 1.0], [1.0, 0.5])  # too few samples
    with pytest.raises(DegenerateFitError):
        fit_decay_rate([1.0, 1.0, 1.0], [1.0, 0.5, 0.2])  # no time spread
    with pytest.raises(DegenerateFitError):
        fit_decay_rate([0.0, 1.0, 2.0], [1.0, 0.0, 0.5])  # log needs positive
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateFitError):
            # distinct times whose squared deviations underflow to 0
            fit_decay_rate([0.0, 1e-170, 2e-170], [1.0, 0.5, 0.25])


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


@pytest.mark.parametrize("n", [3, 10, 1000])
def test_compute_diagnostics_order_series_equals_order_parameter_per_row(n):
    # one rule for r, phi and the R_UNDEFINED_BELOW cut; row 0 is balanced
    # (no mean phase) at even n
    rows = 2 if n == 1000 else 300
    rng = np.random.default_rng(n)
    thetas = rng.uniform(-math.pi, math.pi, size=(rows, n))
    thetas[0, : n - n % 2] = np.repeat([0.25, 0.25 + math.pi], n // 2)
    cfg = SystemConfig(n, 1.0, np.zeros(n), classical(), 0.01, 1.0)
    traj = Trajectory(cfg, np.arange(rows, dtype=float), thetas, np.zeros((rows, n)))
    series = compute_diagnostics(cfg, traj)
    for k in range(rows):
        op = order_parameter(thetas[k])
        assert series.order_r[k] == op.r
        if op.phi is None:
            assert math.isnan(series.order_phi[k])
        else:
            assert series.order_phi[k] == op.phi
    assert math.isnan(series.order_phi[0]) == (n % 2 == 0)


def test_compute_diagnostics_order_and_potential_equal_whole_array_formulas():
    # 10 oscillators make 409 rows per block, so 1000 rows take three blocks
    cfg = SystemConfig(10, 1.0, np.linspace(-0.2, 0.2, 10), relativistic(1.0), 0.01, 9.99, 1)
    traj = simulate(cfg, np.linspace(-1.0, 1.0, 10))
    th = traj.thetas
    assert th.shape == (1000, 10)
    series = compute_diagnostics(cfg, traj)
    z = np.exp(1j * th).mean(axis=1)
    assert np.array_equal(series.order_r, np.abs(z))
    assert np.array_equal(series.order_phi, np.where(np.abs(z) > 1e-12, np.angle(z), np.nan),
                          equal_nan=True)
    sin_dev, cos_dev = _shifted_phasors(th)
    sin_dev -= sin_dev.mean(axis=-1, keepdims=True)
    cos_dev -= cos_dev.mean(axis=-1, keepdims=True)
    spread = (sin_dev * sin_dev + cos_dev * cos_dev).sum(axis=-1)
    whole = -(th @ cfg.omega) + 0.5 * cfg.kappa * spread
    assert np.array_equal(series.potential, whole)
    assert np.array_equal(potential(th, cfg.kappa, cfg.omega), whole)
    assert np.array_equal(potential(np.stack([th, th]), cfg.kappa, cfg.omega), np.stack([whole, whole]))


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
