"""Acceptance suite: one test per shipped guarantee, with pinned
tolerances and wall-clock budgets.

Each test prints a single PASS/FAIL line through the capture bypass so
the verdicts are visible in any pytest run.  Seeds are fixed; every
check is deterministic.
"""

import math
import time

import numpy as np
import pytest

from relkura import (
    SystemConfig,
    classical,
    energy,
    make_rng,
    predicted_rate,
    proper_velocity,
    rapidity,
    relativistic,
    run_limit_scaling,
    run_rate_vs_c,
    run_rcs_crosscheck,
    run_sync_predicates,
    simulate,
    order_parameter,
)

from conftest import PAIR_KAPPA, PAIR_NU, PAIR_THETA0, classical_pair_reference

SEED = 20260819

N = 10
KAPPA = 1.0
DT = 0.01


def announce(capsys, num, label, passed, detail):
    with capsys.disabled():
        verdict = "PASS" if passed else "FAIL"
        print(f"[criterion {num:2d}] {verdict} {label}: {detail}")


@pytest.fixture(scope="module")
def envelope_run():
    """Shared homogeneous full-kind run for the envelope and dissipation checks."""
    start = time.perf_counter()
    theta0 = make_rng(SEED).uniform(-0.45 * math.pi, 0.45 * math.pi, N)
    config = SystemConfig(KAPPA, np.zeros(N), relativistic(1.0), DT, 20.0, 1)
    traj = simulate(config, theta0)
    elapsed = time.perf_counter() - start
    return {"theta0": theta0, "config": config, "traj": traj, "elapsed": elapsed}


def test_criterion_01_inverse_round_trip(capsys):
    start = time.perf_counter()
    worst = 0.0
    for c in (0.5, 1.0, 5.0):
        grid = np.linspace(-0.99 * c, 0.99 * c, 1001)
        for model in (classical(), relativistic(c), proper_velocity(c), rapidity(c)):
            residual = float(np.max(np.abs(model.velocity(model.momentum(grid)) - grid)))
            worst = max(worst, residual)
    elapsed = time.perf_counter() - start
    passed = worst < 1e-10 and elapsed < 1.0
    announce(capsys, 1, "inverse-round-trip",
             passed, f"max residual {worst:.3e} (< 1e-10), {elapsed:.2f}s (< 1)")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_02_homogeneous_exponential_envelope(capsys, envelope_run):
    start = time.perf_counter()
    traj = envelope_run["traj"]
    d0 = float(np.ptp(envelope_run["theta0"]))
    rate = predicted_rate(envelope_run["config"], d0)
    diameters = np.ptp(traj.thetas, axis=1)
    envelope = d0 * np.exp(-rate * traj.times) * (1.0 + 1e-6)
    max_excess = float(np.max(diameters - envelope))
    elapsed = envelope_run["elapsed"] + (time.perf_counter() - start)
    in_window = 0.0 < d0 < 0.9 * math.pi
    passed = in_window and max_excess <= 0.0 and elapsed < 5.0
    announce(capsys, 2, "homogeneous-exponential-envelope", passed,
             f"D0 {d0:.4f}, rate {rate:.6f}, max excess {max_excess:.3e} (<= 0), "
             f"{elapsed:.2f}s (< 5)")
    assert in_window
    assert max_excess <= 0.0
    assert elapsed < 5.0


def test_criterion_03_rate_ordering_vs_c(capsys):
    start = time.perf_counter()
    report = run_rate_vs_c(SEED, c_values=(0.5, 1.0, 5.0, 10.0),
                           n=N, kappa=KAPPA, dt=DT, t_final=40.0)
    elapsed = time.perf_counter() - start
    rows = report.results["table"]
    rates = [row["fit"]["rate"] for row in rows[:-1]]
    classical_rate = rows[-1]["fit"]["rate"]
    strictly_increasing = all(b > a for a, b in zip(rates, rates[1:]))
    gap_5_10 = abs(rates[2] - rates[3]) / abs(rates[3])
    gap_classical = abs(rates[3] - classical_rate) / abs(classical_rate)
    passed = (report.passed and strictly_increasing and gap_5_10 < 0.10
              and gap_classical < 0.15 and elapsed < 20.0)
    announce(capsys, 3, "rate-ordering-vs-c", passed,
             f"rates {[round(r, 4) for r in rates]} vs classical "
             f"{classical_rate:.4f}, |r5-r10|/r10 {gap_5_10:.3f} (< 0.10), "
             f"classical gap {gap_classical:.3f} (< 0.15), {elapsed:.2f}s (< 20)")
    assert report.passed
    assert strictly_increasing
    assert gap_5_10 < 0.10
    assert gap_classical < 0.15
    assert elapsed < 20.0


def test_criterion_04_non_relativistic_scaling(capsys):
    start = time.perf_counter()
    report = run_limit_scaling(SEED, c_values=(5.0, 10.0, 20.0), t_final=10.0,
                               n=N, kappa=KAPPA, dt=DT, regimes=("heterogeneous",))
    elapsed = time.perf_counter() - start
    rows = report.results["tables"]["heterogeneous"]
    ratio_5_10 = rows[0]["sup_l1"] / rows[1]["sup_l1"]
    ratio_10_20 = rows[1]["sup_l1"] / rows[2]["sup_l1"]
    in_band = 3.0 <= ratio_5_10 <= 5.0 and 3.0 <= ratio_10_20 <= 5.0
    passed = report.passed and in_band and elapsed < 30.0
    announce(capsys, 4, "non-relativistic-scaling", passed,
             f"s(5)/s(10) {ratio_5_10:.3f}, s(10)/s(20) {ratio_10_20:.3f} "
             f"(both in [3, 5]), {elapsed:.2f}s (< 30)")
    assert report.passed
    assert in_band
    assert elapsed < 30.0


def test_criterion_05_zero_frequency_boundedness(capsys):
    start = time.perf_counter()
    report = run_limit_scaling(SEED, c_values=(10.0,), t_final=50.0,
                               n=N, kappa=KAPPA, dt=DT, regimes=("zero",),
                               checkpoint_times=(10.0, 50.0))
    elapsed = time.perf_counter() - start
    [row] = report.results["tables"]["zero"]
    first = row["checkpoints"]["10"]["c2_sup_l1"]
    last = row["checkpoints"]["50"]["c2_sup_l1"]
    growth = last / first - 1.0 if first > 0.0 else 0.0
    passed = report.passed and growth < 0.05 and elapsed < 30.0
    announce(capsys, 5, "zero-frequency-boundedness", passed,
             f"c^2 sup l1 at T=10 {first:.6f}, at T=50 {last:.6f}, "
             f"growth {growth:.2%} (< 5%), {elapsed:.2f}s (< 30)")
    assert report.passed
    assert growth < 0.05
    assert elapsed < 30.0


def test_criterion_06_momentum_form_cross_check(capsys):
    start = time.perf_counter()
    report = run_rcs_crosscheck(SEED, c=1.0, n=N, kappa=KAPPA,
                                dt=1e-3, t_final=10.0, record_every=10)
    elapsed = time.perf_counter() - start
    deviation = report.results["max_phase_deviation"]
    residual = report.results["max_conservation_residual"]
    passed = (report.passed and deviation < 1e-6 and residual < 1e-8
              and elapsed < 60.0)
    announce(capsys, 6, "momentum-form-cross-check", passed,
             f"max phase deviation {deviation:.3e} (< 1e-6), conservation "
             f"residual {residual:.3e} (< 1e-8), {elapsed:.2f}s (< 60)")
    assert report.passed
    assert deviation < 1e-6
    assert residual < 1e-8
    assert elapsed < 60.0


def test_criterion_07_energy_dissipation_order_growth(capsys, envelope_run):
    start = time.perf_counter()
    traj = envelope_run["traj"]
    config = envelope_run["config"]
    diameters = np.ptp(traj.thetas, axis=1)

    order_r = np.abs(np.exp(1j * traj.thetas).mean(axis=1))
    min_r_step = float(np.min(np.diff(order_r)))

    cross = int(np.argmax(diameters < 0.5 * math.pi))
    assert diameters[cross] < 0.5 * math.pi
    energies = np.array([energy(config.model, row)
                         for row in traj.theta_dots[cross:]])
    max_e_step = float(np.max(np.diff(energies)))
    elapsed = envelope_run["elapsed"] + (time.perf_counter() - start)

    passed = min_r_step > -1e-9 and max_e_step < 1e-9 and elapsed < 5.0
    announce(capsys, 7, "energy-dissipation-order-growth", passed,
             f"min R step {min_r_step:.3e} (> -1e-9), max E step after "
             f"D < pi/2 {max_e_step:.3e} (< 1e-9), {elapsed:.2f}s (< 5)")
    assert min_r_step > -1e-9
    assert max_e_step < 1e-9
    assert elapsed < 5.0


def test_criterion_08_heterogeneous_synchronization(capsys):
    start = time.perf_counter()
    gen = make_rng(SEED)
    omega = gen.uniform(-0.15, 0.15, N)
    omega = omega - omega.mean()
    omega = omega * (0.3 / np.ptp(omega))  # exact spread 0.3, mean preserved
    report = run_sync_predicates(SEED, relativistic(1.0), n=N, kappa=KAPPA,
                                 dt=DT, t_final=50.0, omega=omega)
    elapsed = time.perf_counter() - start
    res = report.results
    d0 = res["initial_phase_diameter"]
    tstar = res["theta_star"]
    below_window = d0 < math.pi - tstar
    bound_identity = res["trap_bound"] == pytest.approx(
        max(tstar, min(d0, math.pi - d0)) + 1e-6, rel=1e-12)
    fd_end = res["terminal_frequency_diameter"]
    passed = (report.passed and below_window and bound_identity
              and fd_end < 1e-6 and elapsed < 10.0)
    announce(capsys, 8, "heterogeneous-synchronization", passed,
             f"D(omega) {np.ptp(omega):.3f}, theta* {tstar:.4f}, D0 {d0:.4f}, "
             f"entry t {res['trap_entry_time']:g}, terminal freq diameter "
             f"{fd_end:.3e} (< 1e-6), {elapsed:.2f}s (< 10)")
    assert np.ptp(omega) == pytest.approx(0.3, rel=1e-12)
    assert abs(omega.mean()) < 1e-15
    assert below_window
    assert bound_identity
    assert report.passed
    assert fd_end < 1e-6
    assert elapsed < 10.0


def test_criterion_09_integrator_order(capsys):
    start = time.perf_counter()
    reference = classical_pair_reference(PAIR_THETA0, PAIR_NU, PAIR_KAPPA,
                                         1e-6, 1.0)
    errors = {}
    for dt in (0.02, 0.01):
        config = SystemConfig(PAIR_KAPPA, np.array(PAIR_NU), classical(),
                              dt, 1.0, 10**9)
        final = simulate(config, np.array(PAIR_THETA0)).thetas[-1]
        errors[dt] = max(abs(final[0] - reference[0]),
                         abs(final[1] - reference[1]))
    ratio = errors[0.02] / errors[0.01]
    elapsed = time.perf_counter() - start
    passed = 12.0 <= ratio <= 20.0 and elapsed < 5.0
    announce(capsys, 9, "integrator-order", passed,
             f"e(0.02)/e(0.01) = {ratio:.2f} (in [12, 20]), {elapsed:.2f}s (< 5)")
    assert 12.0 <= ratio <= 20.0
    assert elapsed < 5.0


def test_criterion_10_generic_data_dichotomy(capsys):
    start = time.perf_counter()
    theta0 = make_rng(SEED).uniform(-0.45 * math.pi, 0.45 * math.pi, N)
    r0 = order_parameter(theta0).r
    config = SystemConfig(KAPPA, np.zeros(N), relativistic(1.0), DT, 100.0, 100)
    traj = simulate(config, theta0)
    final = traj.thetas[-1]
    sines = float(np.max(np.abs(np.sin(final[None, :] - final[:, None]))))
    elapsed = time.perf_counter() - start
    passed = r0 > 0.05 and sines < 1e-6 and elapsed < 10.0
    announce(capsys, 10, "generic-data-dichotomy", passed,
             f"R(0) {r0:.4f} (> 0.05), max pairwise |sin| at T=100 "
             f"{sines:.3e} (< 1e-6), {elapsed:.2f}s (< 10)")
    assert r0 > 0.05
    assert sines < 1e-6
    assert elapsed < 10.0
