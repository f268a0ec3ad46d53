"""Integrator tests: configuration validation, grid layout, accuracy
against the standalone scalar reference, and the momentum-form cross-check.
"""

import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from relkura import (
    FrequencyResponse,
    SystemConfig,
    classical,
    coupling,
    dynamics,
    potential,
    proper_velocity,
    rapidity,
    relativistic,
    rhs,
    simulate,
    simulate_batch,
    simulate_both_forms,
    simulate_momentum,
    write_trajectory_csv,
)
from relkura.diagnostics import DiagnosticsSeries, write_diagnostics_csv
from relkura.dynamics import Trajectory, _format_rows, _momentum_coupling, _write_csv
from relkura.errors import DomainError
from relkura.experiments import sample_protocol_ensemble

from conftest import PAIR_KAPPA, PAIR_NU, PAIR_T_FINAL, PAIR_THETA0
from reference_inverse import reference_invert_full


def pair_config(model, dt, t_final=PAIR_T_FINAL, record_every=10**9):
    return SystemConfig(
        kappa=PAIR_KAPPA, omega=np.array(PAIR_NU), model=model,
        dt=dt, t_final=t_final, record_every=record_every,
    )


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


def test_config_rejects_bad_values():
    om = np.zeros(3)
    good = dict(kappa=1.0, omega=om, model=classical(), dt=0.1, t_final=1.0)
    SystemConfig(**good)
    for field, bad in [
        ("kappa", -0.5),
        ("kappa", math.inf),
        ("dt", 0.0),
        ("dt", -1.0),
        ("t_final", 0.05),   # below dt
        ("t_final", math.inf),
        ("record_every", 0),
        # non-integers used to fail later, in numpy or in write_csv
        ("record_every", 2.5),
        ("record_every", True),
        ("omega", np.zeros(0)),
        # n is omega's length, so a table of frequencies is no system
        ("omega", np.zeros((1, 3))),
        ("omega", np.array([0.0, math.nan, 0.0])),
    ]:
        with pytest.raises(ValueError) as info:
            SystemConfig(**{**good, field: bad})
        assert info.value.field == field


def test_config_takes_n_from_omega():
    assert "n" not in inspect.signature(SystemConfig).parameters
    cfg = SystemConfig(1.0, np.zeros(3), classical(), 0.1, 1.0)
    assert cfg.n == cfg.omega.size == 3
    wider = dataclasses.replace(cfg, omega=np.ones(5))
    assert wider.n == 5 and wider.kappa == cfg.kappa and wider.model == cfg.model


def test_config_freezes_frequencies():
    om = np.array([0.1, -0.1])
    cfg = SystemConfig(1.0, om, classical(), 0.1, 1.0)
    om[0] = 99.0  # caller mutation must not leak in
    assert cfg.omega[0] == 0.1
    with pytest.raises(ValueError):
        cfg.omega[0] = 5.0


# ----------------------------------------------------------------------
# right-hand side
# ----------------------------------------------------------------------


def test_coupling_vanishes_for_identical_phases():
    cfg = SystemConfig(2.0, np.zeros(4), classical(), 0.1, 1.0)
    assert np.array_equal(coupling(cfg, np.full(4, 0.7)), np.zeros(4))


def test_coupling_pair_closed_form():
    cfg = SystemConfig(0.8, np.zeros(2), classical(), 0.1, 1.0)
    theta = np.array([0.2, 1.1])
    expected = 0.4 * math.sin(0.9)  # (kappa/2) sin(delta)
    got = coupling(cfg, theta)
    assert got[0] == pytest.approx(expected, rel=1e-15)
    assert got[1] == pytest.approx(-expected, rel=1e-15)


def test_rhs_classical_equals_drive():
    om = np.array([0.3, -0.2, 0.1])
    cfg = SystemConfig(1.0, om, classical(), 0.1, 1.0)
    theta = np.array([0.0, 1.0, -0.5])
    assert np.array_equal(rhs(cfg, theta), om + coupling(cfg, theta))


def test_rhs_applies_inverse_response():
    om = np.array([0.3, -0.2])
    model = relativistic(1.0)
    cfg = SystemConfig(1.0, om, model, 0.1, 1.0)
    theta = np.array([0.4, -0.3])
    assert np.array_equal(rhs(cfg, theta), model.velocity(om + coupling(cfg, theta)))
    assert np.all(np.abs(rhs(cfg, theta)) < 1.0)


def test_rk4_step_constant_rate_is_exact():
    # kappa = 0 decouples the system; one RK4 step reproduces linear motion
    om = np.array([0.5, -1.5])
    cfg = SystemConfig(0.0, om, classical(), 0.25, 0.25)
    theta0 = np.array([0.1, 0.2])
    traj = simulate(cfg, theta0)
    assert np.array_equal(traj.times, [0.0, 0.25])
    assert traj.thetas[-1] == pytest.approx(theta0 + 0.25 * om, rel=1e-15)


# ----------------------------------------------------------------------
# trajectory grid layout
# ----------------------------------------------------------------------


def _runs_of_both_forms(cfg):
    """First-order and momentum runs of the pair; both share one driver."""
    theta0 = np.array(PAIR_THETA0)
    return simulate(cfg, theta0), simulate_momentum(cfg, theta0, np.array(PAIR_NU))


def test_simulate_lands_exactly_on_t_final():
    cfg = pair_config(classical(), dt=0.3, t_final=1.0, record_every=1)
    for traj in _runs_of_both_forms(cfg):
        assert traj.times[-1] == 1.0
        # interior stamps are bitwise step * dt, closing stamp exactly t_final
        assert np.array_equal(traj.times[:-1], 0.3 * np.arange(4))
        assert traj.thetas.shape == traj.theta_dots.shape == (5, 2)


def test_simulate_record_every_keeps_first_and_last():
    cfg = pair_config(classical(), dt=0.1, t_final=1.0, record_every=3)
    for traj in _runs_of_both_forms(cfg):
        assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0])
        assert traj.thetas.shape == (5, 2)
    # final step divisible by record_every must not duplicate the endpoint
    cfg5 = pair_config(classical(), dt=0.1, t_final=1.0, record_every=5)
    for traj5 in _runs_of_both_forms(cfg5):
        assert np.allclose(traj5.times, [0.0, 0.5, 1.0])
        assert np.unique(traj5.times).size == traj5.times.size
        assert traj5.thetas.shape == (3, 2)


def test_simulate_times_are_multiples_not_accumulated():
    cfg = pair_config(classical(), dt=0.1, t_final=2.0, record_every=1)
    traj = simulate(cfg, np.array(PAIR_THETA0))
    assert np.array_equal(traj.times[:-1], 0.1 * np.arange(20))
    assert traj.times[-1] == 2.0


def test_simulate_validates_initial_phases():
    cfg = pair_config(classical(), dt=0.1)
    with pytest.raises(ValueError):
        simulate(cfg, np.zeros(3))
    with pytest.raises(ValueError):
        simulate(cfg, np.array([0.0, math.nan]))


def _first_order_rows(trajs):
    """(recorded velocities, a cold rhs evaluation at each recorded state) per run."""
    return [(traj.theta_dots, [rhs(traj.config, theta) for theta in traj.thetas])
            for traj in trajs]


def _compare_batch_rows():
    # compare's four kinds at seed 3 (t_final 20): 477 of the 2001 full-kind
    # rows differed in the last ulp while a joint solve recomputed them
    theta0, omega, _ = sample_protocol_ensemble(3, n=10, kappa=1.0,
                                                freq_interval=(-0.15, 0.15))
    models = [classical(), relativistic(1.0), proper_velocity(1.0), rapidity(1.0)]
    configs = [SystemConfig(1.0, omega, model, 0.01, 20.0) for model in models]
    return _first_order_rows(simulate_batch(configs, theta0))


def _rate_sweep_batch_rows():
    # rate-vs-c's full-kind rows on distinct (B, 1) bound columns, and classical
    models = [relativistic(c) for c in (0.5, 1.0, 5.0, 10.0)] + [classical()]
    configs = [SystemConfig(1.0, np.zeros(10), model, 0.01, 4.0) for model in models]
    theta0 = np.random.default_rng(3).uniform(-1.5, 1.5, 10)
    return _first_order_rows(simulate_batch(configs, theta0))


def _closing_step_rows():
    # 66 steps of 0.03, then a closing step of 0.02, recording every 7th
    om = np.array([0.1, -0.05, 0.02, -0.07])
    cfg = SystemConfig(1.0, om, relativistic(1.0), 0.03, 2.0, 7)
    return _first_order_rows([simulate(cfg, np.array([0.5, -0.9, 1.2, 0.0]))])


def _both_forms_rows():
    gen = np.random.default_rng(10)
    model = relativistic(1.0)
    cfg = SystemConfig(1.0, gen.uniform(-0.1, 0.1, 10), model, 0.05, 20.0)
    momentum, first = simulate_both_forms(cfg, gen.uniform(-1.2, 1.2, 10),
                                          gen.uniform(-0.3, 0.3, 10))
    momentum_rows = [model.velocity(p) for p in momentum.momenta]
    return [(momentum.theta_dots, momentum_rows)] + _first_order_rows([first])


@pytest.mark.parametrize("recorded_rows", [
    _compare_batch_rows, _rate_sweep_batch_rows, _closing_step_rows, _both_forms_rows,
], ids=["compare", "rate-vs-c", "closing-step", "both-forms"])
def test_recorded_velocities_match_rhs_rows(recorded_rows):
    # each recorded velocity is the one the integrator used at that state,
    # bit for bit, not a second solve's
    for recorded, cold in recorded_rows():
        assert len(recorded) == len(cold)
        differing = sum(not np.array_equal(row, want) for row, want in zip(recorded, cold))
        assert differing == 0, f"{differing} of {len(cold)} rows differ"


def test_one_velocity_call_per_rk4_stage_and_final_state(monkeypatch):
    # 66 steps of 0.03 and a closing step of 0.02 recorded every 7th: four
    # stages per step and one evaluation of the final state, with no second
    # pass over the recorded states
    steps = 67
    om = np.array([0.1, -0.05, 0.02, -0.07])
    cfg = SystemConfig(1.0, om, relativistic(1.0), 0.03, 2.0, 7)
    theta0 = np.array([0.5, -0.9, 1.2, 0.0])
    seen = []  # the row count of every drive inverted
    original = FrequencyResponse.velocity

    def counting(self, drive):
        seen.append(np.shape(drive)[0])
        return original(self, drive)

    monkeypatch.setattr(FrequencyResponse, "velocity", counting)
    simulate(cfg, theta0)
    assert len(seen) == 4 * steps + 1
    assert max(seen) == 1  # the batch of one
    seen.clear()
    simulate_both_forms(cfg, theta0, np.array([0.2, -0.1, 0.05, 0.0]))
    assert len(seen) == 4 * steps + 1
    assert max(seen) == 2  # the two stacked forms


def test_phases_are_never_wrapped():
    om = np.array([10.0, 10.0])
    cfg = SystemConfig(0.0, om, classical(), 0.01, 10.0)
    traj = simulate(cfg, np.zeros(2))
    assert traj.thetas[-1][0] == pytest.approx(100.0, rel=1e-12)


# ----------------------------------------------------------------------
# accuracy against the standalone scalar reference
# ----------------------------------------------------------------------


def test_simulate_matches_scalar_reference(pair_reference_solution):
    cfg = pair_config(classical(), dt=1e-3)
    traj = simulate(cfg, np.array(PAIR_THETA0))
    final = traj.thetas[-1]
    err = max(abs(final[0] - pair_reference_solution[0]),
              abs(final[1] - pair_reference_solution[1]))
    assert err < 1e-12


def test_fourth_order_error_decay(pair_reference_solution):
    errs = {}
    for dt in (0.02, 0.01):
        traj = simulate(pair_config(classical(), dt=dt), np.array(PAIR_THETA0))
        final = traj.thetas[-1]
        errs[dt] = max(abs(final[0] - pair_reference_solution[0]),
                       abs(final[1] - pair_reference_solution[1]))
    ratio = errs[0.02] / errs[0.01]
    assert 12.0 <= ratio <= 20.0


# ----------------------------------------------------------------------
# failure handling
# ----------------------------------------------------------------------


def _fail_velocity_after(monkeypatch, calls_before_failure):
    """Make FrequencyResponse.velocity raise from call calls_before_failure + 1 on.

    Returns the call counter; set its "n" back to 0 to rerun from scratch.
    """
    calls = {"n": 0}
    original = FrequencyResponse.velocity

    def failing(self, drive):
        calls["n"] += 1
        if calls["n"] > calls_before_failure:
            raise DomainError("synthetic mid-run failure")
        return original(self, drive)

    monkeypatch.setattr(FrequencyResponse, "velocity", failing)
    return calls


def _assert_failure_propagates(calls, run, calls_before_failure):
    """run raises the model's DomainError, and its first failing call ends it."""
    calls["n"] = 0
    with pytest.raises(DomainError, match="synthetic mid-run failure"):
        run()
    assert calls["n"] == calls_before_failure + 1


def test_simulate_propagates_a_model_failure(monkeypatch):
    cfg = pair_config(relativistic(1.0), dt=0.1, t_final=5.0, record_every=1)
    # call 29 is the first stage of step 8
    calls = _fail_velocity_after(monkeypatch, 28)
    _assert_failure_propagates(calls, lambda: simulate(cfg, np.array(PAIR_THETA0)), 28)


def test_simulate_momentum_propagates_a_model_failure(monkeypatch):
    cfg = pair_config(relativistic(1.0), dt=0.1, t_final=5.0, record_every=1)
    theta0, thetadot0 = np.array(PAIR_THETA0), np.array([0.2, -0.1])
    # call 31 is the third stage of step 8
    calls = _fail_velocity_after(monkeypatch, 30)
    _assert_failure_propagates(calls, lambda: simulate_momentum(cfg, theta0, thetadot0), 30)
    # the fused run evaluates the model as often as the momentum form alone
    _assert_failure_propagates(calls, lambda: simulate_both_forms(cfg, theta0, thetadot0), 30)


def test_failure_at_the_final_state_propagates(monkeypatch):
    # The final state is evaluated once, after the last step; a failure
    # there propagates like any other.
    cfg = pair_config(relativistic(1.0), dt=0.1, t_final=1.0, record_every=1)
    theta0, thetadot0 = np.array(PAIR_THETA0), np.array([0.2, -0.1])
    # 10 steps of 4 stages, then the final state
    calls = _fail_velocity_after(monkeypatch, 40)
    _assert_failure_propagates(calls, lambda: simulate(cfg, theta0), 40)
    _assert_failure_propagates(calls, lambda: simulate_momentum(cfg, theta0, thetadot0), 40)


def test_a_state_that_overflows_mid_run_raises_domain_error():
    # ten steps of 1e10 at frequencies of +-1e300: the state overflows and the
    # model rejects the drive it gives; numpy's warnings are silenced here, so
    # only the error is checked (test_cli checks that the run warns nothing)
    omega = np.array([1e300, 0.0, -1e300])
    cfg = SystemConfig(1.0, omega, rapidity(1e300), 1e10, 1e11)
    theta0, _, _ = sample_protocol_ensemble(0, n=3, omega=omega)
    with np.errstate(all="ignore"):
        with pytest.raises(DomainError, match="drive must be finite"):
            simulate_batch([cfg], theta0)
        with pytest.raises(DomainError, match="drive must be finite"):
            simulate_both_forms(cfg, theta0, cfg.model.velocity(omega))


# ----------------------------------------------------------------------
# batched integration
# ----------------------------------------------------------------------


def _assert_batch_equals_serial(configs, theta0):
    batch = simulate_batch(configs, theta0)
    assert len(batch) == len(configs)
    rows_theta0 = np.broadcast_to(theta0, (len(configs), configs[0].n))
    for config, row_theta0, traj in zip(configs, rows_theta0, batch):
        alone = simulate(config, row_theta0)
        assert traj.config is config
        # the same floats, not merely close ones
        assert np.array_equal(traj.times, alone.times)
        assert np.array_equal(traj.thetas, alone.thetas)
        assert np.array_equal(traj.theta_dots, alone.theta_dots)


def test_simulate_batch_matches_serial_runs_across_kinds():
    # every kind, the full kind in two rows apart from each other, distinct
    # kappa, omega, c and theta0 per row, record_every 7 and a closing
    # fractional step (66 steps of 0.03, then 0.02)
    gen = np.random.default_rng(11)
    n = 6
    models = [classical(), relativistic(1.28), proper_velocity(1.3), rapidity(2.2),
              relativistic(3.63), classical()]
    kappas = [0.5, 1.0, 1.5, 2.0, 0.8, 1.2]
    configs = [SystemConfig(kappa, gen.uniform(-0.3, 0.3, n), model, 0.03, 2.0, 7)
               for kappa, model in zip(kappas, models)]
    _assert_batch_equals_serial(configs, gen.uniform(-1.2, 1.2, (len(configs), n)))


@pytest.mark.parametrize("seed", [1, 3, 7])
def test_simulate_batch_matches_serial_runs_of_the_rate_sweep(seed):
    # the rate-vs-c batch: identical oscillators from one shared theta0, the
    # full kind at four bounds, whose Newton solves stop after different
    # numbers of rounds, and the classical reference
    gen = np.random.default_rng(seed)
    n = 10
    models = [relativistic(c) for c in (0.5, 1.0, 5.0, 10.0)] + [classical()]
    configs = [SystemConfig(1.0, np.zeros(n), model, 0.01, 4.0) for model in models]
    _assert_batch_equals_serial(configs, gen.uniform(-1.5, 1.5, n))


@pytest.mark.parametrize("field, value", [
    ("n", 3), ("dt", 0.05), ("t_final", 2.0), ("record_every", 2),
])
def test_simulate_batch_rejects_configs_on_different_grids(field, value):
    base = dict(kappa=1.0, omega=np.array(PAIR_NU), model=classical(),
                dt=0.1, t_final=1.0, record_every=1)
    # n is the length of omega
    other = {**base, "omega": np.zeros(value)} if field == "n" else {**base, field: value}
    with pytest.raises(ValueError, match="share n, dt, t_final and record_every") as info:
        simulate_batch([SystemConfig(**base), SystemConfig(**other)], np.array(PAIR_THETA0))
    assert info.value.field == "configs"


def test_simulate_batch_propagates_a_model_failure(monkeypatch):
    configs = [pair_config(model, dt=0.1, t_final=5.0, record_every=1)
               for model in (relativistic(1.0), relativistic(2.0), classical())]
    theta0 = np.array(PAIR_THETA0)
    # two velocity calls per stage, one per kind: call 33 is the first
    # stage of step 5
    calls = _fail_velocity_after(monkeypatch, 32)
    _assert_failure_propagates(calls, lambda: simulate_batch(configs, theta0), 32)


def test_simulate_batch_validates_its_inputs():
    cfg = pair_config(classical(), dt=0.1)
    with pytest.raises(ValueError) as info:
        simulate_batch([], np.array(PAIR_THETA0))
    assert info.value.field == "configs"
    with pytest.raises(ValueError):
        simulate_batch([cfg, cfg], np.zeros((3, 2)))
    with pytest.raises(ValueError):
        simulate_batch([cfg, cfg], np.array([[0.0, 1.0], [math.inf, 0.0]]))


def test_simulate_takes_theta0_as_one_row_or_a_batch_of_one():
    cfg = pair_config(classical(), dt=0.1, t_final=1.0)
    row = simulate(cfg, np.array(PAIR_THETA0))
    assert np.array_equal(simulate(cfg, np.array([PAIR_THETA0])).thetas, row.thetas)
    # a column is no batch of one: simulate checks theta0 as simulate_batch does
    with pytest.raises(ValueError) as info:
        simulate(cfg, np.array(PAIR_THETA0)[:, None])
    assert info.value.field == "theta0"


# ----------------------------------------------------------------------
# mean-field sums
# ----------------------------------------------------------------------

# Both sides of dynamics.PAIRWISE_MAX_N, large unwrapped offsets, and
# spreads from nearly synchronised to a half circle.  The examples pin the
# smallest sizes, the paper's n = 10, the last pairwise size, the first
# O(n) one and three larger sizes, each at a half-circle spread.
@settings(deadline=None, derandomize=True, database=None)
@example(n=1, offset=-1e3, log_spread=math.log10(math.pi), kappa=1.3, seed=1)
@example(n=2, offset=1e3, log_spread=math.log10(math.pi), kappa=1.3, seed=2)
@example(n=10, offset=-1e3, log_spread=math.log10(math.pi), kappa=1.3, seed=10)
@example(n=16, offset=-1e3, log_spread=math.log10(math.pi), kappa=1.3, seed=16)
@example(n=17, offset=-1e3, log_spread=math.log10(math.pi), kappa=1.3, seed=17)
@example(n=256, offset=1e3, log_spread=math.log10(math.pi), kappa=1.3, seed=256)
@example(n=257, offset=1e3, log_spread=math.log10(math.pi), kappa=1.3, seed=257)
@example(n=700, offset=1e3, log_spread=math.log10(math.pi), kappa=1.3, seed=700)
@given(
    n=st.integers(1, 300),
    offset=st.floats(-1e3, 1e3),
    log_spread=st.floats(-12.0, math.log10(math.pi)),
    kappa=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_mean_field_sums_match_pairwise_reference(n, offset, log_spread, kappa, seed):
    gen = np.random.default_rng(seed)
    theta = offset + 10.0**log_spread * gen.uniform(-0.5, 0.5, n)
    v = gen.uniform(-1.0, 1.0, n)
    diff = theta[None, :] - theta[:, None]  # [i, j] = theta_j - theta_i
    sine_ref = (kappa / n) * np.sin(diff).sum(axis=1)
    cos_ref = (kappa / n) * (np.cos(diff) * (v[None, :] - v[:, None])).sum(axis=1)
    pair_ref = (kappa / (2 * n)) * (1.0 - np.cos(diff)).sum()

    cfg = SystemConfig(kappa, np.zeros(n), classical(), 0.01, 1.0)
    assert np.max(np.abs(coupling(cfg, theta) - sine_ref)) <= 1e-14 * kappa
    assert np.max(np.abs(_momentum_coupling(cfg, theta, v) - cos_ref)) <= 1e-14 * kappa
    # the pair term grows to kappa * n, where 1e-14 * kappa is below one ulp
    pair = potential(theta, kappa, np.zeros(n))
    assert abs(pair - pair_ref) <= 1e-14 * kappa * n


def test_mean_field_coupling_is_exactly_zero_for_identical_phases():
    # the paper's size and one past PAIRWISE_MAX_N
    for n in (10, 40):
        cfg = SystemConfig(1.0, np.zeros(n), classical(), 0.01, 1.0)
        for phase in (0.0, 2.0, 3.0, 123.4, -1e3 + 0.1):
            assert np.array_equal(coupling(cfg, np.full(n, phase)), np.zeros(n))
            # the momentum coupling vanishes for equal velocities, at
            # identical phases and at spread ones alike
            spread = phase + np.random.default_rng(n).uniform(-3.0, 3.0, n)
            for theta in (np.full(n, phase), spread):
                assert np.array_equal(_momentum_coupling(cfg, theta, np.full(n, 0.7)),
                                      np.zeros(n))


def test_mean_field_runs_match_pairwise_runs(monkeypatch):
    n = 40
    gen = np.random.default_rng(7)
    theta0 = gen.uniform(-1.2, 1.2, n)
    thetadot0 = gen.uniform(-0.3, 0.3, n)
    cfg = SystemConfig(1.0, gen.uniform(-0.1, 0.1, n), relativistic(1.0), 0.01, 2.0, 10)
    fast = simulate(cfg, theta0)
    fast_momentum = simulate_momentum(cfg, theta0, thetadot0)
    monkeypatch.setattr(dynamics, "PAIRWISE_MAX_N", 10**9)
    slow = simulate(cfg, theta0)
    slow_momentum = simulate_momentum(cfg, theta0, thetadot0)
    assert np.max(np.abs(fast.thetas - slow.thetas)) <= 1e-12
    assert np.max(np.abs(fast.theta_dots - slow.theta_dots)) <= 1e-12
    assert np.max(np.abs(fast_momentum.thetas - slow_momentum.thetas)) <= 1e-12
    assert np.max(np.abs(fast_momentum.residuals - slow_momentum.residuals)) <= 1e-12


def _one_shot_sine_sums(theta):
    return np.sin(theta[..., None, :] - theta[..., :, None]).sum(axis=-1)


def _pairwise_block_rows(n):
    return dynamics._BLOCK_FLOATS // (n * n)


# Rows just inside, at and past one block, and several blocks with a
# ragged last one; (n,) and (B, n) inputs take the one-block path.
@pytest.mark.parametrize("n", [1, 2, 10, 16])
@pytest.mark.parametrize("shape", [
    lambda n: (n,),
    lambda n: (5, n),
    lambda n: (_pairwise_block_rows(n) - 1, n),
    lambda n: (_pairwise_block_rows(n), n),
    lambda n: (_pairwise_block_rows(n) + 1, n),
    lambda n: (3 * _pairwise_block_rows(n) + 5, n),
], ids=["n", "batch", "block-1", "block", "block+1", "3block+5"])
def test_blocked_sine_sums_equal_one_shot_pairwise_sums(n, shape):
    assert n <= dynamics.PAIRWISE_MAX_N
    gen = np.random.default_rng(n)
    theta = gen.uniform(-1e3, 1e3, shape(n)) + gen.uniform(-1e-9, 1e-9, shape(n))
    assert np.array_equal(dynamics._sine_sums(theta), _one_shot_sine_sums(theta))
    # a strided (M, n) view, as simulate_batch passes one system's states
    stacked = np.stack([theta, theta + 1.0], axis=-2)[..., 1, :]
    assert np.array_equal(dynamics._sine_sums(stacked), _one_shot_sine_sums(stacked))


def test_blocked_sine_sums_peak_below_output_plus_a_few_blocks():
    theta = np.random.default_rng(0).uniform(-3.0, 3.0, (20001, 16))
    # per block, the differences and their sines are the only live
    # temporaries; two more blocks cover reduction buffers and bookkeeping
    bound = theta.nbytes + 4 * 8 * dynamics._BLOCK_FLOATS
    tracemalloc.start()
    try:
        out = dynamics._sine_sums(theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == theta.shape
    assert peak < bound


def _one_shot_momentum_coupling(config, theta, v):
    diff = theta[None, :] - theta[:, None]
    rel = v[None, :] - v[:, None]
    return (config.kappa / config.n) * (np.cos(diff) * rel).sum(axis=1)


# the sizes that took the pairwise sums before the O(n) ones served every
# n.  Phases on a 2**-30 grid within 1e3 of zero have exact differences,
# so both forms take cosines of the same arguments and only the sums
# round: the O(n) form keeps within 1e-14 * kappa of the pairwise one.
@pytest.mark.parametrize("n", [1, 2, 10, 16])
def test_momentum_coupling_equals_one_shot_pairwise_sums(n):
    gen = np.random.default_rng(n)
    cfg = SystemConfig(1.3, np.zeros(n), relativistic(1.0), 0.01, 1.0)
    theta = np.ldexp(np.round(np.ldexp(gen.uniform(-1e3, 1e3, n), 30)), -30)
    v = gen.uniform(-0.99, 0.99, n)
    assert np.array_equal((theta - theta[0]) + theta[0], theta)
    reference = _one_shot_momentum_coupling(cfg, theta, v)
    assert np.max(np.abs(_momentum_coupling(cfg, theta, v) - reference)) <= 1e-14 * cfg.kappa


# n = 256, where n * n was one block, and 257 and 700, which were split
# into row blocks: over these phases, spread across 2e3, the O(n) sums
# keep within 1e-14 * kappa of the one-shot pairwise sums.  Such wide
# differences round by up to ulp(2e3) in both forms, which at many small
# n exceeds that bound; test_mean_field_sums_match_pairwise_reference
# holds it at every n over a spread of at most a half circle.
@pytest.mark.parametrize("n", [256, 257, 700])
def test_blocked_momentum_coupling_equals_one_shot_pairwise_sums(n):
    gen = np.random.default_rng(n)
    cfg = SystemConfig(1.3, np.zeros(n), relativistic(1.0), 0.01, 1.0)
    theta = gen.uniform(-1e3, 1e3, n)
    v = gen.uniform(-0.99, 0.99, n)
    reference = _one_shot_momentum_coupling(cfg, theta, v)
    assert np.max(np.abs(_momentum_coupling(cfg, theta, v) - reference)) <= 1e-14 * cfg.kappa


def test_momentum_coupling_peak_below_output_plus_a_few_blocks():
    n = 2000
    gen = np.random.default_rng(0)
    cfg = SystemConfig(1.0, np.zeros(n), relativistic(1.0), 0.01, 1.0)
    theta, v = gen.uniform(-3.0, 3.0, n), gen.uniform(-0.9, 0.9, n)
    # the O(n) sums keep a few (n,) arrays live, well inside the
    # allowance of four blocks
    bound = 8 * n + 4 * 8 * dynamics._BLOCK_FLOATS
    tracemalloc.start()
    try:
        out = _momentum_coupling(cfg, theta, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (n,)
    assert peak < bound


# ----------------------------------------------------------------------
# momentum form
# ----------------------------------------------------------------------


def test_momentum_form_matches_first_order():
    theta0 = np.array([0.4, -0.9, 1.3])
    om = np.array([0.05, -0.1, 0.05])
    model = relativistic(1.0)
    cfg = SystemConfig(1.0, om, model, 1e-3, 1.0, 1)
    thetadot0 = model.velocity(om + coupling(cfg, theta0))
    momentum_traj = simulate_momentum(cfg, theta0, thetadot0)
    nu = momentum_traj.config.omega
    assert np.max(np.abs(nu - om)) < 1e-14

    first_traj = simulate(momentum_traj.config, theta0)
    assert np.array_equal(momentum_traj.times, first_traj.times)
    assert np.max(np.abs(momentum_traj.thetas - first_traj.thetas)) < 1e-10
    assert np.max(np.abs(momentum_traj.residuals)) < 1e-12
    # nu_i = F(thetadot_i(0)) - coupling_i(0)
    assert np.array_equal(nu, model.momentum(thetadot0) - coupling(cfg, theta0))


def test_momentum_form_initial_sample_consistency():
    theta0 = np.array([0.2, -0.2])
    model = relativistic(2.0)
    cfg = SystemConfig(1.0, np.zeros(2), model, 0.01, 0.5, 1)
    thetadot0 = np.array([0.3, -0.3])
    traj = simulate_momentum(cfg, theta0, thetadot0)
    assert np.array_equal(traj.thetas[0], theta0)
    assert traj.theta_dots[0] == pytest.approx(thetadot0, rel=1e-15)
    assert traj.momenta[0] == pytest.approx(model.momentum(thetadot0), rel=1e-15)
    assert np.max(np.abs(traj.residuals[0])) < 1e-15


def test_momentum_form_rejects_superluminal_start():
    model = relativistic(1.0)
    cfg = SystemConfig(1.0, np.zeros(2), model, 0.01, 0.5, 1)
    with pytest.raises(DomainError):
        simulate_momentum(cfg, np.zeros(2), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        simulate_momentum(cfg, np.zeros(2), np.zeros(3))


def test_momentum_rhs_classical_reduces_to_second_order():
    # the classical momentum form is the second-order phase model with unit
    # inertia: theta' = p exactly, and p' the cos-weighted velocity differences
    dt = 1e-8
    cfg = SystemConfig(1.0, np.zeros(2), classical(), dt, dt, 1)
    traj = simulate_momentum(cfg, np.array([0.3, -0.3]), np.array([0.1, -0.1]))
    assert np.array_equal(traj.theta_dots, traj.momenta)  # classical: velocity == drive
    # pair closed form of p'(0); one RK4 step of length dt resolves it to O(dt)
    expected = 0.5 * math.cos(-0.6) * (-0.2)
    p_dot = (traj.momenta[1] - traj.momenta[0]) / dt
    assert p_dot[0] == pytest.approx(expected, rel=1e-6)
    assert p_dot[1] == pytest.approx(-expected, rel=1e-6)


def _momentum_form_alone(config, theta0, thetadot0):
    """The momentum form as its own (2, n) state: one velocity call per stage."""
    theta0 = np.asarray(theta0, dtype=float)
    p0 = config.model.momentum(np.asarray(thetadot0, dtype=float))
    nu = p0 - coupling(config, theta0)

    def rates(y):
        v = config.model.velocity(y[1])
        return np.stack((v, _momentum_coupling(config, y[0], v)))

    times, y0 = dynamics._recorded_times(config), np.stack((theta0, p0))
    states, derivs = dynamics._collect(times, y0, dynamics._integrate(config, times, y0, rates))
    thetas, momenta = states[:, 0], states[:, 1]
    return {"times": times, "thetas": thetas, "momenta": momenta,
            "theta_dots": derivs[:, 0],
            "residuals": momenta - coupling(config, thetas) - nu}


# The stacked rows hold the same drive up to rounding, so a joint stop test
# would change the floats only at the rare stages where their Newton solves
# stop after different numbers of rounds: 20 time units contain such stages
# for every full-kind case below.
@pytest.mark.parametrize("n, model, dt, t_final, record_every", [
    (10, relativistic(1.0), 0.05, 20.0, 1),
    # c**3 is where numpy's array power and Python's pow can part by an ulp
    (10, relativistic(1.28), 0.05, 20.0, 1),
    # the first-order sums take the O(n) branch above PAIRWISE_MAX_N
    (30, relativistic(1.0), 0.05, 20.0, 1),
    # 666 steps of 0.03, then a closing step of 0.02
    (10, relativistic(1.5), 0.03, 20.0, 7),
    (10, classical(), 0.05, 20.0, 1),
    (10, rapidity(1.5), 0.05, 20.0, 1),
])
def test_both_forms_match_each_form_run_alone(n, model, dt, t_final, record_every):
    gen = np.random.default_rng(n)
    cfg = SystemConfig(1.0, gen.uniform(-0.1, 0.1, n), model, dt, t_final, record_every)
    theta0 = gen.uniform(-1.2, 1.2, n)
    thetadot0 = gen.uniform(-0.3, 0.3, n)
    momentum, first = simulate_both_forms(cfg, theta0, thetadot0)
    # both results carry the one system that ran: cfg with omega = nu
    assert first.config is momentum.config
    assert np.array_equal(first.config.omega,
                          model.momentum(thetadot0) - coupling(cfg, theta0))
    # the same floats as each form integrated on its own, not merely close ones
    alone = simulate(first.config, theta0)
    for name in ("times", "thetas", "theta_dots"):
        assert np.array_equal(getattr(first, name), getattr(alone, name)), name
    reference = _momentum_form_alone(cfg, theta0, thetadot0)
    for name, expected in reference.items():
        assert np.array_equal(getattr(momentum, name), expected), name


# The integrators on the shipped full-kind solve and on the reference
# solve it was cut from (tests/reference_inverse.py): every recorded array
# must hold the same floats.


def _run_on_both_solves(monkeypatch, run):
    shipped = run()
    monkeypatch.setattr(FrequencyResponse, "_invert_full", reference_invert_full)
    return shipped, run()


def test_both_forms_get_the_floats_of_the_reference_solve(monkeypatch):
    # rcs-check's system (seed 1) for 500 steps: 712 of its 2,002 solves
    # fall back to bisection in some round
    theta0, omega, _ = sample_protocol_ensemble(1, n=10, kappa=1.0,
                                                freq_interval=(-0.15, 0.15))
    model = relativistic(1.0)
    cfg = SystemConfig(1.0, omega, model, 1e-3, 0.5, 10)
    thetadot0 = model.velocity(omega + coupling(cfg, theta0))
    shipped, reference = _run_on_both_solves(
        monkeypatch, lambda: simulate_both_forms(cfg, theta0, thetadot0))
    for got, want in zip(shipped, reference):
        for name in ("times", "thetas", "theta_dots"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("momenta", "residuals"):
        assert np.array_equal(getattr(shipped[0], name), getattr(reference[0], name)), name
    assert np.array_equal(shipped[0].config.omega, reference[0].config.omega)


def test_batch_gets_the_floats_of_the_reference_solve(monkeypatch):
    # rate-vs-c's batch: four full-kind rows on (4, 1) bound columns, whose
    # rows stop in different rounds in 1,600 of the 1,604 solves, and classical
    gen = np.random.default_rng(3)
    n = 10
    models = [relativistic(c) for c in (0.5, 1.0, 5.0, 10.0)] + [classical()]
    configs = [SystemConfig(1.0, np.zeros(n), model, 0.01, 4.0) for model in models]
    theta0 = gen.uniform(-1.5, 1.5, n)
    shipped, reference = _run_on_both_solves(
        monkeypatch, lambda: simulate_batch(configs, theta0))
    for got, want in zip(shipped, reference):
        for name in ("times", "thetas", "theta_dots"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


# ----------------------------------------------------------------------
# CSV export
# ----------------------------------------------------------------------


def test_trajectory_csv_round_trip(tmp_path):
    cfg = pair_config(relativistic(1.0), dt=0.1, t_final=0.5, record_every=1)
    traj = simulate(cfg, np.array(PAIR_THETA0))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,theta_1,theta_2,thetadot_1,thetadot_2"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (traj.times.size, 5)
    assert np.allclose(data[:, 0], traj.times, rtol=0, atol=0)
    assert np.allclose(data[:, 1:3], traj.thetas, rtol=1e-15)
    assert np.allclose(data[:, 3:5], traj.theta_dots, rtol=1e-15)


def _savetxt_bytes(path, columns, header):
    np.savetxt(path, np.column_stack(columns), delimiter=",", header=header,
               comments="", fmt="%.16e")
    return path.read_bytes()


# -0.0, the smallest subnormal, +-1e300 and nan, spread over the table
SPECIAL_VALUES = np.array([-0.0, 5e-324, 1e300, -1e300, math.nan])


@pytest.mark.parametrize("rows, n", [
    (1, 3),       # one row
    (1001, 10),   # 195 rows per block, 1001 rows end mid-block
    (4, 3000),    # a row of 6001 floats, wider than one block
])
def test_trajectory_csv_bytes_equal_savetxt(tmp_path, rows, n):
    rng = np.random.default_rng(rows)
    thetas = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-300, 300, size=(rows, n))
    theta_dots = rng.normal(size=(rows, n))
    thetas.flat[np.arange(SPECIAL_VALUES.size) * 7 % thetas.size] = SPECIAL_VALUES
    theta_dots[-1, :2] = [-0.0, 5e-324][:n]
    cfg = SystemConfig(1.0, np.zeros(n), relativistic(1.0), 0.1, 1.0, 1)
    traj = Trajectory(cfg, np.arange(rows) * 0.1, thetas, theta_dots)
    write_trajectory_csv(traj, tmp_path / "got.csv")
    header = ",".join(["t"] + [f"theta_{i}" for i in range(1, n + 1)]
                      + [f"thetadot_{i}" for i in range(1, n + 1)])
    want = _savetxt_bytes(tmp_path / "want.csv", [traj.times, thetas, theta_dots], header)
    assert (tmp_path / "got.csv").read_bytes() == want


def test_trajectory_csv_of_a_batch_view_equals_savetxt(tmp_path):
    # thetas of a batched run are strided views into the (M, B, n) states
    configs = [pair_config(model, dt=0.03, t_final=3.0, record_every=1)
               for model in (relativistic(1.0), rapidity(2.0))]
    traj = simulate_batch(configs, np.array(PAIR_THETA0))[1]
    assert not traj.thetas.flags.c_contiguous
    write_trajectory_csv(traj, tmp_path / "got.csv")
    want = _savetxt_bytes(tmp_path / "want.csv", [traj.times, traj.thetas, traj.theta_dots],
                          "t,theta_1,theta_2,thetadot_1,thetadot_2")
    assert (tmp_path / "got.csv").read_bytes() == want


@pytest.mark.parametrize("rows", [1, 146, 147, 585, 586, 4001])
def test_diagnostics_csv_bytes_equal_savetxt(tmp_path, rows):
    # 585 rows of 7 floats fill one block; Python's `%` formats the all-nan column
    rng = np.random.default_rng(rows)
    columns = [rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows)
               for _ in range(6)] + [np.full(rows, math.nan)]
    columns[2][:SPECIAL_VALUES.size] = SPECIAL_VALUES[:rows]
    series = DiagnosticsSeries(*columns)
    write_diagnostics_csv(series, tmp_path / "got.csv")
    want = _savetxt_bytes(tmp_path / "want.csv", columns,
                          "t,diameter,freq_diameter,r,phi,potential,energy")
    assert (tmp_path / "got.csv").read_bytes() == want


# Column widths whose rows outgrow one block B: one float past it, a
# column ending on the chunk edge, a column spanning two chunk edges, and
# a lone (M, 3B + 5) column.
@pytest.mark.parametrize("widths", [
    lambda b: (1, b),
    lambda b: (1, b - 1, b),
    lambda b: (2, 2 * b + 1, 3),
    lambda b: (3 * b + 5,),
], ids=["B+1", "2B", "2B+6", "3B+5"])
def test_csv_rows_wider_than_a_block_equal_savetxt(tmp_path, widths):
    widths = widths(dynamics._BLOCK_FLOATS)
    values = _adversarial_floats()
    table = np.resize(values, (3, sum(widths)))
    columns = np.split(table, np.cumsum(widths)[:-1], axis=1)
    columns[0] = columns[0][:, 0] if widths[0] == 1 else columns[0]
    names = [f"x{i}" for i in range(table.shape[1])]
    _write_csv(tmp_path / "got.csv", names, columns)
    want = _savetxt_bytes(tmp_path / "want.csv", [table], ",".join(names))
    assert (tmp_path / "got.csv").read_bytes() == want


def test_trajectory_writer_peak_does_not_grow_with_n(tmp_path):
    n, rows = 10**4, 11
    rng = np.random.default_rng(0)
    cfg = SystemConfig(1.0, np.zeros(n), relativistic(1.0), 0.1, 1.0, 1)
    traj = Trajectory(cfg, np.arange(rows) * 0.1, rng.normal(size=(rows, n)),
                      rng.uniform(-0.9, 0.9, (rows, n)))
    # formatting one block keeps about 20 arrays of its size live (digits,
    # exponents, masks, ASCII words); a row of 2n + 1 floats spans five
    # blocks, so formatting it whole would take about five times that
    bound = 2 * 20 * 8 * dynamics._BLOCK_FLOATS
    tracemalloc.start()
    try:
        write_trajectory_csv(traj, tmp_path / "traj.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def _percent_rows(block):
    """The reference: every float of a 2-D block through Python's ``%``."""
    line = ",".join(["%.16e"] * block.shape[1]) + "\n"
    return line * len(block) % tuple(block.ravel().tolist())


def _adversarial_floats():
    rng = np.random.default_rng(16)
    # nearest doubles to decimal midpoints d.ddddddddddddddd5e+-k
    mids = [float(f"{d}5e{k}") for d, k in zip(rng.integers(10**15, 10**16, 400),
                                                 rng.integers(-120, 101, 400))]
    # exact ties: odd m / 2^(s+1) scaled by 10^s is m * 5^s / 2
    ties = [(int(m) | 1) / 2.0 ** (s + 1) for s in range(1, 21)
            for m in 3 * 10**16 // 5**s + rng.integers(0, 1000, 8)]
    # powers of ten and their neighbours one and two ulps away
    pows = np.array([float(f"1e{k}") for k in range(-101, 102)])
    down, up = np.nextafter(pows, 0.0), np.nextafter(pows, np.inf)
    near = [pows, down, up, np.nextafter(down, 0.0), np.nextafter(up, np.inf)]
    bounds = [1e99, 9.999999999999999e98, 1e-99, 1.00001e-100, 1.0000000000000001e-99,
              9.99999999999999999e42, 9.99999999999999995e42, 99999999999999999.0,
              0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
              5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    bits = rng.integers(0, 2**64, 2000, dtype=np.uint64).view(np.float64)
    subnormals = rng.integers(1, 2**52, 200, dtype=np.uint64).view(np.float64)
    values = np.concatenate([mids, ties, *near, bounds, bits, subnormals])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("width", [1, 7, 21, 2001])
def test_format_rows_matches_percent_on_adversarial_floats(width):
    values = _adversarial_floats()
    table = np.resize(values, (-(-values.size // width), width))
    for rows in dynamics._row_blocks(len(table), width):
        assert _format_rows(table[rows]) == _percent_rows(table[rows]).encode("ascii")


@settings(deadline=None, derandomize=True, database=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=40),
              elements=st.floats()))
def test_format_rows_matches_percent_formatting(block):
    assert _format_rows(block) == _percent_rows(block).encode("ascii")
