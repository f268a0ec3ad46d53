"""Scenario-runner tests: sampling reproducibility, report structure,
and the checked predicates on fast configurations.

Full-length runs live in the acceptance suite; everything here is sized
to keep the loop fast while still exercising the real decision logic.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from relkura import (
    RNG_ALGORITHM,
    FrequencyResponse,
    SystemConfig,
    classical,
    compute_diagnostics,
    coupling,
    dynamics,
    make_rng,
    proper_velocity,
    rapidity,
    relativistic,
    run_admissibility,
    run_four_model_comparison,
    run_limit_scaling,
    run_rate_vs_c,
    run_rcs_crosscheck,
    run_simulate,
    run_sync_predicates,
    sample_protocol_ensemble,
    simulate,
    simulate_batch,
    simulate_both_forms,
    write_diagnostics_csv,
    write_trajectory_csv,
)
from relkura.cli import SCENARIOS, _runners
from relkura.errors import ConfigError, DomainError
from relkura.experiments import (
    ADMISSIBILITY_ODDNESS_TOL,
    ADMISSIBILITY_ROUNDTRIP_TOL,
    PredicateOutcome,
    _config_echo,
    _max_abs_pairwise_sine,
)


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------


# draws in sequence: sizes that end inside a 4-draw block, cross one or
# several block boundaries, draw nothing, and a zero-width interval
RNG_DRAWS = [(0.0, 1.0, 3), (-1.0, 2.0, 6), (0.0, 1.0, 0), (0.0, 0.0, 2),
             (-0.5, 0.5, 7), (0.0, 1.0, 1), (-3.0, 3.0, 9)]


def test_make_rng_is_reproducible_and_counter_based():
    # numpy.random is the reference: the stream equals NumPy's Philox(seed),
    # also for seeds of two to seven 32-bit words
    for seed in [*range(1000), 2**32, 2**64 + 5, 10**30, 2**200]:
        ours, ref = make_rng(seed), np.random.Generator(np.random.Philox(seed))
        for low, high, size in RNG_DRAWS:
            got = ours.uniform(low, high, size)
            assert got.shape == (size,)
            assert np.array_equal(got, ref.uniform(low, high, size)), (seed, low, high, size)
    a = make_rng(42).uniform(0.0, 1.0, 8)
    assert np.array_equal(a, make_rng(42).uniform(0.0, 1.0, 8))
    assert not np.array_equal(a, make_rng(43).uniform(0.0, 1.0, 8))
    assert RNG_ALGORITHM == "philox4x32-10"


def test_sample_ensemble_draw_order_is_frequencies_first():
    theta0, omega, tstar = sample_protocol_ensemble(9, n=6, kappa=1.0,
                                                    freq_interval=(-0.2, 0.2))
    gen = make_rng(9)
    assert np.array_equal(omega, gen.uniform(-0.2, 0.2, 6))
    half = 0.5 * (math.pi - tstar)
    assert np.array_equal(theta0, gen.uniform(-half, half, 6))


def test_sample_ensemble_centering():
    _, omega, _ = sample_protocol_ensemble(9, n=6, freq_interval=(-0.2, 0.2),
                                           center_frequencies=True)
    assert abs(omega.mean()) < 1e-16


def test_sample_protocol_ensemble_window_tracks_realized_spread():
    theta0, omega, tstar = sample_protocol_ensemble(21, n=12, kappa=1.0)
    assert tstar == pytest.approx(math.asin(np.ptp(omega)), rel=1e-15)
    half = 0.5 * (math.pi - tstar)
    assert np.max(np.abs(theta0)) <= half
    assert np.ptp(theta0) < math.pi - tstar


def test_sample_protocol_ensemble_degenerate_interval():
    theta0, omega, tstar = sample_protocol_ensemble(21, n=5, freq_interval=(0.0, 0.0))
    assert np.array_equal(omega, np.zeros(5))
    assert tstar == 0.0
    assert np.max(np.abs(theta0)) <= 0.5 * math.pi


def test_sample_protocol_ensemble_given_omega_and_no_lock_angle():
    omega = np.array([-0.3, 0.0, 0.2, 0.1])
    theta0, got, tstar = sample_protocol_ensemble(21, n=4, kappa=0.5, omega=omega)
    assert np.array_equal(got, omega)
    # spread 0.5 is not below kappa: no lock angle, so theta* is None and
    # the window the half circle; a given omega takes no draws from the stream
    assert tstar is None
    assert np.array_equal(theta0, make_rng(21).uniform(-0.5 * math.pi, 0.5 * math.pi, 4))
    with pytest.raises(DomainError):
        sample_protocol_ensemble(21, n=5, omega=omega)


@pytest.mark.parametrize("call, field", [
    # n = 0 used to end in numpy's "zero-size array to reduction operation
    # maximum", and n = -2 in "negative dimensions are not allowed"
    (lambda: sample_protocol_ensemble(0, n=0), "n"),
    (lambda: sample_protocol_ensemble(0, n=-2), "n"),
    (lambda: run_simulate(0, classical(), n=0), "n"),
    # admissibility draws nothing, but used to run and record seed -1
    (lambda: run_admissibility(-1, relativistic(1.0)), "seed"),
    # a reversed or NaN interval used to raise ConfigError("high") from the stream
    (lambda: sample_protocol_ensemble(0, freq_interval=(0.2, 0.1)), "freq_interval"),
    (lambda: sample_protocol_ensemble(0, freq_interval=(0.0, math.nan)), "freq_interval"),
    # a spread that overflows used to warn in np.ptp and report an infinite
    # omega_diameter, which JSON cannot hold
    (lambda: sample_protocol_ensemble(0, n=2, omega=[1e308, -1e308]), "omega"),
    # the stream's own checks
    (lambda: make_rng(0).uniform(1.0, 0.0, 3), "high"),
    (lambda: make_rng(0).uniform(0.0, math.nan, 3), "high"),
    (lambda: make_rng(0).uniform(0.0, 1.0, -1), "size"),
], ids=["sample-n0", "sample-n-2", "simulate-n0", "admissibility-seed-1",
        "sample-reversed-interval", "sample-nan-interval", "sample-overflowing-omega-spread",
        "rng-reversed-interval", "rng-nan-high", "rng-negative-size"])
def test_runners_reject_a_size_below_one_and_a_negative_seed(call, field):
    with pytest.raises(ConfigError) as excinfo:
        call()
    assert excinfo.value.field == field


# ----------------------------------------------------------------------
# four-model comparison
# ----------------------------------------------------------------------


def test_four_model_comparison_full_kind_decays_slowest():
    report = run_four_model_comparison(5, t_final=6.0, dt=0.02)
    assert report.passed
    assert report.scenario == "compare"
    [pred] = report.predicates
    assert pred.name == "relativistic-slowest-decay"
    assert pred.margin > 0.0
    rates = report.results["decay_rates"]
    assert set(rates) == {"classical", "relativistic", "proper-velocity", "rapidity"}
    others = min(v["rate"] for k, v in rates.items() if k != "relativistic")
    assert rates["relativistic"]["rate"] < others
    assert report.results["snapshot_times"] == [0.0, 1.0, 2.0, 3.0]
    for kind, snaps in report.results["snapshots"].items():
        assert len(snaps) == 4
        assert len(snaps[0]) == 10


def test_four_model_comparison_shares_initial_data():
    report = run_four_model_comparison(5, t_final=6.0, dt=0.02)
    snaps = report.results["snapshots"]
    first = snaps["classical"][0]
    for kind in ("relativistic", "proper-velocity", "rapidity"):
        assert snaps[kind][0] == first


def test_four_model_comparison_reports_each_snapshot_row_once_at_its_recorded_time():
    # recorded every 1.5 time units, the rows nearest t = 1 and t = 2 are
    # both the row at t = 1.5
    report = run_four_model_comparison(5, t_final=6.0, dt=0.01, record_every=150)
    assert report.results["snapshot_times"] == [0.0, 1.5, 3.0]
    for snaps in report.results["snapshots"].values():
        assert len(snaps) == 3


# ----------------------------------------------------------------------
# rate vs c
# ----------------------------------------------------------------------


def test_rate_vs_c_homogeneous_rates_match_linearized_theory():
    report = run_rate_vs_c(7, c_values=(1.0, 5.0), t_final=20.0, dt=0.02)
    assert report.passed
    names = [p.name for p in report.predicates]
    assert names == ["rate-non-decreasing-in-c", "largest-c-rate-near-classical"]
    rows = report.results["table"]
    # near full synchrony the decay rate approaches kappa * G'(0)
    assert rows[0]["fit"]["rate"] == pytest.approx(0.5, rel=0.02)       # c=1
    assert rows[1]["fit"]["rate"] == pytest.approx(25.0 / 26.0, rel=0.02)  # c=5
    assert rows[2]["label"] == "classical"
    assert rows[2]["fit"]["rate"] == pytest.approx(1.0, rel=0.02)


def test_rate_vs_c_includes_c5_c10_predicate_when_present():
    # t_final must let the slow c=0.5 run reach its asymptotic fit window
    report = run_rate_vs_c(7, c_values=(0.5, 1.0, 5.0, 10.0), t_final=25.0, dt=0.05)
    names = [p.name for p in report.predicates]
    assert "rate-c5-c10-within-10pct" in names
    assert report.passed


def test_rate_vs_c_heterogeneous_is_qualitative():
    report = run_rate_vs_c(7, c_values=(1.0, 2.0), homogeneous=False,
                           t_final=6.0, dt=0.02)
    assert report.predicates == []
    assert report.passed  # vacuously
    for row in report.results["table"]:
        assert row["transient_fit_qualitative"] is True
        assert "fit" not in row


def test_rate_vs_c_heterogeneous_stores_no_transient_fit_from_fewer_than_three_samples():
    # the first fifth of a two-step run holds only the initial sample
    report = run_rate_vs_c(0, homogeneous=False, t_final=0.02, dt=0.01)
    assert [row["transient_fit"] for row in report.results["table"]] == [None] * 5
    assert all(row["transient_fit_qualitative"] for row in report.results["table"])


def test_decay_fits_run_without_lapack(monkeypatch):
    # the first LAPACK call leaves about 1 MB of BLAS workspace resident
    # for the rest of the process, so no scenario's fit may make one
    def no_lapack(*args, **kwargs):
        raise AssertionError("a decay fit called LAPACK")

    monkeypatch.setattr(np, "polyfit", no_lapack)
    monkeypatch.setattr(np.linalg, "lstsq", no_lapack)
    compare = run_four_model_comparison(5, t_final=3.0, dt=0.02)
    assert all(fit["rate"] > 0.0 for fit in compare.results["decay_rates"].values())
    sweep = run_rate_vs_c(7, c_values=(1.0, 2.0), t_final=6.0, dt=0.02)
    assert all(row["fit"]["rate"] > 0.0 for row in sweep.results["table"])


def test_rate_vs_c_rejects_unsorted_c():
    with pytest.raises(DomainError):
        run_rate_vs_c(7, c_values=(2.0, 1.0), t_final=6.0)
    # a repeated bound used to run, write and list its trajectory twice
    with pytest.raises(DomainError):
        run_rate_vs_c(7, c_values=(1.0, 1.0), t_final=6.0)
    # an empty list used to end in an IndexError
    with pytest.raises(DomainError):
        run_rate_vs_c(0, c_values=())
    # distinct bounds with one label used to write one trajectory file twice
    with pytest.raises(ConfigError) as info:
        run_rate_vs_c(7, c_values=(1.0000001, 1.0000002), t_final=6.0)
    assert info.value.field == "c_values"


# ----------------------------------------------------------------------
# classical-limit scaling
# ----------------------------------------------------------------------


def test_limit_scaling_zero_regime_quadratic_and_bounded():
    report = run_limit_scaling(11, c_values=(5.0, 10.0), t_final=6.0,
                               regimes=("zero",), checkpoint_times=(3.0, 6.0))
    assert report.passed
    names = {p.name for p in report.predicates}
    assert names == {"zero-scaling-c5-to-c10", "zero-bounded-c5", "zero-bounded-c10"}
    rows = report.results["tables"]["zero"]
    ratio = rows[0]["sup_l1"] / rows[1]["sup_l1"]
    assert 3.0 <= ratio <= 5.0
    for row in rows:
        assert row["c2_sup_l1"] == pytest.approx(row["c"] ** 2 * row["sup_l1"], rel=1e-15)
        assert set(row["checkpoints"]) == {"3", "6"}


def test_limit_scaling_bounded_check_takes_checkpoints_in_numeric_order():
    # the checkpoint keys "10" and "2" sort the other way round as strings
    report = run_limit_scaling(3, c_values=(5.0,), kappa=0.1, regimes=("zero",),
                               checkpoint_times=(2.0, 10.0))
    (outcome,) = report.predicates
    stamps = report.results["tables"]["zero"][0]["checkpoints"]
    assert outcome.observed["first"] == stamps["2"]["c2_sup_l1"]
    assert outcome.observed["last"] == stamps["10"]["c2_sup_l1"]
    # c^2 * sup l1 roughly quadruples between t = 2 and t = 10
    assert outcome.observed["growth"] > 1.0
    assert not outcome.passed


def test_limit_scaling_skips_non_doubling_pairs():
    report = run_limit_scaling(11, c_values=(5.0, 15.0), t_final=3.0, regimes=("zero",))
    assert report.predicates == []


def test_limit_scaling_forms_no_ratio_when_the_flows_coincide():
    # one oscillator feels no coupling: in the zero regime both flows stay at
    # theta0, so s(c) = s(2c) = 0 and the doubling claims are skipped
    report = run_limit_scaling(0, n=1, t_final=0.5)
    names = [p.name for p in report.predicates]
    assert names == [f"{regime}-scaling-c{a}-to-c{b}" for regime in ("heterogeneous", "identical")
                     for a, b in ((5, 10), (10, 20))]
    assert report.passed
    zero = report.results["tables"]["zero"]
    assert [row["sup_l1"] for row in zero] == [0.0, 0.0, 0.0]
    assert [row.get("doubling") for row in zero] == [
        "skipped: s(c) = s(2c) = 0, the flows coincide"] * 2 + [None]


def test_limit_scaling_fails_a_doubling_whose_gap_vanishes_only_at_2c():
    # at c = 1e8 this run rounds to the classical flow, at c = 5e7 it does not
    report = run_limit_scaling(0, c_values=(5e7, 1e8), t_final=1.0, n=3,
                               regimes=("heterogeneous",))
    (outcome,) = report.predicates
    assert not outcome.passed
    assert outcome.margin is None
    assert outcome.observed["s_c"] > 0.0
    assert outcome.observed["s_2c"] == 0.0
    assert outcome.observed["ratio"] is None
    row = report.results["tables"]["heterogeneous"][0]
    assert row["doubling"] == "failed: s(2c) = 0 < s(c), no ratio"
    assert '"ratio": null' in report.to_json()


def test_limit_scaling_validates_inputs():
    for c_values in ((5.0, 4.0), (5.0, 5.0)):
        with pytest.raises(DomainError):
            run_limit_scaling(11, c_values=c_values)
    with pytest.raises(DomainError):  # used to end in an IndexError
        run_limit_scaling(0, c_values=())
    # distinct bounds with one label used to share files and claim names
    with pytest.raises(ConfigError) as info:
        run_limit_scaling(11, c_values=(5.0, 5.000001, 10.0), t_final=2.0, regimes=("zero",))
    assert info.value.field == "c_values"
    with pytest.raises(DomainError):
        run_limit_scaling(11, regimes=("warp",))
    # an empty or repeated regime list used to run nothing or a regime twice
    for regimes in ((), ("zero", "zero")):
        with pytest.raises(DomainError):
            run_limit_scaling(11, regimes=regimes)
    # a checkpoint past t_final used to be dropped, and the check with it
    with pytest.raises(DomainError):
        run_limit_scaling(3, c_values=(5.0,), t_final=2.0, n=4, regimes=("zero",),
                          checkpoint_times=(1.0, 5.0))
    # a negative or NaN checkpoint used to end in a ValueError from an
    # empty max
    for checkpoints in ((-1.0, 0.5), (math.nan, 0.5)):
        with pytest.raises(DomainError):
            run_limit_scaling(3, c_values=(5.0,), t_final=2.0, n=4, regimes=("zero",),
                              checkpoint_times=checkpoints)
    # checkpoints that share a label used to merge into one table key, and
    # the bounded claims went with the second checkpoint
    for checkpoints in ((1.0000001, 1.0000002), (1.0, 1.0)):
        with pytest.raises(ConfigError) as info:
            run_limit_scaling(3, c_values=(5.0, 10.0), t_final=2.0, n=4, regimes=("zero",),
                              checkpoint_times=checkpoints)
        assert info.value.field == "checkpoint_times"


# ----------------------------------------------------------------------
# synchronization predicates
# ----------------------------------------------------------------------


def test_sync_predicates_homogeneous_checks():
    report = run_sync_predicates(3, classical(), n=6, t_final=30.0, dt=0.02,
                                 omega=np.zeros(6))
    assert report.passed
    names = [p.name for p in report.predicates]
    assert names == ["diameter-never-expands", "exponential-envelope",
                     "terminal-frequency-sync", "terminal-pairwise-sines"]
    res = report.results
    assert res["homogeneous"] is True
    assert res["omega_diameter"] == 0.0
    d0 = res["initial_phase_diameter"]
    # classical rest slope is 1, so the guaranteed rate is the sinc factor
    assert res["predicted_rate"] == pytest.approx(math.sin(d0) / d0, rel=1e-12)


def test_sync_predicates_homogeneous_draw_uses_given_omega():
    # with omega supplied the generator draws only the phases
    report = run_sync_predicates(3, classical(), n=6, t_final=30.0, dt=0.02,
                                 omega=np.zeros(6))
    expected = make_rng(3).uniform(-0.5 * math.pi, 0.5 * math.pi, 6)
    assert report.results["initial_phase_diameter"] == pytest.approx(
        np.ptp(expected), rel=1e-15)


def test_sync_predicates_heterogeneous_trapping():
    report = run_sync_predicates(3, relativistic(1.0), n=6, t_final=30.0)
    assert report.passed
    names = [p.name for p in report.predicates]
    assert names == ["diameter-trapping", "terminal-frequency-sync"]
    res = report.results
    assert res["homogeneous"] is False
    assert res["hypothesis_kappa_gt_omega_diameter"] is True
    assert res["hypothesis_kappa_gt_omega_diameter_over_d0"] is True
    assert res["trap_entry_time"] is not None
    assert res["trap_bound"] > res["theta_star"]
    assert res["terminal_frequency_diameter"] < 1e-6


def test_terminal_pairwise_sines_equal_one_shot_max():
    theta = np.random.default_rng(5).uniform(-2.0, 2.0, 2000)
    one_shot = float(np.max(np.abs(np.sin(theta[None, :] - theta[:, None]))))
    assert _max_abs_pairwise_sine(theta) == one_shot


def test_terminal_pairwise_sines_peak_below_a_few_blocks():
    theta = np.random.default_rng(5).uniform(-2.0, 2.0, 2000)
    # per block of rows of the n x n array, the differences and their
    # sines, then the sines and their magnitudes, are the live
    # temporaries; one more block covers bookkeeping
    bound = 3 * 8 * dynamics._BLOCK_FLOATS
    tracemalloc.start()
    try:
        _max_abs_pairwise_sine(theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_sync_predicates_rejects_bad_omega_length():
    with pytest.raises(DomainError):
        run_sync_predicates(3, classical(), n=4, omega=np.zeros(5), t_final=1.0)


# ----------------------------------------------------------------------
# momentum-form cross-check
# ----------------------------------------------------------------------


def test_rcs_crosscheck_forms_agree():
    report = run_rcs_crosscheck(13, n=4, t_final=2.0)
    assert report.passed
    names = [p.name for p in report.predicates]
    assert names == ["phase-agreement", "frequency-conservation"]
    res = report.results
    assert res["max_phase_deviation"] < 1e-10
    assert res["max_conservation_residual"] < 1e-10
    assert res["induced_frequency_recovery"] < 1e-14


# ----------------------------------------------------------------------
# admissibility
# ----------------------------------------------------------------------

BOUNDED = (relativistic, proper_velocity, rapidity)


def _roundtrip(report):
    return next(p for p in report.predicates if p.name == "inverse-round-trip")


def test_admissibility_passes_for_every_kind():
    for model in (classical(),) + tuple(f(1.0) for f in BOUNDED):
        report = run_admissibility(0, model)
        assert report.passed, report
        assert [p.name for p in report.predicates] == [
            "oddness", "strictly-increasing", "inverse-round-trip"]
        assert report.config["samples"] == 1001
        assert report.results["oddness_residual"] <= ADMISSIBILITY_ODDNESS_TOL, report
        assert report.results["strictly_increasing"], report
        assert report.results["roundtrip_residual"] <= ADMISSIBILITY_ROUNDTRIP_TOL, report


def test_admissibility_round_trip_is_relative_to_max_1_w(monkeypatch):
    # one ulp of |w| ~ 1e7 is 1.9e-9, beyond any absolute 1e-10
    for factory in BOUNDED:
        for c in (1e7, 1e300):
            report = run_admissibility(0, factory(c))
            assert report.results["roundtrip_residual"] <= ADMISSIBILITY_ROUNDTRIP_TOL, report
            assert _roundtrip(report).passed, report
    exact = FrequencyResponse.velocity
    monkeypatch.setattr(FrequencyResponse, "velocity",
                        lambda self, y: exact(self, y) * (1.0 + 1e-9))
    for factory in BOUNDED:
        for c in (1.0, 1e7, 1e300):
            report = run_admissibility(0, factory(c))
            assert report.results["roundtrip_residual"] > ADMISSIBILITY_ROUNDTRIP_TOL, report
            assert not _roundtrip(report).passed, report


def test_admissibility_passes_at_a_bound_below_one():
    report = run_admissibility(0, relativistic(0.5))
    assert report.passed, report
    assert report.results["oddness_residual"] <= ADMISSIBILITY_ODDNESS_TOL
    assert report.results["strictly_increasing"]
    assert report.results["roundtrip_residual"] <= ADMISSIBILITY_ROUNDTRIP_TOL
    assert report.config == {"model": "relativistic", "c": 0.5, "samples": 1001}


# ----------------------------------------------------------------------
# reports and files
# ----------------------------------------------------------------------


def test_predicate_line_names_the_first_violation_of_a_failed_claim():
    failed = PredicateOutcome("trap", "D <= 1", 1.5, False, first_violation_time=2.5, margin=-0.5)
    assert failed.line() == ("FAIL trap: expected D <= 1; observed 1.5; "
                             "first violation at t=2.5; margin -0.5")
    held = PredicateOutcome("trap", "D <= 1", 0.5, True, first_violation_time=2.5, margin=0.5)
    assert held.line() == "PASS trap: expected D <= 1; observed 0.5"


def test_config_echo_states_the_system_that_ran():
    config = SystemConfig(2.0, np.zeros(3), proper_velocity(4.0), 0.05, 1.0, 2)
    assert _config_echo(config, kinds=["rapidity"]) == {
        "model": "proper-velocity", "c": 4.0, "n": 3, "kappa": 2.0, "dt": 0.05,
        "t_final": 1.0, "record_every": 2, "kinds": ["rapidity"],
    }
    assert list(_config_echo(config, kinds=[])) == [
        "model", "c", "n", "kappa", "dt", "t_final", "record_every", "kinds"]


def test_report_json_round_trip(tmp_path):
    report = run_sync_predicates(3, classical(), n=6, t_final=5.0, dt=0.02,
                                 omega=np.zeros(6), out_dir=tmp_path)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["scenario"] == "sync-check"
    assert payload["seed"] == 3
    assert payload["rng"] == RNG_ALGORITHM
    assert set(payload) == {"scenario", "seed", "rng", "config", "results",
                            "predicates", "data_files"}
    for pred, live in zip(payload["predicates"], report.predicates):
        assert pred["name"] == live.name
        assert pred["passed"] == live.passed
    for name in payload["data_files"]:
        assert (tmp_path / name).is_file()
    assert "trajectory_classical.csv" in payload["data_files"]
    assert "diagnostics_classical.csv" in payload["data_files"]


def test_emitted_trajectory_files_parse(tmp_path):
    run_sync_predicates(3, relativistic(1.0), n=4, t_final=2.0, dt=0.02,
                        omega=np.zeros(4), out_dir=tmp_path)
    data = np.loadtxt(tmp_path / "trajectory_relativistic.csv",
                      delimiter=",", skiprows=1)
    assert data.shape[1] == 1 + 4 + 4
    diag = np.loadtxt(tmp_path / "diagnostics_relativistic.csv",
                      delimiter=",", skiprows=1)
    assert diag.shape[1] == 7
    assert data.shape[0] == diag.shape[0]


def test_same_seed_reproduces_report():
    first = run_four_model_comparison(5, t_final=3.0, dt=0.02)
    second = run_four_model_comparison(5, t_final=3.0, dt=0.02)
    assert first.to_dict() == second.to_dict()


# ----------------------------------------------------------------------
# streamed output
# ----------------------------------------------------------------------


def _write_collected(out, label, traj, diagnostics=True):
    """A run's CSVs by the collected path: its simulate* result, written whole."""
    write_trajectory_csv(traj, out / f"trajectory_{label}.csv")
    if diagnostics:
        write_diagnostics_csv(compute_diagnostics(traj.config, traj),
                              out / f"diagnostics_{label}.csv")


def _configs(omega, models, dt, t_final, record_every=1):
    return [SystemConfig(1.0, omega, m, dt, t_final, record_every) for m in models]


def _simulate_case(out, ref):
    # n = 40 takes the O(n) sine sums; 202 rows of 102 per block, the last
    # after a closing half step
    run_simulate(4, rapidity(2.0), n=40, t_final=2.005, out_dir=out)
    theta0, omega, _ = sample_protocol_ensemble(4, n=40)
    (config,) = _configs(omega, [rapidity(2.0)], 0.01, 2.005)
    _write_collected(ref, "rapidity", simulate(config, theta0))


def _compare_case(out, ref):
    # 301 rows of four systems, 102 rows per block
    run_four_model_comparison(5, t_final=3.0, out_dir=out)
    theta0, omega, _ = sample_protocol_ensemble(5)
    models = [classical(), relativistic(1.0), proper_velocity(1.0), rapidity(1.0)]
    for traj in simulate_batch(_configs(omega, models, 0.01, 3.0), theta0):
        _write_collected(ref, traj.config.model.kind.value, traj)


def _rate_vs_c_case(out, ref):
    run_rate_vs_c(7, homogeneous=False, t_final=2.0, dt=0.02, out_dir=out)
    theta0, omega, _ = sample_protocol_ensemble(7)
    models = [relativistic(0.5), relativistic(1.0), relativistic(5.0), relativistic(10.0),
              classical()]
    labels = ["relativistic_c0.5", "relativistic_c1", "relativistic_c5", "relativistic_c10",
              "classical"]
    for label, traj in zip(labels, simulate_batch(_configs(omega, models, 0.02, 2.0), theta0)):
        _write_collected(ref, label, traj)


def _limit_case(out, ref):
    run_limit_scaling(11, c_values=(5.0, 10.0), t_final=1.0, regimes=("heterogeneous", "zero"),
                      record_every=3, out_dir=out)
    theta0, omega, _ = sample_protocol_ensemble(11)
    models = [classical(), relativistic(5.0), relativistic(10.0)]
    for regime, frequencies in (("heterogeneous", omega), ("zero", np.zeros(10))):
        trajs = simulate_batch(_configs(frequencies, models, 0.01, 1.0, 3), theta0)
        for label, traj in zip(["classical", "relativistic_c5", "relativistic_c10"], trajs):
            _write_collected(ref, f"{regime}_{label}", traj)


def _sync_check_case(out, ref):
    run_sync_predicates(2, proper_velocity(1.0), t_final=1.0, out_dir=out)
    theta0, omega, _ = sample_protocol_ensemble(2, center_frequencies=True)
    (config,) = _configs(omega, [proper_velocity(1.0)], 0.01, 1.0)
    _write_collected(ref, "proper-velocity", simulate(config, theta0))


def _rcs_check_case(out, ref):
    # n = 20 takes the O(n) sine sums; 101 rows of 68 per block
    run_rcs_crosscheck(13, n=20, t_final=1.0, out_dir=out)
    theta0, omega, _ = sample_protocol_ensemble(13, n=20)
    model = relativistic(1.0)
    (config,) = _configs(omega, [model], 1e-3, 1.0, 10)
    thetadot0 = model.velocity(omega + coupling(config, theta0))
    momentum, first_order = simulate_both_forms(config, theta0, thetadot0)
    _write_collected(ref, "first_order", first_order)
    _write_collected(ref, "momentum", momentum, diagnostics=False)


STREAMED_CASES = {"simulate": _simulate_case, "compare": _compare_case,
                  "rate-vs-c": _rate_vs_c_case, "limit": _limit_case,
                  "sync-check": _sync_check_case, "rcs-check": _rcs_check_case}


@pytest.mark.parametrize("case", STREAMED_CASES.values(), ids=STREAMED_CASES.keys())
def test_streamed_csvs_equal_the_collected_path_byte_for_byte(tmp_path, case):
    # a runner writes its CSVs a block of recorded rows at a time; the same
    # systems run by simulate* and written whole give the same bytes
    out, ref = tmp_path / "streamed", tmp_path / "collected"
    ref.mkdir()
    case(out, ref)
    names = sorted(path.name for path in ref.iterdir())
    assert sorted(path.name for path in out.iterdir() if path.suffix == ".csv") == names
    for name in names:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def test_streamed_cases_cover_every_csv_writing_scenario():
    assert set(STREAMED_CASES) == set(SCENARIOS) - {"admissibility"}


def test_a_run_holds_one_block_of_recorded_rows_not_its_history(tmp_path):
    # 3000 more rows of five systems of ten oscillators are 2.4 MB of
    # recorded phases and velocities; what a run keeps per row is a few
    # series of one float per system.  Large bounds keep the traced run
    # short: the full kind's solve takes few rounds there.
    peaks = []
    for t_final in (10.0, 40.0):
        tracemalloc.start()
        try:
            run_rate_vs_c(3, c_values=(1e6, 2e6, 4e6, 8e6), homogeneous=False, t_final=t_final,
                          out_dir=tmp_path / f"{t_final:g}")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2.4e6 / 4


# A short run of every scenario, with its files written; the sync-check run
# fails its claims.
PLAIN_RUNS = {
    "simulate": dict(seed=3, model=rapidity(2.0), n=3, t_final=0.5),
    "compare": dict(seed=5, n=3, t_final=2.0, dt=0.02),
    "rate-vs-c": dict(seed=7, n=3, c_values=(1.0, 5.0), t_final=20.0, dt=0.05),
    "limit": dict(seed=11, n=3, c_values=(5.0, 10.0), t_final=1.0, checkpoint_times=(1.0, 0.5)),
    "sync-check": dict(seed=2, model=classical(), kappa=0.05, t_final=1.0),
    "rcs-check": dict(seed=13, n=3, t_final=0.2),
    "admissibility": dict(seed=0, model=proper_velocity(1.0)),
}


def _json_leaves(obj):
    """Every dict key and every value that is neither a dict nor a list, depth first."""
    if type(obj) is dict:
        for key, value in obj.items():
            yield key
            yield from _json_leaves(value)
    elif type(obj) is list:
        for value in obj:
            yield from _json_leaves(value)
    else:
        yield obj


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_report_is_plain_json(tmp_path, scenario):
    # reports are written as the runners build them, with nothing converted:
    # a tuple or a numpy scalar anywhere in one must show here
    report = _runners()[scenario](**PLAIN_RUNS[scenario], out_dir=tmp_path)
    payload = report.to_dict()
    assert json.loads(report.to_json()) == payload
    for leaf in _json_leaves(payload):
        assert type(leaf) in (type(None), bool, int, float, str), (scenario, leaf)


# ----------------------------------------------------------------------
# predicate margins
# ----------------------------------------------------------------------

# Claims that need a positive margin to hold; every other claim holds at 0.
STRICT_CLAIMS = {
    "relativistic-slowest-decay", "rate-c5-c10-within-10pct",
    "largest-c-rate-near-classical", "terminal-frequency-sync",
    "terminal-pairwise-sines", "phase-agreement", "frequency-conservation",
}

# (scenario, runner arguments, whether some claim fails), short runs of every
# scenario with failing ones among them
MARGIN_RUNS = [
    ("simulate", dict(seed=3, model=classical(), n=4, t_final=1.0), False),
    ("compare", dict(seed=5, t_final=6.0, dt=0.02), False),
    ("rate-vs-c", dict(seed=7, c_values=(1.0, 5.0), t_final=20.0, dt=0.05), False),
    ("limit", dict(seed=11, c_values=(5.0, 10.0), t_final=6.0, regimes=("zero",),
                   checkpoint_times=(3.0, 6.0)), False),
    ("limit", dict(seed=3, c_values=(5.0, 10.0), kappa=0.1, regimes=("zero",),
                   checkpoint_times=(2.0, 10.0)), True),
    ("sync-check", dict(seed=3, model=classical(), n=6, t_final=30.0), False),
    ("sync-check", dict(seed=2, model=classical(), kappa=0.05, t_final=5.0), True),
    ("sync-check", dict(seed=3, model=classical(), n=6, t_final=30.0, dt=0.05,
                        omega=np.zeros(6)), False),
    ("sync-check", dict(seed=3, model=classical(), n=6, t_final=3.0, omega=np.zeros(6)), True),
    ("rcs-check", dict(seed=13, n=4, t_final=0.5), False),
    ("admissibility", dict(seed=0, model=rapidity(1.0)), False),
]


def test_margin_runs_cover_every_scenario():
    assert {scenario for scenario, _, _ in MARGIN_RUNS} == set(SCENARIOS)


@pytest.mark.parametrize("scenario, kwargs, fails", MARGIN_RUNS,
                         ids=[f"{s}-{i}" for i, (s, _, _) in enumerate(MARGIN_RUNS)])
def test_margin_is_the_slack_of_every_claim(scenario, kwargs, fails):
    report = _runners()[scenario](**kwargs)
    assert report.passed is not fails
    for p in report.predicates:
        if p.margin is None:
            continue
        strict = p.name in STRICT_CLAIMS or p.name.startswith("zero-bounded-")
        # margin >= 0 iff the claim holds, and a strict claim fails at 0
        assert p.passed == (p.margin >= 0.0), p
        assert p.passed == (p.margin > 0.0 if strict else p.margin >= 0.0), p
        if p.passed:
            assert p.first_violation_time is None, p
