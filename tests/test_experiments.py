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
    classical,
    dynamics,
    make_rng,
    rapidity,
    relativistic,
    run_four_model_comparison,
    run_limit_scaling,
    run_rate_vs_c,
    run_rcs_crosscheck,
    run_sync_predicates,
    sample_protocol_ensemble,
)
from relkura.cli import SCENARIOS, _runners
from relkura.errors import DomainError
from relkura.experiments import _max_abs_pairwise_sine


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


def test_rate_vs_c_rejects_unsorted_c():
    with pytest.raises(DomainError):
        run_rate_vs_c(7, c_values=(2.0, 1.0), t_final=6.0)


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
    with pytest.raises(DomainError):
        run_limit_scaling(11, c_values=(5.0, 4.0))
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
# reports and files
# ----------------------------------------------------------------------


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
