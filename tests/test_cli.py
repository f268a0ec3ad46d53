"""Command-line front-end tests: parsing, validation, exit codes, outputs.

main() is exercised in-process so exit codes and printed predicate lines
can be asserted without spawning an interpreter; only the check of which
modules a run loads starts a fresh one.
"""

import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relkura import cli
from relkura.cli import RunConfig, _dispatch, main, parse_config
from relkura.errors import ConfigError


# ----------------------------------------------------------------------
# parsing and validation
# ----------------------------------------------------------------------


def test_parse_config_defaults():
    cfg = parse_config(["--scenario", "simulate"])
    assert cfg == RunConfig(scenario="simulate")
    assert cfg.model == "relativistic"
    assert cfg.n == 10
    assert cfg.kappa == 1.0
    assert cfg.seed == 0
    assert cfg.out == "relkura-out"


def test_parse_config_requires_scenario():
    with pytest.raises(ConfigError) as excinfo:
        parse_config([])
    assert excinfo.value.field == "scenario"


def test_parse_config_rejects_unknown_flag():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(["--scenario", "simulate", "--warp", "9"])
    assert excinfo.value.field == "--warp"


def _config_file(tmp_path, name: str, text: str) -> list:
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    return ["--config", str(path)]


def test_parse_config_names_offending_field(tmp_path):
    cases = []
    # a JSON true is an int to Python but no valid count, seed or value
    for field in ("n", "record_every", "seed", "kappa", "c", "dt", "t_final"):
        text = json.dumps({"scenario": "simulate", field: True})
        cases.append((_config_file(tmp_path, f"bool_{field}", text), field))
    # list entries must be numbers (or names) of JSON's own types
    bad_lists = [
        ('{"scenario": "rate-vs-c", "c_list": [true]}', "c_list"),
        ('{"scenario": "limit", "checkpoints": [false]}', "checkpoints"),
        ('{"scenario": "simulate", "n": 2, "theta0": [0.1, true]}', "theta0"),
        ('{"scenario": "simulate", "n": 2, "omega": [true, false]}', "omega"),
        ('{"scenario": "limit", "regimes": [["zero"]]}', "regimes"),
        ('{"scenario": "rate-vs-c", "homogeneous": 1}', "homogeneous"),
        # valid values for a key the scenario does not read
        ('{"scenario": "sync-check", "n": 2, "theta0": [0.0, 0.5]}', "theta0"),
        ('{"scenario": "compare", "n": 2, "omega": [0.1, -0.1]}', "omega"),
        ('{"scenario": "sync-check", "c_list": [1.0, 2.0]}', "c_list"),
        ('{"scenario": "rate-vs-c", "regimes": ["zero"]}', "regimes"),
        ('{"scenario": "rcs-check", "checkpoints": [5, 10]}', "checkpoints"),
        ('{"scenario": "sync-check", "homogeneous": false}', "homogeneous"),
    ]
    cases += [(_config_file(tmp_path, f"list_{i}", text), field)
              for i, (text, field) in enumerate(bad_lists)]
    for argv, field in cases:
        with pytest.raises(ConfigError) as excinfo:
            parse_config(argv)
        assert excinfo.value.field == field, argv


def test_dispatch_names_offending_value(tmp_path):
    # values parse, and the library rejects them before any integration
    cases = [
        (["--scenario", "simulate", "--dt", "-0.5"], "dt"),
        (["--scenario", "simulate", "--c", "0"], "c"),
        (["--scenario", "simulate", "--model", "classical", "--c", "0"], "c"),
        (["--scenario", "simulate", "--kappa", "-1"], "kappa"),
        (["--scenario", "simulate", "--n", "0"], "n"),
        (["--scenario", "simulate", "--model", "galilean"], "model"),
        (["--scenario", "simulate", "--t-final", "nan"], "t_final"),
        (["--scenario", "simulate", "--dt", "1", "--t-final", "0.5"], "t_final"),
        (["--scenario", "compare", "--t-final", "0.005"], "t_final"),  # default dt 0.01
        (["--scenario", "rcs-check", "--t-final", "0.0005"], "t_final"),  # default dt 1e-3
        # SeedSequence takes non-negative entropy only
        (["--scenario", "simulate", "--seed", "-1"], "seed"),
        (["--scenario", "compare", "--seed", "-7"], "seed"),
    ]
    # list entries must be finite too; JSON allows NaN and 1e999 parses as inf
    bad_lists = [
        ('{"scenario": "rate-vs-c", "c_list": [1.0, 1e999]}', "c_list"),
        ('{"scenario": "rate-vs-c", "c_list": [0.5, NaN]}', "c_list"),
        # bounds must be strictly ascending: a repeat would run twice
        ('{"scenario": "rate-vs-c", "c_list": [1.0, 1.0]}', "c_list"),
        ('{"scenario": "limit", "c_list": [5.0, 10.0, 10.0]}', "c_list"),
        ('{"scenario": "limit", "checkpoints": [NaN]}', "checkpoints"),
        ('{"scenario": "limit", "checkpoints": [1e999]}', "checkpoints"),
        ('{"scenario": "simulate", "n": 2, "theta0": [0.1, -1e999]}', "theta0"),
        ('{"scenario": "simulate", "n": 3, "theta0": [0.2, -0.2]}', "theta0"),
        ('{"scenario": "simulate", "n": 2, "omega": [NaN, 0.0]}', "omega"),
        # regimes must be non-empty and distinct
        ('{"scenario": "limit", "regimes": []}', "regimes"),
        ('{"scenario": "limit", "regimes": ["zero", "zero"]}', "regimes"),
        # checkpoints past the configured or the runner's default t_final
        ('{"scenario": "limit", "t_final": 2.0, "checkpoints": [1.0, 5.0]}', "checkpoints"),
        ('{"scenario": "limit", "checkpoints": [5, 11]}', "checkpoints"),  # default 10
    ]
    cases += [(_config_file(tmp_path, f"list_{i}", text), field)
              for i, (text, field) in enumerate(bad_lists)]
    out = tmp_path / "out"
    for argv, field in cases:
        cfg = parse_config([*argv, "--out", str(out)])
        with pytest.raises(ConfigError) as excinfo:
            _dispatch(cfg)
        assert excinfo.value.field == field, argv
    assert not out.exists()


def test_parse_config_rejects_model_and_c_where_the_scenario_reads_neither(tmp_path):
    # both used to validate and be dropped: compare runs every kind, and
    # limit takes its bounds from c_list
    for argv, field in ((["--scenario", "compare", "--model", "classical"], "model"),
                        (["--scenario", "limit", "--c", "7"], "c")):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(argv)
        assert excinfo.value.field == field
        assert main([*argv, "--out", str(tmp_path)]) == 2


def test_parse_config_accepts_the_benchmark_invocation_shapes(tmp_path):
    # model and c hold their defaults where the runner reads neither, so
    # these keep parsing; the shapes are copied, not imported, from the
    # benchmark's workload definitions
    shapes = [
        {"scenario": "compare", "model": "relativistic", "n": 10, "kappa": 1.0, "c": 1.0,
         "dt": 0.01, "record_every": 1, "seed": 0, "t_final": 20.0},
        {"scenario": "rate-vs-c", "model": "relativistic", "n": 10, "kappa": 1.0, "c": 1.0,
         "dt": 0.01, "record_every": 1, "seed": 0, "t_final": 40.0,
         "c_list": [0.5, 1.0, 5.0, 10.0], "homogeneous": True},
        {"scenario": "simulate", "model": "proper-velocity", "n": 1000,
         "kappa": 1.0, "c": 1.0, "dt": 0.01, "t_final": 1.0,
         "record_every": 2, "seed": 0},
        {"scenario": "rcs-check", "model": "relativistic", "n": 10,
         "kappa": 1.0, "c": 1.0, "dt": 1e-3, "t_final": 10.0,
         "record_every": 10, "seed": 0},
    ]
    for i, shape in enumerate(shapes):
        cfg = parse_config(_config_file(tmp_path, f"shape_{i}", json.dumps(shape)))
        assert cfg == RunConfig(**shape)


def test_parse_config_file_with_flag_override(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"scenario": "simulate", "seed": 3, "t_final": 2.0}))
    cfg = parse_config(["--config", str(path), "--seed", "4"])
    assert cfg.scenario == "simulate"
    assert cfg.seed == 4  # flag wins
    assert cfg.t_final == 2.0


def test_parse_config_file_errors(tmp_path):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(["--config", str(tmp_path / "missing.json")])
    assert excinfo.value.field == "config"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_config(["--config", str(bad)])

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"scenario": "simulate", "frobnicate": 1}))
    with pytest.raises(ConfigError) as excinfo:
        parse_config(["--config", str(unknown)])
    assert excinfo.value.field == "frobnicate"


def test_parse_config_vector_fields(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "scenario": "simulate", "n": 2,
        "theta0": [0.2, -0.2], "omega": [0.0, 0.0],
    }))
    cfg = parse_config(["--config", str(path)])
    assert cfg.theta0 == [0.2, -0.2]


# ----------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------


def test_main_exit_2_on_config_error(tmp_path, capsys):
    assert main([]) == 2
    assert "scenario" in capsys.readouterr().err
    assert main(["--scenario", "simulate", "--dt", "-0.5"]) == 2
    assert "dt" in capsys.readouterr().err
    assert main(["--scenario", "simulate", "--dt", "1", "--t-final", "0.5"]) == 2
    assert "t_final" in capsys.readouterr().err
    # an infinite c used to reach the runner and exit 3 as a numerical failure
    path = tmp_path / "inf_c.json"
    path.write_text('{"scenario": "rate-vs-c", "c_list": [1.0, 1e999]}')
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "c_list" in capsys.readouterr().err


def test_main_exit_2_on_an_unusable_output_directory(tmp_path, capsys, monkeypatch):
    # the path runs through a regular file; the runner must never start
    def never_called(*args, **kwargs):
        raise AssertionError("the runner ran")

    monkeypatch.setattr(cli, "run_simulate", functools.wraps(cli.run_simulate)(never_called))
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["--scenario", "simulate", "--n", "3", "--t-final", "0.1",
                 "--out", str(blocker / "sub")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: out: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_main_exit_3_on_a_run_too_large_to_allocate(tmp_path, capsys):
    # 1e17 recorded rows pass validation; numpy refuses the state array
    # before allocating any of it, and 2e18 rows exceed its size range (a
    # ValueError).  The other runs take more steps than numpy's index
    # range holds (1e300, 1e200, 1e300 recorded in two rows, and
    # t_final / dt overflowing to inf) and are refused before a step.
    huge = tmp_path / "huge.json"
    huge.write_text('{"scenario": "simulate", "n": 2, "dt": 1e-300, "t_final": 1.0, '
                    f'"record_every": {10**300}}}')
    for flags in (["--scenario", "simulate", "--n", "2", "--t-final", "1e15"],
                  ["--scenario", "simulate", "--n", "2", "--t-final", "2e16"],
                  ["--scenario", "simulate", "--dt", "1e-300", "--t-final", "1"],
                  ["--scenario", "limit", "--dt", "1e-200"],
                  ["--config", str(huge)],
                  ["--scenario", "simulate", "--dt", "5e-324", "--t-final", "1"]):
        code = main(flags + ["--out", str(tmp_path)])
        assert code == 3, flags
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("run too large to allocate: ")
        assert captured.err.count("\n") == 1


def test_main_exit_0_simulate_writes_outputs(tmp_path, capsys):
    code = main(["--scenario", "simulate", "--model", "rapidity", "--c", "2",
                 "--seed", "3", "--t-final", "2", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert f"report: {tmp_path / 'report.json'}" in out
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["scenario"] == "simulate"
    assert payload["config"]["model"] == "rapidity"
    assert payload["config"]["c"] == 2.0
    traj = np.loadtxt(tmp_path / "trajectory_rapidity.csv", delimiter=",", skiprows=1)
    assert traj.shape[1] == 21  # t + 10 phases + 10 velocities
    assert (tmp_path / "diagnostics_rapidity.csv").is_file()


def test_main_seeded_scenario_does_not_import_numpy_random(tmp_path):
    # sampling uses relkura's own Philox stream, so a fresh interpreter that
    # runs a seeded scenario never loads numpy.random and its bit generators;
    # the CSV writer's exact digits need neither fractions nor decimal
    code = ("import sys\n"
            "from relkura.cli import main\n"
            "assert main(['--scenario', 'simulate', '--seed', '3', '--t-final', '0.5',\n"
            f"             '--out', {str(tmp_path)!r}]) == 0\n"
            "print([m for m in ('numpy.random', 'fractions', 'decimal') if m in sys.modules])\n")
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "report.json").is_file()
    assert (tmp_path / "trajectory_relativistic.csv").is_file()


def test_main_simulate_explicit_vectors(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "scenario": "simulate", "model": "relativistic", "n": 2, "c": 1.0,
        "theta0": [0.2, -0.2], "omega": [0.0, 0.0],
        "t_final": 5.0, "out": str(tmp_path / "run"),
    }))
    assert main(["--config", str(path)]) == 0
    payload = json.loads((tmp_path / "run" / "report.json").read_text())
    assert payload["results"]["initial_phase_diameter"] == pytest.approx(0.4)
    assert payload["results"]["omega_diameter"] == 0.0
    # homogeneous pair contracts at about kappa * G'(0) = 0.5: D(5) ~ 0.4 e^-2.5
    assert payload["results"]["terminal_phase_diameter"] < 0.05


def test_main_admissibility_prints_predicate_lines(tmp_path, capsys):
    code = main(["--scenario", "admissibility", "--model", "proper-velocity",
                 "--c", "0.5", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    for name in ("oddness", "strictly-increasing", "inverse-round-trip"):
        assert f"PASS {name}:" in out
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["config"]["samples"] == 1001
    assert all(p["passed"] for p in payload["predicates"])


def test_main_compare_scenario(tmp_path, capsys):
    code = main(["--scenario", "compare", "--seed", "1", "--t-final", "6",
                 "--dt", "0.02", "--out", str(tmp_path)])
    assert code == 0
    assert "PASS relativistic-slowest-decay:" in capsys.readouterr().out
    payload = json.loads((tmp_path / "report.json").read_text())
    assert len(payload["data_files"]) == 8  # trajectory + diagnostics per kind


def test_main_exit_1_on_honest_predicate_failure(tmp_path, capsys):
    # coupling far below the frequency spread: no lock, predicates must fail
    code = main(["--scenario", "sync-check", "--model", "classical",
                 "--kappa", "0.05", "--seed", "2", "--t-final", "5",
                 "--out", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL diameter-trapping:" in out
    assert "FAIL terminal-frequency-sync:" in out
    payload = json.loads((tmp_path / "report.json").read_text())
    assert not all(p["passed"] for p in payload["predicates"])


@pytest.mark.parametrize("scenario, flags", [
    ("compare", []),
    ("limit", ["--t-final", "2"]),
    ("rcs-check", ["--t-final", "0.5"]),
], ids=["compare", "limit", "rcs-check"])
def test_main_runs_when_frequency_spread_is_not_below_kappa(tmp_path, capsys, scenario,
                                                            flags):
    # kappa below the drawn spread: no lock angle, the phase window falls back
    # to the half circle and the run reports its predicates instead of exiting 3
    assert main(["--scenario", scenario, "--kappa", "0.1", "--seed", "3", *flags,
                 "--out", str(tmp_path)]) == 0
    assert "numerical failure" not in capsys.readouterr().err
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["config"]["kappa"] == 0.1
    if scenario == "compare":
        # the frequency diameters need not decay, so no decay ordering is checked
        results = payload["results"]
        assert results["omega_diameter"] >= 0.1
        assert results["theta_star"] is None
        assert results["decay_rates_meaningful"] is False
        assert payload["predicates"] == []


@pytest.mark.parametrize("scenario", cli.SCENARIOS)
def test_every_scenario_at_one_oscillator_exits_with_a_documented_code(tmp_path, capsys,
                                                                       scenario):
    # a lone oscillator feels no coupling; limit's zero regime then has
    # s(c) = s(2c) = 0, which used to end in a ZeroDivisionError.
    # admissibility has neither n nor a time grid, so it gets neither flag
    flags = [] if scenario == "admissibility" else ["--n", "1", "--t-final", "0.5"]
    code = main(["--scenario", scenario, *flags, "--out", str(tmp_path)])
    assert code in (0, 1, 3)
    assert "Traceback" not in capsys.readouterr().err
    if scenario == "limit":
        assert code == 0


def test_main_exit_2_on_a_flag_admissibility_does_not_read(tmp_path, capsys):
    for flag, value in (("--n", "1"), ("--t-final", "0.5")):
        assert main(["--scenario", "admissibility", flag, value, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flag[2:].replace('-', '_')}: ")
    assert not any(tmp_path.iterdir())


def test_main_exit_2_on_a_negative_admissibility_seed(tmp_path, capsys):
    # the seed rule used to live in the CLI only: the runner recorded seed -1
    assert main(["--scenario", "admissibility", "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: seed: ")


def test_main_limit_takes_a_checkpoint_at_zero(tmp_path):
    # run_limit_scaling takes checkpoints in [0, t_final]; the CLI used to
    # reject 0 on a rule of its own
    path = tmp_path / "limit.json"
    path.write_text('{"scenario": "limit", "checkpoints": [0, 5]}')
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["config"]["checkpoint_times"] == [0.0, 5.0]


def test_main_limit_skips_the_bounded_claim_from_a_zero_first_checkpoint(tmp_path, capsys):
    # c^2 * sup l1 is 0 at t = 0, so no growth is defined from it; the
    # claim used to pass there with growth 0
    path = tmp_path / "limit.json"
    path.write_text('{"scenario": "limit", "checkpoints": [0, 5]}')
    main(["--config", str(path), "--out", str(tmp_path / "out")])
    assert "zero-bounded" not in capsys.readouterr().out
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    for row in payload["results"]["tables"]["zero"]:
        assert row["bounded"].startswith("skipped: "), row


@pytest.mark.parametrize("scenario", ["simulate", "sync-check", "rcs-check"])
def test_main_at_a_tiny_bound_runs_without_numpy_warnings(tmp_path, capsys, scenario):
    # c * c and c**3 underflow at c = 1e-300; a RuntimeWarning fails the test
    # (pyproject's filterwarnings), and the energies used to be written as nan
    code = main(["--scenario", scenario, "--model", "relativistic", "--c", "1e-300",
                 "--n", "3", "--t-final", "0.05", "--out", str(tmp_path)])
    assert code in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    energies = np.loadtxt(next(tmp_path.glob("diagnostics_*.csv")), delimiter=",",
                          skiprows=1)[:, -1]
    assert np.all(np.isfinite(energies))


def test_main_reports_a_zero_lock_angle_as_zero(tmp_path):
    # identical frequencies lock at theta* = asin(0) = 0, a real angle
    cfg = tmp_path / "sync.json"
    cfg.write_text(json.dumps({"scenario": "sync-check", "omega": [0.1] * 4, "n": 4,
                               "t_final": 5.0}))
    main(["--config", str(cfg), "--out", str(tmp_path / "out")])
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["results"]["homogeneous"] is True
    assert payload["results"]["theta_star"] == 0.0


def test_main_rcs_scenario_defaults(tmp_path):
    # rcs-check defaults to dt=1e-3, record_every=10; shorten the horizon
    code = main(["--scenario", "rcs-check", "--n", "4", "--t-final", "2",
                 "--seed", "13", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["config"]["dt"] == 1e-3
    assert payload["config"]["record_every"] == 10
    assert (tmp_path / "trajectory_momentum.csv").is_file()


# ----------------------------------------------------------------------
# malformed configs
# ----------------------------------------------------------------------

# A small valid config per scenario (n <= 4, t_final <= 0.1), and the keys
# each scenario reads besides its output directory.
SMALL_CONFIGS = {
    "simulate": {"n": 3, "t_final": 0.1},
    "compare": {"n": 3, "t_final": 0.1},
    "rate-vs-c": {"n": 3, "t_final": 0.1, "c_list": [1.0, 2.0]},
    "limit": {"n": 3, "t_final": 0.1, "c_list": [5.0, 10.0], "regimes": ["zero"]},
    "sync-check": {"n": 3, "t_final": 0.1},
    "rcs-check": {"n": 3, "t_final": 0.1},
    "admissibility": {},
}
GRID = ("n", "kappa", "dt", "t_final", "record_every", "seed")
READS = {
    "simulate": ("model", "c", *GRID, "theta0", "omega"),
    "compare": ("c", *GRID),
    "rate-vs-c": (*GRID, "c_list", "homogeneous"),
    "limit": (*GRID, "c_list", "regimes", "checkpoints"),
    "sync-check": ("model", "c", *GRID, "omega"),
    "rcs-check": ("c", *GRID),
    "admissibility": ("model", "c", "seed"),
}
# A valid value other than the default, for a key the scenario does not read.
NOT_DEFAULT = {"model": "classical", "c": 2.0, "n": 3, "kappa": 0.5, "dt": 0.01,
               "t_final": 0.1, "record_every": 2, "c_list": [1.0, 2.0], "regimes": ["zero"],
               "checkpoints": [0.05], "theta0": [0.1, 0.2, 0.3], "omega": [0.0, 0.1, 0.2],
               "homogeneous": False}

_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_NOT_POSITIVE = st.floats(max_value=0.0, allow_nan=False)
_NEGATIVE = st.floats(max_value=-5e-324, allow_nan=False)
_NOT_A_NUMBER = st.sampled_from([True, False, None, "1", [1.0], {"x": 1.0}])
_NOT_AN_INT = st.sampled_from([True, None, 1.5, 2.0, "1", [1]])
_NOT_A_LIST = st.sampled_from([1.0, "x", {"x": 1.0}, [True], [[1.0]], ["1"]])
_BAD_ENTRY = _NON_FINITE | _NEGATIVE
_BAD_VECTOR = (st.integers(0, 6).filter(lambda k: k != 3).map(lambda k: [0.1] * k)
               | _BAD_ENTRY.map(lambda v: [0.1, v, 0.2]) | _NOT_A_LIST)
# Only invalid values: nothing here is a valid large size or step count.
BROKEN = {
    "model": st.sampled_from(["galilean", "", "Relativistic", 1, True, ["relativistic"]]),
    "c": _NON_FINITE | _NOT_POSITIVE | _NOT_A_NUMBER,
    "n": st.integers(max_value=0) | _NOT_AN_INT,
    "kappa": _NON_FINITE | _NEGATIVE | _NOT_A_NUMBER,
    "dt": _NON_FINITE | _NOT_POSITIVE | _NOT_A_NUMBER.filter(lambda v: v is not None),
    "t_final": _NON_FINITE | _NOT_POSITIVE | _NOT_A_NUMBER.filter(lambda v: v is not None),
    "record_every": st.integers(max_value=0) | _NOT_AN_INT.filter(lambda v: v is not None),
    "seed": st.integers(max_value=-1) | _NOT_AN_INT,
    "c_list": (st.sampled_from([[], [1.0, 1.0], [2.0, 1.0], [0.0, 1.0]])
               | _BAD_ENTRY.map(lambda v: [1.0, v]) | _NOT_A_LIST),
    "checkpoints": (_BAD_ENTRY | st.floats(0.11, 1e300)).map(lambda v: [0.05, v]) | _NOT_A_LIST,
    "regimes": (st.sampled_from([[], ["zero", "zero"], ["warp"], ["zero", "Zero"]])
                | _NOT_A_LIST),
    "theta0": _BAD_VECTOR,
    "omega": _BAD_VECTOR,
    "homogeneous": st.sampled_from([0, 1, "true", [True]]),
}


@st.composite
def _broken_configs(draw):
    """(config, key): a small valid config with exactly ``key`` broken."""
    scenario = draw(st.sampled_from(sorted(SMALL_CONFIGS)))
    config = {"scenario": scenario, **SMALL_CONFIGS[scenario]}
    unread = sorted(set(NOT_DEFAULT) - set(READS[scenario]))
    how = draw(st.sampled_from(["value", "unread", "unknown"]))
    if how == "value":
        key = draw(st.sampled_from(READS[scenario]))
        config[key] = draw(BROKEN[key])
    elif how == "unread":
        key = draw(st.sampled_from(unread))
        config[key] = NOT_DEFAULT[key]
    else:
        key = draw(st.from_regex(r"[a-z_]{1,12}", fullmatch=True)
                   .filter(lambda k: k not in {f.name for f in fields(RunConfig)}))
        config[key] = draw(st.sampled_from([0, 1.0, "x", None]))
    return config, key


def test_small_configs_are_valid(tmp_path):
    # the fuzz below breaks one key of each; unbroken, each one runs
    for scenario, keys in SMALL_CONFIGS.items():
        argv = _config_file(tmp_path, scenario, json.dumps({"scenario": scenario, **keys}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", str(tmp_path / scenario)]) in (0, 1, 3), scenario


@settings(deadline=None, derandomize=True, database=None, max_examples=100)
@given(case=_broken_configs())
# a key that is not printable is named by its repr, so the error stays one line
@example(case=({"scenario": "simulate", "a\nb": 1}, "a\nb"))
@example(case=({"scenario": "simulate", "a\tb": 1}, "a\tb"))
def test_a_malformed_config_exits_2_naming_its_key(case):
    config, key = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "run.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["--config", str(path), "--out", str(out)])
        err = stderr.getvalue()
        assert code == 2, (config, err)
        shown = key if key.isprintable() else repr(key)
        assert err.startswith(f"config error: {shown}: "), (config, err)
        assert err.count("\n") == 1 and "Traceback" not in err
        assert stdout.getvalue() == ""
        assert not [p for p in out.rglob("*") if p.is_file()]


def test_a_config_path_holding_a_newline_gives_one_error_line(tmp_path):
    # a missing --config path is named by its repr, so the error stays one line
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["--scenario", "simulate", "--config", str(tmp_path / "a\nb")])
    err = stderr.getvalue()
    assert code == 2
    assert err.startswith("config error: config: no such file: '"), err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert stdout.getvalue() == ""
