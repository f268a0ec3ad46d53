"""Command-line front-end tests: parsing, validation, exit codes, outputs.

main() is exercised in-process so exit codes and printed predicate lines
can be asserted without spawning an interpreter; only the check of which
modules a run loads starts a fresh one.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relkura import cli
from relkura.cli import RunConfig, main, parse_config
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


def test_parse_config_names_offending_field(tmp_path):
    cases = [
        (["--scenario", "simulate", "--dt", "-0.5"], "dt"),
        (["--scenario", "simulate", "--c", "0"], "c"),
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
    # a JSON true is an int to Python but no valid count, seed or value
    for field in ("n", "record_every", "seed", "kappa", "c", "dt", "t_final"):
        path = tmp_path / f"bool_{field}.json"
        path.write_text(json.dumps({"scenario": "simulate", field: True}))
        cases.append((["--config", str(path)], field))
    # list entries must be finite numbers too; JSON allows NaN and 1e999 parses as inf
    bad_lists = [
        ('{"scenario": "rate-vs-c", "c_list": [1.0, 1e999]}', "c_list"),
        ('{"scenario": "rate-vs-c", "c_list": [true]}', "c_list"),
        ('{"scenario": "rate-vs-c", "c_list": [0.5, NaN]}', "c_list"),
        ('{"scenario": "limit", "checkpoints": [NaN]}', "checkpoints"),
        ('{"scenario": "limit", "checkpoints": [1e999]}', "checkpoints"),
        ('{"scenario": "limit", "checkpoints": [false]}', "checkpoints"),
        ('{"scenario": "simulate", "n": 2, "theta0": [0.1, true]}', "theta0"),
        ('{"scenario": "simulate", "n": 2, "theta0": [0.1, -1e999]}', "theta0"),
        ('{"scenario": "simulate", "n": 2, "omega": [NaN, 0.0]}', "omega"),
        ('{"scenario": "simulate", "n": 2, "omega": [true, false]}', "omega"),
        # valid values for a key the scenario does not read
        ('{"scenario": "sync-check", "n": 2, "theta0": [0.0, 0.5]}', "theta0"),
        ('{"scenario": "compare", "n": 2, "omega": [0.1, -0.1]}', "omega"),
        ('{"scenario": "sync-check", "c_list": [1.0, 2.0]}', "c_list"),
        ('{"scenario": "rate-vs-c", "regimes": ["zero"]}', "regimes"),
        ('{"scenario": "rcs-check", "checkpoints": [5, 10]}', "checkpoints"),
        ('{"scenario": "sync-check", "homogeneous": false}', "homogeneous"),
        ('{"scenario": "rate-vs-c", "homogeneous": 1}', "homogeneous"),
        # regimes must be non-empty and distinct
        ('{"scenario": "limit", "regimes": []}', "regimes"),
        ('{"scenario": "limit", "regimes": ["zero", "zero"]}', "regimes"),
        ('{"scenario": "limit", "regimes": [["zero"]]}', "regimes"),
        # checkpoints past the configured or the runner's default t_final
        ('{"scenario": "limit", "t_final": 2.0, "checkpoints": [1.0, 5.0]}', "checkpoints"),
        ('{"scenario": "limit", "checkpoints": [5, 11]}', "checkpoints"),  # default 10
    ]
    for i, (text, field) in enumerate(bad_lists):
        path = tmp_path / f"list_{i}.json"
        path.write_text(text)
        cases.append((["--config", str(path)], field))
    for argv, field in cases:
        with pytest.raises(ConfigError) as excinfo:
            parse_config(argv)
        assert excinfo.value.field == field, argv


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

    mismatched = tmp_path / "mismatched.json"
    mismatched.write_text(json.dumps({
        "scenario": "simulate", "n": 3, "theta0": [0.2, -0.2],
    }))
    with pytest.raises(ConfigError) as excinfo:
        parse_config(["--config", str(mismatched)])
    assert excinfo.value.field == "theta0"


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
    # s(c) = s(2c) = 0, which used to end in a ZeroDivisionError
    code = main(["--scenario", scenario, "--n", "1", "--t-final", "0.5",
                 "--out", str(tmp_path)])
    assert code in (0, 1, 3)
    assert "Traceback" not in capsys.readouterr().err
    if scenario == "limit":
        assert code == 0


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
