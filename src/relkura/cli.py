"""Command-line front end.

One subcommand-style ``--scenario`` flag selects the run; every scenario
writes ``report.json`` (plus trajectory/diagnostics CSVs) into the output
directory and prints one line per checked predicate.  Exit codes:
0 all predicates passed, 1 at least one failed, 2 configuration error,
3 numerical failure.  Flag values override config-file values; defaults
follow the reference protocol (n=10, kappa=1, dt=0.01).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .diagnostics import compute_diagnostics, write_diagnostics_csv
from .dynamics import SystemConfig, simulate
from .errors import ConfigError, RelkuraError
from .experiments import (
    RNG_ALGORITHM,
    ExperimentReport,
    PredicateOutcome,
    run_four_model_comparison,
    run_limit_scaling,
    run_rate_vs_c,
    run_rcs_crosscheck,
    run_sync_predicates,
    sample_protocol_ensemble,
)
from .models import FrequencyResponse, ModelKind

__all__ = ["RunConfig", "parse_config", "main", "entrypoint"]

SCENARIOS = (
    "simulate",
    "compare",
    "rate-vs-c",
    "limit",
    "sync-check",
    "rcs-check",
    "admissibility",
)

_T_FINAL_DEFAULTS = {
    "simulate": 10.0,
    "compare": 20.0,
    "rate-vs-c": 40.0,
    "limit": 10.0,
    "sync-check": 50.0,
    "rcs-check": 10.0,
    "admissibility": 10.0,
}

_C_LIST_DEFAULTS = {
    "rate-vs-c": [0.5, 1.0, 5.0, 10.0],
    "limit": [5.0, 10.0, 20.0],
}

# Config keys that only some scenarios read.  Setting one for another
# scenario is a configuration error rather than a silently dropped value.
_SCENARIO_KEYS = {
    "theta0": ("simulate",),
    "omega": ("simulate", "sync-check"),
    "c_list": ("rate-vs-c", "limit"),
    "regimes": ("limit",),
    "checkpoints": ("limit",),
}


@dataclass
class RunConfig:
    """Validated scenario configuration; flags override config-file values."""

    scenario: str
    model: str = "relativistic"
    n: int = 10
    kappa: float = 1.0
    c: float = 1.0
    c_list: list | None = None
    dt: float | None = None
    t_final: float | None = None
    record_every: int | None = None
    seed: int = 0
    homogeneous: bool = True
    regimes: list | None = None
    checkpoints: list | None = None
    theta0: list | None = None
    omega: list | None = None
    out: str = "relkura-out"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relkura",
        description="Coupled phase-oscillator scenarios for the bounded-velocity model family.",
    )
    parser.add_argument("--scenario", choices=SCENARIOS, default=None)
    parser.add_argument("--model", default=None,
                        help="classical | relativistic | proper-velocity | rapidity")
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--kappa", type=float, default=None)
    parser.add_argument("--c", type=float, default=None)
    parser.add_argument("--dt", type=float, default=None)
    parser.add_argument("--t-final", dest="t_final", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--config", default=None, help="JSON file with RunConfig fields")
    return parser


def parse_config(argv) -> RunConfig:
    """Parse flags plus optional --config JSON into a validated RunConfig.

    Raises ConfigError (naming the offending field) on any invalid or
    unknown value; the CLI maps that to exit code 2.
    """
    parser = _build_parser()
    try:
        namespace, extras = parser.parse_known_args(list(argv))
    except SystemExit:
        raise ConfigError("argv", "unparseable command line")
    if extras:
        raise ConfigError(extras[0], "unknown flag")

    merged: dict = {}
    if namespace.config is not None:
        path = Path(namespace.config)
        if not path.is_file():
            raise ConfigError("config", f"no such file: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise ConfigError("config", f"invalid JSON: {err}")
        if not isinstance(loaded, dict):
            raise ConfigError("config", "top level must be a JSON object")
        known = {f.name for f in fields(RunConfig)}
        for key, value in loaded.items():
            if key not in known:
                raise ConfigError(key, "unknown config key")
            merged[key] = value
    for name in ("scenario", "model", "n", "kappa", "c", "dt", "t_final", "seed", "out"):
        value = getattr(namespace, name)
        if value is not None:
            merged[name] = value

    if "scenario" not in merged or merged["scenario"] is None:
        raise ConfigError("scenario", "required (flag --scenario or config file)")
    cfg = RunConfig(**{**{"scenario": merged.pop("scenario")}, **merged})
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.scenario not in SCENARIOS:
        raise ConfigError("scenario", f"must be one of {', '.join(SCENARIOS)}")
    if cfg.model not in {k.value for k in ModelKind}:
        raise ConfigError("model", f"unknown model kind {cfg.model!r}")
    if not _integer(cfg.n) or cfg.n < 1:
        raise ConfigError("n", "must be an integer >= 1")
    if not _finite(cfg.kappa) or cfg.kappa < 0:
        raise ConfigError("kappa", "must be finite and >= 0")
    if not _finite(cfg.c) or cfg.c <= 0:
        raise ConfigError("c", "must be finite and > 0")
    if cfg.dt is not None and (not _finite(cfg.dt) or cfg.dt <= 0):
        raise ConfigError("dt", "must be finite and > 0")
    if cfg.t_final is not None and (not _finite(cfg.t_final) or cfg.t_final <= 0):
        raise ConfigError("t_final", "must be finite and > 0")
    if _scenario_t_final(cfg) < _scenario_dt(cfg):
        raise ConfigError("t_final", "must be >= dt")
    if cfg.record_every is not None and (not _integer(cfg.record_every) or cfg.record_every < 1):
        raise ConfigError("record_every", "must be an integer >= 1")
    if not _integer(cfg.seed):
        raise ConfigError("seed", "must be an integer")
    if cfg.c_list is not None:
        values = _finite_list(cfg, "c_list")
        if not values or any(v <= 0 for v in values) or values != sorted(values):
            raise ConfigError("c_list", "must be non-empty, positive, ascending")
    if cfg.regimes is not None:
        allowed = {"heterogeneous", "identical", "zero"}
        if not isinstance(cfg.regimes, list) or not set(cfg.regimes) <= allowed:
            raise ConfigError("regimes", f"must be a list drawn from {sorted(allowed)}")
    if cfg.checkpoints is not None:
        if any(v <= 0 for v in _finite_list(cfg, "checkpoints")):
            raise ConfigError("checkpoints", "must be positive times")
    for name in ("theta0", "omega"):
        if getattr(cfg, name) is not None and len(_finite_list(cfg, name)) != cfg.n:
            raise ConfigError(name, f"must have exactly n={cfg.n} entries")
    for name, readers in _SCENARIO_KEYS.items():
        if getattr(cfg, name) is not None and cfg.scenario not in readers:
            raise ConfigError(name, f"is read only by {' and '.join(readers)}, "
                                    f"not by {cfg.scenario}")
    if not isinstance(cfg.homogeneous, bool):
        raise ConfigError("homogeneous", "must be true or false")
    if not isinstance(cfg.out, str) or not cfg.out:
        raise ConfigError("out", "must be a non-empty path")


def _integer(x) -> bool:
    # bool is a subclass of int, but a JSON true is not a count or a seed
    return isinstance(x, int) and not isinstance(x, bool)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _finite_list(cfg: RunConfig, name: str) -> list:
    values = getattr(cfg, name)
    if not isinstance(values, list) or not all(_finite(v) for v in values):
        raise ConfigError(name, "must be a list of finite numbers")
    return [float(v) for v in values]


def _model(cfg: RunConfig) -> FrequencyResponse:
    return FrequencyResponse.from_name(cfg.model, cfg.c)


def _scenario_dt(cfg: RunConfig) -> float:
    if cfg.dt is not None:
        return cfg.dt
    return 1e-3 if cfg.scenario == "rcs-check" else 0.01


def _scenario_record_every(cfg: RunConfig) -> int:
    if cfg.record_every is not None:
        return cfg.record_every
    return 10 if cfg.scenario == "rcs-check" else 1


def _scenario_t_final(cfg: RunConfig) -> float:
    return cfg.t_final if cfg.t_final is not None else _T_FINAL_DEFAULTS[cfg.scenario]


def _run_simulate(cfg: RunConfig) -> ExperimentReport:
    model = _model(cfg)
    theta0, omega, _ = sample_protocol_ensemble(cfg.seed, n=cfg.n, kappa=cfg.kappa,
                                                omega=cfg.omega)
    if cfg.theta0 is not None:
        theta0 = np.asarray(cfg.theta0, dtype=float)
    config = SystemConfig(cfg.n, cfg.kappa, omega, model,
                          _scenario_dt(cfg), _scenario_t_final(cfg), _scenario_record_every(cfg))
    traj = simulate(config, theta0)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    label = model.kind.value
    files = [f"trajectory_{label}.csv", f"diagnostics_{label}.csv"]
    traj.write_csv(out / files[0])
    write_diagnostics_csv(compute_diagnostics(config, traj), out / files[1])
    report = ExperimentReport(
        scenario="simulate",
        seed=cfg.seed,
        rng=RNG_ALGORITHM,
        config={
            "model": label, "c": model.c, "n": cfg.n, "kappa": cfg.kappa,
            "dt": config.dt, "t_final": config.t_final, "record_every": config.record_every,
        },
        results={
            "initial_phase_diameter": float(np.ptp(theta0)),
            "omega_diameter": float(np.ptp(omega)),
            "terminal_phase_diameter": float(np.ptp(traj.thetas[-1])),
            "terminal_frequency_diameter": float(np.ptp(traj.theta_dots[-1])),
        },
        data_files=files,
    )
    report.write(out / "report.json")
    return report


def _run_admissibility(cfg: RunConfig) -> ExperimentReport:
    model = _model(cfg)
    check = model.check_admissibility(samples=1001)
    predicates = [
        PredicateOutcome(
            name="oddness",
            expected="relative residual <= 1e-12",
            observed=check.oddness_residual,
            passed=check.oddness_residual <= 1e-12,
            margin=1e-12 - check.oddness_residual,
        ),
        PredicateOutcome(
            name="strictly-increasing",
            expected=True,
            observed=check.strictly_increasing,
            passed=check.strictly_increasing,
        ),
        PredicateOutcome(
            name="inverse-round-trip",
            expected="absolute residual <= 1e-10",
            observed=check.roundtrip_residual,
            passed=check.roundtrip_residual <= 1e-10,
            margin=1e-10 - check.roundtrip_residual,
        ),
    ]
    report = ExperimentReport(
        scenario="admissibility",
        seed=cfg.seed,
        rng=RNG_ALGORITHM,
        config={"model": model.kind.value, "c": model.c, "samples": check.samples},
        results={
            "oddness_residual": check.oddness_residual,
            "strictly_increasing": check.strictly_increasing,
            "roundtrip_residual": check.roundtrip_residual,
        },
        predicates=predicates,
    )
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    report.write(out / "report.json")
    return report


def _dispatch(cfg: RunConfig) -> ExperimentReport:
    dt = _scenario_dt(cfg)
    t_final = _scenario_t_final(cfg)
    record_every = _scenario_record_every(cfg)
    if cfg.scenario == "simulate":
        return _run_simulate(cfg)
    if cfg.scenario == "admissibility":
        return _run_admissibility(cfg)
    if cfg.scenario == "compare":
        return run_four_model_comparison(
            cfg.seed, c=cfg.c, n=cfg.n, kappa=cfg.kappa, dt=dt,
            t_final=t_final, record_every=record_every, out_dir=cfg.out,
        )
    if cfg.scenario == "rate-vs-c":
        c_list = cfg.c_list if cfg.c_list is not None else _C_LIST_DEFAULTS["rate-vs-c"]
        return run_rate_vs_c(
            cfg.seed, tuple(float(v) for v in c_list), homogeneous=cfg.homogeneous,
            n=cfg.n, kappa=cfg.kappa, dt=dt, t_final=t_final,
            record_every=record_every, out_dir=cfg.out,
        )
    if cfg.scenario == "limit":
        c_list = cfg.c_list if cfg.c_list is not None else _C_LIST_DEFAULTS["limit"]
        regimes = tuple(cfg.regimes) if cfg.regimes else ("heterogeneous", "identical", "zero")
        checkpoints = tuple(float(v) for v in cfg.checkpoints) if cfg.checkpoints else ()
        return run_limit_scaling(
            cfg.seed, tuple(float(v) for v in c_list), t_final=t_final,
            n=cfg.n, kappa=cfg.kappa, dt=dt, record_every=record_every,
            regimes=regimes, checkpoint_times=checkpoints, out_dir=cfg.out,
        )
    if cfg.scenario == "sync-check":
        return run_sync_predicates(
            cfg.seed, model=_model(cfg), n=cfg.n, kappa=cfg.kappa, dt=dt,
            t_final=t_final, record_every=record_every, omega=cfg.omega, out_dir=cfg.out,
        )
    if cfg.scenario == "rcs-check":
        return run_rcs_crosscheck(
            cfg.seed, c=cfg.c, n=cfg.n, kappa=cfg.kappa, dt=dt,
            t_final=t_final, record_every=record_every, out_dir=cfg.out,
        )
    raise ConfigError("scenario", f"unhandled scenario {cfg.scenario!r}")


def main(argv=None) -> int:
    """Run one scenario; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = parse_config(argv)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        report = _dispatch(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except RelkuraError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    for p in report.predicates:
        status = "PASS" if p.passed else "FAIL"
        line = f"{status} {p.name}: expected {p.expected}; observed {p.observed}"
        if not p.passed and p.first_violation_time is not None:
            line += f"; first violation at t={p.first_violation_time:g}"
        if not p.passed and p.margin is not None:
            line += f"; margin {p.margin:g}"
        print(line)
    print(f"report: {Path(cfg.out) / 'report.json'}")
    return 0 if report.passed else 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
