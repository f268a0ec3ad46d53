"""Command-line front end.

One subcommand-style ``--scenario`` flag selects the run, and every
scenario is one ``experiments`` runner.  The CLI parses and validates
flags and the optional config file, then calls the runner with the keys
that were set; everything left unset takes the runner's own default, so
each scenario's defaults (``t_final``, ``dt``, ``record_every``,
``c_list``, ``regimes``, ...) are written once, in its runner's
signature.  Every scenario writes ``report.json`` (plus trajectory and
diagnostics CSVs) into the output directory and prints one line per
checked predicate.  Exit codes: 0 all predicates passed, 1 at least one
failed, 2 configuration error, 3 numerical failure or a run too large to
allocate.  Flag values override config-file values.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

# Not called here: perfbench's layer-trace test checks that this module's
# bindings of these functions are patched as well.
from .diagnostics import compute_diagnostics, write_diagnostics_csv  # noqa: F401
from .dynamics import simulate  # noqa: F401
from .errors import ConfigError, RelkuraError
from .experiments import (
    ExperimentReport,
    run_admissibility,
    run_four_model_comparison,
    run_limit_scaling,
    run_rate_vs_c,
    run_rcs_crosscheck,
    run_simulate,
    run_sync_predicates,
)
from .models import FrequencyResponse, ModelKind

__all__ = ["RunConfig", "parse_config", "main", "entrypoint"]


def _runners() -> dict:
    """Scenario name -> its experiments runner.

    Built on each call rather than once, so that a runner rebound in this
    module (the benchmark's layer trace wraps them) is the one called.
    """
    return {
        "simulate": run_simulate,
        "compare": run_four_model_comparison,
        "rate-vs-c": run_rate_vs_c,
        "limit": run_limit_scaling,
        "sync-check": run_sync_predicates,
        "rcs-check": run_rcs_crosscheck,
        "admissibility": run_admissibility,
    }


SCENARIOS = tuple(_runners())

# RunConfig keys whose runner parameter has another name.
_RENAMED = {"c_list": "c_values", "checkpoints": "checkpoint_times", "out": "out_dir"}

# Keys that only some runners take.  Setting one for a scenario whose
# runner has no such parameter is a configuration error rather than a
# silently dropped value.  The common keys (model, c, n, kappa, dt,
# t_final, record_every, seed) are accepted for every scenario and
# passed to the runners that take them.
_OPTIONAL_KEYS = ("theta0", "omega", "c_list", "regimes", "checkpoints", "homogeneous")


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
    homogeneous: bool | None = None
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
    params = _parameters(cfg.scenario)
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
    if "dt" in params and _effective(cfg, params, "t_final") < _effective(cfg, params, "dt"):
        raise ConfigError("t_final", "must be >= dt")
    if cfg.record_every is not None and (not _integer(cfg.record_every) or cfg.record_every < 1):
        raise ConfigError("record_every", "must be an integer >= 1")
    if not _integer(cfg.seed) or cfg.seed < 0:
        raise ConfigError("seed", "must be an integer >= 0")
    for name in _OPTIONAL_KEYS:
        if getattr(cfg, name) is not None and _RENAMED.get(name, name) not in params:
            readers = [s for s in SCENARIOS if _RENAMED.get(name, name) in _parameters(s)]
            raise ConfigError(name, f"is read only by {' and '.join(readers)}, "
                                    f"not by {cfg.scenario}")
    if cfg.c_list is not None:
        values = _finite_list(cfg, "c_list")
        if not values or not all(a < b for a, b in itertools.pairwise((0.0, *values))):
            raise ConfigError("c_list", "must be non-empty, positive, strictly ascending")
    if cfg.regimes is not None:
        allowed = ("heterogeneous", "identical", "zero")
        regimes = cfg.regimes
        if (not isinstance(regimes, list) or not regimes
                or not all(r in allowed for r in regimes) or len(set(regimes)) < len(regimes)):
            raise ConfigError("regimes", f"must be a non-empty list of distinct names "
                                         f"from {list(allowed)}")
    if cfg.checkpoints is not None:
        values = _finite_list(cfg, "checkpoints")
        if any(v <= 0 for v in values):
            raise ConfigError("checkpoints", "must be positive times")
        t_final = _effective(cfg, params, "t_final")
        if any(v > t_final for v in values):
            raise ConfigError("checkpoints", f"must not lie past t_final={t_final:g}")
    for name in ("theta0", "omega"):
        if getattr(cfg, name) is not None and len(_finite_list(cfg, name)) != cfg.n:
            raise ConfigError(name, f"must have exactly n={cfg.n} entries")
    if cfg.homogeneous is not None and not isinstance(cfg.homogeneous, bool):
        raise ConfigError("homogeneous", "must be true or false")
    if not isinstance(cfg.out, str) or not cfg.out:
        raise ConfigError("out", "must be a non-empty path")


def _parameters(scenario: str):
    return inspect.signature(_runners()[scenario]).parameters


def _effective(cfg: RunConfig, params, name: str):
    """The configured value of ``name``, else the runner's default."""
    value = getattr(cfg, name)
    return params[name].default if value is None else value


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


def _dispatch(cfg: RunConfig) -> ExperimentReport:
    """Call the scenario's runner with the keys that were set and that it takes."""
    params = _parameters(cfg.scenario)
    kwargs = {_RENAMED.get(k, k): v for k, v in asdict(cfg).items() if v is not None}
    if "model" in params:
        kwargs["model"] = FrequencyResponse.from_name(cfg.model, cfg.c)
    return _runners()[cfg.scenario](**{k: v for k, v in kwargs.items() if k in params})


def _make_output_directory(out: str) -> None:
    """Create ``out`` before any work runs, so that an unusable path is a configuration error."""
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError("out", f"cannot create directory {out!r}: {err.strerror}") from None


def main(argv=None) -> int:
    """Run one scenario; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = parse_config(argv)
        _make_output_directory(cfg.out)
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
    except MemoryError as err:
        print(f"run too large to allocate: {err}", file=sys.stderr)
        return 3
    for p in report.predicates:
        print(p.line())
    print(f"report: {Path(cfg.out) / 'report.json'}")
    return 0 if report.passed else 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
