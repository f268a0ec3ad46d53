"""Command-line front end.

One subcommand-style ``--scenario`` flag selects the run, and every
scenario is one ``experiments`` runner.  The CLI parses the flags and the
optional config file into a ``RunConfig``, then calls the runner with the
keys that were set; everything left unset takes the runner's own
default, so each scenario's defaults (``t_final``, ``dt``,
``record_every``, ``c_list``, ``regimes``, ...) are written once, in its
runner's signature.  The CLI checks only the JSON type of each key and
that the scenario reads every key set; the library checks every value,
before any integration, and its ConfigError is exit 2 as well.  Every
scenario writes ``report.json`` (plus trajectory and diagnostics CSVs)
into the output directory and prints one line per checked predicate.
Exit codes: 0 all predicates passed, 1 at least one failed, 2
configuration error, 3 numerical failure (a domain violation,
non-convergence, or a decay fit with fewer than three samples in its
window) or a run too large to allocate.  Flag values override
config-file values.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import types
import typing
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
from .models import FrequencyResponse

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


@dataclass
class RunConfig:
    """Scenario configuration; flags override config-file values.

    Each annotation is the JSON type the key must have; a bool is no
    number, and an int is also a float.
    """

    scenario: str
    model: str = "relativistic"
    n: int = 10
    kappa: float = 1.0
    c: float = 1.0
    c_list: list[float] | None = None
    dt: float | None = None
    t_final: float | None = None
    record_every: int | None = None
    seed: int = 0
    homogeneous: bool | None = None
    regimes: list[str] | None = None
    checkpoints: list[float] | None = None
    theta0: list[float] | None = None
    omega: list[float] | None = None
    out: str = "relkura-out"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relkura",
        description="Coupled phase-oscillator scenarios for the bounded-velocity model family.",
        exit_on_error=False,
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
    """Parse flags plus optional --config JSON into a typed RunConfig.

    Raises ConfigError (naming the offending field) on an unknown flag or
    key, a flag or value of the wrong JSON type, or a key the scenario
    does not read; the CLI maps that to exit code 2.  The values
    themselves are checked by the library, before any integration, when
    ``main`` runs the config.  ``--help`` prints the usage and raises
    SystemExit(0); a flag abbreviation that matches several flags is
    argparse's own usage error, SystemExit(2).
    """
    parser = _build_parser()
    try:
        namespace, extras = parser.parse_known_args(list(argv))
    except argparse.ArgumentError as err:
        raise ConfigError(err.argument_name.lstrip("-").replace("-", "_"), err.message) from None
    if extras:
        raise ConfigError(extras[0], "unknown flag")

    merged: dict = {}
    if namespace.config is not None:
        path = Path(namespace.config)
        if not path.is_file():
            # repr keeps a path holding a newline on the one line of the error
            raise ConfigError("config", f"no such file: {str(path)!r}")
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
    cfg = RunConfig(**merged)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    """Check each key's JSON type, and that a key the runner does not read keeps its default.

    ``c`` counts as read wherever ``model`` is, since it builds the model.
    """
    hints = typing.get_type_hints(RunConfig)
    for f in fields(RunConfig):
        hint = hints[f.name]
        if not _has_type(getattr(cfg, f.name), hint):
            raise ConfigError(f.name, f"must be of JSON type {getattr(hint, '__name__', hint)}")
    if cfg.scenario not in SCENARIOS:
        raise ConfigError("scenario", f"must be one of {', '.join(SCENARIOS)}")
    params = _parameters(cfg.scenario)
    for f in fields(RunConfig)[1:]:  # every key but scenario
        read = _RENAMED.get(f.name, f.name) in params or (f.name == "c" and "model" in params)
        if not read and getattr(cfg, f.name) != f.default:
            raise ConfigError(f.name, f"is not read by the {cfg.scenario} scenario")


def _has_type(value, hint) -> bool:
    """Whether a parsed JSON value has the annotated type (see RunConfig)."""
    if isinstance(hint, types.UnionType):
        return any(_has_type(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_has_type(v, *typing.get_args(hint)) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _parameters(scenario: str):
    return inspect.signature(_runners()[scenario]).parameters


def _dispatch(cfg: RunConfig) -> ExperimentReport:
    """Call the scenario's runner with the keys that were set and that it takes.

    A ConfigError from the library names the RunConfig key, not the
    runner parameter it was passed as.
    """
    params = _parameters(cfg.scenario)
    kwargs = {_RENAMED.get(k, k): v for k, v in asdict(cfg).items() if v is not None}
    try:
        if "model" in params:
            kwargs["model"] = FrequencyResponse.from_name(cfg.model, cfg.c)
        return _runners()[cfg.scenario](**{k: v for k, v in kwargs.items() if k in params})
    except ConfigError as err:
        key = next((k for k, v in _RENAMED.items() if v == err.field), err.field)
        raise ConfigError(key, err.message) from None


def _make_output_directory(out: str) -> None:
    """Create ``out`` before any work runs, so that an unusable path is a configuration error."""
    if not out:
        raise ConfigError("out", "must be a non-empty path")
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError("out", f"cannot create directory {out!r}: {err.strerror}") from None


def main(argv=None) -> int:
    """Run one scenario; returns the exit code, save argparse's own exits (``parse_config``)."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = parse_config(argv)
        _make_output_directory(cfg.out)
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
