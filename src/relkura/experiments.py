"""Reproducible experiment runners and their reports.

Every runner is a pure function of (seed, parameters).  Sampling draws
natural frequencies before initial phases (the reference protocol makes
the phase window depend on the frequency spread) from ``make_rng``,
relkura's own counter-based Philox-4x64-10 stream: it equals NumPy's
``Philox(seed)`` draw for draw, so no scenario imports ``numpy.random``,
and each report records its algorithm label.  The assembled report is a
plain dataclass that serializes to JSON with stable field order.
Identical seed and parameters give bit-identical numeric payloads on a
given platform.

There is one runner per CLI scenario (``run_simulate``,
``run_four_model_comparison``, ``run_rate_vs_c``, ``run_limit_scaling``,
``run_sync_predicates``, ``run_rcs_crosscheck``, ``run_admissibility``),
and its signature is the only place that scenario's defaults are
written.  Drawn natural frequencies come from ``FREQ_INTERVAL``;
``sample_protocol_ensemble`` and ``run_sync_predicates`` also take
another ``freq_interval``, and the other runners draw from the constant
alone (``run_rate_vs_c``'s homogeneous mode draws zeros).  Given
``out_dir``, a runner writes its CSVs through ``_emit`` and its report
through ``_report``; the diagnostics series it writes are taken, and
written, a block of recorded rows at a time.

Reports carry every checked predicate with its expected and observed
values.  Each claim is built by ``_claim`` from its slack ``margin``,
which decides the verdict: > 0 passes a strict claim, >= 0 any other,
and a negative margin is the amount by which the claim was missed.
Claims checked along a time series (``_never_above``) also carry the
first violating sample time when they fail.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diagnostics import (
    compute_diagnostics,
    fit_decay_rate,
    order_parameter,
    phase_diameter,
    predicted_rate,
    theta_star,
    write_diagnostics_csv,
)
from .dynamics import (
    SystemConfig,
    _row_blocks,
    coupling,
    simulate,
    simulate_batch,
    simulate_both_forms,
)
from .errors import DegenerateFitError, DomainError
from .models import (
    ADMISSIBILITY_ODDNESS_TOL,
    ADMISSIBILITY_ROUNDTRIP_TOL,
    FrequencyResponse,
    classical,
    proper_velocity,
    rapidity,
    relativistic,
)

__all__ = [
    "RNG_ALGORITHM",
    "make_rng",
    "sample_protocol_ensemble",
    "PredicateOutcome",
    "ExperimentReport",
    "run_simulate",
    "run_four_model_comparison",
    "run_rate_vs_c",
    "run_limit_scaling",
    "run_sync_predicates",
    "run_rcs_crosscheck",
    "run_admissibility",
]

# The label every report records; the generator is Philox-4x64-10 (see
# make_rng), but the recorded benchmark references pin this string.
RNG_ALGORITHM = "philox4x32-10"

# Interval of the natural-frequency draw of the reference protocol.
FREQ_INTERVAL = (-0.15, 0.15)

# Fit windows, pinned once and recorded in reports.  Homogeneous runs fit
# the phase diameter strictly inside its linear regime; comparisons fit
# the frequency diameter after the sorting transient.
RATE_FIT_FLOOR = 1e-9
RATE_FIT_CEILING = 0.3
COMPARE_FIT_FLOOR = 1e-12
COMPARE_FIT_CEILING = 0.5
COMPARE_FIT_SKIP = 0.2

# Tolerances of the checked predicates.  Synchronization: slack on the
# guaranteed envelope and the trapping bound, and the tolerance on the
# terminal frequency diameter and pairwise sines.
SYNC_ENVELOPE_SLACK = 1e-6
SYNC_ASYMPTOTIC_TOLERANCE = 1e-6
SYNC_TRAP_SLACK = 1e-6
# First-order against momentum form: phase agreement and conservation.
RCS_THETA_TOLERANCE = 1e-6
RCS_RESIDUAL_TOLERANCE = 1e-8
# Common natural frequency of the limit scan's identical regime.
LIMIT_IDENTICAL_VALUE = 0.2
# Grid size of the admissibility scenario's structural checks.
ADMISSIBILITY_SAMPLES = 1001


def make_rng(seed: int):
    """A counter-based Philox-4x64-10 stream, equal to NumPy's ``Philox(seed)``.

    One stream per scenario, shared draws in order.  The stream is
    relkura's own (``_philox``), so no scenario imports ``numpy.random``,
    whose bit generators and their imports add about 6 MB to a process
    that has loaded only numpy.
    """
    # imported on first use, so start-up and runs that draw nothing do
    # not load it
    from ._philox import PhiloxStream

    return PhiloxStream(seed)


def sample_protocol_ensemble(
    seed: int,
    n: int = 10,
    kappa: float = 1.0,
    freq_interval: tuple[float, float] = FREQ_INTERVAL,
    center_frequencies: bool = False,
    omega=None,
):
    """Reference sampling protocol: the phase window depends on the draw.

    Frequencies come first (none are drawn when ``omega`` is given, and
    only drawn ones are centered); their realized spread fixes the lock
    angle theta* = asin(spread / kappa), which is 0 for identical
    frequencies and None when the spread is not below kappa and no lock
    angle exists.  Phases are then drawn from [-(pi - theta*)/2,
    (pi - theta*)/2], with theta* taken as 0 where it is None.  Returns
    (theta0, omega, theta_star).
    """
    gen = make_rng(seed)
    if omega is None:
        omega = gen.uniform(freq_interval[0], freq_interval[1], n)
        if center_frequencies:
            omega = omega - omega.mean()
    else:
        omega = np.asarray(omega, dtype=float)
        if omega.shape != (n,):
            raise DomainError(f"omega must have length n={n}")
    spread = float(np.ptp(omega))
    tstar = theta_star(kappa, spread) if spread < kappa else None
    halfwidth = 0.5 * (math.pi - (tstar or 0.0))
    theta0 = gen.uniform(-halfwidth, halfwidth, n)
    return theta0, omega, tstar


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


@dataclass
class PredicateOutcome:
    """One checked claim: what was expected, what was observed, verdict.

    ``margin`` is the slack of the claim: >= 0 when it holds, negative by
    the amount missed when it fails.  ``first_violation_time`` is set only
    on failure, and only for claims checked over time.
    """

    name: str
    expected: object
    observed: object
    passed: bool
    first_violation_time: float | None = None
    margin: float | None = None

    def line(self) -> str:
        """The one-line PASS/FAIL form the CLI prints."""
        text = (f"{'PASS' if self.passed else 'FAIL'} {self.name}: "
                f"expected {self.expected}; observed {self.observed}")
        if not self.passed and self.first_violation_time is not None:
            text += f"; first violation at t={self.first_violation_time:g}"
        if not self.passed and self.margin is not None:
            text += f"; margin {self.margin:g}"
        return text


@dataclass
class ExperimentReport:
    scenario: str
    seed: int
    rng: str
    config: dict
    results: dict
    predicates: list[PredicateOutcome] = field(default_factory=list)
    data_files: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.predicates)

    def to_dict(self) -> dict:
        return _plain(dataclasses.asdict(self))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def write(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json.dumps can emit them."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _claim(name: str, expected: str, observed, margin: float, strict: bool = False,
           violation_time: float | None = None) -> PredicateOutcome:
    """A claim decided by its slack: it holds iff margin > 0 (strict) or >= 0.

    ``violation_time`` is kept only when the claim fails.
    """
    passed = margin > 0.0 if strict else margin >= 0.0
    return PredicateOutcome(name, expected, observed, passed,
                            None if passed else violation_time, margin)


def _never_above(name: str, expected: str, observed, excess: np.ndarray,
                 times: np.ndarray | None = None) -> PredicateOutcome:
    """The claim excess <= 0 at every sample, with margin -max(excess).

    Given ``times``, a failure carries the time of the first positive excess.
    """
    bad = excess > 0.0
    first = float(times[int(np.argmax(bad))]) if times is not None and bad.any() else None
    return _claim(name, expected, observed, -float(np.max(excess)), violation_time=first)


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------


def _directory(out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(out_dir, label: str, traj, diagnostics: bool = True) -> list[str]:
    """Write one run's trajectory CSV and, by default, its diagnostics CSV.

    Returns the filenames written (none without an output directory).
    """
    if out_dir is None:
        return []
    out = _directory(out_dir)
    names = [f"trajectory_{label}.csv"]
    traj.write_csv(out / names[0])
    if diagnostics:
        names.append(f"diagnostics_{label}.csv")
        write_diagnostics_csv(compute_diagnostics(traj.config, traj), out / names[1])
    return names


def _report(out_dir, scenario: str, seed: int, config: dict, results: dict,
            predicates=(), data_files=()) -> ExperimentReport:
    """Assemble a runner's report and write it as report.json under out_dir."""
    report = ExperimentReport(scenario, seed, RNG_ALGORITHM, config, results,
                              list(predicates), list(data_files))
    if out_dir is not None:
        report.write(_directory(out_dir) / "report.json")
    return report


def _max_abs_pairwise_sine(theta: np.ndarray) -> float:
    """max over i, j of |sin(theta_j - theta_i)|, one row block of the n x n array at a time."""
    n = theta.size
    return float(np.max([np.max(np.abs(np.sin(theta[None, :] - theta[rows, None])))
                         for rows in _row_blocks(n, n)]))


def _fit_window(times, values, mask):
    if int(mask.sum()) < 3:
        raise DegenerateFitError("fit window holds fewer than 3 samples")
    return fit_decay_rate(times[mask], values[mask])


def _fit_asdict(fit) -> dict:
    return {"rate": fit.rate, "intercept": fit.intercept, "rms_residual": fit.rms_residual}


def _velocity_bounds(c_values) -> tuple[float, ...]:
    c_values = tuple(float(c) for c in c_values)
    if any(c <= 0 for c in c_values) or list(c_values) != sorted(c_values):
        raise DomainError("c_values must be positive and ascending")
    return c_values


def _label(model: FrequencyResponse) -> str:
    """File and table label of a kind: its name, with its bound if it has one."""
    return model.kind.value if model.c is None else f"{model.kind.value}_c{model.c:g}"


def _config_echo(model: FrequencyResponse, n, kappa, dt, t_final, record_every, **extra) -> dict:
    echo = {
        "model": model.kind.value,
        "c": model.c,
        "n": n,
        "kappa": kappa,
        "dt": dt,
        "t_final": t_final,
        "record_every": record_every,
    }
    echo.update(extra)
    return echo


# ----------------------------------------------------------------------
# runners
# ----------------------------------------------------------------------


def run_simulate(
    seed: int,
    model: FrequencyResponse,
    n: int = 10,
    kappa: float = 1.0,
    dt: float = 0.01,
    t_final: float = 10.0,
    record_every: int = 1,
    theta0=None,
    omega=None,
    out_dir=None,
) -> ExperimentReport:
    """Integrate one system of the given kind and record its diameters.

    Frequencies and phases follow the reference protocol; a given
    ``omega`` replaces the frequency draw, and a given ``theta0`` replaces
    the drawn phases.  Nothing is asserted.
    """
    drawn, omega, _ = sample_protocol_ensemble(seed, n=n, kappa=kappa, omega=omega)
    theta0 = drawn if theta0 is None else np.asarray(theta0, dtype=float)
    traj = simulate(SystemConfig(n, kappa, omega, model, dt, t_final, record_every), theta0)
    files = _emit(out_dir, model.kind.value, traj)
    results = {
        "initial_phase_diameter": phase_diameter(theta0),
        "omega_diameter": float(np.ptp(omega)),
        "terminal_phase_diameter": float(np.ptp(traj.thetas[-1])),
        "terminal_frequency_diameter": float(np.ptp(traj.theta_dots[-1])),
    }
    config = _config_echo(model, n, kappa, dt, t_final, record_every)
    return _report(out_dir, "simulate", seed, config, results, data_files=files)


def run_four_model_comparison(
    seed: int,
    c: float = 1.0,
    n: int = 10,
    kappa: float = 1.0,
    dt: float = 0.01,
    t_final: float = 20.0,
    record_every: int = 1,
    out_dir=None,
) -> ExperimentReport:
    """Run all four kinds from shared initial data and compare decay rates.

    Frequencies and phases follow the reference protocol.  The comparison
    fits the frequency diameter (exponential in both the homogeneous and
    phase-locking regimes) after dropping the sorting transient, records
    phase snapshots at t = 0, 1, 2, 3, and asserts the full relativistic
    kind decays slowest.  Without a lock angle (frequency spread not below
    kappa) the diameters need not decay: the fitted rates are still
    reported, flagged ``decay_rates_meaningful: false``, and nothing is
    asserted.
    """
    theta0, omega, tstar = sample_protocol_ensemble(seed, n=n, kappa=kappa)
    models = [classical(), relativistic(c), proper_velocity(c), rapidity(c)]
    configs = [SystemConfig(n, kappa, omega, m, dt, t_final, record_every) for m in models]
    trajs = simulate_batch(configs, theta0)

    snapshot_times = [t for t in (0.0, 1.0, 2.0, 3.0) if t <= t_final]
    rates, terminal, snapshots, files = {}, {}, {}, []
    for config, traj in zip(configs, trajs):
        label = config.model.kind.value
        fd = np.ptp(traj.theta_dots, axis=1)
        start = traj.times[0] + COMPARE_FIT_SKIP * (traj.times[-1] - traj.times[0])
        mask = (fd > COMPARE_FIT_FLOOR) & (fd < COMPARE_FIT_CEILING) & (traj.times >= start)
        rates[label] = _fit_asdict(_fit_window(traj.times, fd, mask))
        terminal[label] = float(np.ptp(traj.thetas[-1]))
        idx = [int(np.argmin(np.abs(traj.times - t))) for t in snapshot_times]
        snapshots[label] = traj.thetas[idx].tolist()
        files += _emit(out_dir, label, traj)

    predicates = []
    if tstar is not None:
        observed = {k: v["rate"] for k, v in rates.items()}
        others = [v for k, v in observed.items() if k != "relativistic"]
        predicates.append(_claim(
            "relativistic-slowest-decay",
            "relativistic frequency-diameter decay rate strictly smallest",
            observed, float(min(others) - observed["relativistic"]), strict=True,
        ))
    results = {
        "theta_star": tstar,
        "omega_diameter": float(np.ptp(omega)),
        "initial_phase_diameter": phase_diameter(theta0),
        "decay_rates": rates,
    }
    if tstar is None:
        results["decay_rates_meaningful"] = False
    results.update({
        "fit_series": "frequency_diameter",
        "fit_window": {
            "floor": COMPARE_FIT_FLOOR,
            "ceiling": COMPARE_FIT_CEILING,
            "skip_fraction": COMPARE_FIT_SKIP,
        },
        "terminal_phase_diameter": terminal,
        "snapshot_times": snapshot_times,
        "snapshots": snapshots,
    })
    config = _config_echo(relativistic(c), n, kappa, dt, t_final, record_every,
                          freq_interval=list(FREQ_INTERVAL), kinds=[m.kind.value for m in models])
    return _report(out_dir, "compare", seed, config, results, predicates, files)


def run_rate_vs_c(
    seed: int,
    c_values: tuple[float, ...] = (0.5, 1.0, 5.0, 10.0),
    homogeneous: bool = True,
    n: int = 10,
    kappa: float = 1.0,
    dt: float = 0.01,
    t_final: float = 40.0,
    record_every: int = 1,
    out_dir=None,
) -> ExperimentReport:
    """Sweep the velocity bound for the full relativistic kind.

    Homogeneous mode (zero frequencies) fits the phase-diameter decay in
    its asymptotic window per c, plus a classical reference on the same
    initial data, and asserts the fitted rate is non-decreasing in c,
    that c = 5 and c = 10 agree within 10%, and that the largest-c rate
    is within 15% of the classical one.  Heterogeneous mode records
    terminal diameters and a transient fit flagged qualitative.
    """
    c_values = _velocity_bounds(c_values)
    interval = (0.0, 0.0) if homogeneous else FREQ_INTERVAL
    theta0, omega, tstar = sample_protocol_ensemble(
        seed, n=n, kappa=kappa, freq_interval=interval
    )
    configs = [SystemConfig(n, kappa, omega, relativistic(c), dt, t_final, record_every)
               for c in c_values]
    configs.append(SystemConfig(n, kappa, omega, classical(), dt, t_final, record_every))
    trajs = simulate_batch(configs, theta0)

    d0 = phase_diameter(theta0)
    rows, files = [], []
    for config, traj in zip(configs, trajs):
        label = _label(config.model)
        pd = np.ptp(traj.thetas, axis=1)
        fd = np.ptp(traj.theta_dots, axis=1)
        row = {"label": label, "c": config.model.c,
               "terminal_phase_diameter": float(pd[-1]),
               "terminal_frequency_diameter": float(fd[-1])}
        if homogeneous:
            ceiling = min(RATE_FIT_CEILING, 0.9 * d0)
            mask = (pd > RATE_FIT_FLOOR) & (pd < ceiling)
            row["fit"] = _fit_asdict(_fit_window(traj.times, pd, mask))
        else:
            cut = traj.times <= traj.times[0] + 0.2 * (traj.times[-1] - traj.times[0])
            mask = cut & (fd > COMPARE_FIT_FLOOR)
            try:
                row["transient_fit"] = _fit_asdict(_fit_window(traj.times, fd, mask))
            except DegenerateFitError:
                row["transient_fit"] = None
            row["transient_fit_qualitative"] = True
        rows.append(row)
        files += _emit(out_dir, label, traj)

    predicates = []
    results = {
        "homogeneous": homogeneous,
        "initial_phase_diameter": d0,
        "omega_diameter": float(np.ptp(omega)),
        "theta_star": tstar,
        "table": rows,
    }
    if homogeneous:
        results["fit_series"] = "phase_diameter"
        results["fit_window"] = {"floor": RATE_FIT_FLOOR, "ceiling": RATE_FIT_CEILING}
        by_c = [row["fit"]["rate"] for row in rows[:-1]]
        classical_rate = rows[-1]["fit"]["rate"]
        predicates.append(_claim(
            "rate-non-decreasing-in-c", "fitted decay rate non-decreasing in c",
            {"c": list(c_values), "rates": by_c},
            float(min((b - a for a, b in zip(by_c, by_c[1:])), default=0.0)),
        ))
        if 5.0 in c_values and 10.0 in c_values:
            r5 = by_c[c_values.index(5.0)]
            r10 = by_c[c_values.index(10.0)]
            rel = abs(r5 - r10) / abs(r10)
            predicates.append(_claim(
                "rate-c5-c10-within-10pct", "|rate(5) - rate(10)| / rate(10) < 0.10",
                {"rate_5": r5, "rate_10": r10, "relative_gap": rel}, float(0.10 - rel),
                strict=True,
            ))
        rel_cl = abs(by_c[-1] - classical_rate) / abs(classical_rate)
        predicates.append(_claim(
            "largest-c-rate-near-classical", "largest-c rate within 15% of the classical rate",
            {"rate": by_c[-1], "classical_rate": classical_rate, "relative_gap": rel_cl},
            float(0.15 - rel_cl), strict=True,
        ))

    config = _config_echo(relativistic(c_values[0]), n, kappa, dt, t_final, record_every,
                          c_values=list(c_values), homogeneous=homogeneous)
    return _report(out_dir, "rate-vs-c", seed, config, results, predicates, files)


def run_limit_scaling(
    seed: int,
    c_values: tuple[float, ...] = (5.0, 10.0, 20.0),
    t_final: float = 10.0,
    n: int = 10,
    kappa: float = 1.0,
    dt: float = 0.01,
    record_every: int = 1,
    regimes: tuple[str, ...] = ("heterogeneous", "identical", "zero"),
    checkpoint_times: tuple[float, ...] = (),
    out_dir=None,
) -> ExperimentReport:
    """Measure the large-c approach of the full kind to the classical one.

    For each regime and each c, runs the full relativistic and classical
    kinds on identical grids and initial data, tracks the l1 phase
    discrepancy, and reports s(c) = sup over samples together with
    c**2 * s(c).  For consecutive doublings within ``c_values`` asserts
    s(c)/s(2c) in [3, 5].  No ratio is formed where s(2c) = 0: the claim
    is skipped if s(c) = 0 too (the flows coincide, as in the zero regime
    at n = 1) and fails with ``ratio: null`` otherwise, and the row of c
    says which under ``doubling``.  In the all-zero regime, where both
    flows stop, c**2 * s(c) must also stay bounded in time: with at least
    two checkpoint times the sup up to the last one may exceed the sup up
    to the first by at most 5%.  The heterogeneous and identical-frequency
    regimes carry no boundedness assertion (their discrepancy drifts).
    ``regimes`` must name at least one regime and none twice, and no
    checkpoint may lie past ``t_final``.
    """
    c_values = _velocity_bounds(c_values)
    known = {"heterogeneous", "identical", "zero"}
    if not regimes or len(set(regimes)) < len(regimes) or not set(regimes) <= known:
        raise DomainError(f"regimes must be distinct names from {sorted(known)}, at least one")
    checkpoints = tuple(float(t) for t in checkpoint_times)
    if any(t > t_final for t in checkpoints):
        raise DomainError("checkpoint_times must not lie past t_final")
    theta0, omega_het, _ = sample_protocol_ensemble(seed, n=n, kappa=kappa)
    frequency_choices = {
        "heterogeneous": omega_het,
        "identical": np.full(n, LIMIT_IDENTICAL_VALUE),
        "zero": np.zeros(n),
    }

    regime_tables: dict[str, list] = {}
    predicates, files = [], []
    for regime in regimes:
        omega = frequency_choices[regime]
        base = SystemConfig(n, kappa, omega, classical(), dt, t_final, record_every)
        configs = [SystemConfig(n, kappa, omega, relativistic(c), dt, t_final, record_every)
                   for c in c_values]
        reference, *rest = simulate_batch([base, *configs], theta0)
        files += _emit(out_dir, f"{regime}_{_label(reference.config.model)}", reference)

        rows = []
        for c, traj in zip(c_values, rest):
            gap = np.abs(traj.thetas - reference.thetas).sum(axis=1)
            sups = {f"{cp:g}": float(np.max(gap[traj.times <= cp + 1e-12]))
                    for cp in checkpoints}
            sup = float(np.max(gap))
            rows.append({
                "c": c,
                "sup_l1": sup,
                "c2_sup_l1": c * c * sup,
                "checkpoints": {k: {"sup_l1": s, "c2_sup_l1": c * c * s} for k, s in sups.items()},
            })
            files += _emit(out_dir, f"{regime}_{_label(traj.config.model)}", traj)
        regime_tables[regime] = rows

        for low, high in zip(rows, rows[1:]):
            if not math.isclose(high["c"], 2.0 * low["c"], rel_tol=1e-12):
                continue
            name = f"{regime}-scaling-c{low['c']:g}-to-c{high['c']:g}"
            observed = {"s_c": low["sup_l1"], "s_2c": high["sup_l1"]}
            if high["sup_l1"] == 0.0:
                # no ratio: equal flows (nothing to scale) or a gap that
                # vanishes only at 2c, which no 1/c**2 law gives
                if low["sup_l1"] == 0.0:
                    low["doubling"] = "skipped: s(c) = s(2c) = 0, the flows coincide"
                    continue
                low["doubling"] = "failed: s(2c) = 0 < s(c), no ratio"
                predicates.append(PredicateOutcome(name, "s(c)/s(2c) in [3, 5]",
                                                   {**observed, "ratio": None}, False))
                continue
            ratio = low["sup_l1"] / high["sup_l1"]
            predicates.append(_claim(name, "s(c)/s(2c) in [3, 5]", {**observed, "ratio": ratio},
                                     float(min(ratio - 3.0, 5.0 - ratio))))
        if regime == "zero" and len(checkpoints) >= 2:
            for row in rows:
                stamps = sorted(row["checkpoints"], key=float)
                if len(stamps) < 2:
                    continue
                first = row["checkpoints"][stamps[0]]["c2_sup_l1"]
                last = row["checkpoints"][stamps[-1]]["c2_sup_l1"]
                growth = last / first - 1.0 if first > 0.0 else 0.0
                predicates.append(_claim(
                    f"zero-bounded-c{row['c']:g}",
                    "c^2 * sup l1 grows < 5% between first and last checkpoint",
                    {"first": first, "last": last, "growth": growth}, float(0.05 - growth),
                    strict=True,
                ))

    config = _config_echo(relativistic(c_values[0]), n, kappa, dt, t_final, record_every,
                          c_values=list(c_values), regimes=list(regimes),
                          identical_value=LIMIT_IDENTICAL_VALUE,
                          checkpoint_times=list(checkpoints))
    results = {"initial_phase_diameter": phase_diameter(theta0), "tables": regime_tables}
    return _report(out_dir, "limit", seed, config, results, predicates, files)


def run_sync_predicates(
    seed: int,
    model: FrequencyResponse,
    n: int = 10,
    kappa: float = 1.0,
    dt: float = 0.01,
    t_final: float = 50.0,
    record_every: int = 1,
    omega=None,
    freq_interval: tuple[float, float] = FREQ_INTERVAL,
    out_dir=None,
) -> ExperimentReport:
    """Check the synchronization guarantees on one seeded run.

    Unless ``omega`` is given, frequencies are drawn and centered; phases
    follow the reference protocol.  Homogeneous runs (zero frequency
    spread) check: the diameter never exceeds its initial value, the
    diameter stays below the guaranteed exponential envelope (slack
    1 + 1e-6), the terminal frequency diameter is numerically zero, and
    if the initial order parameter is positive the terminal pairwise
    sines vanish.  Heterogeneous runs
    record which coupling hypotheses held, then check the diameter enters
    and stays inside the trapping region max(theta*, min(D0, pi - D0)),
    and that the terminal frequency diameter is numerically zero.
    """
    theta0, omega, tstar = sample_protocol_ensemble(
        seed, n=n, kappa=kappa, freq_interval=freq_interval, center_frequencies=True,
        omega=omega,
    )
    spread = float(np.ptp(omega))
    homogeneous = spread == 0.0

    config = SystemConfig(n, kappa, omega, model, dt, t_final, record_every)
    traj = simulate(config, theta0)
    files = _emit(out_dir, model.kind.value, traj)

    pd = np.ptp(traj.thetas, axis=1)
    fd = np.ptp(traj.theta_dots, axis=1)
    d0 = float(pd[0])
    r0 = order_parameter(theta0).r
    times = traj.times
    frequency_sync = _claim(
        "terminal-frequency-sync",
        f"terminal frequency diameter < {SYNC_ASYMPTOTIC_TOLERANCE:g}",
        float(fd[-1]), float(SYNC_ASYMPTOTIC_TOLERANCE - fd[-1]), strict=True,
    )
    predicates = []
    results = {
        "homogeneous": homogeneous,
        "initial_phase_diameter": d0,
        "initial_order_parameter": r0,
        "omega_diameter": spread,
        "theta_star": tstar,
        "terminal_phase_diameter": float(pd[-1]),
        "terminal_frequency_diameter": float(fd[-1]),
    }

    if homogeneous:
        if 0.0 < d0 < math.pi:
            predicates.append(_never_above(
                "diameter-never-expands", "D(t) <= D(0) + 1e-12 at every sample",
                {"initial": d0, "max": float(np.max(pd))}, pd - (d0 + 1e-12), times,
            ))
            rate = predicted_rate(config, d0)
            results["predicted_rate"] = rate
            over = pd - d0 * np.exp(-rate * times) * (1.0 + SYNC_ENVELOPE_SLACK)
            predicates.append(_never_above(
                "exponential-envelope",
                f"D(t) <= D(0) * exp(-{rate:.6g} t) * (1 + {SYNC_ENVELOPE_SLACK:g})",
                {"max_excess": float(np.max(over))}, over, times,
            ))
        predicates.append(frequency_sync)
        if r0 > 0.0:
            sines = _max_abs_pairwise_sine(traj.thetas[-1])
            predicates.append(_claim(
                "terminal-pairwise-sines",
                f"max |sin(theta_i - theta_j)| < {SYNC_ASYMPTOTIC_TOLERANCE:g} at t_final",
                sines, float(SYNC_ASYMPTOTIC_TOLERANCE - sines), strict=True,
            ))
    else:
        results["hypothesis_kappa_gt_omega_diameter"] = kappa > spread
        results["hypothesis_kappa_gt_omega_diameter_over_d0"] = (
            d0 > 0.0 and kappa > spread / d0
        )
        bound = max(tstar or 0.0, min(d0, math.pi - d0)) + SYNC_TRAP_SLACK
        inside = pd <= bound
        entry = int(np.argmax(inside)) if bool(inside.any()) else None
        results["trap_bound"] = bound
        results["trap_entry_time"] = None if entry is None else float(times[entry])
        # A run that never enters the trap fails with no first violation time.
        predicates.append(_never_above(
            "diameter-trapping",
            "D(t) enters and stays below max(theta*, min(D0, pi - D0)) + slack",
            {"bound": bound, "entry_time": results["trap_entry_time"]},
            pd[entry or 0:] - bound, None if entry is None else times[entry:],
        ))
        predicates.append(frequency_sync)

    config = _config_echo(model, n, kappa, dt, t_final, record_every,
                          phase_halfwidth=0.5 * (math.pi - (tstar or 0.0)))
    return _report(out_dir, "sync-check", seed, config, results, predicates, files)


def run_rcs_crosscheck(
    seed: int,
    c: float = 1.0,
    n: int = 10,
    kappa: float = 1.0,
    dt: float = 1e-3,
    t_final: float = 10.0,
    record_every: int = 10,
    out_dir=None,
) -> ExperimentReport:
    """Cross-validate the first-order and momentum integrators.

    Builds consistent initial data (velocities from the inverse response
    of the initial drives), runs both forms of the full relativistic
    model on the same grid, and checks that the recorded phases agree in
    max norm and that the momentum form conserves its induced
    frequencies.
    """
    theta0, omega, _ = sample_protocol_ensemble(seed, n=n, kappa=kappa)
    model = relativistic(c)
    config = SystemConfig(n, kappa, omega, model, dt, t_final, record_every)
    thetadot0 = model.velocity(omega + coupling(config, theta0))
    momentum_traj, first_traj = simulate_both_forms(config, theta0, thetadot0)
    nu = momentum_traj.induced_omega

    gaps = np.abs(momentum_traj.thetas - first_traj.thetas).max(axis=1)
    deviation = float(np.max(gaps))
    dev_idx = int(np.argmax(gaps))
    res = np.abs(momentum_traj.residuals).max(axis=1)
    residual = float(np.max(res))
    res_idx = int(np.argmax(res))
    predicates = [
        _claim("phase-agreement",
               f"max |theta_momentum - theta_first_order| < {RCS_THETA_TOLERANCE:g}",
               deviation, float(RCS_THETA_TOLERANCE - deviation), strict=True,
               violation_time=float(momentum_traj.times[dev_idx])),
        _claim("frequency-conservation",
               f"max |p - coupling - nu| < {RCS_RESIDUAL_TOLERANCE:g}",
               residual, float(RCS_RESIDUAL_TOLERANCE - residual), strict=True,
               violation_time=float(momentum_traj.times[res_idx])),
    ]
    files = (_emit(out_dir, "first_order", first_traj)
             + _emit(out_dir, "momentum", momentum_traj, diagnostics=False))
    results = {
        "max_phase_deviation": deviation,
        "max_conservation_residual": residual,
        "induced_frequency_recovery": float(np.max(np.abs(nu - omega))),
    }
    config = _config_echo(model, n, kappa, dt, t_final, record_every)
    return _report(out_dir, "rcs-check", seed, config, results, predicates, files)


def run_admissibility(seed: int, model: FrequencyResponse, out_dir=None) -> ExperimentReport:
    """Check that a response is admissible, one predicate per structural property.

    Runs ``model.check_admissibility`` on ADMISSIBILITY_SAMPLES points and
    reports oddness and the inverse round trip against the bounds that
    method applies, plus strict monotonicity.  Nothing is sampled at
    random; ``seed`` is only recorded.
    """
    check = model.check_admissibility(samples=ADMISSIBILITY_SAMPLES)

    odd, roundtrip = check.oddness_residual, check.roundtrip_residual
    predicates = [
        _claim("oddness", f"relative residual <= {ADMISSIBILITY_ODDNESS_TOL:g}", odd,
               ADMISSIBILITY_ODDNESS_TOL - odd),
        PredicateOutcome("strictly-increasing", True, check.strictly_increasing,
                         check.strictly_increasing),
        _claim("inverse-round-trip", f"absolute residual <= {ADMISSIBILITY_ROUNDTRIP_TOL:g}",
               roundtrip, ADMISSIBILITY_ROUNDTRIP_TOL - roundtrip),
    ]
    results = {
        "oddness_residual": check.oddness_residual,
        "strictly_increasing": check.strictly_increasing,
        "roundtrip_residual": check.roundtrip_residual,
    }
    config = {"model": model.kind.value, "c": model.c, "samples": check.samples}
    return _report(out_dir, "admissibility", seed, config, results, predicates)
