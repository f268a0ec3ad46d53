"""Workload definitions for the relkura benchmark.

A workload is a list of CLI invocations.  Each invocation is a complete
``RunConfig`` written to a JSON file and passed as ``--config``, so the
benchmark never depends on CLI defaults silently changing.  From the same
configs this module derives the work each pass does (oscillator-steps)
and the per-layer call counts a traced run must observe.

The benchmark seed picks the sampling seed handed to the CLI.  Output
references were recorded at the seed commit for ``REFERENCE_SEEDS``
sampling seeds, so the benchmark seed is reduced modulo that number.
"""

from __future__ import annotations

import math
from collections import Counter

REFERENCE_SEEDS = 16

BOUNDED_KINDS = ("relativistic", "proper-velocity", "rapidity")
ALL_KINDS = ("classical",) + BOUNDED_KINDS

# names as in BENCHMARK.json, which records why each was chosen
WORKLOADS = ("paper-sweep", "large-n", "momentum-check")


def cli_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def configs(workload: str, seed: int) -> list[dict]:
    """RunConfig dicts (without ``out``) for one pass of the workload."""
    s = cli_seed(seed)
    if workload == "paper-sweep":
        base = {"model": "relativistic", "n": 10, "kappa": 1.0, "c": 1.0,
                "dt": 0.01, "record_every": 1, "seed": s}
        return [
            {"scenario": "compare", **base, "t_final": 20.0},
            {"scenario": "rate-vs-c", **base, "t_final": 40.0,
             "c_list": [0.5, 1.0, 5.0, 10.0], "homogeneous": True},
        ]
    if workload == "large-n":
        return [{"scenario": "simulate", "model": "proper-velocity", "n": 1000,
                 "kappa": 1.0, "c": 1.0, "dt": 0.01, "t_final": 1.0,
                 "record_every": 2, "seed": s}]
    if workload == "momentum-check":
        return [{"scenario": "rcs-check", "model": "relativistic", "n": 10,
                 "kappa": 1.0, "c": 1.0, "dt": 1e-3, "t_final": 10.0,
                 "record_every": 10, "seed": s}]
    raise KeyError(workload)


def step_plan(dt: float, t_final: float) -> tuple[int, bool]:
    """(full RK4 steps, whether a closing fractional step follows)."""
    n_full = int(math.floor(t_final / dt + 1e-9))
    rem = t_final - n_full * dt
    return n_full, rem > 1e-9 * dt


def recorded_rows(dt: float, t_final: float, record_every: int) -> int:
    n_full, partial = step_plan(dt, t_final)
    skipped_last = (not partial) and n_full % record_every == 0
    return 1 + n_full // record_every - (1 if skipped_last else 0) + 1


def systems(cfg: dict) -> list[dict]:
    """Every system one invocation integrates: kind, form, n, steps, rows."""
    n_full, partial = step_plan(cfg["dt"], cfg["t_final"])
    common = {"n": cfg["n"], "steps": n_full + int(partial),
              "rows": recorded_rows(cfg["dt"], cfg["t_final"], cfg["record_every"])}
    scenario = cfg["scenario"]
    if scenario == "compare":
        kinds = ALL_KINDS
    elif scenario == "rate-vs-c":
        kinds = ("relativistic",) * len(cfg["c_list"]) + ("classical",)
    elif scenario == "simulate":
        kinds = (cfg["model"],)
    elif scenario == "rcs-check":
        return [{"kind": "relativistic", "form": "momentum", **common},
                {"kind": "relativistic", "form": "first", **common}]
    else:
        raise KeyError(scenario)
    return [{"kind": k, "form": "first", **common} for k in kinds]


def osc_steps(cfgs: list[dict]) -> int:
    """Sum of n * RK4 steps over every system the pass integrates."""
    return sum(s["n"] * s["steps"] for cfg in cfgs for s in systems(cfg))


def expected_counts(cfgs: list[dict]) -> Counter:
    """Per-layer counts a complete trace of these invocations must report.

    Derived only from the configs and the call structure of each scenario:
    every first-order RK4 step evaluates ``rhs`` (and so ``coupling`` and
    ``velocity``) four times, the recorded-velocity pass inverts once per
    system, and energy is evaluated once per recorded row of a bounded kind.
    """
    want = Counter()
    for cfg in cfgs:
        scenario = cfg["scenario"]
        want["cli.parse_config.calls"] += 1
        want["cli.main.calls"] += 1
        want["experiments.report_write.calls"] += 1
        runner = {"compare": "run_four_model_comparison", "rate-vs-c": "run_rate_vs_c",
                  "rcs-check": "run_rcs_crosscheck"}.get(scenario)
        if runner:
            want[f"experiments.{runner}.calls"] += 1
        for s in systems(cfg):
            n, steps, rows, kind = s["n"], s["steps"], s["rows"], s["kind"]
            vel = f"models.velocity.{kind}"
            if s["form"] == "first":
                want["dynamics.simulate.calls"] += 1
                want["dynamics.rhs.calls"] += 4 * steps
                want["dynamics.coupling.calls"] += 4 * steps
                want["dynamics.coupling.bytes_computed"] += 4 * steps * n * n * 8 * 2
                want[f"{vel}.calls"] += 4 * steps + 1
                want[f"{vel}.elements"] += 4 * steps * n + rows * n
                want["dynamics.write_trajectory_csv.calls"] += 1
                want["diagnostics.compute_diagnostics.calls"] += 1
                want["diagnostics.compute_diagnostics.rows"] += rows
                want["diagnostics.compute_diagnostics.temp_bytes_computed"] += rows * n * n * 8 * 2
                want["diagnostics.write_diagnostics_csv.calls"] += 1
                if kind in BOUNDED_KINDS:
                    want["diagnostics.energy.calls"] += rows
            else:
                # momentum form: 4 inversions per step, one over all recorded momenta
                want["dynamics.simulate_momentum.calls"] += 1
                want[f"{vel}.calls"] += 4 * steps + 1
                want[f"{vel}.elements"] += 4 * steps * n + rows * n
                want["dynamics.write_trajectory_csv.calls"] += 1
        if scenario == "rcs-check":
            # consistent initial data: velocity(omega + coupling) in the
            # runner, coupling again in induced_frequencies and in
            # simulate_momentum
            n = cfg["n"]
            want["models.velocity.relativistic.calls"] += 1
            want["models.velocity.relativistic.elements"] += n
            want["dynamics.coupling.calls"] += 3
            want["dynamics.coupling.bytes_computed"] += 3 * n * n * 8 * 2
    return want
