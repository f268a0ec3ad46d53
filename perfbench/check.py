"""Output checks applied to every benchmarked CLI invocation.

An invocation passes when its exit code is 0, every predicate line it
printed reads PASS (one per predicate in the report), every data file the
report lists exists, and its ``report.json`` matches the reference
recorded at the seed commit for the same sampling seed.  ``simulate``
invocations also have their CSV shapes and the velocity bound checked.

Numbers in the report match when |got - ref| <= ABS_TOL + REL_TOL * |ref|:
REL_TOL is the loosest relative pin the unit tests put on a computed
observable (``predicted_rate``), ABS_TOL the residual pin of the
momentum-form cross-check.  It admits reordered floating-point sums and
nothing a test would reject.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12

REFS_DIR = Path(__file__).resolve().parent / "refs"


def load_refs(workload: str) -> dict:
    path = REFS_DIR / f"{workload}.json"
    return json.loads(path.read_text())["seeds"]


def compare(got, ref, where="report") -> list[str]:
    """Differences between a report and its reference, as readable strings."""
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return [] if got == ref else [f"{where}: {got!r} != {ref!r}"]
    if isinstance(ref, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{where}: {got!r} is not a number"]
        if math.isnan(ref):
            return [] if math.isnan(got) else [f"{where}: {got!r} != nan"]
        if abs(got - ref) <= ABS_TOL + REL_TOL * abs(ref):
            return []
        return [f"{where}: {got!r} differs from reference {ref!r}"]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: length or type differs from reference"]
        return [d for i, (g, r) in enumerate(zip(got, ref)) for d in compare(g, r, f"{where}[{i}]")]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys differ from reference"]
        return [d for k in ref for d in compare(got[k], ref[k], f"{where}.{k}")]
    return [f"{where}: unexpected reference type {type(ref).__name__}"]


def check_invocation(cfg: dict, code, stdout: str, out_dir: Path, ref) -> list[str]:
    """Reasons this invocation fails its output check (empty when it passes)."""
    if code != 0:
        return [f"exit code {code}"]
    problems = []
    lines = stdout.splitlines()
    fails = [ln for ln in lines if ln.startswith("FAIL ")]
    passes = [ln for ln in lines if ln.startswith("PASS ")]
    problems += [f"predicate failed: {ln}" for ln in fails]
    report_path = out_dir / "report.json"
    if not report_path.is_file():
        return problems + ["no report.json"]
    report = json.loads(report_path.read_text())
    if len(passes) + len(fails) != len(report["predicates"]):
        problems.append("printed predicate lines do not match the report")
    for name in report["data_files"]:
        if not (out_dir / name).is_file():
            problems.append(f"missing data file {name}")
    if ref is None:
        problems.append("no reference recorded for this seed")
    else:
        problems += compare(report, ref)
    if cfg["scenario"] == "simulate" and not problems:
        problems += _check_simulate_csvs(cfg, out_dir)
    return problems


def _check_simulate_csvs(cfg: dict, out_dir: Path) -> list[str]:
    import numpy as np

    from workloads import systems

    rows, n = systems(cfg)[0]["rows"], cfg["n"]
    label = cfg["model"]
    traj = np.loadtxt(out_dir / f"trajectory_{label}.csv", delimiter=",", skiprows=1, ndmin=2)
    diag = np.loadtxt(out_dir / f"diagnostics_{label}.csv", delimiter=",", skiprows=1, ndmin=2)
    problems = []
    if traj.shape != (rows, 1 + 2 * n):
        problems.append(f"trajectory CSV shape {traj.shape} != {(rows, 1 + 2 * n)}")
    if diag.shape != (rows, 7):
        problems.append(f"diagnostics CSV shape {diag.shape} != {(rows, 7)}")
    if label != "classical" and not problems:
        speed = float(np.max(np.abs(traj[:, 1 + n:])))
        if not speed < cfg["c"]:
            problems.append(f"max |thetadot| = {speed!r} is not below c = {cfg['c']!r}")
    return problems
