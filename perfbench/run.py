"""relkura benchmark: one workload, one seed, one measured run.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-sweep --seed 0 --seconds 40 --trace 0

Every pass runs the workload's CLI invocations through ``relkura.cli.main``
in a fresh worker process (``worker.py``) with ``src`` on ``PYTHONPATH``.
With ``--trace 0`` the run times set-up in separate probe processes, then
repeats passes while the next one fits in ``--seconds``, and prints the
end-to-end metrics of ``BENCHMARK.json`` as medians over the passes.
With ``--trace 1`` it runs one untraced and one traced pass and prints the
per-layer metrics of the traced one, plus the tracing overhead.

Every invocation's outputs are checked (``check.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with the environment, goes
to ``.perfbench-out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

SETUP_PROBES = 2
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    # the library picks its own pool width; the benchmark never chooses one
    env.pop("RELKURA_THREADS", None)
    return env


def run_worker(spec: dict, timeout: float) -> dict:
    """Run one worker process in its own scratch directory; return its result."""
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="pass-", dir=OUT))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"),
             json.dumps({**spec, "root": str(ROOT), "scratch": str(scratch)})],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded {timeout:.0f} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(worker_result: dict | None) -> dict:
    cpu = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                cpu.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("model name", platform.processor() or "unknown"),
        "cpu_cache": cpu.get("cache size", "unknown"),
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }
    if worker_result:
        env.update(worker_result["versions"], pool_width=worker_result["pool_width"])
    return env


def git_commit() -> str:
    """HEAD of the checkout when it is a git repository, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list, dict]:
    """Untraced run: set-up probes, then passes while the next one fits."""
    start = time.perf_counter()
    probe = {"mode": "setup", "workload": workload, "seed": seed}
    setups = [run_worker(probe, deadline - time.perf_counter())["setup_s"]
              for _ in range(SETUP_PROBES)]
    passes = []
    while True:
        t = time.perf_counter()
        passes.append(run_worker({"mode": "pass", "workload": workload, "seed": seed},
                                 deadline - t))
        took = time.perf_counter() - t
        if time.perf_counter() - start + took > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    metrics = {
        "osc_steps_per_s": statistics.median(p["osc_steps"] / p["main_wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, passes, {"setup_samples_s": setups}


def measure_traced(workload: str, seed: int, deadline: float) -> tuple[dict, list, dict]:
    """Traced run: one untraced and one traced pass of the same inputs."""
    import workloads

    base = {"mode": "pass", "workload": workload, "seed": seed}
    plain = run_worker({**base, "hash_outputs": True}, deadline - time.perf_counter())
    spans = OUT / "results" / f"{workload}-spans.csv"
    spans.parent.mkdir(parents=True, exist_ok=True)
    traced = run_worker({**base, "trace": True, "spans": str(spans)},
                        deadline - time.perf_counter())
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["main_wall_s"] - plain["main_wall_s"]
    for a, b in zip(plain["invocations"], traced["invocations"]):
        if a["hashes"] != b["hashes"]:
            b["problems"].append("traced outputs differ from the untraced run")
    want = workloads.expected_counts(workloads.configs(workload, seed))
    count_check = {k: {"expected": v, "traced": layers.get(k, 0)}
                   for k, v in sorted(want.items()) if layers.get(k, 0) != v}
    return layers, [plain, traced], {"count_mismatches": count_check, "spans_file": str(spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import workloads

    if not (ROOT / "src" / "relkura" / "cli.py").is_file():
        print(f"no relkura sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            values, passes, extra = measure_traced(args.workload, args.seed, deadline)
        else:
            values, passes, extra = measure(args.workload, args.seed, args.seconds, deadline)
    except WorkerError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    attempted = sum(len(p["invocations"]) for p in passes)
    failed = sum(1 for p in passes for inv in p["invocations"] if inv["problems"])
    for p in passes:
        for inv in p["invocations"]:
            for problem in inv["problems"]:
                print(f"check failed ({inv['scenario']}): {problem}")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    env = environment(passes[-1])
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} invocations)")
    if args.trace and extra["count_mismatches"]:
        print(f"trace counts differ from the config-derived expectation: {extra['count_mismatches']}")
    print("environment: " + json.dumps(env))

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "metrics": metrics, "attempted": attempted,
              "failed": failed, "failed_ratio": failed / attempted, "passes": passes, **extra}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
