"""Record the reference reports the output check compares against.

Usage (from the repository root, at the commit whose outputs are the
reference):

    python3 perfbench/record_refs.py paper-sweep [large-n momentum-check]

For every sampling seed below ``workloads.REFERENCE_SEEDS`` this runs one
untraced pass and stores each invocation's ``report.json`` in
``perfbench/refs/<workload>.json``.  A seed whose run fails there is
recorded as failing (``null``), so the benchmark counts it as a failure
instead of dropping it.
"""

from __future__ import annotations

import json
import sys

from run import HERE, environment, run_worker
import workloads


def record(workload: str) -> dict:
    seeds, last = {}, None
    for seed in range(workloads.REFERENCE_SEEDS):
        last = run_worker({"mode": "pass", "workload": workload, "seed": seed,
                           "record": True}, timeout=600)
        reports = []
        for inv in last["invocations"]:
            report = inv["report"]
            ok = inv["code"] == 0 and all(p["passed"] for p in report["predicates"])
            reports.append(report if ok else None)
            print(f"{workload} seed {seed} {inv['scenario']}: {'ok' if ok else 'FAILED'}",
                  file=sys.stderr)
        seeds[str(seed)] = reports
    return {"environment": environment(last), "seeds": seeds}


if __name__ == "__main__":
    for name in sys.argv[1:]:
        (HERE / "refs").mkdir(exist_ok=True)
        path = HERE / "refs" / f"{name}.json"
        path.write_text(json.dumps(record(name), indent=1) + "\n")
