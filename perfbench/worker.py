"""One benchmark pass in a fresh process.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the workload, the seed, a scratch directory and a mode:

* ``setup``: import ``relkura.cli`` and parse the first config, then exit;
* ``pass``: the same, then run every invocation of the workload through
  ``relkura.cli.main``, check the outputs and report timings, peak RSS and
  (with ``"trace": true``) the per-layer summary of the wrapped calls.

The result is printed as one JSON line.  Run from the repository root
with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import check
import workloads


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    scratch = Path(spec["scratch"])
    cfgs = workloads.configs(spec["workload"], spec["seed"])
    paths = []
    for i, cfg in enumerate(cfgs):
        out = scratch / f"inv{i}"
        path = scratch / f"config{i}.json"
        path.write_text(json.dumps({**cfg, "out": str(out)}))
        paths.append(path)

    t0 = time.perf_counter()
    import relkura.cli as cli

    cli.parse_config(["--config", str(paths[0])])
    setup_s = time.perf_counter() - t0
    source = Path(cli.__file__).resolve()
    if root / "src" not in source.parents:
        raise SystemExit(f"relkura was imported from {source}, not from {root / 'src'}")
    result = {"setup_s": setup_s}
    if spec["mode"] == "setup":
        return result

    tracer = None
    if spec.get("trace"):
        from layertrace import Tracer

        tracer = Tracer().install()

    runs = []
    for path in paths:
        stdout = io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = cli.main(["--config", str(path)])
        except Exception as err:  # a crash is a failed invocation, not a benchmark error
            code = f"{type(err).__name__}: {err}"
        runs.append((code, time.perf_counter() - t, stdout.getvalue()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        from layertrace import summarize

        result["layers"] = summarize(tracer.spans)
        if spec.get("spans"):
            with open(spec["spans"], "w") as fh:
                fh.write("id,name,parent,thread,start,end,cpu_start,cpu_end\n")
                for sid, name, parent, tid, t0, t1, c0, c1, _ in tracer.spans:
                    fh.write(f"{sid},{name},{parent},{tid},{t0!r},{t1!r},{c0!r},{c1!r}\n")

    refs = None if spec.get("record") else check.load_refs(spec["workload"])
    invocations = []
    for cfg, (code, wall, stdout) in zip(cfgs, runs):
        out = scratch / f"inv{len(invocations)}"
        entry = {"scenario": cfg["scenario"], "code": code, "wall_s": wall}
        if spec.get("record"):
            entry["report"] = json.loads((out / "report.json").read_text()) if code == 0 else None
        else:
            ref = refs.get(str(cfg["seed"]), [None] * len(cfgs))[len(invocations)]
            entry["problems"] = check.check_invocation(cfg, code, stdout, out, ref)
        if tracer is not None or spec.get("hash_outputs"):
            files = sorted(out.iterdir()) if out.is_dir() else []
            entry["hashes"] = {f.name: _sha256(f) for f in files}
        invocations.append(entry)

    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    max_workers = getattr(sys.modules.get("relkura.experiments"), "_max_workers", None)
    result.update(
        invocations=invocations,
        osc_steps=workloads.osc_steps(cfgs),
        main_wall_s=sum(wall for _, wall, _ in runs),
        peak_rss_mb=peak_rss_mb,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy_version},
        pool_width=max_workers() if max_workers else 1,
        relkura=str(source.parent),
    )
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
