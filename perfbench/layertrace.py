"""Outside-in span recorder for the relkura layers.

The library has no tracing of its own, so this module wraps its public
functions from outside: every module binding of a wrapped function (for
example ``simulate`` as imported into ``dynamics``, ``experiments`` and
``cli``) is replaced by one shared wrapper, and two methods are wrapped
on their classes.  Each call records a span:

    (id, name, parent id, thread id, wall start, wall end,
     thread-CPU start, thread-CPU end, payload)

Spans on pool threads, which have no open span of their own, are parented
to the invocation's root span (the ``cli.main`` call).  A layer's self
time is its span's duration minus the union of its children's intervals
on the same thread.  Byte figures are computed from array shapes, not
measured.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict

# (module, attribute) -> layer name.  Every binding of the same function
# object across relkura's modules is patched, not only the one listed.
FUNCTIONS = {
    ("dynamics", "coupling"): "dynamics.coupling",
    ("dynamics", "rhs"): "dynamics.rhs",
    ("dynamics", "simulate"): "dynamics.simulate",
    ("dynamics", "simulate_momentum"): "dynamics.simulate_momentum",
    ("dynamics", "write_trajectory_csv"): "dynamics.write_trajectory_csv",
    ("diagnostics", "compute_diagnostics"): "diagnostics.compute_diagnostics",
    ("diagnostics", "energy"): "diagnostics.energy",
    ("diagnostics", "write_diagnostics_csv"): "diagnostics.write_diagnostics_csv",
    ("experiments", "run_four_model_comparison"): "experiments.run_four_model_comparison",
    ("experiments", "run_rate_vs_c"): "experiments.run_rate_vs_c",
    ("experiments", "run_rcs_crosscheck"): "experiments.run_rcs_crosscheck",
    ("cli", "parse_config"): "cli.parse_config",
    ("cli", "main"): "cli.main",
}

# (module, class, method) -> layer name; patched on the class.
METHODS = {
    ("models", "FrequencyResponse", "velocity"): "models.velocity",
    ("experiments", "ExperimentReport", "write"): "experiments.report_write",
}

MODULES = ("models", "dynamics", "diagnostics", "experiments", "cli")

ROOT_NAME = "cli.main"


def _payload(name, args):
    """Work measured at the boundary, from argument shapes or file sizes.

    Every wrapped call passes its array or path second: ``velocity(self,
    drive)``, ``coupling(config, theta)``, ``compute_diagnostics(config,
    trajectory)`` and ``write_*_csv(data, path)``.
    """
    if name == "models.velocity":
        return {"elements": int(getattr(args[1], "size", 1))}
    if name == "dynamics.coupling":
        n = int(args[1].shape[-1])
        # diff = theta_j - theta_i and sin(diff): two n x n float64 arrays
        return {"bytes_computed": n * n * 8 * 2}
    if name == "diagnostics.compute_diagnostics":
        rows, n = args[1].thetas.shape
        # (rows, n, n) phase differences and their cosines
        return {"rows": int(rows), "temp_bytes_computed": int(rows * n * n * 8 * 2)}
    if name in ("dynamics.write_trajectory_csv", "diagnostics.write_diagnostics_csv"):
        return {"bytes": os.path.getsize(args[1])}
    return None


class Tracer:
    """Collects spans in memory while installed; ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "models.velocity":
                span_name = f"{name}.{args[0].kind.value}"
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            is_root = name == ROOT_NAME and not stack
            if is_root:
                tracer._root = sid
            stack.append(sid)
            t0 = time.perf_counter()
            c0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                c1 = time.thread_time()
                t1 = time.perf_counter()
                stack.pop()
                if is_root:
                    tracer._root = 0
                payload = _payload(name, args)
                tracer.spans.append((sid, span_name, parent, threading.get_ident(),
                                     t0, t1, c0, c1, payload))

        return traced

    def install(self):
        import importlib

        modules = {m: importlib.import_module(f"relkura.{m}") for m in MODULES}
        for (mod, attr), name in FUNCTIONS.items():
            original = getattr(modules[mod], attr)
            wrapper = self._wrap(name, original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)
        for (mod, cls_name, attr), name in METHODS.items():
            cls = getattr(modules[mod], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        return self

    def patched_bindings(self):
        """Set of ``module.attr`` / ``Class.attr`` names currently replaced."""
        return {f"{getattr(target, '__name__', target)}.{key}" for target, key, _ in self._patches}

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()


def _union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans):
    """Per-layer counts, payload sums, self times and pool wait from spans."""
    children = defaultdict(list)
    for span in spans:
        children[span[2]].append(span)
    out = defaultdict(float)
    for sid, name, _parent, tid, t0, t1, c0, c1, payload in spans:
        same_thread = [(c[4], c[5]) for c in children.get(sid, ()) if c[3] == tid]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (t1 - t0) - _union_length(same_thread, t0, t1)
        for key, value in (payload or {}).items():
            out[f"{name}.{key}"] += value
        if name == "dynamics.simulate":
            out["experiments.pool.wait_s"] += (t1 - t0) - (c1 - c0)
    return dict(out)
