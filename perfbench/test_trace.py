"""Trace completeness: the outside-in wrappers see every call they should.

Run from the repository root:  python3 -m pytest -q perfbench/test_trace.py

Small versions of the benchmark's scenarios run in-process, once plain
and once traced.  The traced counts must equal the counts derived from
the configs by ``workloads.expected_counts``, and tracing must leave every
output byte-identical.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import workloads  # noqa: E402

SMALL = [
    {"scenario": "compare", "model": "relativistic", "n": 6, "kappa": 1.0, "c": 1.0,
     "dt": 0.02, "t_final": 3.0, "record_every": 1, "seed": 3},
    {"scenario": "rate-vs-c", "model": "relativistic", "n": 5, "kappa": 1.0, "c": 1.0,
     "dt": 0.05, "t_final": 14.0, "record_every": 2, "seed": 1,
     "c_list": [0.5, 1.0, 5.0, 10.0], "homogeneous": True},
    {"scenario": "rcs-check", "model": "relativistic", "n": 4, "kappa": 1.0, "c": 1.0,
     "dt": 1e-3, "t_final": 0.25, "record_every": 10, "seed": 2},
    # t_final not a multiple of dt or of the recording stride: a closing
    # fractional step and an unaligned final row
    {"scenario": "simulate", "model": "rapidity", "n": 40, "kappa": 1.0, "c": 2.0,
     "dt": 0.01, "t_final": 0.205, "record_every": 3, "seed": 5},
]


def _run(cfgs, out_dir: Path, tracer=None):
    import relkura.cli as cli

    codes = []
    if tracer is not None:
        tracer.install()
    try:
        for i, cfg in enumerate(cfgs):
            path = out_dir / f"config{i}.json"
            path.write_text(json.dumps({**cfg, "out": str(out_dir / f"inv{i}")}))
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(["--config", str(path)]))
    finally:
        if tracer is not None:
            tracer.uninstall()
    files = {p.relative_to(out_dir).as_posix(): p.read_bytes()
             for p in sorted(out_dir.rglob("*")) if p.is_file() and "inv" in p.parent.name}
    return codes, files


def test_wrapper_patches_every_binding():
    tracer = layertrace.Tracer().install()
    try:
        bound = tracer.patched_bindings()
    finally:
        tracer.uninstall()
    for module in ("dynamics", "experiments", "cli"):
        assert f"relkura.{module}.simulate" in bound
    for module in ("diagnostics", "experiments", "cli"):
        assert f"relkura.{module}.compute_diagnostics" in bound
        assert f"relkura.{module}.write_diagnostics_csv" in bound
    for module in ("dynamics", "experiments"):
        assert f"relkura.{module}.coupling" in bound
    assert "FrequencyResponse.velocity" in bound


def test_uninstall_restores_originals():
    import relkura.dynamics as dynamics
    from relkura.models import FrequencyResponse

    before = (dynamics.simulate, FrequencyResponse.__dict__["velocity"])
    layertrace.Tracer().install().uninstall()
    assert (dynamics.simulate, FrequencyResponse.__dict__["velocity"]) == before


@pytest.mark.parametrize("cfg", SMALL, ids=[c["scenario"] for c in SMALL])
def test_traced_counts_match_config_and_outputs_unchanged(cfg, tmp_path):
    plain_dir, traced_dir = tmp_path / "plain", tmp_path / "traced"
    plain_dir.mkdir()
    traced_dir.mkdir()
    plain_codes, plain_files = _run([cfg], plain_dir)
    tracer = layertrace.Tracer()
    traced_codes, traced_files = _run([cfg], traced_dir, tracer)

    assert plain_codes == traced_codes == [0]
    assert plain_files and plain_files == traced_files

    layers = layertrace.summarize(tracer.spans)
    want = workloads.expected_counts([cfg])
    counted = {k: v for k, v in layers.items()
               if k.endswith((".calls", ".elements", ".rows", "bytes_computed"))}
    assert counted == {k: pytest.approx(v) for k, v in want.items()}
    assert layers["dynamics.simulate.calls"] == len(
        [s for s in workloads.systems(cfg) if s["form"] == "first"])


def test_spans_parent_pool_threads_to_the_root():
    cfg = SMALL[0]
    tracer = layertrace.Tracer()
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _run([cfg], Path(tmp), tracer)
    by_id = {s[0]: s for s in tracer.spans}
    (root,) = [s for s in tracer.spans if s[1] == "cli.main"]
    for span in tracer.spans:
        if span[1] == "dynamics.simulate":
            parent = by_id[span[2]]
            if span[3] != root[3]:
                assert parent is root
            assert root[4] <= span[4] <= span[5] <= root[5]
    layers = layertrace.summarize(tracer.spans)
    total_self = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    busy = sum(s[5] - s[4] for s in tracer.spans if s[2] == 0 or by_id[s[2]][3] != s[3])
    # self times partition each thread's outermost spans exactly
    assert total_self == pytest.approx(busy, rel=1e-9)


def test_union_of_overlapping_children():
    assert layertrace._union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.5, 5.5) == 3.0
