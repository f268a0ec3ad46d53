"""Exercising the synchronization guarantees on seeded runs.

Two flavors.  With identical oscillators the phase diameter must never
expand, must stay under its guaranteed exponential envelope, and the run
must end frequency-synchronized with all pairwise sines zero.  With
spread frequencies under strong coupling the diameter must fall into the
trapping region max(theta*, min(D0, pi - D0)) and stay there, and the
oscillators must still end at a common frequency (phase locking).

Run:  python demos/05_sync_guarantees.py [outdir]
"""

import sys
from pathlib import Path

import numpy as np

from relkura import relativistic
from relkura.experiments import run_sync_predicates

SEED = 42
C = 1.0


def show(report, title):
    print(title)
    res = report.results
    print(f"  initial diameter {res['initial_phase_diameter']:.4f}, "
          f"frequency spread {res['omega_diameter']:.4f}")
    if res["theta_star"] is not None:
        print(f"  lock angle theta* = {res['theta_star']:.4f}")
    if "predicted_rate" in res:
        print(f"  envelope rate {res['predicted_rate']:.6f}")
    if "trap_entry_time" in res:
        print(f"  trap bound {res['trap_bound']:.4f}, "
              f"entered at t = {res['trap_entry_time']:g}")
    print(f"  terminal phase diameter {res['terminal_phase_diameter']:.3e}, "
          f"frequency diameter {res['terminal_frequency_diameter']:.3e}")
    for outcome in report.predicates:
        print(f"  {outcome.line()}")
    print()


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_output/sync")
    outdir.mkdir(parents=True, exist_ok=True)

    model = relativistic(C)

    homogeneous = run_sync_predicates(
        seed=SEED, model=model, n=10, kappa=1.0, t_final=50.0, dt=0.01,
        omega=np.zeros(10), out_dir=outdir / "homogeneous",
    )
    show(homogeneous, f"identical oscillators (seed {SEED}, c = {C})")

    heterogeneous = run_sync_predicates(
        seed=SEED, model=model, n=10, kappa=1.0, t_final=50.0, dt=0.01,
        out_dir=outdir / "heterogeneous",
    )
    show(heterogeneous, f"spread frequencies (seed {SEED}, c = {C})")

    print(f"trajectories and reports written under {outdir}/")


if __name__ == "__main__":
    main()
