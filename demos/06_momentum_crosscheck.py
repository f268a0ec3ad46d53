"""Two integrators, one flow.

The first-order form inverts the response of natural frequency plus
sine coupling; the momentum form evolves (theta, p), inverts the
momentum p, and drives p with the cosine-weighted velocity differences.
Both describe the same dynamics from consistent initial data, so each
checks the other: the phase histories must agree, and the momentum form
must conserve its induced frequencies p - coupling along the whole run.
The ODE each form integrates is its own; what they share is the RK4
driver and the inverse response, which both forms' drives go through in
one call per stage (each with its own Newton stop).

Run:  python demos/06_momentum_crosscheck.py [outdir]
"""

import sys
from pathlib import Path

from relkura.experiments import run_rcs_crosscheck

SEED = 42


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_output/rcs")
    outdir.mkdir(parents=True, exist_ok=True)

    report = run_rcs_crosscheck(
        seed=SEED, c=1.0, n=10, kappa=1.0, dt=1e-3, t_final=10.0,
        record_every=10, out_dir=outdir,
    )

    res = report.results
    print(f"seed {SEED}, n = 10, c = 1, dt = 1e-3, t in [0, 10]\n")
    print(f"max phase deviation between forms   {res['max_phase_deviation']:.3e}")
    print(f"max conservation residual           {res['max_conservation_residual']:.3e}")
    print(f"induced frequency recovery gap      {res['induced_frequency_recovery']:.3e}")
    print("  (the last line checks nu = F(theta_dot) - coupling reproduces the")
    print("   drawn natural frequencies when the initial data are consistent)")

    print()
    for outcome in report.predicates:
        print(outcome.line())

    print(f"\nboth trajectories written to {outdir}/")


if __name__ == "__main__":
    main()
