"""How the velocity bound throttles synchronization.

For identical oscillators near lock, the phase diameter contracts like
exp(-kappa * G'(0) * t), and for the full relativistic response
G'(0) = c^2 / (c^2 + 1).  Tight bounds slow the approach to sync; as c
grows the rate climbs toward the classical value kappa.  The sweep runs
the same initial phases at several bounds, fits each decay, and compares
the fits with the linearized prediction.

Run:  python demos/03_rate_vs_velocity_bound.py [outdir]
"""

import sys
from pathlib import Path

from relkura import relativistic
from relkura.experiments import run_rate_vs_c

SEED = 42
KAPPA = 1.0
C_VALUES = (0.5, 1.0, 5.0, 10.0)


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_output/rate_vs_c")
    outdir.mkdir(parents=True, exist_ok=True)

    report = run_rate_vs_c(
        seed=SEED, c_values=C_VALUES, homogeneous=True,
        n=10, kappa=KAPPA, dt=0.01, t_final=40.0, out_dir=outdir,
    )

    d0 = report.results["initial_phase_diameter"]
    print(f"seed {SEED}, n = 10, kappa = {KAPPA}, identical oscillators, "
          f"initial diameter {d0:.4f}\n")

    print("bound".rjust(10) + "fitted rate".rjust(14) + "predicted".rjust(14)
          + "  (kappa * c^2 / (c^2 + 1))")
    for row in report.results["table"]:
        if row["c"] is None:
            predicted = KAPPA
            label = "classical"
        else:
            predicted = KAPPA * relativistic(row["c"]).velocity_slope(0.0)
            label = f"c = {row['c']:g}"
        print(f"{label:>10s}{row['fit']['rate']:14.6f}{predicted:14.6f}")

    print()
    for outcome in report.predicates:
        print(outcome.line())

    print(f"\ndiameter histories written to {outdir}/")


if __name__ == "__main__":
    main()
