"""Same initial data, four response kinds, one race to synchrony.

All four models start from the same random phases and drives and run with
identical coupling.  The bounded-velocity kinds contract more slowly than
the classical model, and the full relativistic response is the slowest of
all.  The script fits an exponential to each frequency-diameter history,
then prints the phase spread at a few early snapshots so the slower
contraction is visible directly.

Run:  python demos/02_four_model_comparison.py [outdir]
"""

import sys
from pathlib import Path

from relkura.experiments import run_four_model_comparison

SEED = 42
C = 1.0
KINDS = ("classical", "rapidity", "proper-velocity", "relativistic")


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_output/compare")
    outdir.mkdir(parents=True, exist_ok=True)

    report = run_four_model_comparison(
        seed=SEED, c=C, n=10, kappa=1.0, t_final=20.0, dt=0.01,
        out_dir=outdir,
    )

    print(f"seed {SEED}, n = 10, kappa = 1, c = {C}\n")
    print("fitted decay rates (frequency diameter, log-linear fit)")
    rates = report.results["decay_rates"]
    for name in KINDS:
        fit = rates[name]
        print(f"  {name:16s} rate {fit['rate']:.6f}   "
              f"rms residual {fit['rms_residual']:.2e}")

    print("\nphase-diameter snapshots")
    times = report.results["snapshot_times"]
    snapshots = report.results["snapshots"]
    print("t".rjust(6) + "".join(name.rjust(18) for name in KINDS))
    for i, t in enumerate(times):
        row = ""
        for name in KINDS:
            phases = snapshots[name][i]
            row += f"{max(phases) - min(phases):18.8f}"
        print(f"{t:6.1f}{row}")

    print("\nterminal phase diameters")
    terminal = report.results["terminal_phase_diameter"]
    for name in KINDS:
        print(f"  {name:16s} {terminal[name]:.3e}")

    print()
    for outcome in report.predicates:
        print(outcome.line())

    print(f"\ntrajectories written to {outdir}/")
    for path in report.data_files:
        print(f"  {Path(path).name}")


if __name__ == "__main__":
    main()
