"""The bounded models converge to the classical one as 1/c^2.

Run the full relativistic kind and the classical kind side by side from
identical initial data and track the l1 gap between the two phase
vectors.  Doubling the bound should cut the worst-case gap by roughly a
factor of four; equivalently c^2 * sup |gap| is stable across c.  Three
frequency regimes are exercised because the gap behaves differently when
the flow keeps drifting (heterogeneous, identical nonzero) versus when
both flows come to rest (all frequencies zero).

Run:  python demos/04_classical_limit.py [outdir]
"""

import sys
from pathlib import Path

from relkura.experiments import run_limit_scaling

SEED = 42
C_VALUES = (5.0, 10.0, 20.0)


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_output/limit")
    outdir.mkdir(parents=True, exist_ok=True)

    report = run_limit_scaling(
        seed=SEED, c_values=C_VALUES, t_final=10.0, n=10, kappa=1.0, dt=0.01,
        checkpoint_times=(5.0, 10.0), out_dir=outdir,
    )

    print(f"seed {SEED}, n = 10, kappa = 1, t in [0, 10]\n")
    for regime, rows in report.results["tables"].items():
        print(f"regime: {regime}")
        print("c".rjust(8) + "sup l1 gap".rjust(16) + "c^2 * sup".rjust(16))
        for row in rows:
            print(f"{row['c']:8g}{row['sup_l1']:16.6e}{row['c2_sup_l1']:16.6e}")
        for low, high in zip(rows, rows[1:]):
            ratio = low["sup_l1"] / high["sup_l1"]
            print(f"  ratio s({low['c']:g}) / s({high['c']:g}) = {ratio:.3f}"
                  "   (1/c^2 scaling predicts 4)")
        print()

    for outcome in report.predicates:
        print(outcome.line())

    print(f"\npaired trajectories written to {outdir}/")


if __name__ == "__main__":
    main()
