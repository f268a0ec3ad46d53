"""Tour of the velocity-response family.

The package models oscillators whose phase velocity is bounded: the drive
an oscillator balances is an odd, strictly increasing function F of its
velocity, and the equation of motion inverts F to recover the velocity
from the natural frequency plus coupling.  This script prints the four
responses side by side, shows the inverse round trip, and runs the
structural admissibility checks that every valid response must pass.

Run:  python demos/01_response_family.py
"""

import numpy as np

from relkura import classical, proper_velocity, rapidity, relativistic, run_admissibility

C = 1.0
MODELS = {
    "classical": classical(),
    "relativistic": relativistic(C),
    "proper-velocity": proper_velocity(C),
    "rapidity": rapidity(C),
}


def main():
    print(f"velocity bound c = {C} (classical: unbounded)\n")

    velocities = np.array([0.1, 0.3, 0.6, 0.9, 0.99])
    header = "w".rjust(8) + "".join(name.rjust(18) for name in MODELS)
    print("drive F(w) carried by velocity w")
    print(header)
    for w in velocities:
        cells = "".join(f"{m.momentum(w):18.10f}" for m in MODELS.values())
        print(f"{w:8.2f}{cells}")

    print("\nrest slopes: F'(0) and the inverse slope G'(0)")
    for name, m in MODELS.items():
        print(f"  {name:16s} F'(0) = {m.momentum_slope(0.0):.6f}   "
              f"G'(0) = {m.velocity_slope(0.0):.6f}")
    print("  (the full relativistic kind is the only one with F'(0) above 1,")
    print("   which is why its coupling responds most sluggishly)")

    print("\ninverse round trip G(F(w)) on 1001 points in (-0.99c, 0.99c)")
    grid = np.linspace(-0.99 * C, 0.99 * C, 1001)
    for name, m in MODELS.items():
        residual = np.max(np.abs(m.velocity(m.momentum(grid)) - grid))
        print(f"  {name:16s} max residual {residual:.3e}")

    print("\nlarge drives saturate strictly inside the bound")
    m = relativistic(C)
    for y in (10.0, 1e4, 1e8):
        w = m.velocity(y)
        print(f"  G({y:8.0e}) = {w:.15f}   (c - G = {C - w:.3e})")

    print("\nstructural admissibility (oddness, monotonicity, round trip)")
    for name, m in MODELS.items():
        print(f"  {name}")
        for outcome in run_admissibility(seed=0, model=m).predicates:
            print(f"    {outcome.line()}")


if __name__ == "__main__":
    main()
