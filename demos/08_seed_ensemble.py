"""A seed ensemble: the spread of fitted sync rates around the prediction.

One seed gives one fitted decay rate; the linearized theory predicts
kappa * G'(0) = kappa * c^2 / (c^2 + 1) for identical oscillators of the
full relativistic kind.  This demo draws 100 seeds' initial phases with
the reference protocol, integrates all 100 systems as one batched state
(a single ``simulate_batch`` call with a (B, n) theta0), fits each phase
diameter's decay in the same window as the rate-vs-c scenario, and
prints the distribution of the fitted rates next to the prediction.

Run:  python demos/08_seed_ensemble.py
"""

import time

import numpy as np

from relkura import SystemConfig, fit_decay_rate, relativistic, simulate_batch
from relkura.experiments import RATE_FIT_CEILING, RATE_FIT_FLOOR, sample_protocol_ensemble

SEEDS = range(100)
N = 10
KAPPA = 1.0
C = 1.0


def main():
    model = relativistic(C)
    omega = np.zeros(N)
    theta0 = np.stack([
        sample_protocol_ensemble(seed, n=N, kappa=KAPPA, freq_interval=(0.0, 0.0))[0]
        for seed in SEEDS
    ])
    configs = [SystemConfig(N, KAPPA, omega, model, dt=0.01, t_final=40.0) for _ in SEEDS]

    start = time.perf_counter()
    trajs = simulate_batch(configs, theta0)
    elapsed = time.perf_counter() - start

    rates = []
    for traj in trajs:
        pd = np.ptp(traj.thetas, axis=1)
        mask = (pd > RATE_FIT_FLOOR) & (pd < min(RATE_FIT_CEILING, 0.9 * pd[0]))
        rates.append(fit_decay_rate(traj.times[mask], pd[mask]).rate)
    rates = np.array(rates)

    predicted = KAPPA * model.velocity_slope(0.0)
    print(f"{len(configs)} seeds, n = {N}, kappa = {KAPPA}, c = {C}, identical oscillators; "
          f"one batched run took {elapsed:.1f} s\n")
    print(f"predicted rate kappa * c^2 / (c^2 + 1) = {predicted:.6f}\n")
    quantiles = np.quantile(rates, [0.0, 0.25, 0.5, 0.75, 1.0])
    for label, value in zip(("min", "25%", "median", "75%", "max"), quantiles):
        print(f"{label:>8s}  {value:.6f}  ({value / predicted - 1.0:+.2e} relative)")
    print(f"\n    mean  {rates.mean():.6f}, standard deviation {rates.std(ddof=1):.2e}")


if __name__ == "__main__":
    main()
