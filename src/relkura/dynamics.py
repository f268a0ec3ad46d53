"""Fixed-step integration of the coupled-oscillator family.

Two equivalent formulations are provided.  The first-order form evolves
phases directly: each oscillator's phase velocity is the inverse response
applied to its natural frequency plus the all-to-all sine coupling.  The
momentum form evolves the pair (theta, p) with p the drive-valued
momentum variable; it is the second-order formulation the bounded-velocity
models descend from, and serves to cross-validate the first-order
integrator (the residual p_i - coupling_i - nu_i is a conserved quantity
of the exact flow).

Conventions that matter for downstream analysis:

* Phases live on the real line and are never wrapped modulo 2*pi.
  Diameters, l1 comparisons between models, and the potential would all
  be corrupted by wrapping.
* Everything runs through one fixed-step classical RK4 driver.  The
  final step is shortened so every trajectory lands exactly on t_final,
  and recorded times are computed as step * dt rather than accumulated,
  so sample grids are bit-identical across models and forms with the
  same (dt, t_final, record_every).
* Several first-order systems on one grid integrate as one (B, n) state
  (``simulate_batch``; ``simulate`` is a batch of one): one coupling sum
  for the batch per RK4 stage and one velocity call per model kind.  The
  full kind's Newton solve stops each row on its own convergence test,
  so every system gets exactly the floats a run of it alone gives.
* The two forms of one system integrate as one stacked (3, n) state
  (theta_m, p, theta_f) (``simulate_both_forms``; ``simulate_momentum``
  is its momentum half): each RK4 stage inverts the momenta p and the
  first-order drives in one velocity call on two stacked rows, and the
  per-row stop test gives each form the floats a run of it alone gives.
  Only the ODE each form integrates is its own.
* Each recorded state keeps the velocity the integrator computed there:
  the first RK4 stage of the step that starts from it, or one more
  evaluation at the final state.  So recorded velocities equal ``rhs``
  (or ``velocity`` of the momenta) at the recorded states bit for bit,
  and no evaluation follows the integration.
* A model failure at any evaluation, the final one included, propagates
  with the samples recorded so far attached to the error as
  ``partial_trajectories``: one trajectory per batched system, or the
  (momentum, first-order) pair of the two forms.  A recorded state
  carries the velocities evaluated at it, and NaN where they were not.
  ``simulate`` and ``simulate_momentum`` return one item of those
  integrators' results, so their errors carry the same attribute.
* The all-to-all sine sums cost O(n) above ``PAIRWISE_MAX_N``
  oscillators: Kuramoto's order-parameter identity rewrites
  sum_j sin(theta_j - theta_i) as cos(theta_i) * S - sin(theta_i) * C
  with S, C the sums of sin and cos over the ensemble, so no n x n array
  is built.  At and below the threshold, which covers the paper's n = 10,
  the explicit pairwise form is kept: it is faster there, and the decay
  fits at that size reach a 1e-12 diameter floor where the identity's
  different rounding would move the fitted rates by ~1e-7 relative.  The
  momentum form's cosine-weighted coupling stays pairwise at every n.
* Memory: no pairwise temporary of the sine sums or of the momentum
  coupling exceeds one block of ``_BLOCK_FLOATS`` floats (512 KiB).  The
  sums over the M recorded states (the momentum residuals) take the rows
  in blocks and write into one preallocated output; an integrator
  stage's state fits in one block and is summed in one pass.  The
  momentum coupling of one state takes its n x n pairs a block of rows
  at a time once n * n exceeds one block, and in one pass at and below
  that, which covers the paper's n = 10.  Each row is reduced as in one
  pass over all rows, so the floats do not depend on the blocking.  The
  largest arrays of a run are its results: the recorded states and
  their rates, M rows each.
* Output: ``write_trajectory_csv`` (and ``write_diagnostics_csv``) write
  the bytes ``np.savetxt`` writes at ``%.16e``, formatting one block of
  ``_OUTPUT_BLOCK_FLOATS`` floats (8 KiB) per ``%`` call without
  stacking the table.  A run of more steps than numpy's index range
  holds raises MemoryError before its first step.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .models import FrequencyResponse, stack_rows

__all__ = [
    "SystemConfig",
    "Trajectory",
    "MomentumTrajectory",
    "coupling",
    "rhs",
    "simulate",
    "simulate_batch",
    "simulate_both_forms",
    "simulate_momentum",
    "write_trajectory_csv",
]


@dataclass(frozen=True)
class SystemConfig:
    """Immutable description of one oscillator system and its time grid.

    ``omega`` holds the natural frequencies (length ``n``); ``record_every``
    keeps every k-th step in the trajectory (the initial and final states
    are always kept).
    """

    n: int
    kappa: float
    omega: np.ndarray
    model: FrequencyResponse
    dt: float
    t_final: float
    record_every: int = 1

    def __post_init__(self):
        om = np.array(self.omega, dtype=float).reshape(-1)
        om.setflags(write=False)
        object.__setattr__(self, "omega", om)
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if om.shape != (self.n,):
            raise ValueError(f"omega must have length n={self.n}, got {om.shape}")
        if not np.all(np.isfinite(om)):
            raise ValueError("omega entries must be finite")
        if not (self.kappa >= 0.0 and math.isfinite(self.kappa)):
            raise ValueError("kappa must be finite and >= 0")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError("dt must be finite and > 0")
        if not (self.t_final >= self.dt and math.isfinite(self.t_final)):
            raise ValueError("t_final must be finite and >= dt")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    """Recorded first-order run: times (M,), phases and velocities (M, n).

    Each row of ``theta_dots`` is the velocity the integrator computed at
    that row's phases.  ``partial`` is set when integration aborted; the
    arrays then hold the samples recorded before the failure, with NaN
    velocities at a state the integrator did not evaluate.
    """

    config: SystemConfig
    times: np.ndarray
    thetas: np.ndarray
    theta_dots: np.ndarray
    partial: bool = False

    def write_csv(self, path) -> None:
        write_trajectory_csv(self, path)


@dataclass(frozen=True)
class MomentumTrajectory:
    """Recorded momentum-form run.

    ``residuals`` holds p_i(t) - coupling_i(t) - nu_i per sample, the
    conservation defect of the induced frequencies; ``induced_omega`` the
    frequencies recovered from the initial data.  ``theta_dots`` holds
    the velocities the integrator computed from the recorded momenta.
    ``partial`` is set when integration aborted, as on ``Trajectory``.
    """

    config: SystemConfig
    times: np.ndarray
    thetas: np.ndarray
    momenta: np.ndarray
    theta_dots: np.ndarray
    residuals: np.ndarray
    induced_omega: np.ndarray
    partial: bool = False

    def write_csv(self, path) -> None:
        write_trajectory_csv(self, path)


# Largest ensemble whose all-to-all sums are taken pairwise.  Below about
# n = 16-24 the pairwise call is a few microseconds faster than the O(n)
# identity, and at the paper's n = 10 the identity's different rounding
# moves the decay fits, which reach a 1e-12 diameter floor, by ~1e-7
# relative.  Must stay >= 10 so paper-size runs keep the pairwise rounding.
PAIRWISE_MAX_N = 16

# Floats in one pairwise temporary.  Pairwise passes over many rows take
# them in blocks of consecutive rows whose temporaries hold at most this
# many floats (512 KiB), and never fewer than one row.
_BLOCK_FLOATS = 1 << 16

# Floats in one block of the output path: the CSV writer formats, and
# ``compute_diagnostics`` takes the energy of, at most this many floats
# of recorded rows per pass (8 KiB), and never fewer than one row.  Small
# enough that the blocks' temporaries leave the peak RSS flat; a larger
# block saves little, since one pass already costs far more than its
# Python call.
_OUTPUT_BLOCK_FLOATS = 1 << 10


def _row_blocks(rows: int, row_floats: int, block_floats: int = _BLOCK_FLOATS):
    """Slices of consecutive rows covering range(rows), one block each.

    A block holds as many rows of ``row_floats`` floats each as fit in
    ``block_floats``, and at least one.
    """
    step = max(1, block_floats // row_floats)
    return (slice(start, start + step) for start in range(0, rows, step))


def _shifted_phasors(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sin(x) and cos(x) - 1 of x = theta minus each row's first phase.

    The O(n) sums work on these rather than on the raw phases: identical
    phases give exact zeros, large unwrapped phases cost no digits, and
    cos(x) - 1, taken as -2 sin(x/2)**2, keeps its relative precision
    near synchrony where 1 - cos(x) would be rounding noise.
    """
    shifted = theta - theta[..., :1]
    return np.sin(shifted), -2.0 * np.sin(0.5 * shifted) ** 2


def _sine_sums(theta: np.ndarray) -> np.ndarray:
    """sum_j sin(theta_j - theta_i) along the last axis of a (..., n) array.

    Above PAIRWISE_MAX_N this is c_i * S - s_i * C, with s, c the shifted
    phasors of ``_shifted_phasors`` and S, C their sums.  At and below it
    the sums are pairwise, over ``_row_blocks`` of the flattened leading
    axes, so no temporary exceeds one block; each row is reduced as in
    one pass over all rows, so the floats do not depend on the blocking.
    """
    n = theta.shape[-1]
    if n <= PAIRWISE_MAX_N:
        if theta.size * n <= _BLOCK_FLOATS:  # all rows fit in one block
            # [..., i, j] = theta_j - theta_i
            return np.sin(theta[..., None, :] - theta[..., :, None]).sum(axis=-1)
        flat = theta.reshape(-1, n)
        out = np.empty(flat.shape)
        for rows in _row_blocks(flat.shape[0], n * n):
            block = flat[rows]
            np.sin(block[:, None, :] - block[:, :, None]).sum(axis=-1, out=out[rows])
        return out.reshape(theta.shape)
    s, cos_m1 = _shifted_phasors(theta)
    c = 1.0 + cos_m1
    return c * s.sum(axis=-1, keepdims=True) - s * c.sum(axis=-1, keepdims=True)


def coupling(config: SystemConfig, theta: np.ndarray) -> np.ndarray:
    """All-to-all sine coupling (kappa/n) * sum_j sin(theta_j - theta_i).

    O(n) above ``PAIRWISE_MAX_N`` through the order-parameter identity;
    pairwise at and below it, where that is faster and its rounding is the
    one the paper-size decay fits rest on.
    """
    th = np.asarray(theta, dtype=float)
    return (config.kappa / config.n) * _sine_sums(th)


def rhs(config: SystemConfig, theta: np.ndarray) -> np.ndarray:
    """Phase velocities for the first-order form at the given phases."""
    return config.model.velocity(config.omega + coupling(config, theta))


def _rk4(rates, y: np.ndarray, k1: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of length dt for dy/dt = rates(y), given k1 = rates(y)."""
    k2 = rates(y + 0.5 * dt * k1)
    k3 = rates(y + 0.5 * dt * k2)
    k4 = rates(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Largest count numpy can index; a run of more steps could never finish.
_MAX_INDEX = float(np.iinfo(np.intp).max)


def _step_plan(dt: float, t_final: float) -> tuple[int, float]:
    """Number of full steps plus the closing fractional step (0 if none).

    Raises MemoryError for a step count beyond numpy's index range.
    """
    steps = t_final / dt
    if not steps < _MAX_INDEX:  # also inf, where t_final / dt overflows
        raise MemoryError(f"{steps:.3g} steps")
    n_full = int(math.floor(steps + 1e-9))
    rem = t_final - n_full * dt
    if rem <= 1e-9 * dt:
        rem = 0.0
    return n_full, rem


def _integrate(config: SystemConfig, y0: np.ndarray, rates):
    """RK4 of dy/dt = rates(y) from y0 over the config time grid.

    Records the initial state, every ``record_every``-th step before the
    end, and the final state, each with its rates: the first stage k1 of
    the step that starts from it, and one more evaluation at the final
    state.  Returns (times, states, derivs, err): the recorded times (M,),
    the recorded states and their rates stacked along a new first axis,
    and the DomainError or ConvergenceError that aborted the run (None if
    it reached t_final).  After a failure the arrays hold the states
    recorded before it, each with its rates if they were evaluated and
    NaN rates if not.  Raises MemoryError, before any step, for more
    steps than numpy's index range holds or more recorded rows than numpy
    can allocate.
    """
    n_full, rem = _step_plan(config.dt, config.t_final)
    n_steps = n_full + (rem > 0.0)
    k = config.record_every
    # every step starts from an interior state, and the last one ends the run
    rows = (n_steps - 1) // k + 2
    try:
        times = np.empty(rows)
        states = np.empty(times.shape + y0.shape)
        derivs = np.full(states.shape, np.nan)
    except ValueError as exc:  # a size beyond numpy's index range
        raise MemoryError(f"{rows:.3g} recorded rows") from exc
    row, record_at, y, err = 0, 0, y0, None
    try:
        for step in range(n_steps):
            if step == record_at:
                times[row], states[row] = step * config.dt, y
                row, record_at = row + 1, record_at + k
                k1 = derivs[row - 1] = rates(y)
            else:
                k1 = rates(y)
            y = _rk4(rates, y, k1, config.dt if step < n_full else rem)
        times[row], states[row] = config.t_final, y
        row += 1
        derivs[row - 1] = rates(y)
    except (DomainError, ConvergenceError) as caught:
        err = caught
    return times[:row], states[:row], derivs[:row], err


def _check_initial_phases(config: SystemConfig, theta0) -> np.ndarray:
    th = np.array(theta0, dtype=float).reshape(-1)
    if th.shape != (config.n,):
        raise ValueError(f"theta0 must have length n={config.n}")
    if not np.all(np.isfinite(th)):
        raise ValueError("theta0 entries must be finite")
    return th


def _grid(config: SystemConfig) -> tuple:
    return config.n, config.dt, config.t_final, config.record_every


def _batch_phases(configs: list[SystemConfig], theta0) -> np.ndarray:
    """theta0 as a (B, n) array: one shared (n,) row or one row per config."""
    th = np.array(theta0, dtype=float)
    if th.ndim <= 1:
        return np.tile(_check_initial_phases(configs[0], th), (len(configs), 1))
    if th.shape != (len(configs), configs[0].n):
        raise ValueError(f"theta0 must have shape (n,) or (B, n) = "
                         f"{(len(configs), configs[0].n)}")
    if not np.all(np.isfinite(th)):
        raise ValueError("theta0 entries must be finite")
    return th


def _kind_groups(configs: list[SystemConfig]) -> list[tuple[np.ndarray, FrequencyResponse]]:
    """(rows, stacked response) for each model kind in the batch."""
    rows: dict = {}
    for b, config in enumerate(configs):
        rows.setdefault(config.model.kind, []).append(b)
    return [(np.array(idx), stack_rows([configs[b].model for b in idx]))
            for idx in rows.values()]


def _batch_rates(configs: list[SystemConfig]):
    """Phase velocities of a (B, n) batch: one coupling sum, one velocity call per kind."""
    if len(configs) == 1:
        # one system runs the plain first-order form, which the batched one
        # matches float for float, so single runs keep rhs and coupling
        return lambda y: rhs(configs[0], y)
    omega = np.stack([config.omega for config in configs])
    scale = np.array([[config.kappa / config.n] for config in configs])
    groups = _kind_groups(configs)

    def rates(y):
        drives = omega + scale * _sine_sums(y)
        out = np.empty_like(drives)
        for rows, response in groups:
            out[rows] = response.velocity(drives[rows])
        return out

    return rates


def simulate_batch(configs, theta0) -> list[Trajectory]:
    """Integrate several first-order systems as one (B, n) state.

    The configs must share n, dt, t_final and record_every, so they share
    one step plan and one recording grid; kappa, omega and the model may
    differ per row.  ``theta0`` is one (n,) row for every system or a
    (B, n) array.  Each step evaluates the coupling for the whole batch
    and the velocities once per model kind, with the rows of a kind
    stacked (``models.stack_rows``); every row gets the floats a run of
    its config alone gives.  The recorded states stay in one (M, B, n)
    array and each trajectory's ``thetas`` is a view into it.  If the
    model evaluation fails mid-run the batch stops there and the error
    propagates with the samples recorded so far attached, one partial
    trajectory per system, as ``partial_trajectories``.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("simulate_batch needs at least one config")
    if any(_grid(config) != _grid(configs[0]) for config in configs):
        raise ValueError("batched configs must share n, dt, t_final and record_every")
    th = _batch_phases(configs, theta0)
    times, states, derivs, err = _integrate(configs[0], th, _batch_rates(configs))
    trajs = [Trajectory(config, times, states[:, b], derivs[:, b], partial=err is not None)
             for b, config in enumerate(configs)]
    if err is not None:
        err.partial_trajectories = trajs
        raise err
    return trajs


def simulate(config: SystemConfig, theta0) -> Trajectory:
    """Integrate the first-order form from theta0 over the config time grid.

    A batch of one (``simulate_batch``).  Records every ``record_every``-th
    step plus the initial and final states; a mid-run model failure
    carries the samples recorded so far as ``partial_trajectories``.
    """
    return simulate_batch([config], _check_initial_phases(config, theta0))[0]


# ----------------------------------------------------------------------
# momentum form
# ----------------------------------------------------------------------


def _momentum_coupling(config, theta, v):
    """(kappa/n) * sum_j cos(theta_j - theta_i) * (v_j - v_i) for (n,) rows.

    Pairwise at every n, over ``_row_blocks`` of i once the n x n
    temporaries exceed one block; each row is summed as in one pass, so
    the floats do not depend on the blocking.
    """
    n = theta.shape[0]
    if n * n <= _BLOCK_FLOATS:
        diff = theta[None, :] - theta[:, None]  # [i, j] = theta_j - theta_i
        rel = v[None, :] - v[:, None]           # [i, j] = v_j - v_i
        return (config.kappa / config.n) * (np.cos(diff) * rel).sum(axis=1)
    sums = np.empty(n)
    for rows in _row_blocks(n, n):
        (np.cos(theta[None, :] - theta[rows, None])
         * (v[None, :] - v[rows, None])).sum(axis=1, out=sums[rows])
    return (config.kappa / config.n) * sums


def _check_initial_velocities(config: SystemConfig, thetadot0) -> np.ndarray:
    td = np.array(thetadot0, dtype=float).reshape(-1)
    if td.shape != (config.n,):
        raise ValueError(f"thetadot0 must have length n={config.n}")
    bound = config.model.velocity_bound
    if not np.all(np.isfinite(td)) or np.any(np.abs(td) >= bound):
        raise DomainError(f"initial velocities must satisfy |thetadot| < {bound}")
    return td


def _both_forms_rates(config: SystemConfig, nu: np.ndarray):
    """Derivative of the stacked state y = (theta_m, p, theta_f), shape (3, n).

    One velocity call inverts the momenta p and the first-order drives
    nu + coupling(theta_f) as two stacked rows, each with its own stop test.
    """
    response = stack_rows([config.model, config.model])
    scale = config.kappa / config.n

    def rates(y):
        drives = np.empty((2, config.n))
        drives[0] = y[1]
        drives[1] = nu + scale * _sine_sums(y[2])
        v = response.velocity(drives)
        # a fresh array per call: _rk4 holds k1 to k4 at once
        out = np.empty_like(y)
        out[0] = v[0]
        out[1] = _momentum_coupling(config, y[0], v[0])
        out[2] = v[1]
        return out

    return rates


def simulate_both_forms(config: SystemConfig, theta0,
                        thetadot0) -> tuple[MomentumTrajectory, Trajectory]:
    """Integrate the momentum and first-order forms of one system together.

    The natural frequencies nu_i = F(thetadot_i(0)) - coupling_i(0) are
    induced from the initial data (``config.omega`` is not used) and
    recorded on the momentum result as ``induced_omega``, with its
    per-sample conservation residuals; the first-order result
    runs ``config`` with omega = nu from theta0.  Both forms integrate as
    one (3, n) state on the config's grid, and each gets the floats a run
    of it alone gives: the first-order half equals ``simulate``.  If the
    model evaluation fails mid-run the error propagates with the samples
    recorded so far attached, as the pair ``partial_trajectories``.
    """
    th = _check_initial_phases(config, theta0)
    td = _check_initial_velocities(config, thetadot0)
    p = config.model.momentum(td)
    nu = p - coupling(config, th)
    times, states, derivs, err = _integrate(config, np.stack((th, p, th)),
                                            _both_forms_rates(config, nu))
    thetas, momenta = states[:, 0], states[:, 1]
    residuals = momenta - (config.kappa / config.n) * _sine_sums(thetas) - nu
    momentum = MomentumTrajectory(config, times, thetas, momenta, derivs[:, 0],
                                  residuals, nu, partial=err is not None)
    first = Trajectory(dataclasses.replace(config, omega=nu), times, states[:, 2],
                       derivs[:, 2], partial=err is not None)
    if err is not None:
        err.partial_trajectories = (momentum, first)
        raise err
    return momentum, first


def simulate_momentum(config: SystemConfig, theta0, thetadot0) -> MomentumTrajectory:
    """Integrate the momentum form from consistent initial data.

    The momentum half of ``simulate_both_forms``: ``config.omega`` is not
    used by the flow, the natural frequencies are induced from the initial
    data and recorded on the result, together with the per-sample
    conservation residuals.  A mid-run model failure carries both forms'
    samples recorded so far as ``partial_trajectories``.
    """
    return simulate_both_forms(config, theta0, thetadot0)[0]


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------


def write_trajectory_csv(traj, path) -> None:
    """Write ``t, theta_1..theta_n, thetadot_1..thetadot_n`` at 17 significant digits."""
    n = traj.config.n
    header = ",".join(
        ["t"]
        + [f"theta_{i}" for i in range(1, n + 1)]
        + [f"thetadot_{i}" for i in range(1, n + 1)]
    )
    _write_csv(path, header, [traj.times, traj.thetas, traj.theta_dots])


def _write_csv(path, header: str, columns) -> None:
    """Write ``header`` and the rows of ``columns`` side by side as CSV.

    ``columns`` are (M,) or (M, k) arrays.  The file holds exactly the
    bytes of ``np.savetxt(path, np.column_stack(columns), delimiter=",",
    header=header, comments="", fmt="%.16e")``, but the table is never
    stacked: each ``_row_blocks`` block of ``_OUTPUT_BLOCK_FLOATS`` is
    gathered from slices of the columns and formatted in one ``%`` call.
    """
    cols = [col[:, None] if col.ndim == 1 else col for col in map(np.asarray, columns)]
    width = sum(col.shape[1] for col in cols)
    line = ",".join(["%.16e"] * width) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for rows in _row_blocks(cols[0].shape[0], width, _OUTPUT_BLOCK_FLOATS):
            block = np.concatenate([col[rows] for col in cols], axis=1, dtype=float)
            fh.write(line * len(block) % tuple(block.ravel().tolist()))
