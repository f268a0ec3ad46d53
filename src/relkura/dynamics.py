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
  for the batch per RK4 stage and one velocity call per run of adjacent
  rows of one model kind.  The full kind's Newton solve stops each row on
  its own convergence test, so every system gets exactly the floats a run
  of it alone gives.
* The two forms of one system integrate as one stacked (3, n) state
  (theta_m, p, theta_f) (``simulate_both_forms``; ``simulate_momentum``
  is its momentum half): each RK4 stage inverts the momenta p and the
  first-order drives in one velocity call on two rows, and the per-row
  stop test gives each form the floats a run of it alone gives.
  Only the ODE each form integrates is its own.
* Each recorded state keeps the velocity the integrator computed there:
  the first RK4 stage of the step that starts from it, or one more
  evaluation at the final state.  So recorded velocities equal ``rhs``
  (or ``velocity`` of the momenta) at the recorded states bit for bit,
  and no evaluation follows the integration.
* A model failure at any evaluation, the final one included, propagates
  as it was raised: a run returns complete trajectories or none.
* The integrator (``_integrate``) hands out the recorded rows one
  ``_row_blocks`` block of the whole state at a time, as (times, states,
  derivs); ``simulate``, ``simulate_batch`` and ``simulate_both_forms``
  copy the blocks into preallocated (M, ...) arrays, and the scenario
  runners in ``experiments`` consume them as they come.
* The momentum form's cosine-weighted coupling costs O(n) at every n: it
  splits cos(theta_j - theta_i) into products of per-phase sines and
  cosines, so no n x n array is built.  The first-order sine sums do the
  same through Kuramoto's order-parameter identity, except at and below
  16 oscillators, the paper's n = 10 included, where recorded references
  pin their pairwise rounding.
* Memory: one block of ``_BLOCK_FLOATS`` floats (32 KiB) bounds every
  row-wise pass.  The pairwise sine sums over many rows (the momentum
  residuals over the M recorded states) take the rows in blocks and write
  into one preallocated output, so no pairwise temporary exceeds one
  block; each row is reduced as in one pass over all rows, so the floats
  do not depend on the blocking.  The largest arrays of a ``simulate*``
  call are its results: the recorded states and their rates, M rows
  each.  A streamed run holds one block of them, and the recorded time
  grid (M,).
* Output: one incremental CSV writer (``_csv_header``, then
  ``_csv_rows`` once or once per block of rows) is behind
  ``write_trajectory_csv``, ``write_diagnostics_csv`` and the runners'
  streamed files.  It writes the bytes ``np.savetxt`` writes at
  ``%.16e`` without stacking the table or joining the header whole:
  each ``_row_blocks`` block of rows is gathered once and formatted in
  column chunks of at most ``_BLOCK_FLOATS`` floats.  Only a row wider
  than a block, a trajectory row (2n + 1 floats) from n = 2048, has more
  than one chunk, so the formatting temporaries do not grow with n; the
  one gathered row does (160 KB at n = 10^4).
  The digits come from an error-bounded double-double scaling in numpy
  arithmetic (``_format_rows``), and Python's ``%`` formats every value
  that the bound cannot settle; the ASCII bytes go to the file as they
  are.  A run of more steps than numpy's index range holds, or of more
  recorded rows than numpy can allocate a time grid for, raises
  MemoryError before its first step.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
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

    ``omega`` holds the natural frequencies, one per oscillator, so ``n``
    is its length; ``record_every`` keeps every k-th step in the
    trajectory (the initial and final states are always kept).
    """

    kappa: float
    omega: np.ndarray
    model: FrequencyResponse
    dt: float
    t_final: float
    record_every: int = 1

    def __post_init__(self):
        _check_count("record_every", self.record_every)
        om = _finite_vector("omega", self.omega)
        om.setflags(write=False)
        object.__setattr__(self, "omega", om)
        if not (self.kappa >= 0.0 and math.isfinite(self.kappa)):
            raise ConfigError("kappa", "must be finite and >= 0")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ConfigError("dt", "must be finite and > 0")
        if not (self.t_final >= self.dt and math.isfinite(self.t_final)):
            raise ConfigError("t_final", "must be finite and >= dt")

    @property
    def n(self) -> int:
        """The number of oscillators, ``omega.size``."""
        return self.omega.size


def _check_count(name: str, value) -> None:
    """Raise ConfigError(name) unless ``value`` is an integer >= 1 (a bool is none)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
        raise ConfigError(name, "must be an integer >= 1")


def _finite_vector(name: str, values, n: int | None = None) -> np.ndarray:
    """``values`` as a float vector; ConfigError(name) unless it is one of n finite entries.

    Without ``n``, any number of entries from one up; a scalar is one.
    """
    arr = np.array(values, dtype=float)
    sized = arr.size >= 1 if n is None else arr.size == n
    if arr.ndim > 1 or not sized or not np.all(np.isfinite(arr)):
        count = "at least one" if n is None else f"exactly n={n}"
        raise ConfigError(name, f"must be a vector of {count} finite entries")
    return arr.reshape(-1)


@dataclass(frozen=True)
class Trajectory:
    """Recorded first-order run: times (M,), phases and velocities (M, n).

    Each row of ``theta_dots`` is the velocity the integrator computed at
    that row's phases.
    """

    config: SystemConfig
    times: np.ndarray
    thetas: np.ndarray
    theta_dots: np.ndarray


@dataclass(frozen=True)
class MomentumTrajectory:
    """Recorded momentum-form run.

    ``config.omega`` holds the frequencies nu induced from the initial
    data, and ``residuals`` p_i(t) - coupling_i(t) - nu_i per sample, the
    conservation defect of those frequencies.  ``theta_dots`` holds the
    velocities the integrator computed from the recorded momenta.
    """

    config: SystemConfig
    times: np.ndarray
    thetas: np.ndarray
    momenta: np.ndarray
    theta_dots: np.ndarray
    residuals: np.ndarray


# Largest ensemble whose first-order sine sums are taken pairwise: the O(n)
# identity is about as fast at n = 10, but moves paper-size fits (rms
# residuals by up to 9.4e-6 relative) past the recorded references' 1e-9
# pin.  Must stay >= 10 so paper-size runs keep the pairwise rounding.
PAIRWISE_MAX_N = 16

# Floats in one block of a row-wise pass: the pairwise sine sums over many
# rows, the CSV writer and every series of ``compute_diagnostics`` take
# consecutive rows holding at most this many floats per pass (32 KiB), and
# never fewer than one row.  Large enough that a pass takes several rows of
# n = 1000, each pass costing some 45 numpy calls, and small enough that
# the blocks' temporaries leave the peak RSS flat.
_BLOCK_FLOATS = 1 << 12


def _row_blocks(rows: int, row_floats: int):
    """Slices of consecutive rows covering range(rows), one block each.

    A block holds as many rows of ``row_floats`` floats each as fit in
    ``_BLOCK_FLOATS``, and at least one.
    """
    step = max(1, _BLOCK_FLOATS // row_floats)
    return (slice(start, start + step) for start in range(0, rows, step))


def _sine_sums(theta: np.ndarray) -> np.ndarray:
    """sum_j sin(theta_j - theta_i) along the last axis of a (..., n) array.

    Above PAIRWISE_MAX_N this is c_i * S - s_i * C, with s, c the sine
    and cosine of x = theta minus each row's first phase and S, C their
    sums: identical phases give exact zeros, and large unwrapped phases
    cost no digits.  The cosine is taken directly, since c enters the
    sums whole and a cos(x) - 1 form would lose its extra digits to the
    1 added straight back.  At and below it the sums are pairwise, over
    ``_row_blocks`` of the flattened leading axes, so no temporary
    exceeds one block; each row is reduced as in one pass over all rows,
    so the floats do not depend on the blocking.
    """
    n = theta.shape[-1]
    if n > PAIRWISE_MAX_N:
        shifted = theta - theta[..., :1]
        s, c = np.sin(shifted), np.cos(shifted)
        return c * s.sum(axis=-1, keepdims=True) - s * c.sum(axis=-1, keepdims=True)
    flat = theta.reshape(-1, n)
    out = np.empty(flat.shape)
    for rows in _row_blocks(len(flat), n * n):
        block = flat[rows]
        # [r, i, j] = theta_j - theta_i
        np.sin(block[:, None, :] - block[:, :, None]).sum(axis=-1, out=out[rows])
    return out.reshape(theta.shape)


def coupling(config: SystemConfig, theta: np.ndarray) -> np.ndarray:
    """All-to-all sine coupling (kappa/n) * sum_j sin(theta_j - theta_i).

    O(n) through the order-parameter identity, and pairwise at paper size,
    whose rounding the recorded references pin (see ``_sine_sums``).
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


def _recorded_times(config: SystemConfig) -> np.ndarray:
    """The recorded times (M,): the initial state, every ``record_every``-th step, the end.

    Each interior time is step * dt, computed from the step count and not
    accumulated, and the last is t_final.  Raises MemoryError for more
    steps than numpy's index range holds or more rows than numpy can
    allocate, so every run is refused before its first step.
    """
    n_full, rem = _step_plan(config.dt, config.t_final)
    n_steps = n_full + (rem > 0.0)
    k = min(config.record_every, n_steps)
    # every step starts from an interior state, and the last one ends the run
    rows = (n_steps - 1) // k + 2
    try:
        times = np.empty(rows)
    except ValueError as exc:  # a size beyond numpy's index range
        raise MemoryError(f"{rows:.3g} recorded rows") from exc
    times[:-1] = np.arange(0, n_steps, k)
    times[:-1] *= config.dt
    times[-1] = config.t_final
    return times


def _integrate(config: SystemConfig, times: np.ndarray, y0: np.ndarray, rates):
    """RK4 of dy/dt = rates(y) from y0 over the config time grid, a block of rows at a time.

    ``times`` is the grid's ``_recorded_times``.  Records the initial
    state, every ``record_every``-th step before the end, and the final
    state, each with its rates: the first stage k1 of the step that starts
    from it, and one more evaluation at the final state.  Yields
    (times, states, derivs) for each ``_row_blocks`` block of recorded
    rows of y0.size floats: the block's times, a view of ``times``, and its
    states and rates stacked along a new first axis, fresh arrays that the
    consumer may keep.  A failure of ``rates`` propagates; numpy's overflow
    and invalid-value warnings are silenced while stepping (not while the
    consumer holds a block), so an inf or NaN state reaches ``rates``,
    whose drive check raises DomainError.
    """
    n_full, rem = _step_plan(config.dt, config.t_final)
    n_steps = n_full + (rem > 0.0)
    step, y = 0, y0
    for rows in _row_blocks(times.size, y0.size):
        block = times[rows]
        states = np.empty(block.shape + y0.shape)
        derivs = np.empty(states.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            for row in range(block.size):
                states[row] = y
                k1 = derivs[row] = rates(y)
                # the steps up to the next recorded row; none after the final state
                stop = min(step + config.record_every, n_steps)
                while step < stop:
                    y = _rk4(rates, y, k1, config.dt if step < n_full else rem)
                    step += 1
                    if step < stop:
                        k1 = rates(y)
        yield block, states, derivs


def _collect(times: np.ndarray, y0: np.ndarray, blocks) -> tuple[np.ndarray, np.ndarray]:
    """The states and rates of ``blocks``, copied into two preallocated (M, *y0.shape) arrays.

    Both arrays are allocated before the first block is taken, so a run
    too large for them raises MemoryError before its first step.
    """
    try:
        states = np.empty(times.shape + y0.shape)
        derivs = np.empty(states.shape)
    except ValueError as exc:  # a size beyond numpy's index range
        raise MemoryError(f"{times.size:.3g} recorded rows") from exc
    start = 0
    for block, block_states, block_derivs in blocks:
        stop = start + block.size
        states[start:stop], derivs[start:stop] = block_states, block_derivs
        start = stop
    return states, derivs


def _batch_phases(configs: list[SystemConfig], theta0) -> np.ndarray:
    """theta0 as a (B, n) array: one shared (n,) row or one row per config."""
    th, shape = np.array(theta0, dtype=float), (len(configs), configs[0].n)
    if th.ndim <= 1:
        return np.tile(_finite_vector("theta0", th, shape[1]), (shape[0], 1))
    if th.shape != shape or not np.all(np.isfinite(th)):
        raise ConfigError("theta0", f"must be finite, of shape (n,) or (B, n) = {shape}")
    return th


def _kind_groups(configs: list[SystemConfig]) -> list[tuple[slice, FrequencyResponse]]:
    """(rows, stacked response) per run of adjacent rows of one kind, as a slice (a view)."""
    groups, start = [], 0
    for _, run in itertools.groupby(configs, key=lambda config: config.model.kind):
        models = [config.model for config in run]
        groups.append((slice(start, start + len(models)), stack_rows(models)))
        start += len(models)
    return groups


def _batch_rates(configs: list[SystemConfig]):
    """Phase velocities of a (B, n) batch: one coupling sum, one velocity call per kind run."""
    omega = np.stack([config.omega for config in configs])
    scale = np.array([[config.kappa / config.n] for config in configs])
    groups = _kind_groups(configs)

    def rates(y):
        out = omega + scale * _sine_sums(y)  # the drives, mapped in place run by run
        for rows, response in groups:
            out[rows] = response.velocity(out[rows])
        return out

    return rates


def _batch_blocks(configs: list[SystemConfig], theta0):
    """A checked batch's recorded times, its (B, n) initial state and that state's blocks.

    The blocks are ``_integrate``'s generator: nothing is integrated until
    the first is taken.
    """
    if not configs:
        raise ConfigError("configs", "simulate_batch needs at least one config")
    if len({(config.n, config.dt, config.t_final, config.record_every) for config in configs}) > 1:
        raise ConfigError("configs", "batched configs must share n, dt, t_final and record_every")
    th = _batch_phases(configs, theta0)
    times = _recorded_times(configs[0])
    return times, th, _integrate(configs[0], times, th, _batch_rates(configs))


def simulate_batch(configs, theta0) -> list[Trajectory]:
    """Integrate several first-order systems as one (B, n) state.

    The configs must share n, dt, t_final and record_every, so they share
    one step plan and one recording grid; kappa, omega and the model may
    differ per row.  ``theta0`` is one (n,) row for every system or a
    (B, n) array.  Each step evaluates the coupling for the whole batch
    and the velocities once per run of adjacent rows of one model kind,
    with the rows of a run stacked (``models.stack_rows``); each row is one system to that call,
    so it gets the floats a run of its config alone gives.  The recorded
    states stay in one (M, B, n) array and each trajectory's ``thetas``
    is a view into it.  A model failure mid-run propagates and no
    trajectory is returned.
    """
    configs = list(configs)
    times, th, blocks = _batch_blocks(configs, theta0)
    states, derivs = _collect(times, th, blocks)
    return [Trajectory(config, times, states[:, b], derivs[:, b])
            for b, config in enumerate(configs)]


def simulate(config: SystemConfig, theta0) -> Trajectory:
    """Integrate the first-order form from theta0 over the config time grid.

    A batch of one, on the path of every batch (``simulate_batch``).
    Records every ``record_every``-th step plus the initial and final
    states; a mid-run model failure propagates.
    """
    return simulate_batch([config], theta0)[0]


# ----------------------------------------------------------------------
# momentum form
# ----------------------------------------------------------------------


def _momentum_coupling(config, theta, v):
    """(kappa/n) * sum_j cos(theta_j - theta_i) * (v_j - v_i) for (n,) rows.

    O(n) at every n: the cosine of a difference splits into
    c_i * c_j + s_i * s_j, with s, c the sine and cosine of
    x = theta - theta_0, so the sum is
    c_i * (c . w) + s_i * (s . w) - w_i * (c_i * C + s_i * S), with
    w = v - v_0 and S, C the sums of s and c: large unwrapped phases cost
    no digits, and equal velocities give exact zeros.
    """
    shifted, w = theta - theta[0], v - v[0]
    s, c = np.sin(shifted), np.cos(shifted)
    return (config.kappa / config.n) * (c * (c @ w) + s * (s @ w)
                                        - w * (c * c.sum() + s * s.sum()))


def _both_forms_rates(config: SystemConfig):
    """Derivative of the stacked state y = (theta_m, p, theta_f), shape (3, n).

    One velocity call inverts the momenta p and the first-order drives
    omega + coupling(theta_f) as two rows, each its own system to the call.
    """
    nu, scale = config.omega, config.kappa / config.n

    def rates(y):
        drives = np.empty((2, nu.size))
        drives[0] = y[1]
        drives[1] = nu + scale * _sine_sums(y[2])
        v = config.model.velocity(drives)
        # a fresh array per call: _rk4 holds k1 to k4 at once
        out = np.empty_like(y)
        out[0] = v[0]
        out[1] = _momentum_coupling(config, y[0], v[0])
        out[2] = v[1]
        return out

    return rates


def _momentum_residuals(config: SystemConfig, thetas: np.ndarray, momenta: np.ndarray):
    """p_i - coupling_i - nu_i at each recorded row, nu = ``config.omega``; each row alone."""
    return momenta - (config.kappa / config.n) * _sine_sums(thetas) - config.omega


def _both_forms_blocks(config: SystemConfig, theta0, thetadot0):
    """The system that ran, its recorded times, its (3, n) initial state and that state's blocks.

    The state is (theta_m, p, theta_f), and the system that ran holds the
    frequencies nu induced from the initial data; the blocks are a
    generator, as in ``_batch_blocks``.
    """
    th = _finite_vector("theta0", theta0, config.n)
    p = config.model.momentum(_finite_vector("thetadot0", thetadot0, config.n))
    ran = dataclasses.replace(config, omega=p - coupling(config, th))
    times, y0 = _recorded_times(ran), np.stack((th, p, th))
    return ran, times, y0, _integrate(ran, times, y0, _both_forms_rates(ran))


def simulate_both_forms(config: SystemConfig, theta0,
                        thetadot0) -> tuple[MomentumTrajectory, Trajectory]:
    """Integrate the momentum and first-order forms of one system together.

    The natural frequencies nu_i = F(thetadot_i(0)) - coupling_i(0) are
    induced from the initial data, whose velocities ``momentum`` rejects
    outside the model's bound; ``config.omega`` is not used.  Both results
    carry the system that ran, ``config`` with omega = nu, and the
    momentum result its per-sample conservation residuals.  The forms
    integrate as one (3, n) state on the config's grid, and each gets the
    floats a run of it alone gives: the first-order half equals
    ``simulate``.  A model failure mid-run propagates and neither result
    is returned.
    """
    ran, times, y0, blocks = _both_forms_blocks(config, theta0, thetadot0)
    states, derivs = _collect(times, y0, blocks)
    thetas, momenta = states[:, 0], states[:, 1]
    return (MomentumTrajectory(ran, times, thetas, momenta, derivs[:, 0],
                               _momentum_residuals(ran, thetas, momenta)),
            Trajectory(ran, times, states[:, 2], derivs[:, 2]))


def simulate_momentum(config: SystemConfig, theta0, thetadot0) -> MomentumTrajectory:
    """Integrate the momentum form from consistent initial data.

    The momentum half of ``simulate_both_forms``: ``config.omega`` is not
    used by the flow; the result's config holds the natural frequencies
    induced from the initial data, and the result the per-sample
    conservation residuals.  A mid-run model failure propagates.
    """
    return simulate_both_forms(config, theta0, thetadot0)[0]


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------


def _trajectory_csv(fh, n: int):
    """Start a trajectory CSV on the binary file ``fh``; return its row appender.

    Writes the header ``t, theta_1..theta_n, thetadot_1..thetadot_n``.
    The appender takes (times, thetas, theta_dots), (k,), (k, n) and (k, n)
    arrays, and writes their k rows at 17 significant digits.
    """
    _csv_header(fh, itertools.chain(["t"], (f"theta_{i}" for i in range(1, n + 1)),
                                    (f"thetadot_{i}" for i in range(1, n + 1))))
    return lambda times, thetas, theta_dots: _csv_rows(fh, [times, thetas, theta_dots])


def write_trajectory_csv(traj, path) -> None:
    """Write ``t, theta_1..theta_n, thetadot_1..thetadot_n`` at 17 significant digits."""
    with open(path, "wb") as fh:
        _trajectory_csv(fh, traj.config.n)(traj.times, traj.thetas, traj.theta_dots)


def _write_csv(path, names, columns) -> None:
    """Write the column ``names`` and the rows of ``columns`` side by side as CSV.

    The file holds exactly the bytes of ``np.savetxt(path,
    np.column_stack(columns), delimiter=",", header=",".join(names),
    comments="", fmt="%.16e")``: ``_csv_header`` then ``_csv_rows``.
    """
    with open(path, "wb") as fh:
        _csv_header(fh, names)
        _csv_rows(fh, columns)


def _csv_header(fh, names) -> None:
    """Write the column ``names`` as a CSV header line, joined a block at a time."""
    names = iter(names)
    fh.write(",".join(itertools.islice(names, _BLOCK_FLOATS)).encode())
    while batch := ",".join(itertools.islice(names, _BLOCK_FLOATS)):
        fh.write(b"," + batch.encode())
    fh.write(b"\n")


def _csv_rows(fh, columns) -> None:
    """Append the rows of ``columns``, (M,) or (M, k) arrays, side by side as CSV lines.

    The one writer of both CSV kinds, whole or a block of rows per call:
    each value's text does not depend on its neighbours, so rows appended
    in any blocks give the bytes of one call on all of them.  Each
    ``_row_blocks`` block of rows is gathered once from the columns and
    formatted by ``_format_rows`` in column chunks of ``_BLOCK_FLOATS``,
    with the newline after the last; only a row wider than a block has
    more than one chunk.
    """
    cols = [col[:, None] if col.ndim == 1 else col for col in map(np.asarray, columns)]
    width = sum(col.shape[1] for col in cols)
    for rows in _row_blocks(cols[0].shape[0], width):
        block = np.concatenate([col[rows] for col in cols], axis=1, dtype=float)
        for start in range(0, width, _BLOCK_FLOATS):
            stop = start + _BLOCK_FLOATS
            fh.write(_format_rows(block[:, start:stop], newline=stop >= width))


def _split(x):
    """Veltkamp's split of x into halves of 26 bits each, hi + lo == x."""
    t = x * 134217729.0  # 2^27 + 1
    hi = t - (t - x)
    return hi, x - hi


def _pow10_tables():
    """10^k correctly rounded, its split halves and its correctly rounded remainder.

    For k in [-99, 115]: the exponent comparison reaches 10^99 and the
    scaling of the smallest formatted value 10^115.  Python's int true
    division rounds correctly, and the remainder is exact before its one
    rounding.
    """
    pows, rems = [], []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        pow10 = num / den
        n, d = pow10.as_integer_ratio()
        pows.append(pow10)
        rems.append((num * d - n * den) / (den * d))
    pows = np.array(pows)
    return (pows, *_split(pows), np.array(rems))


_POW10_MIN, _POW10_MAX = -99, 115
_POW10, _POW10_HI, _POW10_LO, _POW10_REM = _pow10_tables()
# Little-endian words of four ASCII bytes: "%04d" % k at index k < 10^4,
# and "e%+03d" % E at index E + 99 for |E| <= 99.
_DIGIT_WORDS = np.frombuffer(("%04d" * 10_000 % tuple(range(10_000))).encode(), "<u4")
_EXPONENT_WORDS = np.frombuffer(("e%+03d" * 199 % tuple(range(-99, 100))).encode(), "<u4")
# A value's 28-byte slot: [pad, sign, lead digit, "."], four words of
# digits, the exponent word, [pad, pad, pad, separator].  Spaces pad, and
# "%27.16e" right-aligns any float's text (at most 24 characters) in the
# slot's first 27 bytes.
_PLUS_WORD, _MINUS_WORD = np.uint32(0x2E302020), np.uint32(0x2E302D20)
_COMMA_WORD, _NEWLINE_WORD = np.uint32(0x2C202020), np.uint32(0x0A202020)


def _significands(x: np.ndarray):
    """17-digit decimal significands D and exponents E of |x|, and where they are exact.

    A finite x with 1e-99 <= |x| < 1e99 prints at ``%.16e`` as
    D = round(|x| * 10^s), s = 16 - E, with E its decimal exponent.  E
    comes from x's binary exponent and one comparison with 10^(E + 1).
    10^s is _POW10 + _POW10_REM to about 2^-106 relative, and |x| * _POW10
    is Dekker's exact product p + e, where p is an integer-valued double
    (>= 2^53 when E is right).  So r = e + |x| * _POW10_REM is within
    1e-14 of the exact |x| * 10^s - p, and D = p + floor(r), plus one
    when frac(r) > 1/2, is exact unless frac(r) lies within 1e-6 of 1/2.
    A floor(r) off by one at an integer moves neither the rounding nor D.
    Not exact: zeros, nan, inf, three-digit exponents, a wrong E (the
    floor of the exact product outside [10^16, 10^17)), a D that carries
    to 10^17 and the near-ties.
    """
    a = np.abs(x)
    exact = (a >= 1e-99) & (a < 1e99)
    a = np.where(exact, a, 1.0)
    # floor(e * log10(2)) for the binary exponent e of |x|, in [-330, 330]
    exp10 = (((a.view(np.int64) >> 52) - 1023) * 78913) >> 18
    exp10 += a >= _POW10[exp10 + 1 - _POW10_MIN]
    k = 16 - exp10 - _POW10_MIN
    p = a * _POW10[k]
    a_hi, a_lo = _split(a)
    s_hi, s_lo = _POW10_HI[k], _POW10_LO[k]
    r = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo + a * _POW10_REM[k]
    whole = np.floor(r)
    frac = r - whole
    digits = p.astype(np.int64) + whole.astype(np.int64)
    exact &= (digits >= 10**16) & (np.abs(frac - 0.5) > 1e-6)
    digits += frac > 0.5
    exact &= digits < 10**17
    return digits, exp10, exact


def _format_rows(block: np.ndarray, newline: bool = True) -> bytes:
    """The rows of a 2-D ``block`` as ASCII CSV lines, byte for byte ``"%.16e"``.

    Each value fills a 28-byte slot of space-padded ASCII, from the digit
    tables where ``_significands`` is exact and from one ``%`` call per
    block elsewhere; dropping the spaces leaves the text.  Without
    ``newline`` every value, the last of each row included, ends in a
    comma: the block is a leading chunk of longer rows.
    """
    x = block.ravel()
    digits, exp10, exact = _significands(x)
    # Scalar divisors only: numpy divides by a scalar far faster.
    high = digits // 10**8
    lead = high // 10**8
    eights = np.stack([high - lead * 10**8, digits - high * 10**8], axis=1)
    fours = eights // 10_000
    words = np.empty((x.size, 7), "<u4")
    words[:, 0] = np.where(np.signbit(x), _MINUS_WORD, _PLUS_WORD) + (lead.astype("<u4") << 16)
    words[:, 1:5] = _DIGIT_WORDS[np.stack([fours, eights - fours * 10_000], axis=2).reshape(-1, 4)]
    words[:, 5] = _EXPONENT_WORDS[exp10 + 99]
    words[:, 6] = _COMMA_WORD
    if newline:
        words[block.shape[1] - 1::block.shape[1], 6] = _NEWLINE_WORD
    chars = words.view(np.uint8)
    slow = np.flatnonzero(~exact)
    if slow.size:
        text = ("%27.16e" * slow.size) % tuple(x[slow].tolist())
        chars[slow, :27] = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 27)
    return chars[chars != 32].tobytes()
