"""Velocity-to-drive response functions for the coupled-oscillator family.

Every model in this package is defined by an odd, strictly increasing,
continuously differentiable response F that maps an oscillator's angular
velocity to the drive it balances, together with the inverse map G used
to turn the implicit equation of motion into an explicit one.  Four kinds
are provided:

* ``classical``       -- identity response, unbounded velocities.
* ``relativistic``    -- full response ``w * gamma * (1 + gamma/c**2)``
                         with ``gamma = 1/sqrt(1 - w**2/c**2)``.
* ``proper-velocity`` -- ``w * gamma``.
* ``rapidity``        -- ``c * atanh(w/c)``.

The three bounded kinds are defined on the open interval (-c, c) and map
onto the whole real line, so the inverse is total: any finite drive has a
unique subluminal velocity.  ``proper-velocity`` and ``rapidity`` invert
in closed form; the full response has no closed-form inverse and is
solved by a bracketed Newton iteration with a bisection safeguard.  The
closed-form proper-velocity inverse bounds the full inverse from above,
which gives a finite bracket that never needs to be widened, so the
bracket test alone rejects a non-finite Newton step, and a bisection
midpoint is formed only in a round where some step falls back.
Every row of the last axis of a drive is one system: the full kind's
solve stops each row on its own test, so a row gets the floats a call on
it alone gives.  ``stack_rows`` stacks responses of one kind with
distinct bounds so that one ``velocity`` call maps a batch of systems,
one per row, each with its own bound.

The Newton round works on a few rows of n = 10 drives, where its cost is
numpy call overhead rather than arithmetic, so it is kept cheap without
changing a float:

* Each response prepares its bounds once, when it is made: ``(c, c**3,
  c*c, cap)`` with cap one ulp below c, as 0-d float64 arrays, or (B, 1)
  columns for a stack of distinct bounds.  The solve and the clamps of
  the closed forms read them instead of recomputing them per call.
* The round's constants are 0-d arrays too: numpy converts a Python
  float operand on every ufunc call, and takes an array one faster.
* The per-row stop tests run only once at least one row's width of steps
  is within the tolerance, and the bracket test is one count; early
  rounds, in which no row can stop, skip the reductions.

Numerical notes baked into this module:

* The forward response F and its slope F' take one form at every bound,
  in u = |w|/c, d = (c - |w|)/c and s = 1 - u**2 = d * (1 + u)
  (``_span_ratio``).  c - |w| is exact next to the bound, so s keeps its
  relative digits up to the last float below c, and no power of c is
  formed: F and F' are within a few ulps, or read 0 or inf where the
  value under- or overflows, for every bound from 1e-300 to 1e300.  The
  one gap is the full kind's F at a subnormal speed under a bound below
  1, where w/c is rounded to the subnormal grid before the second 1/c.
* The Newton solve keeps its unscaled forms, with ``gamma`` as
  ``1/sqrt((1 - w/c) * (1 + w/c))``, which is exactly even.
* The proper-velocity inverse is ``c*y/hypot(y, c)``, which cannot
  overflow for any finite drive.
* All evaluators accept scalars or numpy arrays, return the same shape,
  and are pure functions of immutable state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError, DomainError

__all__ = [
    "ModelKind",
    "FrequencyResponse",
    "AdmissibilityReport",
    "classical",
    "relativistic",
    "proper_velocity",
    "rapidity",
]

# Inversion of the full relativistic response: absolute tolerance on the
# velocity iterate, and a step budget that covers the pure-bisection worst
# case (bracket width c halves each round) with a wide margin.  Near c a
# Newton step is about as large as the remaining gap c - w, so a step
# below INVERSION_TOL alone does not mean convergence there: the last
# step must also be at most INVERSION_GAP_FRACTION of that gap.
INVERSION_TOL = 1e-12
INVERSION_GAP_FRACTION = 1e-6
INVERSION_MAX_ITER = 200

# Bounds of check_admissibility: the oddness residual relative to
# max(1, |F(w)|) and the G(F(w)) = w round-trip residual relative to
# max(1, |w|), so that large bounds are held to their floats' precision.
ADMISSIBILITY_ODDNESS_TOL = 1e-12
ADMISSIBILITY_ROUNDTRIP_TOL = 1e-10


class ModelKind(enum.Enum):
    """Response-function selector.  Values are the config-file spellings."""

    CLASSICAL = "classical"
    RELATIVISTIC = "relativistic"
    PROPER_VELOCITY = "proper-velocity"
    RAPIDITY = "rapidity"


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of structural sampling checks on a response function.

    ``oddness_residual`` is max |F(-w) + F(w)| / max(1, |F(w)|) over the
    grid; ``roundtrip_residual`` is max |G(F(w)) - w| / max(1, |w|).  The
    scenario ``run_admissibility`` decides them against
    ADMISSIBILITY_*_TOL.
    """

    kind: str
    c: float | None
    samples: int
    oddness_residual: float
    strictly_increasing: bool
    roundtrip_residual: float


def _prepare(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _finish(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


# Constants of the Newton round as 0-d float64 arrays: numpy takes an
# array operand faster than a Python float, which it converts on every
# ufunc call, and the floats are the same.  The exponent 1.5 stays a
# Python float: a numpy scalar base raised to it takes the C library's
# pow, which can round unlike numpy's array power, and scalar calls of
# the forward slope must keep that rounding.
_ZERO = np.array(0.0)
_HALF = np.array(0.5)
_ONE = np.array(1.0)


def _prepared_bounds(c: float) -> tuple:
    """(c, c**3, c*c, cap) of a bound as 0-d float64 arrays; cap = nextafter(c, 0).

    The cube is Python's pow: numpy's array power can differ from it in
    the last ulp.  It overflows above c ~ 5.6e102, a bound the closed
    forms take, and is then inf, as the square is.
    """
    try:
        c_cubed = c**3
    except OverflowError:
        c_cubed = math.inf
    return tuple(np.array(v) for v in (c, c_cubed, c * c, np.nextafter(c, 0.0)))


def _span_ratio(w: np.ndarray, c) -> tuple:
    """u = |w|/c, d = (c - |w|)/c and s = 1 - u**2 = d * (1 + u) of speeds below c.

    c - |w| is exact where |w| >= c/2 (Sterbenz), so s keeps its relative
    digits up to the last float below c, and no power of c is formed: a
    form built on u, d and s over- or underflows only where its value does.
    """
    speed = np.abs(w)
    u = speed / c
    d = (c - speed) / c
    return u, d, d * (_ONE + u)


def _lorentz(w: np.ndarray, c) -> np.ndarray:
    u = w / c
    return _ONE / np.sqrt((_ONE - u) * (_ONE + u))


def _full_momentum(w: np.ndarray, c, c_sq) -> np.ndarray:
    """Full response w * gamma * (1 + gamma/c**2); ``c_sq`` is c * c."""
    g = _lorentz(w, c)
    return w * g * (_ONE + g / c_sq)


def _full_momentum_slope(w: np.ndarray, c, c_sq, c_cubed) -> np.ndarray:
    span = (c - w) * (c + w)  # c**2 - w**2 without cancellation near |w| ~ c
    return c_cubed / span**1.5 + (c_sq + w * w) / (span * span)


def _solve_full(target: np.ndarray, c, c_cubed, c_sq, cap) -> np.ndarray:
    """Safeguarded Newton solve of F(w) = target >= 0 for the full response.

    ``target`` is (R, m), one system per row; the bounds are a response's
    prepared ``(c, c**3, c*c, cap)``: 0-d arrays (every row shares the
    bound) or (R, 1) columns.  The proper-velocity inverse gives the upper
    bracket end (F_full >= F_pv on [0, c)), clamped to ``cap``, one ulp
    below c, so the strict range bound survives even when the true root
    is within rounding of c.  The bracket ends start finite and only ever
    move to accepted iterates, so a Newton step that is NaN or infinite
    fails the bracket test like one that leaves the bracket; those fall
    back to bisection, and the midpoints are formed only in rounds that
    need one.  A row stops when every last step in it is within
    INVERSION_TOL and within INVERSION_GAP_FRACTION of its gap to c; its
    iterate is then frozen and later rounds run on the other rows only,
    so a row gets the same floats whether it is solved alone or with
    others.  The per-row tests run only once at least one row's width of
    steps is within INVERSION_TOL, which no early round reaches, and the
    output array is made only when rows stop in different rounds.
    """
    hi = np.minimum(c * (target / np.hypot(target, c)), cap)
    lo = np.zeros(hi.shape)
    w = hi.copy()  # lo and hi are updated in place, so w must not share them
    width = w.shape[1]
    out = rows = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(INVERSION_MAX_ITER):
            resid = _full_momentum(w, c, c_sq) - target
            np.copyto(lo, w, where=resid < _ZERO)
            np.copyto(hi, w, where=resid > _ZERO)
            proposal = w - resid / _full_momentum_slope(w, c, c_sq, c_cubed)
            inside = (proposal > lo) & (proposal < hi)
            if np.count_nonzero(inside) != inside.size:
                proposal = np.where(inside, proposal, _HALF * (lo + hi))
            step = np.abs(proposal - w)
            w = proposal
            ok = step <= INVERSION_TOL
            if np.count_nonzero(ok) < width:
                continue  # no row has every step within the tolerance
            done = np.logical_and.reduce(ok, axis=1)
            done &= np.logical_and.reduce(step <= INVERSION_GAP_FRACTION * (c - w), axis=1)
            stopped = np.count_nonzero(done)
            if stopped == 0:
                continue
            if out is None:
                if stopped == len(w):
                    return w
                out = np.empty_like(w)
                rows = np.arange(len(w))
            out[rows[done]] = w[done]
            if stopped == len(w):
                return out
            keep = ~done
            rows, w, lo, hi, target = rows[keep], w[keep], lo[keep], hi[keep], target[keep]
            if c.ndim:
                c, c_cubed, c_sq = c[keep], c_cubed[keep], c_sq[keep]
    raise ConvergenceError(
        f"drive inversion did not reach {INVERSION_TOL} within "
        f"{INVERSION_MAX_ITER} iterations"
    )


@dataclass(frozen=True)
class FrequencyResponse:
    """One member of the drive-response family.

    Parameters
    ----------
    kind:
        Which response function to use.
    c:
        Velocity bound for the three bounded kinds; ignored by
        ``classical``.  Must be finite and positive wherever it is given.
    """

    kind: ModelKind
    c: float | None = None

    def __post_init__(self):
        if self.c is None and self.kind is ModelKind.CLASSICAL:
            return
        # a c given to the classical kind is checked too, though it is ignored
        if self.c is None or not math.isfinite(self.c) or self.c <= 0.0:
            raise ConfigError("c", f"must be finite and > 0 (model kind {self.kind.value!r})")
        if self.kind is ModelKind.CLASSICAL:
            return
        c = float(self.c)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "_bounds", _prepared_bounds(c))

    @classmethod
    def from_name(cls, name: str, c: float | None = None) -> "FrequencyResponse":
        """Build a response from its serialized kind string.

        A given ``c`` is checked for every kind; the classical one drops it.
        """
        try:
            kind = ModelKind(name)
        except ValueError:
            valid = ", ".join(k.value for k in ModelKind)
            raise ConfigError("model", f"unknown model kind {name!r} (expected one of: {valid})")
        response = cls(kind, c)
        return cls(kind) if kind is ModelKind.CLASSICAL else response

    @property
    def velocity_bound(self) -> float:
        """Largest admissible |velocity|: c for bounded kinds, inf for classical."""
        return math.inf if self.kind is ModelKind.CLASSICAL else self.c

    # ------------------------------------------------------------------
    # forward response F and its derivative
    # ------------------------------------------------------------------

    def momentum(self, omega):
        """Drive (momentum-like variable) carried by velocity ``omega``.

        Accepts scalars or arrays.  Raises DomainError unless every entry
        satisfies |omega| < velocity_bound strictly.
        """
        w, scalar = _prepare(omega)
        self._require_subluminal(w)
        return _finish(self._momentum_unchecked(w), scalar)

    def momentum_slope(self, omega):
        """Derivative of the drive with respect to velocity; positive on the domain."""
        w, scalar = _prepare(omega)
        self._require_subluminal(w)
        return _finish(self._momentum_slope_unchecked(w), scalar)

    def _require_subluminal(self, w: np.ndarray) -> None:
        if not np.all(np.isfinite(w)) or np.any(np.abs(w) >= self.velocity_bound):
            raise DomainError(
                f"velocity must be finite with |velocity| < {self.velocity_bound}"
                f" for kind {self.kind.value!r}"
            )

    def _momentum_unchecked(self, w: np.ndarray) -> np.ndarray:
        kind = self.kind
        if kind is ModelKind.CLASSICAL:
            return w + 0.0
        c = self._bounds[0]
        u, d, s = _span_ratio(w, c)
        if kind is ModelKind.RAPIDITY:
            # c atanh(u) = w (log1p(x)/x) / d with x = 2u/d: a subnormal u costs no digits
            x = (u + u) / d
            ratio = np.divide(np.log1p(x), x, out=np.ones_like(x), where=x > _ZERO)
            return w * (ratio / d)
        g = _ONE / np.sqrt(s)
        if kind is ModelKind.PROPER_VELOCITY:
            return w * g
        # divided by c twice, the gamma/c**2 term overflows only where F does
        with np.errstate(over="ignore"):
            return w * g + (w / c) * g * (g / c)

    def _momentum_slope_unchecked(self, w: np.ndarray) -> np.ndarray:
        kind = self.kind
        if kind is ModelKind.CLASSICAL:
            return np.ones_like(w)
        c = self._bounds[0]
        u, _, s = _span_ratio(w, c)
        if kind is ModelKind.RAPIDITY:
            return _ONE / s
        slope = s**-1.5
        if kind is ModelKind.PROPER_VELOCITY:
            return slope
        # divided by c twice, the last term overflows only where the slope does
        with np.errstate(over="ignore"):
            return slope + (_ONE + u * u) / (s * s) / c / c

    # ------------------------------------------------------------------
    # inverse response G and its derivative
    # ------------------------------------------------------------------

    def velocity(self, drive):
        """Unique velocity whose drive equals ``drive``.

        Total on the reals for every kind; the result satisfies
        |velocity| < velocity_bound strictly.  Each row of the last axis
        is one system and gets the floats a call on it alone gives.  Raises
        DomainError for non-finite input and ConvergenceError if the
        full-response solve exhausts its iteration budget (not observed in
        practice).
        """
        y, scalar = _prepare(drive)
        if np.count_nonzero(np.isfinite(y)) != y.size:
            raise DomainError("drive must be finite")
        kind = self.kind
        if kind is ModelKind.CLASSICAL:
            out = y + 0.0
        elif kind is ModelKind.PROPER_VELOCITY:
            c = self._bounds[0]
            out = self._clamp_subluminal(c * (y / np.hypot(y, c)))
        elif kind is ModelKind.RAPIDITY:
            c = self._bounds[0]
            out = self._clamp_subluminal(c * np.tanh(y / c))
        else:
            out = self._invert_full(y)
        return _finish(out, scalar)

    def _clamp_subluminal(self, w: np.ndarray) -> np.ndarray:
        # The closed forms round to exactly c once the drive exceeds the
        # resolution of the bound (y ~ 1e8 * c and beyond); pin them one
        # ulp inside so |G(y)| < c holds for every finite drive and the
        # result always composes with the forward response.  (minimum and
        # maximum give np.clip's floats for these finite values at half
        # its per-call cost.)
        cap = self._bounds[3]
        return np.minimum(np.maximum(w, -cap), cap)

    def velocity_slope(self, drive):
        """Derivative of ``velocity`` with respect to the drive.

        Equal to 1/F'(G(drive)); strictly positive, even in the drive,
        and maximal at zero.  At drive 0 this is 1 for the classical,
        proper-velocity and rapidity kinds and c**2/(c**2 + 1) for the
        full relativistic kind (whose slope at rest is 1 + 1/c**2).  Rows
        of the last axis are systems, as for ``velocity``.
        """
        y, scalar = _prepare(drive)
        if np.count_nonzero(np.isfinite(y)) != y.size:
            raise DomainError("drive must be finite")
        kind = self.kind
        if kind is ModelKind.CLASSICAL:
            out = np.ones_like(y)
        elif kind is ModelKind.PROPER_VELOCITY:
            out = (self.c / np.hypot(y, self.c)) ** 3
        elif kind is ModelKind.RAPIDITY:
            # sech(u)**2 via exponentials of -|u| only, so large drives
            # underflow to zero instead of overflowing cosh.
            u = np.abs(y) / self.c
            e = np.exp(-u)
            sech = 2.0 * e / (1.0 + e * e)
            out = sech * sech
        else:
            out = 1.0 / self._momentum_slope_unchecked(self._invert_full(y))
        return _finish(out, scalar)

    def _invert_full(self, y: np.ndarray) -> np.ndarray:
        """Full-response inverse through ``_solve_full``.

        Works on |y| and restores the sign afterwards, which makes the
        inverse exactly odd.  Each row of the last axis is one system with
        its own stop test, and a 0-d drive is one row of one entry.
        """
        if y.size == 0:  # no rows to solve, or rows of no entries
            return y.copy()
        w = _solve_full(np.abs(y).reshape(-1, y.shape[-1] if y.ndim else 1), *self._bounds)
        return np.sign(y) * w.reshape(y.shape)

    # ------------------------------------------------------------------
    # interval minimum of the inverse slope
    # ------------------------------------------------------------------

    def min_velocity_slope(self, lo: float, hi: float) -> float:
        """Minimum of ``velocity_slope`` over the drive interval [lo, hi].

        The slope is even and unimodal with its maximum at zero, so the
        minimum sits at the endpoint of larger magnitude; that endpoint
        evaluation is the implementation.
        """
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise DomainError("min_velocity_slope needs a finite interval with lo <= hi")
        endpoint = lo if abs(lo) >= abs(hi) else hi
        return self.velocity_slope(endpoint)

    # ------------------------------------------------------------------
    # structural checks
    # ------------------------------------------------------------------

    def check_admissibility(self, samples: int = 101) -> AdmissibilityReport:
        """Sample the structural properties that make this response a valid model.

        Measures oddness (relative residual, admissible up to
        ADMISSIBILITY_ODDNESS_TOL), strict monotonicity of F, and the
        G(F(w)) = w round trip (residual relative to max(1, |w|), admissible
        up to ADMISSIBILITY_ROUNDTRIP_TOL) on a symmetric grid: +/- 0.999 *
        velocity_bound for bounded kinds, +/- 1e3 for the classical kind.
        Never raises on failure; ``run_admissibility`` gives the verdict.
        """
        if samples < 3:
            raise ConfigError("samples", "admissibility check needs samples >= 3")
        edge = 1e3 if self.kind is ModelKind.CLASSICAL else 0.999 * self.c
        # Mirror a half grid so the sample set is exactly symmetric in
        # floating point; linspace alone does not guarantee that.
        half = np.linspace(0.0, edge, (int(samples) + 2) // 2)
        grid = np.concatenate([-half[:0:-1], half])
        fw = self.momentum(grid)
        scale = np.maximum(1.0, np.abs(fw))
        oddness = float(np.max(np.abs(fw + fw[::-1]) / scale))
        increasing = bool(np.all(np.diff(fw) > 0.0))
        roundtrip = float(np.max(np.abs(self.velocity(fw) - grid)
                                 / np.maximum(1.0, np.abs(grid))))
        return AdmissibilityReport(
            kind=self.kind.value,
            c=self.c,
            samples=grid.size,
            oddness_residual=oddness,
            strictly_increasing=increasing,
            roundtrip_residual=roundtrip,
        )


def classical() -> FrequencyResponse:
    """Identity response; the ordinary first-order oscillator model."""
    return FrequencyResponse(ModelKind.CLASSICAL)


def relativistic(c: float) -> FrequencyResponse:
    """Full relativistic response with velocity bound ``c``."""
    return FrequencyResponse(ModelKind.RELATIVISTIC, float(c))


def proper_velocity(c: float) -> FrequencyResponse:
    """Proper-velocity response ``w * gamma`` with bound ``c``."""
    return FrequencyResponse(ModelKind.PROPER_VELOCITY, float(c))


def rapidity(c: float) -> FrequencyResponse:
    """Rapidity response ``c * atanh(w/c)`` with bound ``c``."""
    return FrequencyResponse(ModelKind.RAPIDITY, float(c))


def stack_rows(responses) -> FrequencyResponse:
    """One response that maps a (B, m) array of drives row by row.

    Row b follows ``responses[b]``, which must all share one kind.  Every
    response solves each row as its own system, so classical responses
    (which have no bound) and ones that share a bound come back as the
    first.  For distinct bounds the stacked ``c`` and prepared bounds are
    (B, 1) columns of the rows' own, so ``velocity`` gives every row the
    floats a call on its own response gives.  Only ``velocity`` is meant
    to be called on the stacked response.
    """
    first = responses[0]
    if any(r.kind is not first.kind for r in responses):
        raise ConfigError("responses", "stacked responses must share one kind")
    if first.kind is ModelKind.CLASSICAL or all(r.c == first.c for r in responses):
        return first
    stacked = object.__new__(FrequencyResponse)
    object.__setattr__(stacked, "kind", first.kind)
    object.__setattr__(stacked, "c", np.array([[r.c] for r in responses]))
    object.__setattr__(stacked, "_bounds", tuple(
        np.array([[v] for v in values]) for values in zip(*(r._bounds for r in responses))))
    return stacked
