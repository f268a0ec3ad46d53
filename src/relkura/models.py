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
which gives a bracket that never needs to be widened.  ``stack_rows``
stacks responses of one kind so that one ``velocity`` call maps a batch
of systems, one per row, each with its own bound and, for the full
kind, its own stop test.

Numerical notes baked into this module:

* ``gamma`` is evaluated as ``1/sqrt((1 - w/c) * (1 + w/c))``.  The
  factored difference avoids the catastrophic cancellation of
  ``1 - (w/c)**2`` as |w| approaches c, and makes gamma (hence F) exactly
  even/odd in floating point.
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

from .errors import ConvergenceError, DomainError

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

# Bounds of check_admissibility: relative oddness residual and absolute
# G(F(w)) = w round-trip residual.
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
    grid; ``roundtrip_residual`` is max |G(F(w)) - w|.  ``passed`` is the
    conjunction of all three checks at the documented tolerances.
    """

    kind: str
    c: float | None
    samples: int
    oddness_residual: float
    strictly_increasing: bool
    roundtrip_residual: float
    passed: bool


def _prepare(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _finish(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def _lorentz(w: np.ndarray, c) -> np.ndarray:
    return 1.0 / np.sqrt((1.0 - w / c) * (1.0 + w / c))


def _full_momentum(w: np.ndarray, c) -> np.ndarray:
    """Full response w * gamma * (1 + gamma/c**2)."""
    g = _lorentz(w, c)
    return w * g * (1.0 + g / (c * c))


def _full_momentum_slope(w: np.ndarray, c, c_cubed) -> np.ndarray:
    span = (c - w) * (c + w)  # c**2 - w**2 without cancellation near |w| ~ c
    return c_cubed / span**1.5 + (c * c + w * w) / (span * span)


def _solve_full(target: np.ndarray, c, c_cubed) -> np.ndarray:
    """Safeguarded Newton solve of F(w) = target >= 0 for the full response.

    ``target`` is (R, m), one system per row; ``c`` and ``c_cubed`` are
    scalars or (R, 1) columns.  The proper-velocity inverse gives the
    upper bracket end (F_full >= F_pv on [0, c)), clamped one ulp below c
    so the strict range bound survives even when the true root is within
    rounding of c.  Newton steps that leave the bracket, or that are not
    finite, fall back to bisection.  A row stops when every last step in
    it is within INVERSION_TOL and within INVERSION_GAP_FRACTION of its
    gap to c; its iterate is then frozen and later rounds run on the
    other rows only, so a row gets the same floats whether it is solved
    alone or with others.
    """
    hi = np.minimum(c * (target / np.hypot(target, c)), np.nextafter(c, 0.0))
    lo = np.zeros_like(hi)
    w = hi.copy()
    out = np.empty_like(w)
    rows = np.arange(len(w))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(INVERSION_MAX_ITER):
            resid = _full_momentum(w, c) - target
            lo = np.where(resid < 0.0, w, lo)
            hi = np.where(resid > 0.0, w, hi)
            proposal = w - resid / _full_momentum_slope(w, c, c_cubed)
            inside = np.isfinite(proposal) & (proposal > lo) & (proposal < hi)
            proposal = np.where(inside, proposal, 0.5 * (lo + hi))
            step = np.abs(proposal - w)
            w = proposal
            done = (step <= INVERSION_TOL).all(axis=1)
            if done.any():
                done &= (step <= INVERSION_GAP_FRACTION * (c - w)).all(axis=1)
                out[rows[done]] = w[done]
                if done.all():
                    return out
                keep = ~done
                rows, w, lo, hi, target = rows[keep], w[keep], lo[keep], hi[keep], target[keep]
                if np.ndim(c):
                    c, c_cubed = c[keep], c_cubed[keep]
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
        ``classical``.  Must be finite and positive.
    """

    kind: ModelKind
    c: float | None = None

    def __post_init__(self):
        if self.kind is ModelKind.CLASSICAL:
            return
        if self.c is None or not math.isfinite(self.c) or self.c <= 0.0:
            raise DomainError(f"model kind {self.kind.value!r} requires a finite c > 0")
        object.__setattr__(self, "c", float(self.c))

    @classmethod
    def from_name(cls, name: str, c: float | None = None) -> "FrequencyResponse":
        """Build a response from its serialized kind string."""
        try:
            kind = ModelKind(name)
        except ValueError:
            valid = ", ".join(k.value for k in ModelKind)
            raise DomainError(f"unknown model kind {name!r} (expected one of: {valid})")
        if kind is ModelKind.CLASSICAL:
            return cls(kind)
        return cls(kind, c)

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
        c = self.c
        if kind is ModelKind.RAPIDITY:
            return c * np.arctanh(w / c)
        if kind is ModelKind.PROPER_VELOCITY:
            return w * _lorentz(w, c)
        return _full_momentum(w, c)

    def _momentum_slope_unchecked(self, w: np.ndarray) -> np.ndarray:
        kind = self.kind
        if kind is ModelKind.CLASSICAL:
            return np.ones_like(w)
        c = self.c
        span = (c - w) * (c + w)  # c**2 - w**2 without cancellation near |w| ~ c
        if kind is ModelKind.RAPIDITY:
            return (c * c) / span
        if kind is ModelKind.PROPER_VELOCITY:
            return c**3 / span**1.5
        return _full_momentum_slope(w, c, c**3)

    # ------------------------------------------------------------------
    # inverse response G and its derivative
    # ------------------------------------------------------------------

    def velocity(self, drive):
        """Unique velocity whose drive equals ``drive``.

        Total on the reals for every kind; the result satisfies
        |velocity| < velocity_bound strictly.  Raises DomainError for
        non-finite input and ConvergenceError if the full-response solve
        exhausts its iteration budget (not observed in practice).
        """
        y, scalar = _prepare(drive)
        if not np.all(np.isfinite(y)):
            raise DomainError("drive must be finite")
        kind = self.kind
        if kind is ModelKind.CLASSICAL:
            out = y + 0.0
        elif kind is ModelKind.PROPER_VELOCITY:
            out = self._clamp_subluminal(self.c * (y / np.hypot(y, self.c)))
        elif kind is ModelKind.RAPIDITY:
            out = self._clamp_subluminal(self.c * np.tanh(y / self.c))
        else:
            out = self._invert_full(y)
        return _finish(out, scalar)

    def _clamp_subluminal(self, w: np.ndarray) -> np.ndarray:
        # The closed forms round to exactly c once the drive exceeds the
        # resolution of the bound (y ~ 1e8 * c and beyond); pin them one
        # ulp inside so |G(y)| < c holds for every finite drive and the
        # result always composes with the forward response.
        limit = np.nextafter(self.c, 0.0)
        return np.clip(w, -limit, limit)

    def velocity_slope(self, drive):
        """Derivative of ``velocity`` with respect to the drive.

        Equal to 1/F'(G(drive)); strictly positive, even in the drive,
        and maximal at zero.  At drive 0 this is 1 for the classical,
        proper-velocity and rapidity kinds and c**2/(c**2 + 1) for the
        full relativistic kind (whose slope at rest is 1 + 1/c**2).
        """
        y, scalar = _prepare(drive)
        if not np.all(np.isfinite(y)):
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
        inverse exactly odd.  A scalar c makes the whole input one system
        with one stop test; a (B, 1) column of bounds (see ``stack_rows``)
        makes each row of a (B, m) input its own system.
        """
        c = self.c
        if np.ndim(c):
            # Python's pow per bound: numpy's array power can differ from
            # it in the last ulp, and a row must match its own response
            cubes = np.array([[b**3] for b in c[:, 0].tolist()])
            w = _solve_full(np.abs(y), c, cubes)
        else:
            w = _solve_full(np.abs(y).reshape(1, -1), c, c**3).reshape(y.shape)
        return np.sign(y) * w

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
        """Sample-based verification that this response is a valid model.

        Checks oddness (relative residual <= ADMISSIBILITY_ODDNESS_TOL),
        strict monotonicity of F, and the G(F(w)) = w round trip (absolute
        residual <= ADMISSIBILITY_ROUNDTRIP_TOL)
        on a symmetric grid: +/- 0.999 * velocity_bound for bounded kinds,
        +/- 1e3 for the classical kind.  Never raises on failure; the
        report carries the residuals and the verdict.
        """
        if samples < 3:
            raise DomainError("admissibility check needs samples >= 3")
        edge = 1e3 if self.kind is ModelKind.CLASSICAL else 0.999 * self.c
        # Mirror a half grid so the sample set is exactly symmetric in
        # floating point; linspace alone does not guarantee that.
        half = np.linspace(0.0, edge, (int(samples) + 2) // 2)
        grid = np.concatenate([-half[:0:-1], half])
        fw = self.momentum(grid)
        scale = np.maximum(1.0, np.abs(fw))
        oddness = float(np.max(np.abs(fw + fw[::-1]) / scale))
        increasing = bool(np.all(np.diff(fw) > 0.0))
        roundtrip = float(np.max(np.abs(self.velocity(fw) - grid)))
        passed = (oddness <= ADMISSIBILITY_ODDNESS_TOL and increasing
                  and roundtrip <= ADMISSIBILITY_ROUNDTRIP_TOL)
        return AdmissibilityReport(
            kind=self.kind.value,
            c=self.c,
            samples=grid.size,
            oddness_residual=oddness,
            strictly_increasing=increasing,
            roundtrip_residual=roundtrip,
            passed=passed,
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

    Row b follows ``responses[b]``, which must all share one kind: the
    stacked ``c`` is a (B, 1) column of their bounds, and the full kind's
    solve stops each row on its own test, so ``velocity`` gives every row
    the floats a call on its own response gives.  A single response, or
    classical ones (which have no bound), come back as they are.  Only
    ``velocity`` is meant to be called on the stacked response.
    """
    first = responses[0]
    if any(r.kind is not first.kind for r in responses):
        raise ValueError("stacked responses must share one kind")
    if len(responses) == 1 or first.kind is ModelKind.CLASSICAL:
        return first
    stacked = object.__new__(FrequencyResponse)
    object.__setattr__(stacked, "kind", first.kind)
    object.__setattr__(stacked, "c", np.array([[r.c] for r in responses]))
    return stacked
