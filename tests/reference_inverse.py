"""The full-kind inverse before its Newton round was cut to fewer numpy
calls, copied verbatim, as the reference the shipped solve must match.

The current solve must reproduce it bit for bit: every cut drops or
cheapens a call, never a float operation.  ``reference_invert_full`` has
the signature of ``FrequencyResponse._invert_full``, so a test can patch
it into ``models`` and run the integrators on the reference solve.
"""

import numpy as np

from relkura.errors import ConvergenceError
from relkura.models import INVERSION_GAP_FRACTION, INVERSION_MAX_ITER, INVERSION_TOL


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


class ReferenceInverse:
    """Holds ``c`` as a response does: a scalar, or a (B, 1) column when stacked."""

    def __init__(self, c):
        self.c = c

    def _invert_full(self, y: np.ndarray) -> np.ndarray:
        c = self.c
        if np.ndim(c):
            # Python's pow per bound: numpy's array power can differ from
            # it in the last ulp, and a row must match its own response
            cubes = np.array([[b**3] for b in c[:, 0].tolist()])
            w = _solve_full(np.abs(y), c, cubes)
        else:
            w = _solve_full(np.abs(y).reshape(1, -1), c, c**3).reshape(y.shape)
        return np.sign(y) * w


def reference_invert_full(response, y: np.ndarray) -> np.ndarray:
    """``response._invert_full(y)`` through the reference solve."""
    return ReferenceInverse(response.c)._invert_full(y)
