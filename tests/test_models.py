"""Response-family tests against independently computed reference values.

Every frozen constant below was produced with 50-digit arithmetic from the
defining formulas; the inverse-response references came from a separate
high-precision root find, not from the library's own Newton solve.
"""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relkura import (
    FrequencyResponse,
    ModelKind,
    classical,
    proper_velocity,
    rapidity,
    relativistic,
)
from relkura import models
from relkura.diagnostics import energy
from relkura.errors import ConvergenceError, DomainError
from relkura.models import (
    ADMISSIBILITY_ODDNESS_TOL,
    ADMISSIBILITY_ROUNDTRIP_TOL,
    stack_rows,
)
from reference_inverse import ReferenceInverse, reference_invert_full
from test_diagnostics import _energy_reference_small_ratio

# (w, c) -> (full, proper-velocity, rapidity), 50-digit values
MOMENTUM_REFERENCE = {
    (0.6, 1.0): (1.6875000000000000, 0.75000000000000000, 0.69314718055994531),
    (1.2, 2.0): (1.9687500000000000, 1.5000000000000000, 1.3862943611198906),
    (3.0, 10.0): (3.1778215431327879, 3.1448545101657549, 3.0951960420311172),
}

MOMENTUM_SLOPE_REFERENCE = {
    (0.6, 1.0): (5.2734375000000000, 1.9531250000000000, 1.5625000000000000),
    (1.2, 2.0): (2.7832031250000000, 1.9531250000000000, 1.5625000000000000),
    (3.0, 10.0): (1.1651240205493849, 1.1519613590350751, 1.0989010989010989),
}

# drive y = 2, c = 1
VELOCITY_FULL_REFERENCE = 0.65290207977761645
VELOCITY_PV_REFERENCE = 0.89442719099991588
VELOCITY_RAP_REFERENCE = 0.96402758007581688
VELOCITY_FULL_C3_REFERENCE = -0.61527179637205002  # y = -0.7, c = 3

VELOCITY_SLOPE_FULL_REFERENCE = 0.15073032561360575
VELOCITY_SLOPE_PV_REFERENCE = 0.089442719099991588
VELOCITY_SLOPE_RAP_REFERENCE = 0.070650824853164466

MIN_SLOPE_RIGHT_REFERENCE = 0.43825867057590470  # full, c=1, [-0.3, 0.5]
MIN_SLOPE_LEFT_REFERENCE = 0.36718131973192245   # full, c=1, [-0.8, 0.2]

ALL_BOUNDED = (relativistic, proper_velocity, rapidity)


def bounded_triple(c):
    return relativistic(c), proper_velocity(c), rapidity(c)


# ----------------------------------------------------------------------
# forward response
# ----------------------------------------------------------------------


def test_momentum_matches_reference_values():
    for (w, c), expected in MOMENTUM_REFERENCE.items():
        for model, want in zip(bounded_triple(c), expected):
            got = model.momentum(w)
            assert got == pytest.approx(want, rel=1e-14), (model.kind, w, c)


def test_momentum_classical_is_identity():
    grid = np.linspace(-1e3, 1e3, 41)
    assert np.array_equal(classical().momentum(grid), grid)
    assert classical().momentum(7.25) == 7.25


def test_momentum_slope_matches_reference_values():
    for (w, c), expected in MOMENTUM_SLOPE_REFERENCE.items():
        for model, want in zip(bounded_triple(c), expected):
            got = model.momentum_slope(w)
            assert got == pytest.approx(want, rel=1e-14), (model.kind, w, c)


def test_momentum_slope_at_rest():
    # full kind: 1 + 1/c**2; the two approximations and classical: exactly 1
    for c in (0.5, 1.0, 2.0, 10.0):
        assert relativistic(c).momentum_slope(0.0) == pytest.approx(1.0 + 1.0 / c**2, rel=1e-15)
        assert proper_velocity(c).momentum_slope(0.0) == 1.0
        assert rapidity(c).momentum_slope(0.0) == 1.0
    assert classical().momentum_slope(0.0) == 1.0


def test_momentum_is_exactly_odd():
    # the factored Lorentz expression makes F(-w) == -F(w) bitwise
    grid = np.linspace(0.0, 0.999, 200)
    for factory in ALL_BOUNDED:
        model = factory(1.0)
        assert np.array_equal(model.momentum(-grid), -model.momentum(grid))


def test_momentum_slope_positive_and_growing_near_bound():
    for factory in ALL_BOUNDED:
        model = factory(2.0)
        grid = np.linspace(-1.99, 1.99, 101)
        slopes = model.momentum_slope(grid)
        assert np.all(slopes > 0.0)
        assert slopes[0] > model.momentum_slope(0.0)


def test_momentum_rejects_superluminal_and_non_finite():
    model = relativistic(1.0)
    for bad in (1.0, -1.0, 1.5, math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            model.momentum(bad)
        with pytest.raises(DomainError):
            model.momentum_slope(bad)
    with pytest.raises(DomainError):
        model.momentum(np.array([0.0, 0.5, 1.0]))


# ----------------------------------------------------------------------
# inverse response
# ----------------------------------------------------------------------


def test_velocity_closed_form_references():
    assert relativistic(1.0).velocity(2.0) == pytest.approx(VELOCITY_FULL_REFERENCE, rel=1e-13)
    assert proper_velocity(1.0).velocity(2.0) == pytest.approx(VELOCITY_PV_REFERENCE, rel=1e-14)
    assert rapidity(1.0).velocity(2.0) == pytest.approx(VELOCITY_RAP_REFERENCE, rel=1e-14)
    assert relativistic(3.0).velocity(-0.7) == pytest.approx(VELOCITY_FULL_C3_REFERENCE, rel=1e-13)


def test_velocity_roundtrip_on_a_dense_grid():
    for factory in ALL_BOUNDED:
        for c in (0.5, 1.0, 2.0, 10.0):
            model = factory(c)
            grid = np.linspace(-0.999 * c, 0.999 * c, 501)
            back = model.velocity(model.momentum(grid))
            assert np.max(np.abs(back - grid)) < 1e-10, (model.kind, c)
            assert np.all(np.abs(back) < c)


def test_velocity_is_exactly_odd():
    drives = np.array([1e-8, 0.3, 2.0, 50.0, 1e6])
    for factory in ALL_BOUNDED:
        model = factory(1.0)
        assert np.array_equal(model.velocity(-drives), -model.velocity(drives))


def test_velocity_at_zero_is_exactly_zero():
    for factory in ALL_BOUNDED:
        assert factory(1.0).velocity(0.0) == 0.0
    assert classical().velocity(0.0) == 0.0


def test_velocity_stays_strictly_subluminal_for_huge_drives():
    model = relativistic(1.0)
    assert model.velocity(1e8) < 1.0
    assert model.velocity(1e7) < model.velocity(1e8)
    assert proper_velocity(1.0).velocity(1e300) < 1.0
    assert rapidity(1.0).velocity(1e300) < 1.0


def _velocity_reference(kind: str, y: float, c: float):
    """G(|y|) and its gap c - G(|y|) at 60 digits, from the defining formulas.

    The full response is solved in p = w * gamma, where it reads
    p * (1 + sqrt(1 + p**2/c**2) / c**2) and has no pole; it is convex and
    increasing in p, so Newton from a point right of the root converges
    monotonically.  w = c * p / sqrt(c**2 + p**2) and its gap follow
    without cancellation; proper-velocity is the same map at p = |y|.
    """
    with mpmath.workdps(60):
        y, c = abs(mpmath.mpf(y)), mpmath.mpf(c)
        if kind == "rapidity":
            u = y / c
            return c * mpmath.tanh(u), 2 * c / (mpmath.exp(2 * u) + 1)
        p = y
        if kind == "relativistic":
            # the response is >= max(p, p/c**2, p**2/c**3), so it is >= y
            # at this start, which lies right of the root
            p = min(y, y * c * c, mpmath.sqrt(y * c**3))
            for _ in range(400):
                gamma = mpmath.sqrt(1 + (p / c) ** 2)
                f = p + p * gamma / (c * c) - y
                slope = 1 + (1 + 2 * (p / c) ** 2) / (gamma * c * c)
                step = f / slope
                p -= step
                if abs(step) <= p * mpmath.mpf(10) ** -55:
                    break
            else:
                raise AssertionError(f"reference root for y={y}, c={c} did not converge")
        s = mpmath.sqrt(c * c + p * p)
        return c * p / s, c**3 / (s * (s + p))


@pytest.mark.parametrize("y, c", [(1e6, 1.0), (31.6, 1e-3)])
def test_full_inverse_does_not_stop_short_near_the_bound(y, c):
    # started at the proper-velocity bound, within ~c**3/(2 y**2) of c,
    # a Newton step near c is as large as the gap, so a step below the
    # absolute tolerance used to end the solve far from the root
    want, gap = _velocity_reference("relativistic", y, c)
    got = relativistic(c).velocity(y)
    assert abs(mpmath.mpf(got) - want) <= 1e-6 * gap
    assert relativistic(c).momentum(got) == pytest.approx(y, rel=1e-6)


def _momentum_slope_reference(kind: str, w: float, c: float):
    """F'(w) at 50 digits in u = w / c."""
    with mpmath.workdps(50):
        u = mpmath.mpf(w) / mpmath.mpf(c)
        s = 1 - u * u
        if kind == "rapidity":
            return 1 / s
        if kind == "proper-velocity":
            return s ** mpmath.mpf(-1.5)
        return s ** mpmath.mpf(-1.5) + (1 + u * u) / (mpmath.mpf(c) ** 2 * s * s)


@pytest.mark.parametrize("c", [1e95, 1e103, 1e150, 1e200, 1e300])
def test_slopes_for_huge_bounds_match_mpmath(c):
    # c**4 overflows above c ~ 1.16e77, c**3 above ~ 5.6e102 and c * c
    # above ~ 1.34e154; the slopes form no power of c
    for model in bounded_triple(c):
        for w in (0.5, -2.0, 0.5 * c, -0.99 * c):
            got = model.momentum_slope(w)
            want = _momentum_slope_reference(model.kind.value, w, c)
            assert abs(mpmath.mpf(got) - want) <= 1e-10 * want, (model.kind, w)
    full = relativistic(c)
    for y in (0.5, -2.0, 1e20, 3.0 * c):
        w, _ = _velocity_reference("relativistic", y, c)
        want = 1 / _momentum_slope_reference("relativistic", w, c)
        got = full.velocity_slope(y)
        assert abs(mpmath.mpf(got) - want) <= 1e-10 * want, y
        assert full.min_velocity_slope(-abs(y), 0.5) == got


def _momentum_reference(kind: str, w: float, c: float):
    """F(w) at 50 digits in u = w / c."""
    with mpmath.workdps(50):
        w, c = mpmath.mpf(w), mpmath.mpf(c)
        u = w / c
        if kind == "rapidity":
            return c * mpmath.atanh(u)
        gamma = 1 / mpmath.sqrt(1 - u * u)
        if kind == "proper-velocity":
            return w * gamma
        return w * gamma * (1 + gamma / (c * c))


def _assert_matches_or_leaves_the_floats(got: float, want) -> None:
    """got within 1e-10 relative of want, or +-inf or 0.0 where want over- or underflows."""
    if abs(want) > sys.float_info.max:
        assert got == math.copysign(math.inf, want)
    elif abs(want) < 2.0**-1075:
        assert got == 0.0
    else:
        assert abs(mpmath.mpf(got) - want) <= 1e-10 * abs(want), (got, want)


@pytest.mark.parametrize("c", [1e-100, 1e-160, 1e-200, 1e-300])
def test_slopes_for_tiny_bounds_match_mpmath(c):
    # next to the bound the full kind's span**2 = ((c - w) * (c + w))**2 can
    # underflow below c ~ 8.2e-70, the span**1.5 below ~1.9e-95 and the span
    # itself below ~1e-146; the slopes and the responses take u = w / c and
    # form no span
    for model in bounded_triple(c):
        for w in (0.5 * c, -0.99 * c, 1e-8 * c):
            _assert_matches_or_leaves_the_floats(
                model.momentum_slope(w), _momentum_slope_reference(model.kind.value, w, c))
            _assert_matches_or_leaves_the_floats(
                model.momentum(w), _momentum_reference(model.kind.value, w, c))
    full = relativistic(c)
    for w in (0.5 * c, -0.99 * c):
        y = full.momentum(w)
        got = full.velocity_slope(y)
        # 1/F'(G(y)): the slope is exact, G carries the solve's small-bound error
        assert got == 1.0 / full.momentum_slope(full.velocity(y))
        assert full.min_velocity_slope(-abs(y), 0.0) == got
        if c < 1e-154:
            assert got == 0.0  # F' overflows, and 1/F' is below 1e-300


def _assert_within_rounding(got: float, want) -> None:
    """got within 1e-14 relative of want, or 2**-1074 absolute where want is subnormal.

    Where want overflows the floats, got must be the infinity of its sign.
    """
    if abs(want) > sys.float_info.max:
        assert got == math.copysign(math.inf, want)
    elif abs(want) < sys.float_info.min:
        assert abs(mpmath.mpf(got) - want) <= 2.0**-1074, (got, want)
    else:
        assert abs(mpmath.mpf(got) - want) <= 1e-14 * abs(want), (got, want)


@st.composite
def _bound_and_speed(draw):
    # c log-uniform in [1e-300, 1e300]; |w| log-uniform in u = |w| / c down
    # to below the normal floats or, half the time, in 1 - u down to the
    # last float below c
    c = 10.0 ** draw(st.floats(-300.0, 300.0))
    if draw(st.booleans()):
        w = 10.0 ** (math.log10(c) + draw(st.floats(-330.0, 0.0)))
    else:
        w = c * (1.0 - 10.0 ** draw(st.floats(-17.0, 0.0)))
    return c, min(w, math.nextafter(c, 0.0)) * draw(st.sampled_from([1.0, -1.0]))


@pytest.mark.filterwarnings("error")
@settings(deadline=None, derandomize=True, database=None, max_examples=500)
@given(c_w=_bound_and_speed())
@example(c_w=(3.3e171, (1.0 - 3e-16) * 3.3e171))
@example(c_w=(5.2e-27, math.nextafter(5.2e-27, 0.0)))
@example(c_w=(1.5e-231, -math.nextafter(1.5e-231, 0.0)))
@example(c_w=(1e95, 0.5))
@example(c_w=(1e300, 1e-20))
@example(c_w=(1e150, math.nextafter(1e150, 0.0)))
def test_forward_maps_and_energy_match_high_precision_at_every_bound(c_w):
    c, w = c_w
    for model in bounded_triple(c):
        kind = model.kind.value
        _assert_within_rounding(model.momentum(w), _momentum_reference(kind, w, c))
        _assert_within_rounding(model.momentum_slope(w), _momentum_slope_reference(kind, w, c))
        _assert_within_rounding(energy(model, [w]), _energy_reference_small_ratio(kind, w, c))


@st.composite
def _c_and_drive(draw):
    # c log-uniform in [1e-3, 1e3]; |y| log-uniform in [1e-300, 1e300] or,
    # half the time, in the band c**1.5 * 10**[-6, 12] near the bound
    c = 10.0 ** draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        y = c**1.5 * 10.0 ** draw(st.floats(-6.0, 12.0))
    else:
        y = 10.0 ** draw(st.floats(-300.0, 300.0))
    return c, y * draw(st.sampled_from([1.0, -1.0]))


@pytest.mark.parametrize("make", ALL_BOUNDED)
@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(c_y=_c_and_drive(), widen=st.floats(0.0, 2.0))
def test_velocity_properties_against_high_precision_root(make, c_y, widen):
    c, y = c_y
    model = make(c)
    got = model.velocity(y)
    assert abs(got) < c
    assert model.velocity(-y) == -got
    further = y * 10.0**widen
    assert abs(model.velocity(further)) >= abs(got)
    want, gap = _velocity_reference(model.kind.value, y, c)
    error = abs(mpmath.mpf(abs(got)) - want)
    assert error <= 1e-12 * max(1.0, c) + 1e-6 * gap, (y, c, got)


@st.composite
def _bounds_and_drives(draw):
    # 2 to 4 rows of 1 to 6 drives, each row with a bound log-uniform in
    # [1e-3, 1e3] or one whose cube numpy's array power rounds unlike
    # Python's pow, and drives drawn for that bound as in _c_and_drive
    width = draw(st.integers(1, 6))
    bounds, drives = [], []
    for _ in range(draw(st.integers(2, 4))):
        c = draw(st.one_of(st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
                           st.sampled_from([1.28, 3.96])))
        row = []
        for _ in range(width):
            if draw(st.booleans()):
                y = c**1.5 * 10.0 ** draw(st.floats(-6.0, 12.0))
            else:
                y = 10.0 ** draw(st.floats(-300.0, 300.0))
            row.append(y * draw(st.sampled_from([1.0, -1.0])))
        bounds.append(c)
        drives.append(row)
    return bounds, drives


@pytest.mark.parametrize("arrangement", ["plain", "distinct", "shared"])
@settings(deadline=None, derandomize=True, database=None, max_examples=100)
@given(case=_bounds_and_drives())
# rounds that fall back to bisection: drives 0 and 5e-324 in their one
# round, 1e300 at c = 1e-3 in its one round, 1.0 at c = 1.28 in 7 of 12
# and 1e15 at c = 1 in 55 of 58; and the two pure-Newton near-bound cases
# of test_full_inverse_does_not_stop_short_near_the_bound (1e6 at c = 1,
# 31.6 at c = 1e-3)
@example(case=([1.0, 1.0], [[0.0, 5e-324], [-5e-324, 0.0]]))
@example(case=([1e-3, 1e-3], [[1e300, 31.6], [0.0, -31.6]]))
@example(case=([1.28, 1.28], [[1.0], [-1.0]]))
@example(case=([1.0, 1.28], [[1e15, 1e6], [1.0, 0.0]]))
@example(case=([1.28, 1e-3], [[1.0, 5e-324], [31.6, 1e300]]))
def test_full_inverse_floats_match_the_reference_solve(arrangement, case):
    bounds, drives = case
    drives = np.array(drives)
    if arrangement == "plain":
        # one system per row: a row alone, and every row with its own stop
        model = relativistic(bounds[0])
        for y in (drives[0], drives, np.stack([drives, drives[::-1]])):
            assert np.array_equal(model.velocity(y), reference_invert_full(model, y))
        return
    if arrangement == "shared":
        bounds = [bounds[0]] * len(bounds)
    got = stack_rows([relativistic(c) for c in bounds]).velocity(drives)
    want = ReferenceInverse(np.array([[c] for c in bounds]))._invert_full(drives)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("make", [classical, *ALL_BOUNDED],
                         ids=["classical", "relativistic", "proper_velocity", "rapidity"])
@settings(deadline=None, derandomize=True, database=None, max_examples=50)
@given(case=_bounds_and_drives())
# drives that a joint stop over both rows would solve to other floats
@example(case=([1.28, 1.28], [[1.0, 5e-324], [31.6, 1e300]]))
@example(case=([1.0, 1.0], [[1.0, 0.0], [1e15, 1e6]]))
def test_each_row_of_a_drive_is_its_own_system(make, case):
    bounds, drives = case
    model = classical() if make is classical else make(bounds[0])
    rows = np.array(drives)
    for y in (rows, np.stack([rows, rows[::-1]])):
        for evaluate in (model.velocity, model.velocity_slope):
            got = evaluate(y)
            for index in np.ndindex(y.shape[:-1]):
                # bytes, so -0.0 and 0.0 differ
                assert np.asarray(evaluate(y[index])).tobytes() == got[index].tobytes()


@pytest.mark.parametrize("make", [classical, *ALL_BOUNDED],
                         ids=["classical", "relativistic", "proper_velocity", "rapidity"])
def test_empty_drives_give_empty_velocities(make):
    model = classical() if make is classical else make(1.0)
    for shape in ((0,), (0, 3), (2, 0), (2, 0, 3)):
        assert model.velocity(np.zeros(shape)).shape == shape
        assert model.velocity_slope(np.zeros(shape)).shape == shape


def _assert_reference_bits(response, drives):
    drives = np.array(drives, dtype=float)
    got = np.asarray(response.velocity(drives))
    want = reference_invert_full(response, drives)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # also tells -0.0 from 0.0


# |drives| of one two-row RK4 stage of an rcs-check run (seed 1, c = 1)
# whose solve falls back to bisection in round 6, the round both rows stop
FALLBACK_DRIVES = [
    [0.8059677188920646, 0.41406710136023356, 0.20271738640030648,
     0.007424847358173426, 0.3266848428523565, 0.04353551279643563,
     0.40649002363846815, 0.7061227030868557, 0.43658029479459926,
     0.7547498411112549],
    [0.8059677382659688, 0.4140671122717363, 0.20271739252088358,
     0.007424848087892372, 0.32668484910385076, 0.04353551505146758,
     0.40649003221345914, 0.7061227194763837, 0.43658030608387555,
     0.7547498603950654],
]


@pytest.mark.parametrize("bounds", [(1.0, 1.0), (1.0, 1.28)], ids=["shared", "distinct"])
def test_stacked_rows_stopping_together_or_apart_match_the_reference(bounds):
    # equal rows on a shared bound stop in one round (11), which returns
    # the iterate itself; on distinct bounds they stop in rounds 10 and 11.
    # A zero row stops in round 1, the others in round 7 or 12 and in 66
    same = [[0.3, 2.0, 40.0], [0.3, 2.0, 40.0]]
    _assert_reference_bits(stack_rows([relativistic(c) for c in bounds]), same)
    apart = [[0.0, 0.0], [1.0, 2.0], [1e15, 1e6]]
    _assert_reference_bits(stack_rows([relativistic(c) for c in bounds + (1.0,)]), apart)
    _assert_reference_bits(stack_rows([relativistic(c) for c in bounds]),
                           [[1e15, 1e6], [0.0, -0.0]])


def test_zero_and_single_entry_drives_match_the_reference():
    model = relativistic(1.0)
    for drives in (np.zeros(5), [-0.0, 0.0, -0.0], [0.7], [-0.0], [[0.0, 0.0]]):
        _assert_reference_bits(model, drives)
    for drives in ([[0.0], [0.0]], [[-0.0], [0.5]], [[0.5], [-0.5]]):
        _assert_reference_bits(stack_rows([model, model]), drives)
        _assert_reference_bits(stack_rows([model, relativistic(3.96)]), drives)


def test_huge_bound_matches_the_reference():
    # at c = 1e8 the starting bracket end is the drive itself to within
    # rounding, so round one's residual rounds to zero or below (8 of the
    # 10 drives here)
    drives = [5e-324, 1e-8, 0.37, 1.0, 7.5, 1e4, 1e8, 1e12, 1e16, 1e30]
    _assert_reference_bits(relativistic(1e8), drives)
    _assert_reference_bits(stack_rows([relativistic(1e8), relativistic(1.0)]),
                           [drives, drives[::-1]])


def test_bisection_fallback_drives_match_the_reference():
    _assert_reference_bits(stack_rows([relativistic(1.0)] * 2), FALLBACK_DRIVES)
    for row in FALLBACK_DRIVES:
        _assert_reference_bits(relativistic(1.0), row)
        _assert_reference_bits(relativistic(1.0), np.negative(row))


def test_velocity_tiny_drive_follows_rest_slope():
    # G(y) ~ y * G'(0) down to subnormal territory
    model = relativistic(1.0)
    assert model.velocity(1e-300) == pytest.approx(0.5e-300, rel=1e-12)


def test_velocity_rejects_non_finite_drive():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            relativistic(1.0).velocity(bad)
        with pytest.raises(DomainError):
            relativistic(1.0).velocity_slope(bad)


def test_velocity_slope_references():
    assert relativistic(1.0).velocity_slope(2.0) == pytest.approx(
        VELOCITY_SLOPE_FULL_REFERENCE, rel=1e-13)
    assert proper_velocity(1.0).velocity_slope(2.0) == pytest.approx(
        VELOCITY_SLOPE_PV_REFERENCE, rel=1e-14)
    assert rapidity(1.0).velocity_slope(2.0) == pytest.approx(
        VELOCITY_SLOPE_RAP_REFERENCE, rel=1e-14)


def test_velocity_slope_at_zero():
    for c in (0.5, 1.0, 5.0, 10.0):
        assert relativistic(c).velocity_slope(0.0) == pytest.approx(
            c * c / (c * c + 1.0), rel=1e-14)
        assert proper_velocity(c).velocity_slope(0.0) == 1.0
        assert rapidity(c).velocity_slope(0.0) == 1.0
    assert classical().velocity_slope(0.0) == 1.0


def test_velocity_slope_even_and_decaying():
    y = np.linspace(0.0, 30.0, 61)
    for factory in ALL_BOUNDED:
        model = factory(1.0)
        right = model.velocity_slope(y)
        left = model.velocity_slope(-y)
        assert np.array_equal(left, right)
        assert np.all(np.diff(right) < 0.0)
        assert np.all(right > 0.0)


def test_velocity_slope_rapidity_underflows_gracefully():
    # cosh would overflow near y ~ 1e3; the exp(-|u|) form must not
    assert rapidity(1.0).velocity_slope(800.0) == 0.0
    assert rapidity(1.0).velocity_slope(40.0) > 0.0


def test_velocity_slope_matches_inverse_function_derivative():
    # G'(y) * F'(G(y)) == 1 by the inverse rule
    y = np.linspace(-8.0, 8.0, 33)
    for factory in ALL_BOUNDED:
        model = factory(1.5)
        w = model.velocity(y)
        product = model.velocity_slope(y) * model.momentum_slope(w)
        assert np.max(np.abs(product - 1.0)) < 1e-10


# ----------------------------------------------------------------------
# interval slope minimum
# ----------------------------------------------------------------------


def test_min_velocity_slope_reference_values():
    model = relativistic(1.0)
    assert model.min_velocity_slope(-0.3, 0.5) == pytest.approx(
        MIN_SLOPE_RIGHT_REFERENCE, rel=1e-12)
    assert model.min_velocity_slope(-0.8, 0.2) == pytest.approx(
        MIN_SLOPE_LEFT_REFERENCE, rel=1e-12)


def test_min_velocity_slope_dense_check_agrees():
    # the endpoint rule against the minimum over a dense grid of the interval
    for factory in ALL_BOUNDED + (classical,):
        model = factory(1.0) if factory is not classical else classical()
        value = model.min_velocity_slope(-1.2, 0.4)
        dense = float(np.min(model.velocity_slope(np.linspace(-1.2, 0.4, 2001))))
        assert dense >= value * (1.0 - 1e-9)


def test_min_velocity_slope_rejects_bad_interval():
    with pytest.raises(DomainError):
        relativistic(1.0).min_velocity_slope(1.0, -1.0)
    with pytest.raises(DomainError):
        relativistic(1.0).min_velocity_slope(0.0, math.inf)


# ----------------------------------------------------------------------
# construction and admissibility
# ----------------------------------------------------------------------


def test_bounded_kinds_require_positive_finite_c():
    for factory in ALL_BOUNDED:
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                factory(bad)
    with pytest.raises(DomainError):
        FrequencyResponse(ModelKind.RELATIVISTIC)  # missing c


def test_classical_ignores_c():
    model = classical()
    assert model.c is None
    assert model.velocity_bound == math.inf


def test_velocity_bound_is_c_for_bounded_kinds():
    assert relativistic(2.5).velocity_bound == 2.5
    assert proper_velocity(0.5).velocity_bound == 0.5
    assert rapidity(7.0).velocity_bound == 7.0


def test_from_name_round_trips_every_kind():
    for kind in ModelKind:
        model = FrequencyResponse.from_name(kind.value, 1.0)
        assert model.kind is kind
    assert FrequencyResponse.from_name("classical", 5.0).c is None


def test_from_name_rejects_unknown_kind():
    with pytest.raises(DomainError, match="unknown model kind"):
        FrequencyResponse.from_name("galilean", 1.0)


def test_check_admissibility_passes_for_every_kind():
    for model in (classical(),) + tuple(f(1.0) for f in ALL_BOUNDED):
        report = model.check_admissibility(samples=101)
        assert report.samples == 101
        assert report.oddness_residual <= ADMISSIBILITY_ODDNESS_TOL, report
        assert report.strictly_increasing, report
        assert report.roundtrip_residual <= ADMISSIBILITY_ROUNDTRIP_TOL, report


def test_check_admissibility_round_trip_is_relative_to_max_1_w(monkeypatch):
    # one ulp of |w| ~ 1e7 is 1.9e-9, beyond any absolute 1e-10
    for factory in ALL_BOUNDED:
        for c in (1e7, 1e300):
            report = factory(c).check_admissibility(samples=101)
            assert report.roundtrip_residual <= ADMISSIBILITY_ROUNDTRIP_TOL, report
    exact = FrequencyResponse.velocity
    monkeypatch.setattr(FrequencyResponse, "velocity",
                        lambda self, y: exact(self, y) * (1.0 + 1e-9))
    for factory in ALL_BOUNDED:
        for c in (1.0, 1e7, 1e300):
            report = factory(c).check_admissibility(samples=101)
            assert report.roundtrip_residual > ADMISSIBILITY_ROUNDTRIP_TOL, report


def test_check_admissibility_large_grid_small_c():
    report = relativistic(0.5).check_admissibility(samples=1001)
    assert report.oddness_residual <= ADMISSIBILITY_ODDNESS_TOL
    assert report.strictly_increasing
    assert report.roundtrip_residual <= ADMISSIBILITY_ROUNDTRIP_TOL
    assert report.samples == 1001
    assert report.kind == "relativistic"
    assert report.c == 0.5


def test_check_admissibility_rejects_tiny_grids():
    with pytest.raises(DomainError):
        classical().check_admissibility(samples=2)


def test_scalar_in_scalar_out_array_in_array_out():
    model = relativistic(1.0)
    assert isinstance(model.momentum(0.5), float)
    assert isinstance(model.velocity(0.5), float)
    assert isinstance(model.velocity_slope(0.5), float)
    arr = np.array([[0.1, 0.2], [0.3, 0.4]])
    assert model.momentum(arr).shape == (2, 2)
    assert model.velocity(model.momentum(arr)).shape == (2, 2)


@pytest.mark.parametrize("make", [relativistic, proper_velocity, rapidity],
                         ids=["relativistic", "proper_velocity", "rapidity"])
def test_stacked_rows_get_the_floats_of_their_own_response(make):
    # bounds whose cubes numpy's SIMD array power rounds differently from
    # Python's pow (1.28 to 3.96), drives from rest to deep saturation
    bounds = (0.5, 1.0, 1.28, 2.82, 3.63, 3.96, 10.0)
    gen = np.random.default_rng(5)
    drives = np.stack([gen.choice([-1.0, 1.0], 16) * c**1.5 * 10.0 ** gen.uniform(-8, 9, 16)
                       for c in bounds])
    stacked = stack_rows([make(c) for c in bounds]).velocity(drives)
    for c, row, got in zip(bounds, drives, stacked):
        assert np.array_equal(got, make(c).velocity(row))
    # rows that share a bound: drives from 1e-8 to 1e9 * c**1.5, one band
    # of exponents per row, so the rows stop in different rounds
    for c in (1.0, 1.28, 3.96):
        drives = np.stack([gen.choice([-1.0, 1.0], 16) * c**1.5
                           * 10.0 ** gen.uniform(-8.0 + 4.25 * b, -3.75 + 4.25 * b, 16)
                           for b in range(4)])
        stacked = stack_rows([make(c)] * 4).velocity(drives)
        for row, got in zip(drives, stacked):
            assert np.array_equal(got, make(c).velocity(row))


@pytest.mark.parametrize("bounds", [(1.0, 1.0), (1.0, 1.28)], ids=["shared", "distinct"])
def test_stacked_solve_raises_when_a_row_exhausts_the_budget(monkeypatch, bounds):
    # the drive-0 row stops in round 1 and is dropped from the solve; the
    # other needs about 58 rounds, so with 5 the budget runs out on the
    # remaining row, whose bound (and its square and cube) must have been
    # dropped along with the finished one
    monkeypatch.setattr(models, "INVERSION_MAX_ITER", 5)
    stacked = stack_rows([relativistic(c) for c in bounds])
    with pytest.raises(ConvergenceError):
        stacked.velocity(np.array([[0.0], [1e15]]))


def test_closed_forms_take_a_bound_whose_cube_overflows():
    # c**3 overflows a float above c ~ 5.6e102; the closed-form inverses,
    # which never use it, still map drives far below c to themselves
    drives = np.array([0.5, -3.0, 1e10])
    for make in (proper_velocity, rapidity):
        assert make(1e200).velocity(drives) == pytest.approx(drives, rel=1e-15)


def test_stack_rows_passes_single_and_classical_responses_through():
    single = relativistic(2.0)
    assert stack_rows([single]) is single
    both = [classical(), classical()]
    assert stack_rows(both) is both[0]
    shared = [relativistic(2.0), relativistic(2.0)]
    assert stack_rows(shared) is shared[0]
    with pytest.raises(ValueError) as info:
        stack_rows([relativistic(1.0), rapidity(1.0)])
    assert info.value.field == "responses"
