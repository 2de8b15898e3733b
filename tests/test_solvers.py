"""The bracketed root finder: accuracy, evaluation counts, termination."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdcmaps.errors import NoSolutionError
from spdcmaps.solvers import bisect_secant


def _solve_counted(func, lo, hi, xtol):
    calls = []

    def counted(x):
        calls.append(x)
        return func(x)
    return bisect_secant(counted, lo, hi, xtol=xtol), len(calls)


# monotone shapes around a root r: linear, odd power, saturating, convex
SHAPES = (
    lambda r: (lambda x: x - r),
    lambda r: (lambda x: (x - r) ** 3),
    lambda r: (lambda x: math.atan(50.0 * (x - r))),
    lambda r: (lambda x: math.exp(x) - math.exp(r)),
)


@settings(max_examples=200, deadline=None)
@given(root=st.floats(-10.0, 10.0),
       below=st.floats(1e-3, 10.0), above=st.floats(1e-3, 10.0),
       shape=st.sampled_from(range(len(SHAPES))),
       decreasing=st.booleans(),
       xtol=st.sampled_from((1e-6, 1e-12)))
def test_root_within_xtol_of_a_monotone_crossing(root, below, above, shape,
                                                 decreasing, xtol):
    f = SHAPES[shape](root)
    func = (lambda x: -f(x)) if decreasing else f
    x = bisect_secant(func, root - below, root + above, xtol=xtol)
    assert abs(x - root) <= xtol


def test_cube_root_of_two_in_few_evaluations():
    x, n = _solve_counted(lambda x: x ** 3 - 2.0, 0.0, 2.0, 1e-12)
    assert abs(x - 2.0 ** (1.0 / 3.0)) <= 1e-12
    assert n <= 15


def test_flat_triple_root_stays_within_bisection_bound():
    # f' vanishes at the root, so interpolation gains little; ITP may
    # spend at most n0 = 1 step beyond bisection's 40, plus the two ends
    x, n = _solve_counted(lambda x: (x - 0.37) ** 3, 0.0, 1.0, 1e-12)
    assert abs(x - 0.37) <= 1e-12
    assert n <= 45


def test_tolerance_below_float_spacing_terminates():
    x, n = _solve_counted(lambda x: x ** 3 - 2.0, 0.0, 2.0, 1e-300)
    assert abs(x - 2.0 ** (1.0 / 3.0)) <= 4.0 * math.ulp(x)
    assert n < 100


def test_same_sign_bracket_raises():
    with pytest.raises(NoSolutionError, match="no sign change"):
        bisect_secant(lambda x: x * x + 1.0, -1.0, 1.0)


def test_an_exact_root_at_an_end_is_returned():
    assert bisect_secant(lambda x: x - 1.0, 1.0, 2.0) == 1.0
    assert bisect_secant(lambda x: x - 2.0, 1.0, 2.0) == 2.0
