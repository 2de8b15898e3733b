"""Scalar root finding: the ITP method on a sign-change bracket.

All solvers in the package funnel through this routine so that tolerance
semantics are uniform.  ITP (Oliveira and Takahashi, ACM TOMS 47(1), 2020)
interpolates by regula falsi, truncates toward the midpoint and projects
into a window that shrinks like bisection: superlinear on the smooth
targets used here, and never more than n0 evaluations beyond bisection.
"""

import itertools
import math

from .errors import NoSolutionError

__all__ = ["bisect_secant"]

# truncation size k1 (b - a)**k2 with k1 = _K1 / (hi - lo); _N0 is the
# slack in evaluations over bisection that ITP may spend
_K1 = 0.2
_K2 = 2.0
_N0 = 1


def bisect_secant(func, lo, hi, xtol=1e-12):
    """Root of func on [lo, hi] with a sign change at the ends.

    Returns the midpoint of a bracket no wider than xtol, an iterate where
    func is exactly zero, or the midpoint once it rounds onto an endpoint
    (xtol below the float spacing).  Raises NoSolutionError when func(lo)
    and func(hi) have the same (nonzero) sign.
    """
    flo = func(lo)
    fhi = func(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise NoSolutionError(
            f"no sign change on [{lo!r}, {hi!r}]: f(lo)={flo!r}, f(hi)={fhi!r}")

    k1 = _K1 / (hi - lo)
    # bisection's step count plus the slack
    n_max = math.ceil(math.log2(hi - lo) - math.log2(xtol)) + _N0
    a, b, fa, fb = lo, hi, flo, fhi
    for j in itertools.count():
        width = b - a
        mid = 0.5 * (a + b)
        if width <= xtol or mid == a or mid == b:
            return mid
        # interpolate, truncate toward the midpoint, project into the window
        xf = (fb * a - fa * b) / (fb - fa)
        sigma = math.copysign(1.0, mid - xf)
        delta = k1 * width ** _K2
        xt = xf + sigma * delta if delta <= abs(mid - xf) else mid
        r = math.ldexp(xtol, n_max - j - 1) - 0.5 * width
        x = xt if abs(xt - mid) <= r else mid - sigma * r
        fx = func(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx
