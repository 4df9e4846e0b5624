"""Deterministic scalar root finding and maximization.

The package has two solvers: :func:`itp_root` for roots and
:func:`scan_then_bisect` for maxima.  Both use fixed tolerances and no
randomness, and resolve ties toward the smaller argument.  The maximizer
refines a scan its caller has made: to a kink where the slope jumps
through zero, or to the root of the slope placed by :func:`itp_root`,
which never takes more than one evaluation beyond bisection and
converges superlinearly on smooth slopes.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable

import numpy as np


def itp_root(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float = 1e-12,
    flo: float | None = None,
    fhi: float | None = None,
) -> float:
    """Root of a continuous function on a bracket [lo, hi], lo < hi, by ITP.

    Interpolate (regula falsi), truncate toward the midpoint, project into
    the bisection minmax interval (Oliveira & Takahashi, ACM TOMS 2020,
    with kappa1 = 0.2 / (hi - lo), kappa2 = 2, n0 = 1): at most one
    evaluation more than bisection with the same ``xtol``.
    Probes keep ``xtol / 2`` clear of the bracket ends, so that rounding
    cannot spend evaluations on an end already known.  ``flo`` and ``fhi``,
    when given, are ``fn(lo)`` and ``fn(hi)``, which are then not evaluated
    again.  Returns the midpoint of the final bracket, at most ``xtol``
    wide, or an endpoint or probe where ``fn`` is exactly zero; raises
    ValueError if the endpoints do not bracket a root.
    """
    if flo is None:
        flo = fn(lo)
    if flo == 0.0:
        return lo
    if fhi is None:
        fhi = fn(hi)
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError("itp_root: endpoints do not bracket a root")
    kappa1 = 0.2 / (hi - lo)
    n_max = max(math.ceil(math.log2((hi - lo) / xtol)), 0) + 1
    for j in range(n_max):
        if hi - lo <= xtol:
            break
        mid = 0.5 * (lo + hi)
        r = xtol * 2.0 ** (n_max - j - 1) - 0.5 * (hi - lo)
        xf = (fhi * lo - flo * hi) / (fhi - flo)
        if not lo <= xf <= hi:  # nan or overflow from an infinite value
            xf = mid
        sigma = math.copysign(1.0, mid - xf)
        delta = kappa1 * (hi - lo) ** 2
        xt = xf + sigma * delta if delta <= abs(mid - xf) else mid
        x = xt if abs(xt - mid) <= r else mid - sigma * r
        x = min(max(x, lo + 0.5 * xtol), hi - 0.5 * xtol)
        fx = fn(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
    return 0.5 * (lo + hi)


def scan_then_bisect(
    fn: Callable, slope: Callable[[float], float], xs: np.ndarray, vals: np.ndarray, kinks=()
) -> float:
    """The maximum of ``fn`` around the best point of its scan ``vals = fn(xs)``.

    ``xs`` is an ascending grid and ``fn`` is evaluated at scalars only;
    ``slope`` is its derivative at a scalar.  Where the slope falls through
    zero across the two cells around the first grid maximum, the maximum is
    the first of the ascending ``kinks`` (points where the slope may jump)
    inside those cells at which it changes sign, else the root that
    :func:`itp_root` places to 1e-15 from the two end slopes already in
    hand; that point is returned if its value is at least the grid maximum,
    otherwise the grid point is.
    """
    i = int(np.argmax(vals))
    a, b = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, len(xs) - 1)])
    sa = slope(a)
    if sa >= 0.0:
        sb = slope(b)
        if 0.0 >= sb:
            x = _kink_root(slope, kinks, a, b)
            if x is None:
                x = itp_root(slope, a, b, xtol=1e-15, flo=sa, fhi=sb)
            if float(fn(x)) >= vals[i]:
                return x
    return float(xs[i])


def _kink_root(slope: Callable[[float], float], kinks, a: float, b: float) -> float | None:
    """The first kink strictly inside (a, b) where ``slope`` is >= 0 just left
    of it and <= 0 at it, or None."""
    for k in kinks[bisect_right(kinks, a):bisect_left(kinks, b)]:
        if slope(math.nextafter(k, -math.inf)) >= 0.0 >= slope(k):
            return k
    return None
