"""Deterministic scalar root finding and maximization.

The package has one root finder, :func:`itp_root`, and two maximizers:
:func:`scan_then_bisect` finds the global maximum around the best point
of a scan its caller has made, and :func:`climb` the local maximum that
the slope leads to from a given point.  All resolve to one fixed
tolerance and use no randomness; the scan resolves ties toward the
smaller argument.  Both maximizers end alike: at a kink where the slope
jumps through zero, or at the root of the slope placed by
:func:`itp_root`, which never takes more than one evaluation beyond
bisection and converges superlinearly on smooth slopes.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable

import numpy as np

_XTOL = 1e-15  # width of the final bracket of every root


def itp_root(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    flo: float | None = None,
    fhi: float | None = None,
) -> float:
    """Root of a continuous function on a bracket [lo, hi], lo < hi, by ITP.

    Interpolate (regula falsi), truncate toward the midpoint, project into
    the bisection minmax interval (Oliveira & Takahashi, ACM TOMS 2020,
    with kappa1 = 0.2 / (hi - lo), kappa2 = 2, n0 = 1): at most one
    evaluation more than bisection to the same width, ``_XTOL``.
    Probes keep ``_XTOL / 2`` clear of the bracket ends, so that rounding
    cannot spend evaluations on an end already known.  ``flo`` and ``fhi``,
    when given, are ``fn(lo)`` and ``fn(hi)``, which are then not evaluated
    again.  Returns the midpoint of the final bracket, at most ``_XTOL``
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
    n_max = max(math.ceil(math.log2((hi - lo) / _XTOL)), 0) + 1
    for j in range(n_max):
        if hi - lo <= _XTOL:
            break
        mid = 0.5 * (lo + hi)
        r = _XTOL * 2.0 ** (n_max - j - 1) - 0.5 * (hi - lo)
        xf = (fhi * lo - flo * hi) / (fhi - flo)
        if not lo <= xf <= hi:  # nan or overflow from an infinite value
            xf = mid
        sigma = math.copysign(1.0, mid - xf)
        delta = kappa1 * (hi - lo) ** 2
        xt = xf + sigma * delta if delta <= abs(mid - xf) else mid
        x = xt if abs(xt - mid) <= r else mid - sigma * r
        x = min(max(x, lo + 0.5 * _XTOL), hi - 0.5 * _XTOL)
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
    ``slope`` is its derivative at a scalar.  ``kinks`` are the points
    where the slope may jump, and the grid must hold each of them.  Where
    the slope falls through zero across the two cells around the first
    grid maximum, the maximum is :func:`_peak` of that bracket; a root
    is returned if its value is at least the grid maximum, otherwise the
    grid point is.
    """
    i = int(np.argmax(vals))
    a, b = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, len(xs) - 1)])
    sa = slope(a)
    if sa >= 0.0:
        sb = slope(b)
        if 0.0 >= sb:
            k = float(xs[i])
            x = _peak(slope, a, b, sa, sb, k, kinks)
            if x == k or float(fn(x)) >= vals[i]:
                return x
    return float(xs[i])


def climb(
    slope: Callable[[float], float], x0: float, width: float, lo: float, hi: float, kinks=()
) -> float:
    """The local maximum on [lo, hi] that the slope leads to from ``x0``.

    Steps from ``x0`` in the slope's direction, first by ``width > 0`` and
    then by twice the previous step, landing on every kink (an ascending
    sequence, as in :func:`scan_then_bisect`) on the way, until the slope
    turns; the bracket of the last step then holds no kink inside, and
    :func:`_peak` places the maximum in it, from the slopes that face
    into it (just below a kink at its upper end).  Returns ``lo`` or
    ``hi`` if the slope still points out of the interval there, and
    ``x0`` itself if it is already a peak; an ``x0`` outside [lo, hi]
    starts from the nearer end.
    """

    def below(x: float, s: float) -> float:
        return slope(math.nextafter(x, -math.inf)) if x in kinks else s

    x, step = min(max(x0, lo), hi), width
    right = slope(x)
    if right > 0.0:
        while x < hi:
            i = bisect.bisect_right(kinks, x)
            y = min(x + step, kinks[i] if i < len(kinks) else hi)
            sy = slope(y)
            ly = below(y, sy)
            if ly <= 0.0 or sy <= 0.0:
                return _peak(slope, x, y, right, ly, y, kinks)
            x, right, step = y, sy, 2.0 * step
        return hi
    left = below(x, right)
    if left < 0.0:
        while x > lo:
            i = bisect.bisect_left(kinks, x)
            y = max(x - step, kinks[i - 1] if i > 0 else lo)
            sy = slope(y)
            ly = below(y, sy)
            if sy >= 0.0 or ly >= 0.0:
                return _peak(slope, y, x, sy, left, y, kinks)
            x, left, step = y, ly, 2.0 * step
        return lo
    return x


def _peak(slope: Callable[[float], float], a: float, b: float, sa: float, sb: float, k: float,
          kinks) -> float:
    """The maximum on a bracket [a, b] that holds the point ``k``: ``k``
    itself if it is a kink at which the slope jumps through zero, else the
    root that :func:`itp_root` places from the end slopes already in hand,
    ``sa >= 0 >= sb``."""
    if k in kinks and slope(math.nextafter(k, -math.inf)) >= 0.0 >= slope(k):
        return k
    return itp_root(slope, a, b, flo=sa, fhi=sb)
