"""Deterministic scalar root finding and maximization.

The package has one root finder, :func:`itp_root`, and two maximizers:
:func:`scan_then_bisect` finds the global maximum around the best point
of a scan its caller has made, and :func:`step_peak` tries one step
from a given point toward the local maximum the slope leads to, and
answers None, for its caller to scan, when that step does not bracket
it.  All resolve to one fixed tolerance and use no randomness; the scan
resolves ties toward the smaller argument.  Both maximizers end alike:
at a kink where the slope jumps through zero, or at the root of the
slope placed by :func:`itp_root`, which never takes more than one
evaluation beyond bisection and converges superlinearly on smooth
slopes.
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
    grid maximum, the maximum is that grid point if it is a kink where the
    slope jumps through zero (:func:`_jumps_through_zero`), else the
    :func:`itp_root` of the slope in the two cells, if its value is at
    least the grid maximum; otherwise it is the grid point.
    """
    i = int(np.argmax(vals))
    k = float(xs[i])
    a, b = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, len(xs) - 1)])
    sa = slope(a)
    if sa >= 0.0:
        sb = slope(b)
        if 0.0 >= sb:
            if k in kinks and _jumps_through_zero(slope, k):
                return k
            x = itp_root(slope, a, b, flo=sa, fhi=sb)
            if float(fn(x)) >= vals[i]:
                return x
    return k


def step_peak(
    slope: Callable[[float], float], x0: float, width: float, lo: float, hi: float, kinks=()
) -> float | None:
    """The local maximum on [lo, hi] within one step of ``x0``, or None.

    Steps once from ``x0`` (clamped to [lo, hi]) by ``width`` in the
    direction the slope points there.  If that bracket holds a kink (an
    ascending sequence, as in :func:`scan_then_bisect`), the nearest one
    is the answer when the slope jumps through zero there; otherwise the
    answer is the :func:`itp_root` of the slope, when the slope falls
    through zero across the bracket.  Returns None in every other case,
    leaving the caller to scan.
    """
    x = min(max(x0, lo), hi)
    s = slope(x)
    i = bisect.bisect_right(kinks, x)  # the kinks nearest x: kinks[i - 1] <= x < kinks[i]
    if s > 0.0:
        a, b, k = x, min(x + width, hi), kinks[i] if i < len(kinks) else math.inf
    else:
        a, b, k = max(x - width, lo), x, kinks[i - 1] if i else -math.inf
    if a <= k <= b:
        return k if _jumps_through_zero(slope, k) else None
    sa, sb = (s, slope(b)) if s > 0.0 else (slope(a), s)
    return itp_root(slope, a, b, flo=sa, fhi=sb) if sa >= 0.0 >= sb else None


def _jumps_through_zero(slope: Callable[[float], float], k: float) -> bool:
    """Whether the slope falls through zero at ``k``, from just below it to ``k``."""
    return slope(math.nextafter(k, -math.inf)) >= 0.0 >= slope(k)
