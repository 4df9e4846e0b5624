"""Valuation distributions for the subscriber population.

A user with valuation ``alpha`` gets utility ``alpha * q - p`` from a
service of quality ``q`` priced at ``p``.  Valuations live on a bounded
interval ``[0, beta]`` and are described by linear interpolation of
density samples; the uniform density is the case where every sample is
equal, however the samples were given, and it is the one that the
paper's closed forms assume.  Demand facing any provider is a tail
probability of this distribution, so the cdf and its inverse are the
workhorses of every solver in the package.

All evaluation methods accept scalars or numpy arrays and return values
of matching shape.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cached_property

import numpy as np

from . import _table
from .errors import DomainError, ModelError

__all__ = [
    "ValuationDistribution",
    "load_pdf_samples",
    "save_pdf_samples",
]

_INTEGRAL_TOL = 1e-9
_HEADER = ("alpha", "pdf")


class ValuationDistribution:
    """Distribution of user valuations on ``[0, beta]``.

    Construct with :meth:`uniform`, :meth:`from_samples`, or
    :meth:`from_csv`.  The density is stored on the unit market, as a
    piecewise-linear node table on [0, 1] (positions ``alpha / beta``,
    densities ``pdf * beta``, slopes times ``beta**2``), with ``beta`` one
    scale factor that only the public methods apply; the solvers work on
    the unit table ``_unit``.  A table whose nodes are all equal is
    uniform.  The cdf is the exact integral of the interpolant, rescaled to
    reach exactly 1 at ``beta``; the raw sample integral must be within
    1e-9 of 1.  Density samples must be positive at interior nodes; the two
    endpoint samples may be zero.  Instances are immutable.
    """

    def __init__(self) -> None:
        raise TypeError(
            "use ValuationDistribution.uniform / from_samples / from_csv"
        )

    # -- construction ---------------------------------------------------

    @classmethod
    def _from_nodes(cls, beta, x, f, cum, slope) -> "ValuationDistribution":
        """Instance at scale ``beta`` over unit-market node tuples; ``_unit`` holds them at beta 1."""
        self = object.__new__(cls)
        self._beta = beta
        self._x, self._f, self._cum, self._slope = x, f, cum, slope
        self._unit = self if beta == 1.0 else cls._from_nodes(1.0, x, f, cum, slope)
        return self

    @classmethod
    def uniform(cls, beta: float) -> "ValuationDistribution":
        """Uniform density 1/beta on [0, beta]: unit nodes (0, 1) and (1, 1)."""
        beta = float(beta)
        if not math.isfinite(beta) or beta <= 0.0:
            raise ModelError(f"beta must be positive and finite, got {beta}")
        if not math.isfinite(1.0 / beta):
            raise ModelError(f"beta={beta} is too small: 1/beta is not finite")
        return cls._from_nodes(beta, (0.0, 1.0), (1.0, 1.0), (0.0, 1.0), (0.0,))

    @classmethod
    def from_samples(cls, alphas, densities) -> "ValuationDistribution":
        """Piecewise-linear density through ``(alphas, densities)`` points.

        ``alphas`` must be strictly ascending, start at 0, and end at the
        support bound ``beta`` (taken from the last sample).
        """
        x, f = _table.samples(alphas, densities, ("alphas", "densities"))
        if x[0] != 0.0:
            raise ModelError(f"first sample point must be alpha=0, got {x[0]}")
        beta = float(x[-1])  # positive: the positions start at 0 and ascend
        if np.any(f < 0.0):
            raise ModelError("density samples must be nonnegative")
        if f.size > 2 and np.any(f[1:-1] <= 0.0):
            raise ModelError("density must be strictly positive at interior nodes")
        x = x / beta
        dx = np.diff(x)
        if not dx.all():  # dividing keeps the order: a collision is a zero step
            raise ModelError(f"alphas collide once divided by beta={beta}")
        total = float(np.sum(dx * 0.5 * (f[:-1] + f[1:]))) * beta
        if abs(total - 1.0) > _INTEGRAL_TOL:
            raise ModelError(
                f"density integrates to {total:.12g}, expected 1 within {_INTEGRAL_TOL}"
            )
        f = f / total * beta
        cum = np.concatenate(([0.0], np.cumsum(dx * 0.5 * (f[:-1] + f[1:]))))
        cum[-1] = 1.0
        slope = np.diff(f) / dx
        return cls._from_nodes(beta, *(tuple(a.tolist()) for a in (x, f, cum, slope)))

    @classmethod
    def from_csv(cls, path) -> "ValuationDistribution":
        """Load density samples from a ``alpha,pdf`` CSV file."""
        return _table.read_columns(path, _HEADER, cls.from_samples)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        return _table.frozen_arrays(self._x, self._f, self._cum, self._slope)

    # -- basic properties -----------------------------------------------

    @property
    def beta(self) -> float:
        """Upper end of the valuation support."""
        return self._beta

    def is_uniform(self) -> bool:
        """True when the density has the same value at every node."""
        return all(f == self._f[0] for f in self._f)

    def segments(self):
        """``(alpha0, alpha1, f0, f1, slope)`` for each linear piece of the
        density, left to right."""
        b, x, f = self._beta, self._x, self._f
        return ((x0 * b, x1 * b, f0 / b, f1 / b, s / b / b)
                for x0, x1, f0, f1, s in zip(x, x[1:], f, f[1:], self._slope))

    # -- density, cdf, quantile -----------------------------------------

    def pdf(self, alpha):
        """Density at ``alpha``; zero outside [0, beta]."""
        if isinstance(alpha, float) or np.ndim(alpha) == 0:
            a = float(alpha) / self._beta
            if a < 0.0 or a > 1.0:
                return 0.0
            return _table.value(self._x, self._f, self._slope, a) / self._beta
        a = np.asarray(alpha, dtype=float) / self._beta
        x, f, _, slope = self._arrays
        return np.where((a < 0.0) | (a > 1.0), 0.0, _table.values(x, f, slope, a)) / self._beta

    def cdf(self, alpha):
        """Probability that a valuation is at most ``alpha``; clamped to [0, 1].

        The top of the support maps to exactly 1, where the last segment's
        quadratic could land a few ulp short.
        """
        if isinstance(alpha, float) or np.ndim(alpha) == 0:
            a = float(alpha) / self._beta
            if a <= 0.0:
                return 0.0
            if a >= 1.0:
                return 1.0
            i = bisect_right(self._x, a, 1, len(self._slope)) - 1  # NaN: last segment
            d = a - self._x[i]
            return min(max(self._cum[i] + d * (self._f[i] + 0.5 * self._slope[i] * d), 0.0), 1.0)
        a = np.clip(np.asarray(alpha, dtype=float) / self._beta, 0.0, 1.0)
        x, f, cum, slope = self._arrays
        i = _table.indices(x, a)
        d = a - x[i]
        out = np.clip(cum[i] + d * (f[i] + 0.5 * slope[i] * d), 0.0, 1.0)
        return np.where(a >= 1.0, 1.0, out)

    def quantile(self, u):
        """Inverse cdf; by convention quantile(0) = 0 and quantile(1) = beta.

        Exact: the cdf is quadratic on each segment.  Entering the segment
        at its denser node (density ``f``, slope magnitude ``|s|``) with
        probability ``r`` left to cover, the valuation moves ``d = 2r / (f +
        sqrt(f^2 - 2|s|r))``.  The density falls along the way, so the root
        neither cancels nor divides by zero and never decreases in ``u``.
        Raises DomainError for probabilities outside [0, 1].
        """
        if isinstance(u, float) or np.ndim(u) == 0:
            return self._beta * self._quantile_density(u)[0]
        uu = np.asarray(u, dtype=float)
        if not np.all((uu >= 0.0) & (uu <= 1.0)):
            raise DomainError(f"probability outside [0, 1]: {u!r}")
        out = self._invert(uu, self._entries.take(_table.indices(self._arrays[2], uu), axis=1))
        return self._beta * np.where((uu == 0.0) | (uu == 1.0), uu, out)

    def _quantile_density(self, u) -> tuple[float, float]:
        """Unit-only: the unit table's quantile at a scalar ``u`` and its
        density there, from one segment search.  At the right end of its
        segment the valuation is the next node, with that node's density."""
        v = float(u)
        if not 0.0 <= v <= 1.0:  # NaN fails too
            raise DomainError(f"probability outside [0, 1]: {u!r}")
        if v == 0.0 or v == 1.0:
            return v, self._f[0] if v == 0.0 else self._f[-1]
        cum, f, x, slope = self._cum, self._f, self._x, self._slope
        i = bisect_right(cum, v, 1, len(slope)) - 1
        s = slope[i]
        j = i + (s > 0.0)
        r = abs(v - cum[j])
        w = f[j] * f[j] - 2.0 * abs(s) * r
        d = 2.0 * r / (f[j] + math.sqrt(0.0 if 0.0 > w else w))
        a = x[j] - d if s > 0.0 else x[j] + d
        if x[i] > a:  # min(max(a, x[i]), x[i + 1])
            a = x[i]
        if a > x[i + 1]:
            a = x[i + 1]
        return a, f[i + 1] if a == x[i + 1] else f[i] + s * (a - x[i])

    def _sorted_quantile(self, u: np.ndarray) -> np.ndarray:
        """Unit-only: the unit quantile of a nonempty ascending 1-D array in [0, 1].

        Instead of searching every ``u`` among the cdf nodes, it places each
        interior node among the ``u`` and repeats each segment's constants
        over the run of ``u`` it holds; when all of ``u`` lies on one
        segment, that segment's constants serve as scalars.  Only a leading
        run can be 0 and only a trailing run 1; those take the conventional
        ends.
        """
        if not (u[0] >= 0.0 and u[-1] <= 1.0):
            raise DomainError(f"probability outside [0, 1]: {u!r}")
        i = _table.one_segment(self._cum, u)
        if i is not None:
            rows = self._entries[:, i]
        else:
            ends = np.searchsorted(u, self._cum_bounds)
            rows = np.repeat(self._entries, ends[1:] - ends[:-1], axis=1)
        out = self._invert(u, rows)
        if u[0] == 0.0:
            zeros = np.searchsorted(u, 0.0, side="right")
            out[:zeros] = u[:zeros]
        if u[-1] == 1.0:
            out[np.searchsorted(u, 1.0):] = 1.0
        return out

    @staticmethod
    def _invert(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The quadratic inverse of :meth:`quantile` at probabilities ``u``
        inside their segments, given each one's :attr:`_entries` column in
        ``rows`` (or one column, for ``u`` on one segment).  Works in place
        in the rows of gathered columns, else in two arrays of its own, one
        pass per operation, with the operations of the scalar path in its
        order."""
        cum_j, f_j, f_sq, two_s, step2, x_j, x_lo, x_hi = rows
        r, w = (cum_j, two_s) if rows.ndim == 2 else np.empty((2, u.size))
        r = np.abs(np.subtract(u, cum_j, out=r), out=r)
        w = np.subtract(f_sq, np.multiply(two_s, r, out=w), out=w)
        w = np.add(f_j, np.sqrt(np.maximum(w, 0.0, out=w), out=w), out=w)
        d = np.divide(np.multiply(step2, r, out=r), w, out=r)  # (+-2r) / w = +-(2r / w)
        return np.minimum(np.maximum(np.add(x_j, d, out=d), x_lo, out=d), x_hi, out=d)

    @cached_property
    def _entries(self) -> np.ndarray:
        """Per segment (one column each), what the array :meth:`quantile`
        gathers, row by row: the cdf, density and squared density of the
        node it enters from, ``2|slope|``, twice the direction of the walk
        (-2 from the right node, +2 from the left; ``x - d`` and ``x + -1 *
        d`` round alike), the position of that node, and the segment's two
        ends."""
        x, f, cum, slope = self._arrays
        up = slope > 0.0
        j = np.arange(slope.size) + up
        table = np.array([cum[j], f[j], f[j] * f[j], 2.0 * np.abs(slope), np.where(up, -2.0, 2.0),
                          x[j], x[:-1], x[1:]])
        table.flags.writeable = False
        return table

    @cached_property
    def _cum_bounds(self) -> np.ndarray:
        """The interior cdf nodes between -inf and inf: where each segment's
        run starts and ends in a sorted array of probabilities."""
        return np.concatenate(([-math.inf], self._arrays[2][1:-1], [math.inf]))

    # -- derived constants ----------------------------------------------

    def k_constant(self) -> float:
        """max of alpha * pdf(alpha) on [0, beta]; exactly 1 for uniform.

        Scale-free, so read off the unit table: on each segment ``t * f(t)``
        is a quadratic, peaking at a node or at the vertex of a falling one.
        """
        best = max(x * f for x, f in zip(self._x, self._f))
        for x0, x1, f0, s in zip(self._x, self._x[1:], self._f, self._slope):
            # (x0 + d) * (f0 + s * d) peaks at d = -b / (2 s), b = f0 + s * x0
            b = f0 + s * x0
            if s < 0.0 and 0.0 < -b / (2.0 * s) < x1 - x0:
                best = max(best, x0 * f0 - b * b / (4.0 * s))
        return best

    def max_density(self) -> float:
        """Largest density value on the support."""
        return max(self._f) / self._beta

    def is_nonincreasing_pdf(self) -> bool:
        """True when the density never increases across its samples."""
        return self._nonincreasing

    @cached_property
    def _nonincreasing(self) -> bool:
        # the density is immutable: walk the node pairs once per instance
        return all(f1 - f0 <= _table.MONOTONE_SLACK for f0, f1 in zip(self._f, self._f[1:]))

    def __repr__(self) -> str:
        if self.is_uniform():
            return f"ValuationDistribution.uniform(beta={self._beta!r})"
        return (
            f"<ValuationDistribution custom beta={self._beta!r} "
            f"nodes={len(self._x)}>"
        )


def load_pdf_samples(path) -> tuple[np.ndarray, np.ndarray]:
    """Read ``alpha,pdf`` rows from a CSV file.

    Structural problems (bad header, non-numeric cells, short rows) raise
    ModelError naming the file and 1-based line number.
    """
    return _table.read_columns(path, _HEADER)


def save_pdf_samples(path, alphas, densities) -> None:
    """Write ``alpha,pdf`` rows; the exact inverse of :func:`load_pdf_samples`."""
    _table.write_columns(path, _HEADER, alphas, densities)
