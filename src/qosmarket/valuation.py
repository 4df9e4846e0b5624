"""Valuation distributions for the subscriber population.

A user with valuation ``alpha`` gets utility ``alpha * q - p`` from a
service of quality ``q`` priced at ``p``.  Valuations live on a bounded
interval ``[0, beta]`` and are described either by a uniform density or
by linear interpolation of tabulated density samples.  Demand facing any
provider is a tail probability of this distribution, so the cdf and its
inverse are the workhorses of every solver in the package.

All evaluation methods accept scalars or numpy arrays and return values
of matching shape.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from enum import Enum
from functools import cached_property

import numpy as np

from . import _table
from .errors import DomainError, ModelError

__all__ = [
    "DistributionKind",
    "ValuationDistribution",
    "load_pdf_samples",
    "save_pdf_samples",
]

_INTEGRAL_TOL = 1e-9
_MONOTONE_SLACK = 1e-12


class DistributionKind(Enum):
    UNIFORM = "uniform"
    CUSTOM = "custom"


class ValuationDistribution:
    """Distribution of user valuations on ``[0, beta]``.

    Construct with :meth:`uniform`, :meth:`from_samples`, or
    :meth:`from_csv`.  Every density is a piecewise-linear node table (a
    uniform density is two equal nodes at 0 and beta); the cdf is the exact
    integral of that interpolant, rescaled so it reaches exactly 1 at
    ``beta``.  The raw sample integral must already be within 1e-9 of 1.
    Density samples must be positive at interior nodes; the two endpoint
    samples may be zero.  Instances are immutable.
    """

    def __init__(self) -> None:
        raise TypeError(
            "use ValuationDistribution.uniform / from_samples / from_csv"
        )

    # -- construction ---------------------------------------------------

    @classmethod
    def _from_nodes(cls, kind, x, f, cum, slope) -> "ValuationDistribution":
        """Instance over node tuples: positions, densities, cdf, slopes."""
        self = object.__new__(cls)
        self._kind = kind
        self._beta = x[-1]
        self._x, self._f, self._cum, self._slope = x, f, cum, slope
        return self

    @classmethod
    def uniform(cls, beta: float) -> "ValuationDistribution":
        """Uniform density 1/beta on [0, beta]."""
        beta = float(beta)
        if not math.isfinite(beta) or beta <= 0.0:
            raise ModelError(f"beta must be positive and finite, got {beta}")
        h = 1.0 / beta
        return cls._from_nodes(DistributionKind.UNIFORM, (0.0, beta), (h, h), (0.0, 1.0), (0.0,))

    @classmethod
    def from_samples(cls, alphas, densities) -> "ValuationDistribution":
        """Piecewise-linear density through ``(alphas, densities)`` points.

        ``alphas`` must be strictly ascending, start at 0, and end at the
        support bound ``beta`` (taken from the last sample).
        """
        x = np.asarray(alphas, dtype=float)
        f = np.asarray(densities, dtype=float)
        if x.ndim != 1 or f.ndim != 1 or x.size != f.size:
            raise ModelError("alphas and densities must be 1-D arrays of equal length")
        if x.size < 2:
            raise ModelError("need at least two density samples")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(f))):
            raise ModelError("density samples must be finite")
        if x[0] != 0.0:
            raise ModelError(f"first sample point must be alpha=0, got {x[0]}")
        if np.any(np.diff(x) <= 0.0):
            raise ModelError("sample points must be strictly ascending")
        if x[-1] <= 0.0:
            raise ModelError("support bound must be positive")
        if np.any(f < 0.0):
            raise ModelError("density samples must be nonnegative")
        if f.size > 2 and np.any(f[1:-1] <= 0.0):
            raise ModelError("density must be strictly positive at interior nodes")
        total = float(np.sum(np.diff(x) * 0.5 * (f[:-1] + f[1:])))
        if abs(total - 1.0) > _INTEGRAL_TOL:
            raise ModelError(
                f"density integrates to {total:.12g}, expected 1 within {_INTEGRAL_TOL}"
            )
        f = f / total
        cum = np.concatenate(([0.0], np.cumsum(np.diff(x) * 0.5 * (f[:-1] + f[1:]))))
        cum[-1] = 1.0
        slope = np.diff(f) / np.diff(x)
        return cls._from_nodes(DistributionKind.CUSTOM, *(tuple(a.tolist()) for a in (x, f, cum, slope)))

    @classmethod
    def from_csv(cls, path) -> "ValuationDistribution":
        """Load density samples from a ``alpha,pdf`` CSV file."""
        alphas, densities = load_pdf_samples(path)
        try:
            return cls.from_samples(alphas, densities)
        except ModelError as exc:
            raise ModelError(f"{path}: {exc}") from exc

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        return _table.frozen_arrays(self._x, self._f, self._cum, self._slope)

    # -- basic properties -----------------------------------------------

    @property
    def kind(self) -> DistributionKind:
        return self._kind

    @property
    def beta(self) -> float:
        """Upper end of the valuation support."""
        return self._beta

    def is_uniform(self) -> bool:
        return self._kind is DistributionKind.UNIFORM

    # -- density, cdf, quantile -----------------------------------------

    def pdf(self, alpha):
        """Density at ``alpha``; zero outside [0, beta]."""
        if isinstance(alpha, float) or np.ndim(alpha) == 0:
            a = float(alpha)
            if a < 0.0 or a > self._beta:
                return 0.0
            return _table.value(self._x, self._f, self._slope, a)
        a = np.asarray(alpha, dtype=float)
        x, f, _, slope = self._arrays
        return np.where((a < 0.0) | (a > self._beta), 0.0, _table.values(x, f, slope, a))

    def cdf(self, alpha):
        """Probability that a valuation is at most ``alpha``; clamped to [0, 1].

        The top of the support maps to exactly 1, where the last segment's
        quadratic could land a few ulp short.
        """
        if isinstance(alpha, float) or np.ndim(alpha) == 0:
            a = float(alpha)
            if a <= 0.0:
                return 0.0
            if a >= self._beta:
                return 1.0
            i = bisect_right(self._x, a, 1, len(self._slope)) - 1  # NaN: last segment
            d = a - self._x[i]
            return min(max(self._cum[i] + d * (self._f[i] + 0.5 * self._slope[i] * d), 0.0), 1.0)
        a = np.clip(np.asarray(alpha, dtype=float), 0.0, self._beta)
        x, f, cum, slope = self._arrays
        i = _table.indices(x, a)
        d = a - x[i]
        out = np.clip(cum[i] + d * (f[i] + 0.5 * slope[i] * d), 0.0, 1.0)
        return np.where(a >= self._beta, 1.0, out)

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
            v = float(u)
            if not 0.0 <= v <= 1.0:  # NaN fails too
                raise DomainError(f"probability outside [0, 1]: {u!r}")
            if v == 0.0 or v == 1.0:
                return self._beta * v
            i = bisect_right(self._cum, v, 1, len(self._slope)) - 1
            s = self._slope[i]
            j = i + (s > 0.0)
            r = abs(v - self._cum[j])
            f = self._f[j]
            d = 2.0 * r / (f + math.sqrt(max(f * f - 2.0 * abs(s) * r, 0.0)))
            return min(max(self._x[j] - d if s > 0.0 else self._x[j] + d, self._x[i]), self._x[i + 1])
        uu = np.asarray(u, dtype=float)
        if not np.all((uu >= 0.0) & (uu <= 1.0)):
            raise DomainError(f"probability outside [0, 1]: {u!r}")
        x, _, cum, _ = self._arrays
        cum_j, f_j, x_j, two_s, step = self._entries
        i = _table.indices(cum, uu)
        r = np.abs(uu - cum_j[i])
        fj = f_j[i]
        d = 2.0 * r / (fj + np.sqrt(np.maximum(fj * fj - two_s[i] * r, 0.0)))
        out = np.minimum(np.maximum(x_j[i] + step[i] * d, x[:-1][i]), x[1:][i])
        return np.where((uu == 0.0) | (uu == 1.0), self._beta * uu, out)

    @cached_property
    def _entries(self) -> tuple[np.ndarray, ...]:
        """Per segment, what the array :meth:`quantile` gathers: the cdf,
        density and position of the node it enters from, ``2|slope|`` and
        the direction of the walk (-1 from the right node, +1 from the
        left; ``x - d`` and ``x + -1 * d`` round alike)."""
        x, f, cum, slope = self._arrays
        up = slope > 0.0
        j = np.arange(slope.size) + up
        return _table.frozen_arrays(cum[j], f[j], x[j], 2.0 * np.abs(slope), np.where(up, -1.0, 1.0))

    # -- derived constants ----------------------------------------------

    def k_constant(self) -> float:
        """max of alpha * pdf(alpha) on [0, beta]; exactly 1 for uniform.

        On each segment ``alpha * pdf(alpha)`` is a quadratic, so the
        maximum sits at a node or at the vertex of a falling segment.
        """
        if self._kind is DistributionKind.UNIFORM:
            return 1.0
        best = max(x * f for x, f in zip(self._x, self._f))
        for x0, x1, f0, s in zip(self._x, self._x[1:], self._f, self._slope):
            # (x0 + d) * (f0 + s * d) peaks at d = -b / (2 s), b = f0 + s * x0
            b = f0 + s * x0
            if s < 0.0 and 0.0 < -b / (2.0 * s) < x1 - x0:
                best = max(best, x0 * f0 - b * b / (4.0 * s))
        return best

    def max_density(self) -> float:
        """Largest density value on the support."""
        return max(self._f)

    def is_nonincreasing_pdf(self) -> bool:
        """True when the density never increases across its samples."""
        return self._nonincreasing

    @cached_property
    def _nonincreasing(self) -> bool:
        # the density is immutable: walk the node pairs once per instance
        return all(f1 - f0 <= _MONOTONE_SLACK for f0, f1 in zip(self._f, self._f[1:]))

    def __repr__(self) -> str:
        if self._kind is DistributionKind.UNIFORM:
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
    return _table.read_columns(path, ("alpha", "pdf"))


def save_pdf_samples(path, alphas, densities) -> None:
    """Write ``alpha,pdf`` rows; the exact inverse of :func:`load_pdf_samples`."""
    _table.write_columns(path, ("alpha", "pdf"), alphas, densities)
