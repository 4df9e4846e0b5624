"""Quality-of-service curves and access technologies.

A provider's delivered quality is a function ``g`` of its own subscriber
share ``lam`` in [0, 1]: positive everywhere and never increasing, since
more subscribers means more congestion.  Every curve is tabulated
samples interpolated linearly; constant and affine ``q_bar - c * lam``
curves are the tables on [0, 1] with one slope throughout, however they
were built, and they are the ones that the paper's closed forms assume.
A :class:`Technology` bundles a quality curve with the recurring
infrastructure cost of operating it.

Evaluation methods accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _table
from .errors import DomainError, FitError, ModelError

__all__ = [
    "QoSModel",
    "Technology",
    "AffineFit",
    "fit_affine",
    "average_throughput",
    "load_qos_samples",
    "save_qos_samples",
]

_HEADER = ("lambda", "qos")


class QoSModel:
    """Share-dependent quality curve ``g(lam)`` on a subinterval of [0, 1].

    Construct with :meth:`constant`, :meth:`linear`, :meth:`tabulated`, or
    :meth:`from_csv`.  Every curve is a piecewise-linear node table, defined
    on the span of its nodes; evaluation outside that span raises
    DomainError.  Constant and linear curves are two nodes on [0, 1] with
    slope exactly ``-c``.  Instances are immutable.
    """

    def __init__(self) -> None:
        raise TypeError("use QoSModel.constant / linear / tabulated / from_csv")

    # -- construction ---------------------------------------------------

    @classmethod
    def _from_nodes(cls, x, q, slope) -> "QoSModel":
        """Instance over node tuples: shares, qualities, slopes."""
        self = object.__new__(cls)
        self._x, self._q, self._slope = x, q, slope
        return self

    @classmethod
    def constant(cls, q: float) -> "QoSModel":
        """Quality ``q`` regardless of load."""
        q = float(q)
        if not math.isfinite(q) or q <= 0.0:
            raise ModelError(f"constant quality must be positive, got {q}")
        return cls._from_nodes((0.0, 1.0), (q, q), (0.0,))

    @classmethod
    def linear(cls, q_bar: float, c: float) -> "QoSModel":
        """Affine degradation ``q_bar - c * lam`` with ``0 <= c < q_bar``."""
        q_bar = float(q_bar)
        c = float(c)
        if not math.isfinite(q_bar) or q_bar <= 0.0:
            raise ModelError(f"q_bar must be positive, got {q_bar}")
        if not math.isfinite(c) or c < 0.0 or c >= q_bar:
            raise ModelError(f"need 0 <= c < q_bar, got c={c}, q_bar={q_bar}")
        return cls._from_nodes((0.0, 1.0), (q_bar, q_bar - c), (-c,))

    @classmethod
    def tabulated(cls, lams, qualities) -> "QoSModel":
        """Linear interpolation through ``(lams, qualities)`` sample points.

        Share points must be strictly ascending within [0, 1]; qualities
        must be positive and non-increasing.
        """
        x, q = _table.samples(lams, qualities, ("lams", "qualities"))
        if x[0] < 0.0 or x[-1] > 1.0:
            raise ModelError("share samples must lie in [0, 1]")
        if np.any(q <= 0.0):
            raise ModelError("quality samples must be positive")
        if np.any(np.diff(q) > _table.MONOTONE_SLACK):
            raise ModelError("quality samples must be non-increasing")
        slope = np.diff(q) / np.diff(x)
        return cls._from_nodes(*(tuple(a.tolist()) for a in (x, q, slope)))

    @classmethod
    def from_csv(cls, path) -> "QoSModel":
        """Load a tabulated curve from a ``lambda,qos`` CSV file."""
        return _table.read_columns(path, _HEADER, cls.tabulated)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        return _table.frozen_arrays(self._x, self._q, self._slope)

    # -- properties -------------------------------------------------------

    def is_affine(self) -> bool:
        """True when the curve spans exactly [0, 1] and every segment has the
        same slope: ``q_bar - c * lam``, constant when ``c = 0``."""
        return self.domain == (0.0, 1.0) and all(s == self._slope[0] for s in self._slope)

    @property
    def q_bar(self) -> float:
        """Unloaded quality ``g(0)`` of an affine curve; ModelError for any
        other curve (see :meth:`is_affine`)."""
        if not self.is_affine():
            raise ModelError("q_bar is defined only for affine curves on [0, 1]")
        return self._q[0]

    @property
    def c(self) -> float:
        """Degradation slope ``-g'`` of an affine curve (0 for a constant
        one); ModelError for any other curve (see :meth:`is_affine`)."""
        if not self.is_affine():
            raise ModelError("c is defined only for affine curves on [0, 1]")
        return 0.0 - self._slope[0]  # a flat curve gives +0.0, not -0.0

    @property
    def domain(self) -> tuple[float, float]:
        """Share interval on which the curve is defined."""
        return self._x[0], self._x[-1]

    @property
    def nodes(self) -> tuple[float, ...]:
        """Share positions of the curve's nodes, ascending; the slope may
        jump at the interior ones."""
        return self._x

    def max_value(self) -> float:
        """Largest quality, attained at the low end of the domain."""
        return self._q[0]

    def segments(self):
        """``(lam0, lam1, g0, g1, slope)`` for each linear piece, left to right."""
        return zip(self._x, self._x[1:], self._q, self._q[1:], self._slope)

    # -- evaluation -------------------------------------------------------

    def evaluate(self, lam):
        """Quality at share ``lam``; DomainError outside the curve's domain."""
        lo, hi = self._x[0], self._x[-1]
        if isinstance(lam, float) or np.ndim(lam) == 0:
            v = float(lam)
            if not lo <= v <= hi:
                raise self._outside(lam)
            return _table.value(self._x, self._q, self._slope, v)
        return _table.values(*self._arrays, self._checked(lam))

    def derivative(self, lam):
        """Slope of the curve at ``lam``.

        At a sample point the slope of the segment to its right applies,
        except at the upper end of the span where the last segment's slope
        applies.
        """
        if isinstance(lam, float) or np.ndim(lam) == 0:
            return self._value_slope(lam)[1]
        x, _, slope = self._arrays
        return slope[_table.indices(x, self._checked(lam))]

    def _value_slope(self, lam) -> tuple[float, float]:
        """:meth:`evaluate` and :meth:`derivative` at a scalar share, from one
        segment search."""
        v = float(lam)
        x = self._x
        if not x[0] <= v <= x[-1]:
            raise self._outside(lam)
        i = bisect_right(x, v) - 1
        if i < len(self._slope):
            s = self._slope[i]
            return self._q[i] + s * (v - x[i]), s
        return self._q[-1], self._slope[-1]  # the top of the span

    def _sorted_values(self, lam: np.ndarray) -> np.ndarray:
        """:meth:`evaluate` of a nonempty ascending 1-D array of shares, bit
        for bit, placing the curve's nodes among the shares
        (:func:`_table.sorted_values`); the span is checked at the two ends."""
        if not (lam[0] >= self._x[0] and lam[-1] <= self._x[-1]):
            raise self._outside(lam)
        return _table.sorted_values(self._x, self._q, self._slope, lam)

    def _checked(self, lam) -> np.ndarray:
        """An array of shares as floats; DomainError unless all lie in the span."""
        a = np.asarray(lam, dtype=float)
        if not (np.all(a >= self._x[0]) and np.all(a <= self._x[-1])):
            raise self._outside(lam)
        return a

    def _outside(self, lam) -> DomainError:
        """The error for shares ``lam`` outside the span."""
        return DomainError(f"share outside [{self._x[0]:g}, {self._x[-1]:g}]: {lam!r}")

    def __repr__(self) -> str:
        if self.is_affine():
            if self.c == 0.0:
                return f"QoSModel.constant({self.q_bar!r})"
            return f"QoSModel.linear(q_bar={self.q_bar!r}, c={self.c!r})"
        return f"<QoSModel tabulated nodes={len(self._x)} span={self.domain}>"


@dataclass(frozen=True)
class Technology:
    """An access technology: a quality curve plus its recurring cost.

    ``qos=None`` marks the stay-out option (no deployment); it must carry
    zero cost.
    """

    name: str
    qos: QoSModel | None
    cost_per_period: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("technology name must be nonempty")
        cost = float(self.cost_per_period)
        if not math.isfinite(cost) or cost < 0.0:
            raise ModelError(f"cost_per_period must be >= 0, got {self.cost_per_period}")
        object.__setattr__(self, "cost_per_period", cost)
        if self.qos is None and cost != 0.0:
            raise ModelError("the stay-out option must have zero cost")

    @property
    def is_entry(self) -> bool:
        return self.qos is not None

    @classmethod
    def stay_out(cls, name: str = "not-enter") -> "Technology":
        return cls(name=name, qos=None, cost_per_period=0.0)


@dataclass(frozen=True)
class AffineFit:
    """Result of :func:`fit_affine`: the fitted curve and its RMS residual."""

    model: QoSModel
    rms_residual: float


def fit_affine(lams, qualities) -> AffineFit:
    """Least-squares fit of ``q = q_bar - c * lam`` to measured samples.

    Requires at least two samples with distinct share values and
    non-increasing quality.  A fitted slope that comes out positive is
    clamped to c = 0; a fit with ``c >= q_bar`` (nonpositive quality at
    full load) raises FitError.
    """
    x, q = _table.samples(lams, qualities, ("lams", "qualities"), FitError, sort=True)
    if np.any(np.diff(q) > _table.MONOTONE_SLACK):
        raise FitError("quality samples must be non-increasing in share")
    slope, intercept = np.polyfit(x, q, 1)
    c = max(-float(slope), 0.0)
    q_bar = float(intercept)
    if q_bar <= 0.0 or c >= q_bar:
        raise FitError(
            f"fitted curve invalid: q_bar={q_bar:.12g}, c={c:.12g}"
        )
    model = QoSModel.linear(q_bar, c)
    resid = q - (q_bar - c * x)
    rms = float(np.sqrt(np.mean(resid * resid)))
    return AffineFit(model=model, rms_residual=rms)


def average_throughput(
    fraction_outside: float, broadband_rate: float, macro_rate: float
) -> float:
    """Population-average rate when a ``fraction_outside`` of time is
    served by the wide-area network and the rest by in-building broadband.
    """
    f = float(fraction_outside)
    if not math.isfinite(f) or not 0.0 <= f <= 1.0:
        raise DomainError(f"fraction_outside must be in [0, 1], got {fraction_outside}")
    b = float(broadband_rate)
    m = float(macro_rate)
    if not math.isfinite(b) or b < 0.0 or not math.isfinite(m) or m < 0.0:
        raise DomainError("rates must be nonnegative and finite")
    return (1.0 - f) * b + f * m


def load_qos_samples(path) -> tuple[np.ndarray, np.ndarray]:
    """Read ``lambda,qos`` rows from a CSV file.

    Structural problems raise ModelError naming the file and line.
    """
    return _table.read_columns(path, _HEADER)


def save_qos_samples(path, lams, qualities) -> None:
    """Write ``lambda,qos`` rows; the exact inverse of :func:`load_qos_samples`."""
    _table.write_columns(path, _HEADER, lams, qualities)
