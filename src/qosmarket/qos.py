"""Quality-of-service curves and access technologies.

A provider's delivered quality is a function ``g`` of its own subscriber
share ``lam`` in [0, 1]: positive everywhere and never increasing, since
more subscribers means more congestion.  Three shapes cover the package:
constant, affine ``q_bar - c * lam``, and tabulated samples interpolated
linearly.  A :class:`Technology` bundles a quality curve with the
recurring infrastructure cost of operating it.

Evaluation methods accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import _table
from .errors import DomainError, FitError, ModelError

__all__ = [
    "QoSKind",
    "QoSModel",
    "Technology",
    "AffineFit",
    "fit_affine",
    "average_throughput",
    "load_qos_samples",
    "save_qos_samples",
]

_MONOTONE_SLACK = 1e-12


class QoSKind(Enum):
    CONSTANT = "constant"
    LINEAR = "linear"
    TABULATED = "tabulated"


class QoSModel:
    """Share-dependent quality curve ``g(lam)`` on a subinterval of [0, 1].

    Construct with :meth:`constant`, :meth:`linear`, :meth:`tabulated`, or
    :meth:`from_csv`.  Every curve is a piecewise-linear node table: constant
    and linear curves are two nodes on [0, 1] with slope exactly ``-c``; a
    tabulated curve is defined on the span of its sample points and
    evaluation outside that span raises DomainError.  Instances are
    immutable.
    """

    def __init__(self) -> None:
        raise TypeError("use QoSModel.constant / linear / tabulated / from_csv")

    # -- construction ---------------------------------------------------

    @classmethod
    def _from_nodes(cls, kind, x, q, slope, q_bar=None, c=None) -> "QoSModel":
        """Instance over node tuples: shares, qualities, slopes."""
        self = object.__new__(cls)
        self._kind = kind
        self._q_bar = q_bar
        self._c = c
        self._x, self._q, self._slope = x, q, slope
        return self

    @classmethod
    def constant(cls, q: float) -> "QoSModel":
        """Quality ``q`` regardless of load."""
        q = float(q)
        if not math.isfinite(q) or q <= 0.0:
            raise ModelError(f"constant quality must be positive, got {q}")
        return cls._from_nodes(QoSKind.CONSTANT, (0.0, 1.0), (q, q), (0.0,), q, 0.0)

    @classmethod
    def linear(cls, q_bar: float, c: float) -> "QoSModel":
        """Affine degradation ``q_bar - c * lam`` with ``0 <= c < q_bar``."""
        q_bar = float(q_bar)
        c = float(c)
        if not math.isfinite(q_bar) or q_bar <= 0.0:
            raise ModelError(f"q_bar must be positive, got {q_bar}")
        if not math.isfinite(c) or c < 0.0 or c >= q_bar:
            raise ModelError(f"need 0 <= c < q_bar, got c={c}, q_bar={q_bar}")
        return cls._from_nodes(QoSKind.LINEAR, (0.0, 1.0), (q_bar, q_bar - c), (-c,), q_bar, c)

    @classmethod
    def tabulated(cls, lams, qualities) -> "QoSModel":
        """Linear interpolation through ``(lams, qualities)`` sample points.

        Share points must be strictly ascending within [0, 1]; qualities
        must be positive and non-increasing.
        """
        x = np.asarray(lams, dtype=float)
        q = np.asarray(qualities, dtype=float)
        if x.ndim != 1 or q.ndim != 1 or x.size != q.size:
            raise ModelError("lams and qualities must be 1-D arrays of equal length")
        if x.size < 2:
            raise ModelError("need at least two QoS samples")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(q))):
            raise ModelError("QoS samples must be finite")
        if x[0] < 0.0 or x[-1] > 1.0:
            raise ModelError("share samples must lie in [0, 1]")
        if np.any(np.diff(x) <= 0.0):
            raise ModelError("share samples must be strictly ascending")
        if np.any(q <= 0.0):
            raise ModelError("quality samples must be positive")
        if np.any(np.diff(q) > _MONOTONE_SLACK):
            raise ModelError("quality samples must be non-increasing")
        slope = np.diff(q) / np.diff(x)
        return cls._from_nodes(QoSKind.TABULATED, *(tuple(a.tolist()) for a in (x, q, slope)))

    @classmethod
    def from_csv(cls, path) -> "QoSModel":
        """Load a tabulated curve from a ``lambda,qos`` CSV file."""
        lams, qualities = load_qos_samples(path)
        try:
            return cls.tabulated(lams, qualities)
        except ModelError as exc:
            raise ModelError(f"{path}: {exc}") from exc

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        return _table.frozen_arrays(self._x, self._q, self._slope)

    # -- properties -------------------------------------------------------

    @property
    def kind(self) -> QoSKind:
        return self._kind

    @property
    def q_bar(self) -> float:
        """Unloaded quality for constant/linear curves."""
        if self._q_bar is None:
            raise ModelError("q_bar is defined only for constant/linear curves")
        return self._q_bar

    @property
    def c(self) -> float:
        """Degradation slope for constant/linear curves (0 for constant)."""
        if self._c is None:
            raise ModelError("c is defined only for constant/linear curves")
        return self._c

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
                raise DomainError(f"share outside [{lo:g}, {hi:g}]: {lam!r}")
            return _table.value(self._x, self._q, self._slope, v)
        a = np.asarray(lam, dtype=float)
        if not (np.all(a >= lo) and np.all(a <= hi)):
            raise DomainError(f"share outside [{lo:g}, {hi:g}]: {lam!r}")
        return _table.values(*self._arrays, a)

    def derivative(self, lam):
        """Slope of the curve at ``lam``.

        At a sample point the slope of the segment to its right applies,
        except at the upper end of the span where the last segment's slope
        applies.
        """
        self.evaluate(lam)
        if isinstance(lam, float) or np.ndim(lam) == 0:
            return self._slope[bisect_right(self._x, float(lam), 1, len(self._slope)) - 1]
        x, _, slope = self._arrays
        return slope[_table.indices(x, np.asarray(lam, dtype=float))]

    def __repr__(self) -> str:
        if self._kind is QoSKind.CONSTANT:
            return f"QoSModel.constant({self._q_bar!r})"
        if self._kind is QoSKind.LINEAR:
            return f"QoSModel.linear(q_bar={self._q_bar!r}, c={self._c!r})"
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
    x = np.asarray(lams, dtype=float)
    q = np.asarray(qualities, dtype=float)
    if x.ndim != 1 or q.ndim != 1 or x.size != q.size:
        raise FitError("lams and qualities must be 1-D arrays of equal length")
    if x.size < 2:
        raise FitError("need at least two samples to fit")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(q))):
        raise FitError("samples must be finite")
    order = np.argsort(x, kind="stable")
    x = x[order]
    q = q[order]
    if np.any(np.diff(x) == 0.0):
        raise FitError("share values must be distinct")
    if np.any(np.diff(q) > _MONOTONE_SLACK):
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
    return _table.read_columns(path, ("lambda", "qos"))


def save_qos_samples(path, lams, qualities) -> None:
    """Write ``lambda,qos`` rows; the exact inverse of :func:`load_qos_samples`."""
    _table.write_columns(path, ("lambda", "qos"), lams, qualities)
