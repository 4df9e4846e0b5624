"""Provider revenue as a function of price, and its maximization.

Charging price ``p`` earns ``p`` times the equilibrium share at that
price.  Parameterizing by the marginal user instead: serving everyone
with valuation at least ``alpha`` requires price ``alpha * g(1 - F(alpha))``,
so revenue as a function of the share ``lam`` is

    J(lam) = quantile(1 - lam) * g(lam) * lam,

which :func:`optimize` maximizes directly.  With a non-increasing
valuation density the optimal share never exceeds 1/2, and for uniform
valuations with mild degradation the known bounds tighten further; see
:func:`optimum_bounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .competition import _maximizer
from .errors import DomainError, ModelError
from .monopoly import MonopolyMarket, _decay_ratio_max, equilibrium
from .qos import QoSModel
from .valuation import ValuationDistribution

__all__ = [
    "RevenueOptimum",
    "OptimumBounds",
    "revenue_at_price",
    "price_from_marginal",
    "optimize",
    "optimum_closed_form",
    "optimum_bounds",
    "revenue_curve",
]

# golden-ratio constants for the tightened uniform bounds
_SHARE_FLOOR = (3.0 - math.sqrt(5.0)) / 2.0
_GOLDEN_FRAC = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RevenueOptimum:
    """A revenue-maximizing operating point.

    ``price = marginal_valuation * g(share)``, ``share = 1 - F(marginal_valuation)``,
    and ``revenue = price * share`` all hold by construction.
    """

    price: float
    marginal_valuation: float
    share: float
    revenue: float


@dataclass(frozen=True)
class OptimumBounds:
    """Enclosing bounds for the revenue optimum.

    Valid whenever the valuation density is non-increasing.  ``tightened``
    marks the sharper variant that applies for uniform valuations whose
    quality curve decays slower than its level (max -g'/g < 1).
    """

    price_low: float
    price_high: float
    alpha_low: float
    alpha_high: float
    share_low: float
    share_high: float
    tightened: bool


def revenue_at_price(
    dist: ValuationDistribution, qos: QoSModel, price: float
) -> float:
    """Price times the equilibrium share at that price."""
    return float(price) * equilibrium(MonopolyMarket(dist, qos, price))


def price_from_marginal(
    dist: ValuationDistribution, qos: QoSModel, alpha: float
) -> float:
    """Price that makes ``alpha`` the marginal user: ``alpha * g(1 - F(alpha))``."""
    a = float(alpha)
    if not math.isfinite(a) or not 0.0 <= a <= dist.beta:
        raise DomainError(f"marginal valuation outside [0, beta]: {alpha!r}")
    return a * qos.evaluate(1.0 - dist.cdf(a))


def optimize(dist: ValuationDistribution, qos: QoSModel) -> RevenueOptimum:
    """Maximize revenue over the share.

    Revenue is the entrant's against an empty rival, maximized as in
    :func:`best_response`: a scan of 2,001 grid points joined by the
    curve's nodes, then the best scan point if it is a node where the
    revenue slope jumps through zero, else the root of the analytic slope
    in the two cells around it; ties resolve toward the smaller share.
    The scan covers the curve's span, cut at 1/2 for a non-increasing
    density, where the optimum is known to lie.  Raises ModelError when
    that range is empty.
    """
    lo, hi = qos.domain  # within [0, 1]
    hi = min(hi, 0.5) if dist.is_nonincreasing_pdf() else hi
    if not lo < hi:
        raise ModelError("quality curve domain too small to optimize over")
    share = _maximizer(dist, qos, None, lo, hi)(0.0)
    alpha = dist.quantile(1.0 - share)
    price = alpha * qos.evaluate(share)
    return RevenueOptimum(
        price=price, marginal_valuation=alpha, share=share, revenue=price * share
    )


def optimum_closed_form(beta: float, q_bar: float, c: float) -> RevenueOptimum:
    """Exact optimum for uniform valuations and a linear quality curve.

    With ``s = sqrt(q_bar^2 + c^2 - c q_bar)``:

        alpha* = beta (2c - q_bar + s) / (3c)
        lam*   = (c + q_bar - s) / (3c)

    and ``c = 0`` reduces to the textbook half-market split
    ``(beta/2, 1/2)``.
    """
    beta = float(beta)
    q_bar = float(q_bar)
    c = float(c)
    if not math.isfinite(beta) or beta <= 0.0:
        raise ModelError(f"beta must be positive, got {beta}")
    if not math.isfinite(q_bar) or q_bar <= 0.0:
        raise ModelError(f"q_bar must be positive, got {q_bar}")
    if not math.isfinite(c) or c < 0.0 or c >= q_bar:
        raise ModelError(f"need 0 <= c < q_bar, got c={c}, q_bar={q_bar}")
    if c == 0.0:
        alpha = beta / 2.0
        share = 0.5
    else:
        s = math.sqrt(q_bar * q_bar + c * c - c * q_bar)
        alpha = beta * (2.0 * c - q_bar + s) / (3.0 * c)
        share = (c + q_bar - s) / (3.0 * c)
    price = alpha * (q_bar - c * share)
    return RevenueOptimum(
        price=price, marginal_valuation=alpha, share=share, revenue=price * share
    )


def optimum_bounds(dist: ValuationDistribution, qos: QoSModel) -> OptimumBounds:
    """Bounds that must enclose the revenue optimum.

    Requires a non-increasing density.  Base form: the optimal share lies
    in (0, 1/2], the marginal valuation in [quantile(1/2), beta), and the
    price in [quantile(1/2) * g(1/2), beta * g(0)).  For uniform
    valuations with ``max(-g'/g) < 1`` the share floor rises to
    (3 - sqrt(5))/2 and the upper price/valuation bounds shrink by the
    golden fraction (sqrt(5) - 1)/2.
    """
    if not dist.is_nonincreasing_pdf():
        raise ModelError("bounds require a non-increasing valuation density")
    beta = dist.beta
    a_med = dist.quantile(0.5)
    base = OptimumBounds(
        price_low=a_med * qos.evaluate(0.5),
        price_high=beta * qos.evaluate(0.0),
        alpha_low=a_med,
        alpha_high=beta,
        share_low=0.0,
        share_high=0.5,
        tightened=False,
    )
    if dist.is_uniform() and _decay_ratio_max(qos) < 1.0:
        return OptimumBounds(
            price_low=base.price_low,
            price_high=_GOLDEN_FRAC * beta * qos.evaluate(_SHARE_FLOOR),
            alpha_low=base.alpha_low,
            alpha_high=_GOLDEN_FRAC * beta,
            share_low=_SHARE_FLOOR,
            share_high=0.5,
            tightened=True,
        )
    return base


def revenue_curve(
    dist: ValuationDistribution, qos: QoSModel, shares
) -> np.ndarray:
    """Rows of ``(share, price, revenue)`` along the marginal-user curve."""
    lam = np.asarray(shares, dtype=float)
    if lam.ndim != 1:
        raise DomainError("shares must be a 1-D array")
    price = dist.quantile(1.0 - lam) * qos.evaluate(lam)
    return np.column_stack([lam, price, price * lam])
