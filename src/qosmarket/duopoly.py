"""Price-taking subscription dynamics with an incumbent and an entrant.

The incumbent serves at fixed quality ``q1``; the entrant's quality
``g(lam2)`` degrades with its own share and sits strictly below ``q1``.
Given posted prices ``p1 >= 0`` and ``p2 >= 0``, last period's entrant
share fixes two valuation thresholds:

    theta1 = (p1 - p2) / (q1 - g)      incumbent vs entrant
    theta2 = p2 / g                    entrant vs nothing

Users above ``theta1`` take the incumbent, users between take the
entrant, provided the entrant's price per quality beats the incumbent's
(``p1/q1 > p2/g``); otherwise the entrant attracts no one and the
incumbent serves the tail above ``p1/q1``.

The entrant side of the update depends only on ``lam2``, so the
equilibrium reduces to a one-dimensional root problem, which an ITP
root solves to 1e-15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ._optim import itp_root
from .errors import DomainError, ModelError
from .monopoly import ConditionReport, DynamicsTrace, _check_full_span, _iterate
from .qos import QoSModel
from .valuation import ValuationDistribution

__all__ = [
    "DuopolyMarket",
    "Regime",
    "DuopolyEquilibrium",
    "step_duopoly",
    "simulate_duopoly",
    "equilibrium_duopoly",
    "convergence_condition_duopoly",
]


class Regime(Enum):
    ENTRANT_SHUT_OUT = "entrant-shut-out"
    INTERIOR = "interior"


@dataclass(frozen=True)
class DuopolyMarket:
    """Two providers at posted prices.

    ``q1`` is the incumbent's constant quality; ``qos2`` the entrant's
    curve, which must stay strictly below ``q1`` everywhere.
    """

    dist: ValuationDistribution
    q1: float
    qos2: QoSModel
    p1: float
    p2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q1", _check_incumbent(self.q1, self.qos2, "entrant"))
        for field in ("p1", "p2"):
            v = float(getattr(self, field))
            if not math.isfinite(v) or v < 0.0:
                raise ModelError(f"{field} must be >= 0, got {v}")
            object.__setattr__(self, field, v)


@dataclass(frozen=True)
class DuopolyEquilibrium:
    """Fixed point of the two-provider update.

    ``theta1``/``theta2`` are the defining thresholds in the interior
    regime and ``None`` when the entrant is shut out.
    """

    lam1: float
    lam2: float
    regime: Regime
    theta1: float | None = None
    theta2: float | None = None


def _check_incumbent(q1: float, qos2: QoSModel, entrant: str) -> float:
    """``q1`` as a float once it is positive and finite and ``qos2`` stays below it."""
    q = float(q1)
    if not math.isfinite(q) or q <= 0.0:
        raise ModelError(f"q1 must be positive, got {q1}")
    if qos2.max_value() >= q:
        raise ModelError(f"{entrant} quality reaches {qos2.max_value()}, must stay below q1={q}")
    return q


def _check_pair(lam1: float, lam2: float) -> tuple[float, float]:
    l1, l2 = float(lam1), float(lam2)
    if not (math.isfinite(l1) and math.isfinite(l2)):
        raise DomainError(f"shares must be finite, got ({lam1!r}, {lam2!r})")
    if l1 < 0.0 or l2 < 0.0 or l1 + l2 > 1.0 + 1e-12:
        raise DomainError(f"share pair outside the simplex: ({lam1!r}, {lam2!r})")
    return l1, l2


def step_duopoly(
    market: DuopolyMarket, lam1_prev: float, lam2_prev: float
) -> tuple[float, float]:
    """One synchronous update of both shares.

    Only the entrant's previous share matters: it sets the quality users
    expect from the entrant this period.
    """
    _, l2 = _check_pair(lam1_prev, lam2_prev)
    g = market.qos2.evaluate(l2)
    F = market.dist.cdf
    if market.p1 / market.q1 > market.p2 / g:
        theta1 = (market.p1 - market.p2) / (market.q1 - g)
        theta2 = market.p2 / g
        f1 = F(theta1)
        return 1.0 - f1, max(0.0, f1 - F(theta2))
    return 1.0 - F(market.p1 / market.q1), 0.0


def simulate_duopoly(
    market: DuopolyMarket,
    start: tuple[float, float],
    max_iter: int = 10_000,
    tol: float = 1e-10,
) -> DynamicsTrace:
    """Iterate the two-share update and record the path.

    Convergence is measured in the max norm of one step's change.
    Non-convergence is reported on the trace, not raised.
    """
    pair = _check_pair(*start)
    return _iterate(lambda p: step_duopoly(market, *p), pair, pair, lambda p: p,
                    lambda a, b: max(abs(a[0] - b[0]), abs(a[1] - b[1])), max_iter, tol)


def equilibrium_duopoly(market: DuopolyMarket) -> DuopolyEquilibrium:
    """The unique fixed point of the two-share update.

    The entrant is shut out exactly when its price per quality is no
    better than the incumbent's even with an empty network:
    ``p1/q1 <= p2/g(0)``.  Otherwise the entrant share is the root of
    ``h(lam2) - lam2``, where ``h(lam2)`` is the entrant share that
    :func:`step_duopoly` moves to from ``(0, lam2)`` (the incumbent share
    never enters it); the difference falls strictly, and
    :func:`itp_root` places its root to 1e-15.  The incumbent share then
    follows from theta1.  Raises ModelError unless the entrant curve spans
    [0, 1].
    """
    _check_full_span(market.qos2, "entrant")
    F = market.dist.cdf
    g0 = market.qos2.evaluate(0.0)
    if market.p1 / market.q1 <= market.p2 / g0:
        return DuopolyEquilibrium(
            lam1=1.0 - F(market.p1 / market.q1),
            lam2=0.0,
            regime=Regime.ENTRANT_SHUT_OUT,
        )

    lam2 = itp_root(lambda lam2: step_duopoly(market, 0.0, lam2)[1] - lam2, 0.0, 1.0)
    g = market.qos2.evaluate(lam2)
    theta1 = (market.p1 - market.p2) / (market.q1 - g)
    theta2 = market.p2 / g
    return DuopolyEquilibrium(
        lam1=1.0 - F(theta1),
        lam2=lam2,
        regime=Regime.INTERIOR,
        theta1=theta1,
        theta2=theta2,
    )


def convergence_condition_duopoly(
    dist: ValuationDistribution, q1: float, qos2: QoSModel
) -> ConditionReport:
    """Sufficient condition for the two-share iteration to contract.

    Holds when ``max( (-g'/g) * q1 / (q1 - g) ) < 1 / K`` over the curve's
    domain.  On each segment the slope is fixed and the ratio is convex in
    g, so the maximum sits at a segment end.  Validates that the entrant
    curve stays strictly below ``q1`` first.
    """
    q1 = _check_incumbent(q1, qos2, "entrant")
    lhs = max(
        (-s / g) * (q1 / (q1 - g)) for _, _, g0, g1, s in qos2.segments() for g in (g0, g1)
    )
    rhs = 1.0 / dist.k_constant()
    return ConditionReport(holds=lhs < rhs, lhs=lhs, rhs=rhs)
