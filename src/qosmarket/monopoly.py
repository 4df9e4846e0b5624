"""Single-provider subscription dynamics and their equilibrium.

Each period every user compares the provider's current quality, as
degraded by the previous period's subscriber share, against the posted
price: a user with valuation ``alpha`` subscribes when
``alpha * g(lam_prev) >= p``.  The induced share map

    h(lam) = 1 - F(p / g(lam))

is non-increasing and has exactly one fixed point.  In valuation terms
the fixed point is the marginal user ``a`` with ``a * g(1 - F(a)) = p``,
and that map rises strictly in ``a``: :func:`equilibrium` and
:func:`switching_cost_equilibrium_band` both invert it.  Variants of the
update rule cover partial adjustment (only a fraction of users
re-evaluate each period), switching costs (join and leave both cost
extra), and a positive network externality added to the utility.

:func:`convergence_condition` and friends report sufficient conditions
under which the iteration is a contraction and therefore converges from
any starting share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _table
from ._optim import itp_root
from .errors import DomainError, ModelError
from .qos import QoSModel
from .valuation import ValuationDistribution

__all__ = [
    "MonopolyMarket",
    "Synchronous",
    "Partial",
    "SwitchingCost",
    "PositiveExternality",
    "MonopolyVariant",
    "DynamicsTrace",
    "ConditionReport",
    "step",
    "step_variant",
    "simulate",
    "equilibrium",
    "equilibrium_closed_form",
    "convergence_condition",
    "convergence_condition_partial",
    "convergence_condition_positive_ext",
    "switching_cost_equilibrium_band",
]


@dataclass(frozen=True)
class MonopolyMarket:
    """A lone provider: valuation distribution, quality curve, posted price."""

    dist: ValuationDistribution
    qos: QoSModel
    price: float

    def __post_init__(self) -> None:
        p = float(self.price)
        if not math.isfinite(p) or p < 0.0:
            raise ModelError(f"price must be >= 0, got {self.price}")
        object.__setattr__(self, "price", p)


@dataclass(frozen=True)
class Synchronous:
    """Every user re-evaluates every period (the plain share map)."""


@dataclass(frozen=True)
class Partial:
    """Only a fraction ``epsilon`` of users re-evaluates each period."""

    epsilon: float

    def __post_init__(self) -> None:
        e = float(self.epsilon)
        if not math.isfinite(e) or not 0.0 < e <= 1.0:
            raise DomainError(f"epsilon must be in (0, 1], got {self.epsilon}")
        object.__setattr__(self, "epsilon", e)


@dataclass(frozen=True)
class SwitchingCost:
    """Joining or leaving costs ``cost`` on top of the subscription price.

    State for this variant is the valuation threshold ``a`` of the current
    subscriber set (users with valuation >= a subscribe), not the share.
    Subscribers stay while ``alpha * g - p >= -cost``; outsiders join when
    ``alpha * g - p - cost >= 0``.
    """

    cost: float

    def __post_init__(self) -> None:
        c = float(self.cost)
        if not math.isfinite(c) or c < 0.0:
            raise DomainError(f"switching cost must be >= 0, got {self.cost}")
        object.__setattr__(self, "cost", c)


@dataclass(frozen=True)
class PositiveExternality:
    """Utility ``alpha * q_bar - delta * lam + phi * lam**gamma - p``.

    Quality is the constant ``q_bar`` carried by the variant itself; the
    market's QoS curve is not consulted.  ``delta`` prices congestion,
    ``phi``/``gamma`` shape the network benefit of a popular service.
    """

    q_bar: float
    delta: float
    phi: float
    gamma: float

    def __post_init__(self) -> None:
        if not math.isfinite(float(self.q_bar)) or float(self.q_bar) <= 0.0:
            raise DomainError(f"q_bar must be positive, got {self.q_bar}")
        for field in ("delta", "phi"):
            v = float(getattr(self, field))
            if not math.isfinite(v) or v < 0.0:
                raise DomainError(f"{field} must be >= 0, got {v}")
        if not math.isfinite(float(self.gamma)) or float(self.gamma) <= 0.0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")


MonopolyVariant = Synchronous | Partial | SwitchingCost | PositiveExternality


@dataclass(frozen=True)
class DynamicsTrace:
    """Recorded share path of a simulation run.

    ``shares`` has shape (n,) for one provider or (n, 2) for two; row 0 is
    the initial state.  ``iterations`` counts update steps taken, so
    ``len(shares) == iterations + 1``.  ``residual`` is the magnitude of
    the last step's change; ``converged`` says whether it dropped below
    the requested tolerance within the iteration budget.  Non-convergence
    is a reported outcome here, never an exception.
    """

    shares: np.ndarray
    converged: bool
    iterations: int
    residual: float

    def __post_init__(self) -> None:
        arr = np.array(self.shares, dtype=float)
        if arr.ndim not in (1, 2) or (arr.ndim == 2 and arr.shape[1] != 2):
            raise ModelError("shares must have shape (n,) or (n, 2)")
        if arr.shape[0] < 1:
            raise ModelError("shares must contain the initial state")
        if np.any(arr < -1e-9) or np.any(arr > 1.0 + 1e-9):
            raise ModelError("shares must lie in [0, 1]")
        if arr.ndim == 2 and np.any(arr.sum(axis=1) > 1.0 + 1e-9):
            raise ModelError("share pairs must sum to at most 1")
        arr.flags.writeable = False
        object.__setattr__(self, "shares", arr)

    def final(self):
        """Last recorded state: float or (float, float)."""
        if self.shares.ndim == 1:
            return float(self.shares[-1])
        return float(self.shares[-1, 0]), float(self.shares[-1, 1])

    def to_csv(self, path) -> None:
        """Write ``t,lambda2`` rows (one provider) or ``t,lambda1,lambda2``."""
        cols = ("lambda2",) if self.shares.ndim == 1 else ("lambda1", "lambda2")
        rows = enumerate(self.shares.reshape(len(self.shares), -1))
        _table.write_rows(path, ("t", *cols), ((t, *state) for t, state in rows))


@dataclass(frozen=True)
class ConditionReport:
    """Verdict of a sufficient-stability check: ``holds`` iff ``lhs < rhs``.

    For a uniform distribution with a linear quality curve the equivalent
    ratio form is exposed too: ``degradation_ratio`` (c / q_bar) against
    ``degradation_bound`` (1 / (1 + K)).
    """

    holds: bool
    lhs: float
    rhs: float
    degradation_ratio: float | None = None
    degradation_bound: float | None = None


# --------------------------------------------------------------------------
# share updates


def step(market: MonopolyMarket, lam_prev: float) -> float:
    """One synchronous update: ``1 - F(p / g(lam_prev))``."""
    g = market.qos.evaluate(lam_prev)
    return 1.0 - market.dist.cdf(market.price / g)


def step_variant(market: MonopolyMarket, variant: MonopolyVariant, state: float) -> float:
    """One update under the given variant.

    State is the share for Synchronous/Partial/PositiveExternality and the
    subscriber-set valuation threshold for SwitchingCost.  Raises
    DomainError when the state is outside its range.
    """
    if isinstance(variant, Synchronous):
        return step(market, _checked_share(state))
    if isinstance(variant, Partial):
        lam = _checked_share(state)
        return (1.0 - variant.epsilon) * lam + variant.epsilon * step(market, lam)
    if isinstance(variant, SwitchingCost):
        a = float(state)
        beta = market.dist.beta
        if not math.isfinite(a) or not 0.0 <= a <= beta:
            raise DomainError(f"threshold outside [0, beta]: {state!r}")
        lam = 1.0 - market.dist.cdf(a)
        g = market.qos.evaluate(lam)
        t_stay = (market.price - variant.cost) / g
        t_join = (market.price + variant.cost) / g
        if t_join <= a:
            return t_join  # low-valuation outsiders find joining worthwhile
        if t_stay <= a:
            return a  # locked in: nobody joins, nobody leaves
        return min(t_stay, beta)  # marginal subscribers quit
    if isinstance(variant, PositiveExternality):
        lam = _checked_share(state)
        thr = (
            market.price + variant.delta * lam - variant.phi * lam**variant.gamma
        ) / variant.q_bar
        return 1.0 - market.dist.cdf(max(0.0, thr))
    raise ModelError(f"unknown variant {variant!r}")


def _checked_share(state: float) -> float:
    lam = float(state)
    if not math.isfinite(lam) or not 0.0 <= lam <= 1.0:
        raise DomainError(f"share outside [0, 1]: {state!r}")
    return lam


def simulate(
    market: MonopolyMarket,
    variant: MonopolyVariant,
    lam0: float,
    max_iter: int = 10_000,
    tol: float = 1e-10,
) -> DynamicsTrace:
    """Iterate the update from share ``lam0`` and record the path.

    Stops once the share changes by less than ``tol`` in one step, or
    after ``max_iter`` steps.  For SwitchingCost the initial subscriber
    set is the threshold set at ``lam0``, i.e. threshold
    ``quantile(1 - lam0)``; the trace still records shares.
    """
    lam0 = _checked_share(lam0)
    dist = market.dist
    if isinstance(variant, SwitchingCost):
        state, share = dist.quantile(1.0 - lam0), lambda a: 1.0 - dist.cdf(a)
    else:
        state, share = lam0, lambda lam: lam
    return _iterate(lambda s: step_variant(market, variant, s), state, lam0, share,
                    lambda a, b: abs(a - b), max_iter, tol)


def _iterate(update, state, share0, share, distance, max_iter: int, tol: float) -> DynamicsTrace:
    """Apply ``update`` until the share read off the state by ``share`` moves
    less than ``tol`` in ``distance``, at most ``max_iter`` times."""
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    shares = [share0]
    residual = math.inf
    for _ in range(max_iter):
        state = update(state)
        lam = share(state)
        residual = distance(lam, shares[-1])
        shares.append(lam)
        if residual < tol:
            break
    return DynamicsTrace(np.asarray(shares), residual < tol, len(shares) - 1, residual)


# --------------------------------------------------------------------------
# equilibrium


def equilibrium(market: MonopolyMarket) -> float:
    """The unique fixed point of the synchronous share map.

    The share is ``1 - F(a)`` for the marginal valuation ``a`` that solves
    ``a * g(1 - F(a)) = p`` (:func:`_threshold`): everyone at price 0, no
    one at ``beta * g(0)`` or above.  Raises ModelError unless the curve
    spans [0, 1].
    """
    _check_full_span(market.qos, "quality")
    return 1.0 - market.dist.cdf(_threshold(market, market.price))


def _check_full_span(qos: QoSModel, curve: str) -> None:
    """Equilibrium shares range over [0, 1], so the curve must span it."""
    if qos.domain != (0.0, 1.0):
        raise ModelError(f"{curve} curve spans {list(qos.domain)}, equilibria need [0, 1]")


def _threshold(market: MonopolyMarket, target: float) -> float:
    """The valuation ``a`` in [0, beta] with ``a * g(1 - F(a)) = target``.

    That map rises strictly from 0 at ``a = 0`` to ``beta * g(0)`` at beta
    (``a`` rises while ``g(1 - F(a))`` does not fall), so the answer is 0
    for targets up to 0, beta for targets from ``beta * g(0)`` on, and
    otherwise the one root.  :func:`itp_root` places it as ``beta * t``
    for ``t`` on the unit interval, to 1e-15 of beta whatever beta's scale.
    """
    if target <= 0.0:
        return 0.0
    dist, qos = market.dist, market.qos
    beta = dist.beta
    top = beta * qos.evaluate(0.0)
    if target >= top:
        return beta
    return beta * itp_root(lambda t: beta * t * qos.evaluate(1.0 - dist.cdf(beta * t)) - target,
                           0.0, 1.0, flo=-target, fhi=top - target)


def equilibrium_closed_form(
    dist: ValuationDistribution, qos: QoSModel, price: float
) -> float:
    """Exact equilibrium share for uniform valuations and an affine curve.

    Solving ``lam = 1 - p / (beta * g(lam))`` gives

        lam* = (q_bar + c - sqrt((q_bar - c)^2 + 4 c p / beta)) / (2 c)

    for prices up to ``beta * q_bar`` and 0 above.  It is evaluated as
    ``2 (q_bar - p / beta) / (q_bar + c + sqrt(...))``, the same root
    without the cancellation that loses every digit as c shrinks, and
    exact down to c = 0.
    """
    if not dist.is_uniform():
        raise ModelError("closed form requires uniform valuations")
    if not qos.is_affine():
        raise ModelError("closed form requires an affine quality curve on [0, 1]")
    p = MonopolyMarket(dist, qos, price).price
    beta = dist.beta
    q_bar = qos.q_bar
    c = qos.c
    if p > beta * q_bar:
        return 0.0
    disc = (q_bar - c) ** 2 + 4.0 * c * p / beta
    return max(0.0, 2.0 * (q_bar - p / beta) / (q_bar + c + math.sqrt(disc)))


# --------------------------------------------------------------------------
# stability conditions


def _decay_ratio_max(qos: QoSModel) -> float:
    """Supremum over the domain of -g'(lam)/g(lam).

    g' is constant on each segment while g falls, so the ratio peaks at
    each segment's right end, taken with that segment's slope.
    """
    return max(-s / g1 for _, _, _, g1, s in qos.segments())


def convergence_condition(
    dist: ValuationDistribution, qos: QoSModel
) -> ConditionReport:
    """Sufficient condition for the synchronous iteration to contract.

    Holds when ``max(-g'/g) < 1 / K`` with ``K = max(alpha * f(alpha))``.
    For uniform valuations with an affine curve the equivalent
    ratio form ``c / q_bar < 1 / (1 + K)`` is reported alongside.
    """
    k = dist.k_constant()
    lhs = _decay_ratio_max(qos)
    rhs = 1.0 / k
    ratio = bound = None
    if dist.is_uniform() and qos.is_affine():
        ratio = qos.c / qos.q_bar
        bound = 1.0 / (1.0 + k)
    return ConditionReport(
        holds=lhs < rhs,
        lhs=lhs,
        rhs=rhs,
        degradation_ratio=ratio,
        degradation_bound=bound,
    )


def convergence_condition_partial(
    dist: ValuationDistribution, qos: QoSModel, epsilon: float
) -> ConditionReport:
    """Contraction condition for partial adjustment: ``max(-g'/g) < 1/(eps K)``."""
    e = Partial(epsilon).epsilon
    lhs = _decay_ratio_max(qos)
    rhs = 1.0 / (e * dist.k_constant())
    return ConditionReport(holds=lhs < rhs, lhs=lhs, rhs=rhs)


def convergence_condition_positive_ext(
    dist: ValuationDistribution,
    q_bar: float,
    delta: float,
    phi: float,
    gamma: float,
) -> ConditionReport:
    """Contraction condition for the externality variant.

    Requires ``gamma >= 1`` (the guarantee needs the benefit term's slope
    bounded on [0, 1]); holds when ``max(f) * (phi * gamma + delta) / q_bar < 1``.
    """
    variant = PositiveExternality(q_bar=q_bar, delta=delta, phi=phi, gamma=gamma)
    if variant.gamma < 1.0:
        raise DomainError(f"condition requires gamma >= 1, got {gamma}")
    lhs = dist.max_density() * (variant.phi * variant.gamma + variant.delta) / variant.q_bar
    return ConditionReport(holds=lhs < 1.0, lhs=lhs, rhs=1.0)


# --------------------------------------------------------------------------
# switching-cost equilibria


def switching_cost_equilibrium_band(
    market: MonopolyMarket, cost: float
) -> list[tuple[float, float]]:
    """Thresholds fixed under the switching-cost update, as closed intervals.

    A threshold ``a`` is stationary when staying and joining both fail to
    move anyone: ``(p - cost)/g(lam(a)) <= a <= (p + cost)/g(lam(a))``
    with ``lam(a) = 1 - F(a)``, i.e. ``p - cost <= a * g(lam(a)) <= p +
    cost``.  That map rises strictly, so the rest points form the one
    interval between the thresholds of :func:`_threshold` at ``p - cost``
    and ``p + cost``, which is ``[beta, beta]`` when even the quit
    threshold exceeds beta (the update pins ``a = beta`` there).  With
    zero cost the band collapses to the equilibrium threshold.  Raises
    ModelError unless the curve spans [0, 1].
    """
    c_s = SwitchingCost(cost).cost
    _check_full_span(market.qos, "quality")
    p = market.price
    lo = _threshold(market, p - c_s)
    # the inverse is monotone: keep the two roots' 1e-15 noise from
    # crossing the ends of a narrower band
    return [(lo, max(lo, _threshold(market, p + c_s)))]
