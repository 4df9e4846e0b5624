"""Quantity competition between the incumbent and the entrant.

Both providers pick target market shares; prices are read off inverse
demand, i.e. the valuations of the marginal users that make those shares
self-fulfilling.  With shares ``lam1`` (incumbent) and ``lam2``
(entrant), the top ``lam1`` of the valuation range buys the incumbent
and the next ``lam2`` buys the entrant, so with
``a1 = quantile(1 - lam1)`` and ``a2 = quantile(1 - lam1 - lam2)``:

    p1 = a1 * (q1 - g(lam2)) + a2 * g(lam2)
    p2 = a2 * g(lam2)

Revenue is own share times own price, and zero for infeasible share
pairs.  With a non-increasing valuation density each best response lies
in (0, 1/2]; :func:`nash_solve` finds the equilibrium by alternating
best responses and verifies it by re-optimizing both players.
:func:`supermodularity_check` certifies the game, not a solve: it reports
whether the revenue cross-partials are nonpositive, which makes the best
responses monotone and the iteration reliable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._optim import scan_then_bisect
from .duopoly import _check_incumbent, _check_pair
from .errors import DomainError, ModelError, NonConvergenceError
from .qos import QoSKind, QoSModel
from .valuation import ValuationDistribution

__all__ = [
    "CournotGame",
    "NashOutcome",
    "SupermodularityReport",
    "marginal_valuations",
    "inverse_demand",
    "revenues",
    "best_response",
    "best_response_closed",
    "supermodularity_check",
    "nash_solve",
    "nash_solve_multi",
]

_SCAN = 2_001  # grid points of every revenue scan
_FD_STEP = 1e-4
_FD_SLACK = 1e-6
_VERIFY_TOL = 1e-8

DEFAULT_STARTS = ((0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5), (0.25, 0.25))


@dataclass(frozen=True)
class CournotGame:
    """Share-setting competition between incumbent (q1) and entrant (qos2)."""

    dist: ValuationDistribution
    q1: float
    qos2: QoSModel

    def __post_init__(self) -> None:
        object.__setattr__(self, "q1", _check_incumbent(self.q1, self.qos2, "entrant"))
        _check_entrant_span(self.qos2, "entrant")


def _check_entrant_span(qos2: QoSModel, entrant: str) -> None:
    """Competing shares start at 0, so the entrant's curve must too."""
    if qos2.domain[0] != 0.0:
        raise ModelError(f"{entrant} curve spans {list(qos2.domain)}, must start at share 0")


@dataclass(frozen=True)
class NashOutcome:
    """A share equilibrium with its prices, revenues, and diagnostics.

    ``iterations`` counts best-response rounds; ``path`` lists the visited
    share pairs, starting with the start point.  Whether the cross-partial
    condition holds is a property of the game: ``supermodularity_check(game)``.
    """

    lam1: float
    lam2: float
    p1: float
    p2: float
    r1: float
    r2: float
    iterations: int
    path: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("lam1", "lam2"):
            v = getattr(self, name)
            if not 0.0 < v < 0.5:
                raise ModelError(f"equilibrium {name}={v!r} outside (0, 1/2)")


@dataclass(frozen=True)
class SupermodularityReport:
    """Whether revenue cross-partials are nonpositive over [0, 1/2]^2."""

    holds: bool
    worst_point: tuple[float, float]
    worst_margin: float


def marginal_valuations(
    dist: ValuationDistribution, lam1: float, lam2: float
) -> tuple[float, float]:
    """Valuations of the two marginal users for a feasible share pair."""
    l1, l2 = _check_pair(lam1, lam2)
    return (
        float(dist.quantile(1.0 - l1)),
        float(dist.quantile(max(0.0, 1.0 - l1 - l2))),
    )


def inverse_demand(
    game: CournotGame, lam1: float, lam2: float
) -> tuple[float, float]:
    """Prices that make the share pair self-fulfilling."""
    a1, a2 = marginal_valuations(game.dist, lam1, lam2)
    g = game.qos2.evaluate(float(lam2))
    return a1 * (game.q1 - g) + a2 * g, a2 * g


def revenues(game: CournotGame, lam1: float, lam2: float) -> tuple[float, float]:
    """Own share times own price; (0, 0) when the shares exceed the market."""
    l1, l2 = float(lam1), float(lam2)
    if not (0.0 <= l1 <= 1.0 and 0.0 <= l2 <= 1.0):
        raise DomainError(f"shares outside [0, 1]: ({lam1!r}, {lam2!r})")
    if l1 + l2 > 1.0:
        return 0.0, 0.0
    p1, p2 = inverse_demand(game, l1, l2)
    return l1 * p1, l2 * p2


def _revenue_surface(dist: ValuationDistribution, qos2: QoSModel, own, other, q1: float | None) -> np.ndarray:
    """Own revenue over own and rival shares, broadcast: the incumbent's when
    ``q1`` is given, else the entrant's (against an empty rival, the monopoly
    revenue); zero where the shares exceed the market.  A float ``own``
    takes the same expressions in pure Python, for the maximizers' probes."""
    if isinstance(own, float):
        rest = 1.0 - own - other
        if not rest >= 0.0:
            return 0.0
        a2 = dist.quantile(min(rest, 1.0))
        if q1 is None:
            return own * a2 * qos2.evaluate(own)
        g = qos2.evaluate(other)
        return own * (dist.quantile(min(max(1.0 - own, 0.0), 1.0)) * (q1 - g) + a2 * g)
    own = np.asarray(own, dtype=float)
    return _surface_from_column(dist, qos2, own, _own_column(dist, qos2, own, q1), other, q1)


def _own_column(dist: ValuationDistribution, qos2: QoSModel, own: np.ndarray, q1: float | None):
    """The factor of the revenue surface that only the own share moves:
    ``quantile(1 - own)`` for the incumbent, ``g(own)`` for the entrant."""
    if q1 is None:
        return qos2.evaluate(own)
    return dist.quantile(np.clip(1.0 - own, 0.0, 1.0))


def _surface_from_column(
    dist: ValuationDistribution, qos2: QoSModel, own: np.ndarray, column, other, q1: float | None
) -> np.ndarray:
    """:func:`_revenue_surface` given ``column = _own_column(dist, qos2, own, q1)``."""
    rest = 1.0 - own - other
    feasible = rest >= 0.0
    a2 = dist.quantile(np.where(feasible, np.clip(rest, 0.0, 1.0), 0.0))
    if q1 is None:
        r = own * a2 * column
    else:
        g = qos2.evaluate(other)
        r = own * (column * (q1 - g) + a2 * g)
    return np.where(feasible, r, 0.0)


def _revenue_slope(
    dist: ValuationDistribution, qos2: QoSModel, own: float, other: float, q1: float | None
) -> float:
    """Derivative of :func:`_revenue_surface` in the own share, at scalars.

    quantile'(u) = 1/pdf(quantile(u)), infinite where the density vanishes;
    at share 0 only the price level remains."""
    a2 = dist.quantile(max(1.0 - own - other, 0.0))
    if q1 is None:
        g = qos2.evaluate(own)
        price, dprice = a2 * g, a2 * qos2.derivative(own) - g * _quantile_slope(dist, a2)
    else:
        g = qos2.evaluate(other)
        a1 = dist.quantile(1.0 - own)
        price = a1 * (q1 - g) + a2 * g
        dprice = -(q1 - g) * _quantile_slope(dist, a1) - g * _quantile_slope(dist, a2)
    return price if own == 0.0 else price + own * dprice


def _quantile_slope(dist: ValuationDistribution, alpha: float) -> float:
    f = dist.pdf(alpha)
    return 1.0 / f if f > 0.0 else math.inf


def best_response(game: CournotGame, player: int, lam_other: float) -> float:
    """Revenue-maximizing own share against a fixed rival share.

    Requires a non-increasing valuation density, under which the result
    is guaranteed to lie in (0, 1/2].  Scans 2,001 grid points on
    [0, 1/2], joined for the entrant by the nodes of its curve, then takes
    the best scan point if it is a node where the revenue slope jumps
    through zero, else the root of the analytic slope in the two cells
    around it; ties resolve toward the smaller share.  Raises DomainError
    when the incumbent's rival share lies beyond the entrant curve's span.
    """
    return _responder(game, player)(lam_other)


def _maximizer(
    dist: ValuationDistribution, qos2: QoSModel, q1: float | None, lo: float, hi: float
) -> Callable[[float], float]:
    """The share in [lo, hi] maximizing :func:`_revenue_surface` (the
    incumbent's when ``q1`` is given, else the entrant's), as a function of
    the rival share.  The grid and the own-share column are built once, so
    each call computes only the rival-dependent column and the refinement.
    The entrant's slope jumps at its curve's nodes, so its grid holds the
    nodes inside (lo, hi) too; the incumbent's slope has no jumps."""
    xs = np.linspace(lo, hi, _SCAN)
    kinks = () if q1 is not None else tuple(x for x in qos2.nodes if lo < x < hi)
    if kinks:
        xs = np.union1d(xs, kinks)
    column = _own_column(dist, qos2, xs, q1)

    def maximize(other: float) -> float:
        return scan_then_bisect(lambda lam: _revenue_surface(dist, qos2, lam, other, q1),
                                lambda lam: _revenue_slope(dist, qos2, lam, other, q1),
                                xs, _surface_from_column(dist, qos2, xs, column, other, q1), kinks)

    return maximize


def _responder(game: CournotGame, player: int) -> Callable[[float], float]:
    """``player``'s :func:`best_response` as a function of the rival share,
    with its :func:`_maximizer` built once."""
    if player not in (1, 2):
        raise DomainError(f"player must be 1 or 2, got {player!r}")
    if not game.dist.is_nonincreasing_pdf():
        raise ModelError("best response guarantees need a non-increasing density")
    qos2 = game.qos2
    q1, hi = (game.q1, 0.5) if player == 1 else (None, min(0.5, qos2.domain[1]))
    maximize = _maximizer(game.dist, qos2, q1, 0.0, hi)

    def respond(lam_other: float) -> float:
        other = float(lam_other)
        if not math.isfinite(other) or not 0.0 <= other < 1.0:
            raise DomainError(f"rival share outside [0, 1): {lam_other!r}")
        if player == 1 and other > qos2.domain[1]:
            raise DomainError(f"rival share {lam_other!r} beyond the entrant curve's span "
                              f"{list(qos2.domain)}")
        best = maximize(other)
        assert 0.0 < best <= 0.5, f"best response {best} escaped (0, 1/2]"
        return best

    return respond


def best_response_closed(
    q1: float, q_bar2: float, c: float, player: int, lam_other: float
) -> float:
    """Exact best responses for uniform valuations and a linear entrant curve.

    Requires ``0 < c < q_bar2 < q1``.  Incumbent:

        B1(lam2) = (q1 - lam2 * (q_bar2 - c * lam2)) / (2 q1)

    Entrant, writing ``w = 1 - lam1``:

        B2(lam1) = (c w + q_bar2 - sqrt(q_bar2^2 + c^2 w^2 - c q_bar2 w)) / (3 c)
    """
    q1 = float(q1)
    q_bar2 = float(q_bar2)
    c = float(c)
    if not (0.0 < c < q_bar2 < q1) or not all(
        map(math.isfinite, (q1, q_bar2, c))
    ):
        raise ModelError(f"need 0 < c < q_bar2 < q1, got c={c}, q_bar2={q_bar2}, q1={q1}")
    if player not in (1, 2):
        raise DomainError(f"player must be 1 or 2, got {player!r}")
    other = float(lam_other)
    if not math.isfinite(other) or not 0.0 <= other < 1.0:
        raise DomainError(f"rival share outside [0, 1): {lam_other!r}")
    if player == 1:
        return (q1 - other * (q_bar2 - c * other)) / (2.0 * q1)
    w = 1.0 - other
    s = math.sqrt(q_bar2 * q_bar2 + c * c * w * w - c * q_bar2 * w)
    return (c * w + q_bar2 - s) / (3.0 * c)


def supermodularity_check(game: CournotGame) -> SupermodularityReport:
    """Check that both revenue cross-partials are nonpositive on [0, 1/2]^2.

    For uniform valuations the condition reduces to
    ``g(lam2) + lam2 * g'(lam2) >= 0`` on the entrant-share axis (the
    incumbent share drops out; the reported worst point carries 0 in that
    slot).  That margin is linear on each segment of the curve, so it is
    checked exactly at the segment ends, with each segment's own slope.
    Otherwise the cross-partials of both revenue surfaces are estimated by
    central finite differences (h = 1e-4) on the 99x99 interior of a
    101x101 grid, with a small slack absorbing differencing noise; this
    needs a non-increasing density.
    """
    if game.dist.is_uniform():
        qos = game.qos2
        hi = min(0.5, qos.domain[1])
        ends = [
            (lam, qos.evaluate(lam) + lam * s)
            for lam0, lam1, _, _, s in qos.segments() if lam0 <= hi
            for lam in (lam0, min(lam1, hi))
        ]
        lam, worst = min(ends, key=lambda e: e[1])  # first of equal margins
        return SupermodularityReport(holds=worst >= 0.0, worst_point=(0.0, lam), worst_margin=worst)
    if not game.dist.is_nonincreasing_pdf():
        raise ModelError("supermodularity check needs a non-increasing density")
    h = _FD_STEP
    pts = np.linspace(0.0, 0.5, 101)
    pts = pts[(pts >= h) & (pts <= 0.5 - h)]
    own, rival = pts[None, :], pts[:, None]  # rival-major grid
    worst = math.inf
    worst_point = (pts[0], pts[0])
    for q1 in (game.q1, None):  # incumbent, then entrant
        # cross-partial in (own, rival) via four corner evaluations
        r_pp, r_pm, r_mp, r_mm = (_revenue_surface(game.dist, game.qos2, own + do, rival + dr, q1)
                                  for do in (h, -h) for dr in (h, -h))
        cross = (r_pp - r_pm - r_mp + r_mm) / (4.0 * h * h)
        margin = -cross  # condition: cross-partial <= 0
        k = int(np.argmin(margin))  # first of equal margins, rival-major
        if margin.flat[k] < worst:
            worst = float(margin.flat[k])
            b, i = divmod(k, pts.size)
            worst_point = (float(pts[i]), float(pts[b])) if q1 is not None else (float(pts[b]), float(pts[i]))
    return SupermodularityReport(
        holds=bool(worst >= -_FD_SLACK), worst_point=worst_point, worst_margin=worst
    )


def _closed_pair(game: CournotGame):
    """Closed-form best-response functions, or None where there are none."""
    if (
        game.dist.is_uniform()
        and game.qos2.kind is QoSKind.LINEAR
        and game.qos2.c > 0.0
    ):
        q1, qb, c = game.q1, game.qos2.q_bar, game.qos2.c
        return (
            lambda lam2: best_response_closed(q1, qb, c, 1, lam2),
            lambda lam1: best_response_closed(q1, qb, c, 2, lam1),
        )
    return None


def nash_solve(
    game: CournotGame,
    start: tuple[float, float] = (0.25, 0.25),
    max_rounds: int = 1_000,
    tol: float = 1e-10,
) -> NashOutcome:
    """Alternating best responses from ``start`` until a fixed point.

    One round updates the incumbent and then the entrant.  On
    convergence the point is verified as an equilibrium by re-optimizing
    each player numerically (improvements below 1e-8 required).  Each
    player's numerical best response is built once per solve: the share
    grid and the own-share column of its revenue scan serve every round
    and the verification, and each round computes only the column that
    moves with the rival.  Rounds use the closed forms instead where they
    exist (uniform valuations, a congested linear entrant curve).  Raises
    NonConvergenceError (carrying the visited path) if the round budget
    runs out.  The supermodularity certificate that makes the iteration
    reliable belongs to the game: ``supermodularity_check(game)``.
    """
    l1, l2 = float(start[0]), float(start[1])
    if not (0.0 <= l1 <= 0.5 and 0.0 <= l2 <= 0.5):
        raise DomainError(f"start must lie in [0, 1/2]^2, got {start!r}")
    if l2 > game.qos2.domain[1]:
        raise DomainError(f"start={start!r}: entrant share beyond the entrant curve's span "
                          f"{list(game.qos2.domain)}")
    if not game.dist.is_nonincreasing_pdf():
        raise ModelError("equilibrium guarantees need a non-increasing density")
    resp1, resp2 = _responder(game, 1), _responder(game, 2)
    br1, br2 = _closed_pair(game) or (resp1, resp2)
    path = [(l1, l2)]
    rounds = 0
    converged = False
    for rounds in range(1, max_rounds + 1):
        n1 = br1(l2)
        n2 = br2(n1)
        delta = max(abs(n1 - l1), abs(n2 - l2))
        l1, l2 = n1, n2
        path.append((l1, l2))
        if delta < tol:
            converged = True
            break
    if not converged:
        raise NonConvergenceError(
            f"best-response iteration did not converge in {max_rounds} rounds", path
        )
    r1, r2 = revenues(game, l1, l2)
    alt1 = resp1(l2)
    alt2 = resp2(l1)
    best_r1 = revenues(game, alt1, l2)[0]
    best_r2 = revenues(game, l1, alt2)[1]
    if best_r1 - r1 >= _VERIFY_TOL or best_r2 - r2 >= _VERIFY_TOL:
        raise NonConvergenceError(
            "converged point failed equilibrium verification "
            f"(improvements {best_r1 - r1:.3g}, {best_r2 - r2:.3g})",
            path,
        )
    p1, p2 = inverse_demand(game, l1, l2)
    return NashOutcome(
        lam1=l1,
        lam2=l2,
        p1=p1,
        p2=p2,
        r1=r1,
        r2=r2,
        iterations=rounds,
        path=tuple(path),
    )


def nash_solve_multi(
    game: CournotGame,
    starts: tuple[tuple[float, float], ...] = DEFAULT_STARTS,
    max_rounds: int = 1_000,
    tol: float = 1e-10,
) -> list[NashOutcome]:
    """Solve from several deterministic starts, sorted by (lam1, lam2).

    Disagreement between the returned outcomes flags multiple equilibria
    (or a failure of the monotonicity the iteration relies on, which
    ``supermodularity_check(game)`` certifies once per game).
    """
    outcomes = [nash_solve(game, s, max_rounds, tol) for s in starts]
    outcomes.sort(key=lambda o: (o.lam1, o.lam2))
    return outcomes
