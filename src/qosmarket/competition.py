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
:func:`supermodularity_check` certifies the game, not a solve: it
evaluates both revenue cross-partials in closed form, from the two node
tables' values and one-sided slopes, and reports whether they are
nonpositive, which makes the best responses monotone and the iteration
reliable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ._optim import _XTOL, scan_then_bisect, step_peak
from .duopoly import _check_incumbent, _check_pair
from .errors import DomainError, ModelError, NonConvergenceError
from .qos import QoSModel
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
_GAP = 1.0 / 200  # widest gap between certificate samples, as a share of the market
_VERIFY_TOL = 1e-8  # largest improvement at a verified equilibrium, relative to revenue

# a solve's first round answers the entrant's start share, so starts that
# differ only in the incumbent's share would repeat one solve
DEFAULT_STARTS = ((0.0, 0.5), (0.5, 0.0), (0.25, 0.25))


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


def _revenue_surface(dist: ValuationDistribution, qos2: QoSModel, own: float, other: float,
                     q1: float | None) -> float:
    """Own revenue at scalar own and rival shares: the incumbent's when ``q1``
    is given, else the entrant's (against an empty rival, the monopoly
    revenue); zero where the shares exceed the market.  The scalar probe of
    the maximizers, which pass the unit table; :meth:`_RevenueKernel.scan`
    gives the same values over a grid."""
    rest = 1.0 - own - other
    if not rest >= 0.0:
        return 0.0
    a2 = dist.quantile(min(rest, 1.0))
    if q1 is None:
        return own * a2 * qos2.evaluate(own)
    g = qos2.evaluate(other)
    return own * (dist.quantile(min(max(1.0 - own, 0.0), 1.0)) * (q1 - g) + a2 * g)


class _RevenueKernel:
    """One player's :func:`_revenue_surface` over an ascending grid ``xs`` of
    own shares, and its slope in the own share, against any rival share.

    Built once per maximizer, over a ``grid`` triple from :func:`_scan_grid`
    (or :func:`_grid_of`): ``xs``, its reverse ``own``, and ``rest = 1 -
    own``, which ascends.  The factor that only the own share moves is
    computed once per kernel: ``quantile(1 - own)`` for the incumbent, from
    ``rest``, and ``g(own)`` for the entrant, read by placing the curve's
    nodes among ``xs`` (``QoSModel._sorted_values``) and reversed.  A scan
    works on the feasible part of the grid alone, where ``1 - own - other
    >= 0``.  There that argument ascends, so its quantile
    places the density's nodes among the arguments
    (``ValuationDistribution._sorted_quantile``), and the revenue is formed
    in place.  Each element sees the scalar probe's operations in its
    order, so a scan and the probe agree bit for bit.
    """

    def __init__(self, dist: ValuationDistribution, qos2: QoSModel, q1: float | None,
                 grid: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        self._dist, self._qos2, self._q1 = dist, qos2, q1
        xs, self._own, self._rest = grid
        self._column = (qos2._sorted_values(xs)[::-1] if q1 is None
                        else dist._sorted_quantile(self._rest))

    def scan(self, other: float) -> np.ndarray:
        """:func:`_revenue_surface` at every grid share, in grid order,
        against the rival share ``other``; zero past the feasible part."""
        k = int(np.searchsorted(self._rest, other))  # rest - other >= 0 from k on
        a2 = self._dist._sorted_quantile(self._rest[k:] - other)
        own, column = self._own[k:], self._column[k:]
        vals = np.zeros(self._own.size)
        out = vals[: own.size][::-1]
        if self._q1 is None:
            np.multiply(np.multiply(own, a2, out=a2), column, out=out)
        else:
            g = self._qos2.evaluate(other)
            price = np.add(np.multiply(column, self._q1 - g), np.multiply(a2, g, out=a2), out=a2)
            np.multiply(own, price, out=out)
        return vals

    def slope(self, other: float) -> Callable[[float], float]:
        """The derivative of :func:`_revenue_surface` in the own share
        against the rival share ``other``, as a function of a scalar own
        share.

        quantile'(u) = 1/pdf(quantile(u)), infinite where the density
        vanishes; at share 0 only the price level remains.  Each call reads
        a quantile with its density, and the entrant's curve with its slope,
        in one search each; ``g(other)`` is read once, here."""
        quantile, q1 = self._dist._quantile_density, self._q1
        if q1 is None:
            curve = self._qos2._value_slope

            def entrant(own: float) -> float:
                a2, f2 = quantile(max(1.0 - own - other, 0.0))
                g, dg = curve(own)
                price = a2 * g
                if own == 0.0:
                    return price
                return price + own * (a2 * dg - g * (1.0 / f2 if f2 > 0.0 else math.inf))

            return entrant
        g = self._qos2.evaluate(other)
        margin = q1 - g

        def incumbent(own: float) -> float:
            a2, f2 = quantile(max(1.0 - own - other, 0.0))
            a1, f1 = quantile(1.0 - own)
            price = a1 * margin + a2 * g
            if own == 0.0:
                return price
            return price + own * (-margin * (1.0 / f1 if f1 > 0.0 else math.inf)
                                  - g * (1.0 / f2 if f2 > 0.0 else math.inf))

        return incumbent


def best_response(game: CournotGame, player: int, lam_other: float) -> float:
    """Revenue-maximizing own share against a fixed rival share.

    Requires a non-increasing valuation density, under which the result
    is guaranteed to lie in (0, 1/2].  Scans 2,001 grid points on
    [0, 1/2], joined for the entrant by the nodes of its curve, then takes
    the best scan point if it is a node where the revenue slope jumps
    through zero, else the root of the analytic slope in the two cells
    around it; ties resolve toward the smaller share.  The scan and the
    slope come from one revenue kernel (:func:`_maximizer`).  Raises
    DomainError when the incumbent's rival share lies beyond the entrant
    curve's span.
    """
    return _responder(game, player)(lam_other)


def _grid_of(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The :class:`_RevenueKernel` grid triple of an ascending share array
    ``xs``: ``xs``, its reverse ``own`` and ``1 - own``."""
    own = xs[::-1].copy()
    return xs, own, 1.0 - own


@lru_cache(maxsize=8)
def _span_grid(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_grid_of` ``np.linspace(lo, hi, n)``, read-only, made once per span."""
    grid = _grid_of(np.linspace(lo, hi, n))
    for arr in grid:
        arr.flags.writeable = False
    return grid


def _scan_grid(lo: float, hi: float,
               kinks: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid triple of a scan on [lo, hi]: the span's shared
    :func:`_span_grid`, or for ``kinks`` inside (lo, hi) a fresh triple of
    its union with them."""
    grid = _span_grid(lo, hi, _SCAN)
    return _grid_of(np.union1d(grid[0], kinks)) if kinks else grid


def _maximizer(
    dist: ValuationDistribution, qos2: QoSModel, q1: float | None, lo: float, hi: float
) -> Callable[..., float]:
    """The share in [lo, hi] maximizing :func:`_revenue_surface` (the
    incumbent's when ``q1`` is given, else the entrant's), as a function of
    the rival share.  Its :class:`_RevenueKernel` is built once, so a call
    pays for the feasible part of one scan against the rival, in place, and
    for the scalar slopes of its refinement, each one quantile-with-density
    search (two for the incumbent) plus, for the entrant, one search of its
    curve, all on ``dist``'s unit table.  The grid comes from
    :func:`_scan_grid`: the 2,001 points of the span are made once per span
    and shared read-only by every maximizer on it.  The entrant's slope
    jumps at its curve's nodes, so its grid holds the nodes inside (lo, hi)
    too; the incumbent's slope has no jumps.
    Given a ``start`` share, a call first tries one uphill step of
    ``width`` from it (:func:`step_peak`) and scans only if that step does
    not bracket a maximum."""
    kinks = () if q1 is not None else tuple(x for x in qos2.nodes if lo < x < hi)
    grid = _scan_grid(lo, hi, kinks)
    xs, dist = grid[0], dist._unit
    kernel = _RevenueKernel(dist, qos2, q1, grid)

    def maximize(other: float, start: float | None = None, width: float = 0.0) -> float:
        slope = kernel.slope(other)
        if start is not None:
            peak = step_peak(slope, start, width, lo, hi, kinks)
            if peak is not None:
                return peak
        return scan_then_bisect(lambda lam: _revenue_surface(dist, qos2, lam, other, q1), slope,
                                xs, kernel.scan(other), kinks)

    return maximize


def _span(game: CournotGame, player: int) -> float:
    """The upper end of ``player``'s best-response scan: 1/2, or the end of
    the entrant's curve if that comes first."""
    return 0.5 if player == 1 else min(0.5, game.qos2.domain[1])


def _responder(game: CournotGame, player: int) -> Callable[..., float]:
    """``player``'s :func:`best_response` as a function of the rival share,
    with its :func:`_maximizer` built once; ``start`` and ``width`` pass
    through to it."""
    if player not in (1, 2):
        raise DomainError(f"player must be 1 or 2, got {player!r}")
    if not game.dist.is_nonincreasing_pdf():
        raise ModelError("best response guarantees need a non-increasing density")
    qos2 = game.qos2
    maximize = _maximizer(game.dist, qos2, game.q1 if player == 1 else None, 0.0,
                          _span(game, player))

    def respond(lam_other: float, start: float | None = None, width: float = 0.0) -> float:
        other = _check_rival(lam_other)
        if player == 1 and other > qos2.domain[1]:
            raise DomainError(f"rival share {lam_other!r} beyond the entrant curve's span "
                              f"{list(qos2.domain)}")
        best = maximize(other, start, width)
        if not 0.0 < best <= 0.5:
            raise ModelError(f"player {player}'s best response {best!r} escaped (0, 1/2]")
        return best

    return respond


def _check_rival(lam_other: float) -> float:
    """``lam_other`` as a float once it is a rival share in [0, 1)."""
    other = float(lam_other)
    if not math.isfinite(other) or not 0.0 <= other < 1.0:
        raise DomainError(f"rival share outside [0, 1): {lam_other!r}")
    return other


def best_response_closed(
    q1: float, q_bar2: float, c: float, player: int, lam_other: float
) -> float:
    """Exact best responses for uniform valuations and a linear entrant curve.

    Requires ``0 <= c < q_bar2 < q1``.  Incumbent:

        B1(lam2) = (q1 - lam2 * (q_bar2 - c * lam2)) / (2 q1)

    Entrant, writing ``w = 1 - lam1`` and
    ``s = sqrt(q_bar2^2 + c^2 w^2 - c q_bar2 w)``:

        B2(lam1) = (c w + q_bar2 - s) / (3 c) = w q_bar2 / (c w + q_bar2 + s),

    evaluated in the second, conjugate form, which loses no digits as c
    shrinks and gives the constant curve's ``w / 2`` at c = 0.
    """
    qos2 = QoSModel.linear(q_bar2, c)
    q1 = _check_incumbent(q1, qos2, "entrant")
    if player not in (1, 2):
        raise DomainError(f"player must be 1 or 2, got {player!r}")
    return _closed_pair(q1, qos2.q_bar, qos2.c)[player - 1](_check_rival(lam_other))


def _closed_pair(q1: float, q_bar2: float, c: float):
    """:func:`best_response_closed`'s B1 and B2, unvalidated, as functions
    of the rival share."""
    return (lambda lam2: (q1 - lam2 * (q_bar2 - c * lam2)) / (2.0 * q1),
            lambda lam1: _entrant_closed(q_bar2, c, 1.0 - lam1))


def _entrant_closed(q_bar2: float, c: float, w: float) -> float:
    """:func:`best_response_closed`'s B2 in its conjugate form, unvalidated:
    ``w`` is the market the incumbent leaves (1 at an empty rival)."""
    s = math.sqrt(q_bar2 * q_bar2 + c * c * w * w - c * q_bar2 * w)
    return w * q_bar2 / (c * w + q_bar2 + s)


def supermodularity_check(game: CournotGame) -> SupermodularityReport:
    """Check that both revenue cross-partials are nonpositive on [0, 1/2]^2.

    With ``w = 1 - lam1 - lam2``, ``Q`` the quantile, ``Q' = 1/f(Q)`` and
    ``Q'' = -f'(Q)/f(Q)^3``, the cross-partials are, in closed form:

        incumbent  g'(Q(w) - Q(1-lam1)) - g Q'(w) + lam1 [g'(Q'(1-lam1) - Q'(w)) + g Q''(w)]
        entrant    -(g + lam2 g') Q'(w) + lam2 g Q''(w)

    Slopes jump only at table nodes: g' at the curve's (in lam2), f' at the
    density's (in ``a2 = Q(w)``).  So both are evaluated, on the unit
    market, on a (lam2, a2) product of samples taken piece by piece, each
    piece end to end with its own slope: lam2 within the curve's span up
    to 1/2, at most 1/200 apart; a2 over [0, 1], at most 1/200 apart and
    1/200 of the market between neighbours.  Points with ``lam1`` outside
    [0, 1/2] are left out, as are those where the density vanishes at
    ``Q(w)`` or ``Q(1 - lam1)`` (the ``lam1 = 0`` edge of a density that
    reaches 0 at beta).  The margin is beta times the unit market's
    ``-max(cross-partials)`` at the worst point, reported as ``(lam1,
    lam2)``, the first of equal margins in lam2-major order.  For uniform
    valuations both cross-partials are ``-beta * (g + lam2 g')``.
    """
    dist, qos = game.dist._unit, game.qos2
    lam2, g, dg = _samples(qos.segments(), min(0.5, qos.domain[1]), lambda g0, g1: 1.0)
    a2, f2, df2 = _samples(dist.segments(), 1.0, lambda f0, f1: np.maximum(1.0, np.maximum(f0, f1)))
    a2, f2, df2 = (v[f2 > 0.0] for v in (a2, f2, df2))
    lam1 = 1.0 - lam2[:, None] - dist.cdf(a2)
    i, j = np.nonzero((lam1 >= 0.0) & (lam1 <= 0.5))  # lam2-major
    lam1, lam2 = lam1[i, j], lam2[i]
    margin = -np.maximum(*_cross_partials(dist, lam1, lam2, g[i], dg[i], a2[j], f2[j], df2[j]))
    k = int(np.nanargmin(margin))
    worst = float(margin[k])
    return SupermodularityReport(holds=worst >= 0.0, worst_point=(float(lam1[k]), float(lam2[k])),
                                 worst_margin=game.dist.beta * worst)


def _cross_partials(dist: ValuationDistribution, lam1, lam2, g, dg, a2, f2, df2):
    """The incumbent's and the entrant's revenue cross-partials at shares
    ``(lam1, lam2)``, given the curve's value ``g`` and slope ``dg`` at
    ``lam2`` and the density's value ``f2 > 0`` and slope ``df2`` at ``a2 =
    Q(1 - lam1 - lam2)``.  The incumbent's is NaN where the density
    vanishes at ``Q(1 - lam1)``: only at ``lam1 = 0``, where it is 0 * inf."""
    dq2 = 1.0 / f2
    ddq2 = -df2 * dq2 ** 3
    a1 = dist.quantile(1.0 - lam1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cross1 = dg * (a2 - a1) - g * dq2 + lam1 * (dg * (1.0 / dist.pdf(a1) - dq2) + g * ddq2)
    return cross1, -(g + lam2 * dg) * dq2 + lam2 * g * ddq2


def _samples(segments, hi: float, rate) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions, values and slopes along a node table's pieces ``(t0, t1,
    y0, y1, slope)`` up to ``hi``: each piece end to end, with its own
    slope, so a node between two pieces appears once per side.  Points on
    a piece lie at most ``_GAP / rate(y0, y1)`` apart."""
    t0, t1, y0, y1, slope = np.array([p for p in segments if p[0] <= hi]).T
    end = np.minimum(t1, hi)
    y1 = np.where(end == t1, y1, y0 + slope * (end - t0))
    n = np.ceil((end - t0) * rate(y0, y1) / _GAP).astype(int) + 1
    piece = np.repeat(np.arange(n.size), n)
    step = np.arange(piece.size) - np.repeat(np.cumsum(n) - n, n)  # 0 .. n-1 along each piece
    last = step == n[piece] - 1
    frac = step / np.maximum(n[piece] - 1, 1)
    t = np.where(last, end[piece], t0[piece] + frac * (end - t0)[piece])
    y = np.where(last, y1[piece], y0[piece] + frac * (y1 - y0)[piece])
    return t, y, slope[piece]


def _lead(own: float, own_prev: float, rival: float, rival_prev: float, rival_prev2: float,
          cell: float) -> tuple[float, float]:
    """Start and step width of a stepped best response to the share
    ``rival``, given the player's last two responses, ``own`` to
    ``rival_prev`` and ``own_prev`` to ``rival_prev2``.  The start extends
    the secant through those responses to ``rival``; its error scales with
    the product of the rival's last two moves, so that product, kept within
    [4 _XTOL, one cell], is the width."""
    move, move_prev = rival - rival_prev, rival_prev - rival_prev2
    start = own + (own - own_prev) / move_prev * move if move_prev else own
    return start, min(max(abs(move * move_prev), 4 * _XTOL), cell)


def nash_solve(
    game: CournotGame,
    start: tuple[float, float] = (0.25, 0.25),
    max_rounds: int = 1_000,
    tol: float = 1e-10,
) -> NashOutcome:
    """Alternating best responses from ``start`` until a fixed point.

    One round updates the incumbent and then the entrant.  On
    convergence the point is verified as an equilibrium by re-optimizing
    each player numerically, with full scans: each player's improvement
    must stay below 1e-8 of its revenue there.  Each player's numerical
    best response is built once per solve, around one revenue kernel
    (:func:`_maximizer`): the share grid and the own-share column of its
    revenue scan serve every round and the verification, a scanned round
    computes only the feasible part of the column that moves with the
    rival, and each slope evaluation is one quantile-with-density search
    per quantile.  The first two rounds scan, and so does every round
    after one that moved a share by more than one cell of its player's
    scan.  The other rounds take one uphill step (:func:`step_peak`) from
    the secant through each player's last two responses, extended to the
    rival's new share, and scan only where that step does not bracket a
    maximum.  If a stepped round converges to a point that fails
    verification, the solve goes on with scanned rounds for the rest of
    its budget; a scanned round's failure raises.  Rounds use the closed
    forms instead where they exist (uniform valuations, an affine entrant
    curve).  Raises NonConvergenceError (carrying the visited path, and
    naming the last round's largest move) if the round budget runs out,
    and DomainError unless ``max_rounds >= 1`` and ``tol > 0``.
    The supermodularity certificate that makes the iteration reliable
    belongs to the game: ``supermodularity_check(game)``.
    """
    if max_rounds < 1:
        raise DomainError(f"max_rounds must be >= 1, got {max_rounds}")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    l1, l2 = float(start[0]), float(start[1])
    if not (0.0 <= l1 <= 0.5 and 0.0 <= l2 <= 0.5):
        raise DomainError(f"start must lie in [0, 1/2]^2, got {start!r}")
    if l2 > game.qos2.domain[1]:
        raise DomainError(f"start={start!r}: entrant share beyond the entrant curve's span "
                          f"{list(game.qos2.domain)}")
    if not game.dist.is_nonincreasing_pdf():
        raise ModelError("equilibrium guarantees need a non-increasing density")
    resp1, resp2 = _responder(game, 1), _responder(game, 2)
    qos2 = game.qos2
    closed = (_closed_pair(game.q1, qos2.q_bar, qos2.c)
              if game.dist.is_uniform() and qos2.is_affine() else None)
    br1, br2 = closed or (resp1, resp2)
    cell1, cell2 = (_span(game, player) / (_SCAN - 1) for player in (1, 2))
    may_step, stepping = closed is None, False
    path = [(l1, l2)]
    for rounds in range(1, max_rounds + 1):
        stepped = stepping
        if stepping:
            (l1_prev, l2_prev), l2_prev2 = path[-2], path[-3][1]
            n1 = resp1(l2, *_lead(l1, l1_prev, l2, l2_prev, l2_prev2, cell1))
            n2 = resp2(n1, *_lead(l2, l2_prev, n1, l1, l1_prev, cell2))
        else:
            n1 = br1(l2)
            n2 = br2(n1)
        d1, d2 = abs(n1 - l1), abs(n2 - l2)
        delta = max(d1, d2)
        stepping = may_step and rounds >= 2 and d1 <= cell1 and d2 <= cell2
        l1, l2 = n1, n2
        path.append((l1, l2))
        if delta < tol:
            r1, r2 = revenues(game, l1, l2)
            gain1 = revenues(game, resp1(l2), l2)[0] - r1
            gain2 = revenues(game, l1, resp2(l1))[1] - r2
            if gain1 < _VERIFY_TOL * r1 and gain2 < _VERIFY_TOL * r2:
                break
            if not stepped or rounds == max_rounds:
                raise NonConvergenceError(
                    "converged point failed equilibrium verification "
                    f"(improvements {gain1:.3g}, {gain2:.3g})",
                    path,
                )
            may_step = stepping = False  # a step missed a global maximum
    else:
        raise NonConvergenceError(
            f"best-response iteration did not converge in {max_rounds} rounds "
            f"(last move {delta:.2g})",
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
