"""The paper's closed forms against a high-precision reference.

Each reference evaluates the paper's textbook expression in ``decimal``
arithmetic, with 50 significant digits left after the cancellation that
the expression suffers as the degradation slope ``c`` shrinks, and takes
the ``c = 0`` limit where the expression is 0/0.  The package's float
answers must land within a few ulps of it over the whole accepted range
``0 <= c < q_bar``, down to the smallest subnormal slope.
"""

import math
from decimal import Decimal, localcontext

import pytest

import qosmarket as qm

Q1 = 1.687
Q_BAR = 1.633
SLOPES = (0.0, 5e-324, 1e-300, 1e-14, 1e-12, 1e-8, 1e-4, 0.5 * Q_BAR, 0.9 * Q_BAR)
RIVALS = (0.0, 0.1, 0.3, 0.5, 0.9)
MAX_ULPS = 4


def reference(fn, *args):
    """``fn`` of the floats ``args``, as Decimals, with 50 digits to spare
    beyond the 330 that a subnormal ``c`` cancels, rounded to the nearest
    Decimal of 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 380
        exact = fn(*map(Decimal, args))
    with localcontext() as ctx:
        ctx.prec = 50
        return +exact


def ulps(got: float, ref: Decimal) -> float:
    """The distance from ``got`` to ``ref`` in units of the last place of ``ref``'s float."""
    return float(abs(Decimal(got) - ref) / Decimal(math.ulp(float(ref))))


def entrant_response(q_bar, c, other):
    """(c w + q_bar - sqrt(q_bar^2 + c^2 w^2 - c q_bar w)) / (3c), w = 1 - other."""
    w = 1 - other
    if c == 0:
        return w / 2
    return (c * w + q_bar - (q_bar * q_bar + c * c * w * w - c * q_bar * w).sqrt()) / (3 * c)


def optimum_alpha(beta, q_bar, c):
    """beta (2c - q_bar + s) / (3c) with s = sqrt(q_bar^2 + c^2 - c q_bar)."""
    if c == 0:
        return beta / 2
    return beta * (2 * c - q_bar + (q_bar * q_bar + c * c - c * q_bar).sqrt()) / (3 * c)


def equilibrium_share(beta, q_bar, c, p):
    """(q_bar + c - sqrt((q_bar - c)^2 + 4 c p / beta)) / (2c)."""
    if c == 0:
        return 1 - p / (beta * q_bar)
    return (q_bar + c - ((q_bar - c) ** 2 + 4 * c * p / beta).sqrt()) / (2 * c)


@pytest.mark.parametrize("c", SLOPES)
class TestWithinUlpsOfTheReference:
    def test_best_responses(self, c):
        for other in RIVALS:
            incumbent = qm.best_response_closed(Q1, Q_BAR, c, 1, other)
            ref1 = reference(lambda q1, qb, c, l2: (q1 - l2 * (qb - c * l2)) / (2 * q1),
                             Q1, Q_BAR, c, other)
            assert ulps(incumbent, ref1) <= MAX_ULPS
            entrant = qm.best_response_closed(Q1, Q_BAR, c, 2, other)
            assert ulps(entrant, reference(entrant_response, Q_BAR, c, other)) <= MAX_ULPS

    def test_revenue_optimum(self, c):
        for beta in (1.0, 2.5):
            opt = qm.optimum_closed_form(beta, Q_BAR, c)
            assert ulps(opt.share, reference(entrant_response, Q_BAR, c, 0.0)) <= MAX_ULPS
            assert ulps(opt.marginal_valuation, reference(optimum_alpha, beta, Q_BAR, c)) <= MAX_ULPS

    def test_equilibrium_share(self, c):
        for beta in (1.0, 2.5):
            dist = qm.ValuationDistribution.uniform(beta)
            for frac in (0.1, 0.5, 0.9):
                price = frac * beta * Q_BAR
                lam = qm.equilibrium_closed_form(dist, qm.QoSModel.linear(Q_BAR, c), price)
                assert ulps(lam, reference(equilibrium_share, beta, Q_BAR, c, price)) <= MAX_ULPS
