"""Two providers at fixed prices: regimes, dynamics, stability."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qosmarket as qm
from qosmarket.duopoly import step_duopoly
from test_monopoly import SHORT_CURVES, full_span_curves, nonincreasing_densities

TOL = 1e-9


def const_market(p1=1.0, p2=0.4):
    u1 = qm.ValuationDistribution.uniform(1.0)
    return qm.DuopolyMarket(u1, 2.0, qm.QoSModel.constant(1.0), p1, p2)


class TestMarketValidation:
    def test_entrant_must_be_strictly_worse(self, uniform1):
        with pytest.raises(qm.ModelError):
            qm.DuopolyMarket(uniform1, 1.0, qm.QoSModel.constant(1.0), 0.5, 0.3)
        with pytest.raises(qm.ModelError):
            qm.DuopolyMarket(uniform1, 0.9, qm.QoSModel.constant(1.0), 0.5, 0.3)

    def test_prices_nonnegative(self, uniform1):
        with pytest.raises(qm.ModelError):
            qm.DuopolyMarket(uniform1, 2.0, qm.QoSModel.constant(1.0), -0.1, 0.3)


class TestStep:
    def test_uncongested_example(self):
        m = const_market()
        out = step_duopoly(m, 0.0, 0.0)
        assert out[0] == pytest.approx(0.4, abs=1e-12)
        assert out[1] == pytest.approx(0.2, abs=1e-12)

    def test_expensive_entrant_gets_nothing(self, uniform1):
        m = qm.DuopolyMarket(uniform1, 2.0, qm.QoSModel.constant(1.0), 0.8, 0.9)
        lam1, lam2 = step_duopoly(m, 0.1, 0.1)
        assert lam2 == 0.0
        assert lam1 == pytest.approx(1 - 0.8 / 2.0, abs=1e-12)

    def test_congested_entrant_example(self, uniform1, split_qos):
        m = qm.DuopolyMarket(uniform1, 1.687, split_qos, 0.9, 0.6)
        lam1, lam2 = step_duopoly(m, 0.1, 0.2)
        # at share 0.2 the entrant quality is 1.6154 and undercuts so hard
        # that the incumbent's indifference point exceeds every valuation
        assert lam1 == 0.0
        assert lam2 == pytest.approx(0.6285749659527052, abs=TOL)

    def test_simplex_enforced(self):
        m = const_market()
        with pytest.raises(qm.DomainError):
            step_duopoly(m, 0.7, 0.5)
        with pytest.raises(qm.DomainError):
            step_duopoly(m, -0.1, 0.2)


class TestSimulate:
    def test_settles_fast_without_congestion(self):
        m = const_market()
        tr = qm.simulate_duopoly(m, (0.0, 0.0), 10_000, 1e-10)
        assert tr.converged
        assert tr.iterations == 2
        lam1, lam2 = tr.final()
        assert lam1 == pytest.approx(0.4, abs=1e-12)
        assert lam2 == pytest.approx(0.2, abs=1e-12)

    def test_reference_pair(self, uniform1, split_qos):
        m = qm.DuopolyMarket(uniform1, 1.687, split_qos, 0.58, 0.53)
        tr = qm.simulate_duopoly(m, (0.0, 0.0), 10_000, 1e-12)
        assert tr.converged
        lam1, lam2 = tr.final()
        assert lam1 == pytest.approx(0.3748945243, abs=1e-8)
        assert lam2 == pytest.approx(0.2953011521, abs=1e-8)
        assert tr.shares.shape[1] == 2
        assert np.all(tr.shares.sum(axis=1) <= 1 + 1e-12)

    def test_start_validation(self):
        m = const_market()
        with pytest.raises(qm.DomainError):
            qm.simulate_duopoly(m, (0.6, 0.5), 100, 1e-10)


class TestEquilibrium:
    def test_interior_fixed_point(self):
        m = const_market()
        eq = qm.equilibrium_duopoly(m)
        assert eq.regime is qm.Regime.INTERIOR
        assert eq.lam1 == pytest.approx(0.4, abs=TOL)
        assert eq.lam2 == pytest.approx(0.2, abs=TOL)
        assert eq.theta1 == pytest.approx(0.6, abs=TOL)
        assert eq.theta2 == pytest.approx(0.4, abs=TOL)

    def test_reference_equilibrium(self, uniform1, split_qos):
        m = qm.DuopolyMarket(uniform1, 1.687, split_qos, 0.58, 0.53)
        eq = qm.equilibrium_duopoly(m)
        assert eq.regime is qm.Regime.INTERIOR
        assert eq.lam1 == pytest.approx(0.3748945243, abs=1e-8)
        assert eq.lam2 == pytest.approx(0.2953011521, abs=1e-8)
        # interior means the entrant's marginal user is interior too
        g = split_qos.evaluate(eq.lam2)
        assert m.p1 / m.q1 > m.p2 / g

    def test_interior_despite_high_prices(self, uniform1, split_qos):
        # the entrant survives here: its price-per-quality at an empty
        # market beats the incumbent's, so shut-out does not apply
        m = qm.DuopolyMarket(uniform1, 1.687, split_qos, 1.0, 0.9)
        eq = qm.equilibrium_duopoly(m)
        assert eq.regime is qm.Regime.INTERIOR
        assert eq.lam2 == pytest.approx(0.4356183464565478, abs=TOL)
        assert eq.lam1 == 0.0
        assert eq.theta1 == pytest.approx(1.083019809616115, abs=TOL)
        assert eq.theta2 == pytest.approx(0.5643816535434518, abs=TOL)

    def test_shut_out_regime(self, uniform1):
        m = qm.DuopolyMarket(uniform1, 2.0, qm.QoSModel.constant(1.0), 0.8, 0.9)
        eq = qm.equilibrium_duopoly(m)
        assert eq.regime is qm.Regime.ENTRANT_SHUT_OUT
        assert eq.lam2 == 0.0
        assert eq.lam1 == pytest.approx(0.6, abs=1e-12)

    def test_boundary_tie_goes_to_shut_out(self):
        m = const_market(p1=1.0, p2=0.5)  # p1/q1 equals p2/g(0) exactly
        eq = qm.equilibrium_duopoly(m)
        assert eq.regime is qm.Regime.ENTRANT_SHUT_OUT
        assert eq.lam1 == pytest.approx(0.5, abs=1e-12)
        assert eq.lam2 == 0.0

    def test_free_market_is_shut_out_at_full_share(self):
        m = const_market(p1=0.0, p2=0.0)
        eq = qm.equilibrium_duopoly(m)
        assert eq.regime is qm.Regime.ENTRANT_SHUT_OUT
        assert (eq.lam1, eq.lam2) == (1.0, 0.0)

    def test_equilibria_are_fixed_points(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            beta = rng.uniform(0.5, 2.0)
            dist = qm.ValuationDistribution.uniform(beta)
            q_bar = rng.uniform(0.5, 2.0)
            c = q_bar * rng.uniform(0.0, 0.9)
            q1 = q_bar * rng.uniform(1.05, 2.0)
            p1 = rng.uniform(0.0, beta * q1)
            p2 = rng.uniform(0.0, beta * q_bar)
            m = qm.DuopolyMarket(dist, q1, qm.QoSModel.linear(q_bar, c), p1, p2)
            eq = qm.equilibrium_duopoly(m)
            nxt = step_duopoly(m, eq.lam1, eq.lam2)
            assert abs(nxt[0] - eq.lam1) < 1e-10
            assert abs(nxt[1] - eq.lam2) < 1e-10

    @given(nonincreasing_densities(), full_span_curves(), st.floats(1.05, 2.0),
           st.floats(0.0, 1.0), st.floats(0.0, 1.2))
    def test_fixed_point_residual(self, dist, qos2, q1_ratio, u1, u2):
        # p2 below p1 * g(0) / q1 keeps the entrant in the market
        q1 = qos2.max_value() * q1_ratio
        p1 = u1 * dist.beta * q1
        m = qm.DuopolyMarket(dist, q1, qos2, p1, u2 * p1 * qos2.max_value() / q1)
        eq = qm.equilibrium_duopoly(m)
        nxt = step_duopoly(m, eq.lam1, eq.lam2)
        assert abs(nxt[0] - eq.lam1) <= 1e-12
        assert abs(nxt[1] - eq.lam2) <= 1e-12

    def test_entrant_curve_must_span_the_unit_interval(self, uniform1, monkeypatch):
        markets = [qm.DuopolyMarket(uniform1, 2.0, qos, p1, 0.3) for qos in SHORT_CURVES for p1 in (0.0, 1.0)]

        def no_evaluation(self, lam):
            raise AssertionError("curve evaluated")

        monkeypatch.setattr(qm.QoSModel, "evaluate", no_evaluation)
        for m in markets:
            with pytest.raises(qm.ModelError, match=re.escape(str(list(m.qos2.domain)))):
                qm.equilibrium_duopoly(m)


class TestConvergenceCondition:
    def test_benign_curve_passes(self, uniform1):
        rep = qm.convergence_condition_duopoly(uniform1, 2.0, qm.QoSModel.linear(1.0, 0.1))
        assert rep.holds
        # decay times crowd-out amplification peaks at a full market
        assert rep.lhs == pytest.approx(0.2 / 0.99, abs=1e-9)
        assert rep.rhs == 1.0

    def test_close_quality_race_fails(self, uniform1, split_qos):
        rep = qm.convergence_condition_duopoly(uniform1, 1.687, split_qos)
        assert not rep.holds
        assert rep.lhs == pytest.approx(1.6835181783130329, abs=1e-6)

    def test_constant_entrant_always_passes(self, uniform1):
        rep = qm.convergence_condition_duopoly(uniform1, 2.0, qm.QoSModel.constant(1.0))
        assert rep.holds
        assert rep.lhs == 0.0

    def test_quality_gap_required(self, uniform1):
        with pytest.raises(qm.ModelError):
            qm.convergence_condition_duopoly(uniform1, 1.0, qm.QoSModel.constant(1.0))

    def test_short_steep_segment_is_not_missed(self, uniform1, short_steep_qos):
        rep = qm.convergence_condition_duopoly(uniform1, 2.0, short_steep_qos)
        # worst at g = 0.9, the steep segment's lower end
        assert rep.lhs == pytest.approx(3000.0 * 2.0 / (0.9 * 1.1), rel=1e-9)
        assert rep.holds is False

    def test_condition_predicts_convergence(self, uniform1):
        qos = qm.QoSModel.linear(1.0, 0.1)
        assert qm.convergence_condition_duopoly(uniform1, 2.0, qos).holds
        m = qm.DuopolyMarket(uniform1, 2.0, qos, 0.9, 0.3)
        eq = qm.equilibrium_duopoly(m)
        for start in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.3, 0.3)]:
            tr = qm.simulate_duopoly(m, start, 10_000, 1e-12)
            assert tr.converged
            lam1, lam2 = tr.final()
            assert lam1 == pytest.approx(eq.lam1, abs=1e-8)
            assert lam2 == pytest.approx(eq.lam2, abs=1e-8)


def bertrand_revenues(market: qm.DuopolyMarket) -> tuple[float, float]:
    """Per-provider revenue at the posted-price equilibrium, as ``analyze`` reports it."""
    eq = qm.equilibrium_duopoly(market)
    return market.p1 * eq.lam1, market.p2 * eq.lam2


class TestBertrandRevenues:
    def test_interior(self):
        r1, r2 = bertrand_revenues(const_market())
        assert r1 == pytest.approx(0.4, abs=TOL)
        assert r2 == pytest.approx(0.08, abs=TOL)

    def test_shut_out(self, uniform1):
        m = qm.DuopolyMarket(uniform1, 2.0, qm.QoSModel.constant(1.0), 0.8, 0.9)
        r1, r2 = bertrand_revenues(m)
        assert r1 == pytest.approx(0.8 * 0.6, abs=1e-12)
        assert r2 == 0.0

    def test_free_prices_earn_nothing(self):
        assert bertrand_revenues(const_market(0.0, 0.0)) == (0.0, 0.0)
