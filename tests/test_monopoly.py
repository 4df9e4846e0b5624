"""Single-provider adoption dynamics, equilibria, and stability conditions."""

import functools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qosmarket as qm
from qosmarket import cli
from qosmarket.monopoly import step, step_variant

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

TOL = 1e-9
# curves that do not span [0, 1]: one starting late, one ending early
SHORT_CURVES = (qm.QoSModel.tabulated([0.1, 1.0], [1.0, 0.8]),
                qm.QoSModel.tabulated([0.0, 0.6], [1.0, 0.8]))


def market(dist, qos, price):
    return qm.MonopolyMarket(dist, qos, price)


@st.composite
def nonincreasing_densities(draw):
    """A non-increasing piecewise-linear density on [0, beta]; its last
    sample may vanish."""
    beta = draw(st.floats(0.5, 2.0))
    inner = sorted(draw(st.sets(st.integers(1, 49), max_size=6)))
    xs = np.array([0.0, *(k / 50 for k in inner), 1.0]) * beta
    f = np.sort(draw(st.lists(st.floats(0.1, 3.0), min_size=xs.size, max_size=xs.size)))[::-1]
    f[-1] *= draw(st.sampled_from([0.0, 1.0]))
    return qm.ValuationDistribution.from_samples(xs, f / float(np.sum(np.diff(xs) * 0.5 * (f[:-1] + f[1:]))))


@st.composite
def full_span_curves(draw):
    """A linear or tabulated quality curve on [0, 1]; tabulated nodes may
    sit 1e-3 apart, so steep short segments occur."""
    q_bar = draw(st.floats(0.5, 2.0))
    if draw(st.booleans()):
        return qm.QoSModel.linear(q_bar, q_bar * draw(st.floats(0.0, 0.9)))
    inner = sorted(draw(st.sets(st.integers(1, 999), max_size=6)))
    drops = np.sort(draw(st.lists(st.floats(0.0, 0.9), min_size=len(inner) + 2, max_size=len(inner) + 2)))
    return qm.QoSModel.tabulated([0.0, *(k / 1000 for k in inner), 1.0], q_bar * (1.0 - drops))


# valuation scales of the scale test: at powers of two every answer is
# bitwise beta times the unit market's
POWERS_OF_TWO = [2.0 ** k for k in (-1000, -500, -10, 10, 500, 1000)]
DECIMAL_SCALES = [1e-300, 1e-155, 1e-150, 1e-50, 1e-10, 1e-6, 1e-3, 1e3, 1e50, 1e150, 1e200, 1e300]
SCALE_CURVES = {"affine": (qm.QoSModel.linear(1.633, 0.088), 1.687),
                "tabulated": (qm.QoSModel.tabulated([0.0, 0.2, 0.5, 1.0], [1.6, 1.5, 1.3, 1.0]), 1.7)}


def scale_answers(density: str, curve: str, beta: float):
    """Every answer on the uniform or triangle density at valuation scale
    ``beta``, against a curve of ``SCALE_CURVES``: the shares, the rounds
    and the certificate's verdict, its worst point, and the answers that
    scale with beta."""
    if density == "uniform":
        dist = qm.ValuationDistribution.uniform(beta)
    else:
        a = np.linspace(0.0, 1.0, 11)
        dist = qm.ValuationDistribution.from_samples(beta * a, 2.0 * (1.0 - a) / beta)
    qos, q1 = SCALE_CURVES[curve]
    opt = qm.optimize(dist, qos)
    game = qm.CournotGame(dist, q1, qos)
    nash = qm.nash_solve(game)
    m = market(dist, qos, 0.5 * beta)
    (lo, hi), = qm.switching_cost_equilibrium_band(m, 0.01 * beta)
    cert = qm.supermodularity_check(game)
    shares = (opt.share, qm.best_response(game, 1, 0.3), qm.best_response(game, 2, 0.3),
              nash.lam1, nash.lam2, qm.equilibrium(m))
    scaled = (opt.price, opt.revenue, opt.marginal_valuation, nash.p1, nash.p2, nash.r1, nash.r2,
              lo, hi, cert.worst_margin)
    return shares, (nash.iterations, cert.holds), cert.worst_point, scaled


@functools.cache
def unit_answers():
    return {(d, c): scale_answers(d, c, 1.0) for d in ("uniform", "triangle") for c in SCALE_CURVES}


def zero_cost_threshold(m):
    (a, b), = qm.switching_cost_equilibrium_band(m, 0.0)
    assert a == b
    return a


class TestStep:
    def test_linear_example(self, uniform1, split_qos):
        m = market(uniform1, split_qos, 1.2)
        # from an empty market the next share is 1 - F(p / g(0))
        assert step(m, 0.0) == pytest.approx(1 - 1.2 / 1.633, abs=1e-12)

    def test_free_service_captures_everyone(self, uniform1, split_qos):
        m = market(uniform1, split_qos, 0.0)
        assert step(m, 0.3) == 1.0

    def test_unaffordable_price_empties_market(self, uniform1):
        m = market(uniform1, qm.QoSModel.constant(1.0), 1.5)
        assert step(m, 0.9) == 0.0

    def test_share_map_is_nonincreasing(self, uniform1, triangle, split_qos):
        for dist in (uniform1, triangle):
            m = market(dist, split_qos, 0.6)
            vals = [step(m, lam) for lam in np.linspace(0.0, 1.0, 101)]
            assert np.all(np.diff(vals) <= 1e-12)

    def test_state_domain_checked(self, uniform1, split_qos):
        m = market(uniform1, split_qos, 0.5)
        with pytest.raises(qm.DomainError):
            step(m, -0.1)
        with pytest.raises(qm.DomainError):
            step(m, 1.1)

    def test_price_validation(self, uniform1, split_qos):
        with pytest.raises(qm.ModelError):
            market(uniform1, split_qos, -0.2)


class TestStepVariant:
    def test_partial_adjustment_blends(self, uniform1):
        m = market(uniform1, qm.QoSModel.constant(1.0), 0.4)
        # half the users reconsider: 0.5 * 0 + 0.5 * 0.6
        assert step_variant(m, qm.Partial(0.5), 0.0) == pytest.approx(0.3, abs=1e-12)

    def test_partial_with_full_weight_matches_plain_step(self, uniform1, split_qos):
        m = market(uniform1, split_qos, 0.8)
        for lam in (0.0, 0.3, 0.9):
            assert step_variant(m, qm.Partial(1.0), lam) == step(m, lam)

    def test_huge_switching_cost_freezes_threshold(self, uniform1):
        m = market(uniform1, qm.QoSModel.constant(1.0), 0.4)
        assert step_variant(m, qm.SwitchingCost(10.0), 0.37) == 0.37

    def test_positive_externality_step(self, uniform1):
        m = market(uniform1, qm.QoSModel.constant(1.0), 0.3)
        v = qm.PositiveExternality(q_bar=1.0, delta=0.8, phi=0.2, gamma=0.2)
        out = step_variant(m, v, 0.5)
        assert out == pytest.approx(0.47411011265922487, abs=TOL)
        # the implied indifference threshold is 1 - out for a uniform density
        assert 1 - out == pytest.approx(0.5258898873407751, abs=TOL)

    def test_variant_parameter_validation(self):
        with pytest.raises(qm.DomainError):
            qm.Partial(0.0)
        with pytest.raises(qm.DomainError):
            qm.Partial(1.2)
        with pytest.raises(qm.DomainError):
            qm.SwitchingCost(-0.5)
        with pytest.raises(qm.DomainError):
            qm.PositiveExternality(q_bar=0.0, delta=0.1, phi=0.1, gamma=1.0)
        with pytest.raises(qm.DomainError):
            qm.PositiveExternality(q_bar=1.0, delta=-0.1, phi=0.1, gamma=1.0)
        with pytest.raises(qm.DomainError):
            qm.PositiveExternality(q_bar=1.0, delta=0.1, phi=0.1, gamma=0.0)


class TestSimulate:
    def test_converges_to_interior_share(self, uniform1, split_qos):
        m = market(uniform1, split_qos, 1.2)
        tr = qm.simulate(m, qm.Synchronous(), 0.0, 10_000, 1e-12)
        assert tr.converged
        assert tr.final() == pytest.approx(0.25492076972556554, abs=TOL)
        assert tr.shares[0] == 0.0
        assert tr.iterations == len(tr.shares) - 1

    def test_free_service_settles_immediately(self, uniform1, split_qos):
        m = market(uniform1, split_qos, 0.0)
        tr = qm.simulate(m, qm.Synchronous(), 0.3, 100, 1e-10)
        assert tr.converged
        assert tr.final() == 1.0
        assert tr.iterations <= 2

    def test_runs_even_when_condition_fails(self, uniform1):
        # the contraction test is sufficient, not necessary
        m = market(uniform1, qm.QoSModel.linear(1.0, 0.95), 0.3)
        assert not qm.convergence_condition(uniform1, m.qos).holds
        tr = qm.simulate(m, qm.Synchronous(), 0.0, 10_000, 1e-10)
        assert tr.converged
        assert tr.final() == pytest.approx(0.46374846504641265, abs=1e-6)

    def test_externality_overshoot_oscillates(self, uniform1):
        m = market(uniform1, qm.QoSModel.constant(1.0), 0.3)
        good = qm.PositiveExternality(q_bar=1.0, delta=0.8, phi=0.0, gamma=1.0)
        bad = qm.PositiveExternality(q_bar=1.0, delta=1.2, phi=0.0, gamma=1.0)
        t_good = qm.simulate(m, good, 0.0, 2_000, 1e-10)
        assert t_good.converged
        assert t_good.final() == pytest.approx(0.7 / 1.8, abs=1e-8)
        t_bad = qm.simulate(m, bad, 0.0, 2_000, 1e-10)
        # crowding dominates: the share bounces between 0 and 0.7 forever
        assert not t_bad.converged
        assert t_bad.iterations == 2_000
        tail = t_bad.shares[-4:]
        assert np.allclose(np.sort(tail), [0.0, 0.0, 0.7, 0.7], atol=1e-12)

    def test_zero_switching_cost_matches_synchronous_exactly(self, uniform1, split_qos):
        m = market(uniform1, split_qos, 1.2)
        plain = qm.simulate(m, qm.Synchronous(), 0.0, 50, 1e-10)
        costless = qm.simulate(m, qm.SwitchingCost(0.0), 0.0, 50, 1e-10)
        assert np.array_equal(plain.shares, costless.shares)
        assert plain.iterations == costless.iterations

    def test_start_validation(self, uniform1, split_qos):
        m = market(uniform1, split_qos, 0.5)
        with pytest.raises(qm.DomainError):
            qm.simulate(m, qm.Synchronous(), -0.1, 100, 1e-10)
        with pytest.raises(qm.DomainError):
            qm.simulate(m, qm.Synchronous(), 1.2, 100, 1e-10)
        with pytest.raises(qm.DomainError):
            qm.simulate(m, qm.Synchronous(), 0.5, 0, 1e-10)
        with pytest.raises(qm.DomainError):
            qm.simulate(m, qm.Synchronous(), 0.5, 100, 0.0)


class TestEquilibrium:
    def test_fixed_point_value(self, uniform1, split_qos):
        m = market(uniform1, split_qos, 1.2)
        lam = qm.equilibrium(m)
        assert lam == pytest.approx(0.25492076972556554, abs=TOL)
        assert abs(step(m, lam) - lam) < 1e-10

    def test_boundary_cases(self, uniform1):
        const = qm.QoSModel.constant(1.0)
        assert qm.equilibrium(market(uniform1, const, 0.0)) == 1.0
        assert qm.equilibrium(market(uniform1, const, 1.5)) == 0.0
        assert qm.equilibrium(market(uniform1, const, 0.3)) == pytest.approx(0.7, abs=TOL)

    def test_congested_example(self, uniform1):
        m = market(uniform1, qm.QoSModel.linear(1.0, 0.5), 0.3)
        assert qm.equilibrium(m) == pytest.approx(0.5780455542707112, abs=TOL)

    def test_random_markets_are_fixed_points(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            beta = rng.uniform(0.5, 2.0)
            dist = qm.ValuationDistribution.uniform(beta)
            q_bar = rng.uniform(0.5, 2.0)
            c = q_bar * rng.uniform(0.0, 0.9)
            price = rng.uniform(0.0, beta * q_bar)
            m = market(dist, qm.QoSModel.linear(q_bar, c), price)
            lam = qm.equilibrium(m)
            assert 0.0 <= lam <= 1.0
            assert abs(step(m, lam) - lam) < 1e-10

    @given(nonincreasing_densities(), full_span_curves())
    def test_residual_and_monotone_in_price(self, dist, qos):
        top = dist.beta * qos.evaluate(0.0)
        shares = []
        for k in range(0, 45, 4):  # past the top price too
            m = market(dist, qos, top * k / 40)
            lam = qm.equilibrium(m)
            assert abs(step(m, lam) - lam) <= 1e-12
            shares.append(lam)
        assert shares[0] == 1.0 and shares[-1] == 0.0
        assert np.all(np.diff(shares) <= 0.0)

    @given(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.0, 0.9), st.floats(0.0, 1.1))
    def test_uniform_linear_matches_closed_form(self, beta, q_bar, ratio, frac):
        dist = qm.ValuationDistribution.uniform(beta)
        qos = qm.QoSModel.linear(q_bar, ratio * q_bar)
        price = frac * beta * q_bar
        assert abs(qm.equilibrium(market(dist, qos, price))
                   - qm.equilibrium_closed_form(dist, qos, price)) <= 1e-12

    def test_curve_must_span_the_unit_interval(self, uniform1, monkeypatch):
        def no_evaluation(self, lam):
            raise AssertionError("curve evaluated")

        monkeypatch.setattr(qm.QoSModel, "evaluate", no_evaluation)
        for qos in SHORT_CURVES:
            for price in (0.0, 0.5, 5.0):  # free, interior, unaffordable
                with pytest.raises(qm.ModelError, match=re.escape(str(list(qos.domain)))):
                    qm.equilibrium(market(uniform1, qos, price))


class TestClosedForm:
    def test_matches_direct_solution(self, uniform1):
        qos = qm.QoSModel.linear(1.0, 0.5)
        lam = qm.equilibrium_closed_form(uniform1, qos, 0.3)
        assert lam == pytest.approx(0.5780455542707112, abs=1e-12)
        assert lam == pytest.approx(qm.equilibrium(market(uniform1, qos, 0.3)), abs=1e-8)

    def test_degenerate_prices(self, uniform1):
        qos = qm.QoSModel.linear(1.0, 0.5)
        assert qm.equilibrium_closed_form(uniform1, qos, 0.0) == 1.0
        assert qm.equilibrium_closed_form(uniform1, qos, 5.0) == 0.0

    def test_constant_quality_reduces_to_linear_demand(self, uniform1):
        qos = qm.QoSModel.constant(1.0)
        assert qm.equilibrium_closed_form(uniform1, qos, 0.4) == pytest.approx(0.6, abs=1e-12)

    def test_preconditions(self, triangle, uniform1):
        qos = qm.QoSModel.linear(1.0, 0.5)
        with pytest.raises(qm.ModelError):
            qm.equilibrium_closed_form(triangle, qos, 0.3)
        tab = qm.QoSModel.tabulated([0.0, 0.5, 1.0], [1.0, 0.95, 0.8])  # kinked
        with pytest.raises(qm.ModelError):
            qm.equilibrium_closed_form(uniform1, tab, 0.3)


class TestRepresentationInvariance:
    """The closed forms hold for any flat density and any affine curve on
    [0, 1], whichever constructor built the table."""

    @given(beta=st.floats(0.5, 2.0), mid=st.sampled_from([None, 0.5, 0.13]),
           q_bar=st.floats(1.0, 2.0), c_frac=st.sampled_from([0.0, 0.01, 0.054, 0.3, 0.9]),
           q1_mult=st.floats(1.05, 2.0), p_frac=st.floats(0.0, 1.2))
    @settings(max_examples=30)
    def test_flat_density_and_two_node_curve_take_the_closed_forms(
            self, beta, mid, q_bar, c_frac, q1_mult, p_frac):
        xs = [0.0, beta] if mid is None else [0.0, mid * beta, beta]
        dists = (qm.ValuationDistribution.uniform(beta),
                 qm.ValuationDistribution.from_samples(xs, [1.0 / beta] * len(xs)))
        c = c_frac * q_bar
        curves = (qm.QoSModel.linear(q_bar, c), qm.QoSModel.tabulated([0.0, 1.0], [q_bar, q_bar - c]))
        price = p_frac * beta * q_bar
        ref_bounds = qm.optimum_bounds(dists[0], curves[0])
        ref_cond = qm.convergence_condition(dists[0], curves[0])
        ref_lam = qm.equilibrium_closed_form(dists[0], curves[0], price)
        ref_nash = qm.nash_solve(qm.CournotGame(dists[0], q1_mult * q_bar, curves[0]))
        for dist in dists:
            for qos in curves:
                assert qm.optimum_bounds(dist, qos).tightened == ref_bounds.tightened
                cond = qm.convergence_condition(dist, qos)
                assert (cond.degradation_ratio is None) == (ref_cond.degradation_ratio is None)
                assert qm.equilibrium_closed_form(dist, qos, price) == pytest.approx(ref_lam, abs=1e-12)
                nash = qm.nash_solve(qm.CournotGame(dist, q1_mult * q_bar, qos))
                assert nash.lam1 == pytest.approx(ref_nash.lam1, abs=1e-9)
                assert nash.lam2 == pytest.approx(ref_nash.lam2, abs=1e-9)


class TestConvergenceCondition:
    def test_mild_congestion_passes(self, uniform1, split_qos):
        rep = qm.convergence_condition(uniform1, split_qos)
        assert rep.holds
        assert rep.lhs == pytest.approx(0.088 / 1.545, abs=1e-9)
        assert rep.rhs == 1.0
        assert rep.degradation_ratio == pytest.approx(0.088 / 1.633, abs=1e-9)
        assert rep.degradation_bound == 0.5

    def test_steep_decay_fails(self, uniform1):
        rep = qm.convergence_condition(uniform1, qm.QoSModel.linear(1.0, 0.9))
        assert not rep.holds
        assert rep.lhs == pytest.approx(9.0, rel=1e-9)

    def test_constant_quality_always_passes(self, uniform1):
        rep = qm.convergence_condition(uniform1, qm.QoSModel.constant(2.0))
        assert rep.holds
        assert rep.lhs == 0.0

    def test_custom_density_uses_its_own_slack(self, triangle):
        # the triangle density has K = 1/2, doubling the allowed decay
        rep = qm.convergence_condition(triangle, qm.QoSModel.linear(1.0, 0.3))
        assert rep.holds
        assert rep.lhs == pytest.approx(0.3 / 0.7, abs=1e-9)
        assert rep.rhs == pytest.approx(2.0, abs=1e-6)
        assert rep.degradation_ratio is None

    def test_partial_adjustment_relaxes_the_bound(self, uniform1):
        steep = qm.QoSModel.linear(1.0, 0.9)
        base = qm.convergence_condition(uniform1, steep)
        same = qm.convergence_condition_partial(uniform1, steep, 1.0)
        assert (same.holds, same.lhs, same.rhs) == (base.holds, base.lhs, base.rhs)
        relaxed = qm.convergence_condition_partial(uniform1, steep, 0.1)
        assert relaxed.holds
        assert relaxed.rhs == pytest.approx(10.0, rel=1e-12)
        with pytest.raises(qm.DomainError):
            qm.convergence_condition_partial(uniform1, steep, 0.0)
        with pytest.raises(qm.DomainError):
            qm.convergence_condition_partial(uniform1, steep, 1.2)

    def test_positive_externality_condition(self, uniform1):
        rep = qm.convergence_condition_positive_ext(uniform1, 1.0, 0.5, 0.2, 1.0)
        assert rep.holds
        assert rep.lhs == pytest.approx(0.7, abs=1e-12)
        assert rep.rhs == 1.0
        worse = qm.convergence_condition_positive_ext(uniform1, 1.0, 1.2, 0.0, 1.0)
        assert not worse.holds
        with pytest.raises(qm.DomainError):
            qm.convergence_condition_positive_ext(uniform1, 1.0, 0.5, 0.2, 0.5)

    def test_short_steep_segment_is_not_missed(self, uniform1, short_steep_qos):
        # the supremum of -g'/g sits at the right end of the steep segment
        rep = qm.convergence_condition(uniform1, short_steep_qos)
        assert rep.lhs == pytest.approx((0.09 / 0.00003) / 0.9, rel=1e-9)
        assert rep.holds is False


class TestSwitchingBand:
    def test_interior_band(self, uniform1):
        m = market(uniform1, qm.QoSModel.constant(1.0), 0.4)
        band = qm.switching_cost_equilibrium_band(m, 0.1)
        assert len(band) == 1
        lo, hi = band[0]
        assert lo == pytest.approx(0.3, abs=TOL)
        assert hi == pytest.approx(0.5, abs=TOL)
        # any threshold inside the band is a rest point
        assert step_variant(m, qm.SwitchingCost(0.1), 0.4) == 0.4
        assert step_variant(m, qm.SwitchingCost(0.1), 0.25) != 0.25

    def test_enormous_cost_freezes_everything(self, uniform1):
        m = market(uniform1, qm.QoSModel.constant(1.0), 0.4)
        assert qm.switching_cost_equilibrium_band(m, 1.0) == [(0.0, 1.0)]

    def test_unaffordable_price_pins_threshold_at_top(self, uniform1):
        m = market(uniform1, qm.QoSModel.constant(1.0), 1.3)
        band = qm.switching_cost_equilibrium_band(m, 0.1)
        assert band == [(1.0, 1.0)]

    def test_zero_cost_collapses_to_a_point(self, uniform1):
        m = market(uniform1, qm.QoSModel.constant(1.0), 0.4)
        band = qm.switching_cost_equilibrium_band(m, 0.0)
        assert len(band) == 1
        assert band[0][0] == band[0][1] == pytest.approx(0.4, abs=TOL)
        free = market(uniform1, qm.QoSModel.constant(1.0), 0.0)
        assert qm.switching_cost_equilibrium_band(free, 0.0) == [(0.0, 0.0)]

    def test_band_narrower_than_a_grid_step(self, uniform1, split_qos):
        m = market(uniform1, split_qos, 0.5)
        a0 = zero_cost_threshold(m)
        for cost in (1e-9, 1e-7, 1e-5):
            band = qm.switching_cost_equilibrium_band(m, cost)
            assert len(band) == 1
            lo, hi = band[0]
            assert lo < a0 < hi

    def test_ends_never_cross(self, uniform1):
        # the steep first segment gives a * g(1 - F(a)) a slope of about 11
        # near the top, so at cost 1e-15 the band is narrower than the 1e-15
        # to which each end is placed
        qos = qm.QoSModel.tabulated([0.0, 0.07, 0.12, 1.0], [1.6, 0.85, 0.72, 0.23])
        for k in range(1, 1000):
            (lo, hi), = qm.switching_cost_equilibrium_band(market(uniform1, qos, k * 1.6e-3), 1e-15)
            assert lo <= hi

    @given(nonincreasing_densities(), full_span_curves(), st.floats(0.0, 1.1))
    def test_one_interval_around_the_zero_cost_threshold(self, dist, qos, frac):
        m = market(dist, qos, frac * dist.beta * qos.evaluate(0.0))
        a0 = zero_cost_threshold(m)
        for k in range(16):
            band = qm.switching_cost_equilibrium_band(m, 10.0**-k)
            assert len(band) == 1
            lo, hi = band[0]
            assert 0.0 <= lo <= hi <= dist.beta
            assert lo - 1e-12 <= a0 <= hi + 1e-12

    @pytest.mark.parametrize("beta", [*POWERS_OF_TWO, *DECIMAL_SCALES, 1e-200, 1e308, 5e-324])
    def test_answers_do_not_depend_on_the_valuation_scale(self, beta, tmp_path, capsys):
        # the solvers work on the unit market: shares, rounds and verdicts
        # do not depend on beta, and prices, revenues, thresholds and margins
        # are beta times the unit answers
        if beta in POWERS_OF_TWO or beta in DECIMAL_SCALES:
            exact = beta in POWERS_OF_TWO
            for (density, curve), (shares1, verdicts1, point1, scaled1) in unit_answers().items():
                shares, verdicts, point, scaled = scale_answers(density, curve, beta)
                assert verdicts == verdicts1
                if exact or density == "uniform":
                    assert shares == shares1
                    assert point == point1
                else:  # the worst point may move between tied samples
                    assert shares == pytest.approx(shares1, rel=0.0, abs=2e-15)
                if exact:
                    assert scaled == tuple(beta * v for v in scaled1)
                else:
                    assert scaled == pytest.approx(tuple(beta * v for v in scaled1), rel=1e-14, abs=0.0)
        # the CLI on a rescaled scenario, warnings being errors; a beta
        # without a finite 1/beta is a named input error
        if beta in (1e-300, 1e-200, 1e200, 1e300, 1e308, 5e-324):
            payload = json.loads((SCENARIO_DIR / "split_duopoly.json").read_text())
            payload["distribution"]["beta"] = beta
            path = tmp_path / "scaled.json"
            path.write_text(json.dumps(payload))
            for command in ("analyze", "compete", "select"):
                code = cli.main([command, str(path), "--out", str(tmp_path / "out")])
                err = capsys.readouterr().err
                if beta == 5e-324:
                    assert (code, err) == (2, f"error: {path}: distribution: beta=5e-324 is too small: "
                                              "1/beta is not finite\n")
                else:
                    assert (code, err) == (0, "")

    def test_curve_must_span_the_unit_interval(self, uniform1, monkeypatch):
        def no_evaluation(self, lam):
            raise AssertionError("curve evaluated")

        monkeypatch.setattr(qm.QoSModel, "evaluate", no_evaluation)
        for qos in SHORT_CURVES:
            for cost in (0.0, 0.1):
                with pytest.raises(qm.ModelError, match=re.escape(str(list(qos.domain)))):
                    qm.switching_cost_equilibrium_band(market(uniform1, qos, 0.5), cost)


class TestDynamicsTrace:
    def test_validation(self):
        with pytest.raises(qm.ModelError):
            qm.DynamicsTrace(shares=np.array([0.0, 1.2]), converged=True,
                             iterations=1, residual=0.0)
        with pytest.raises(qm.ModelError):
            qm.DynamicsTrace(shares=np.array([[0.6, 0.6]]), converged=True,
                             iterations=0, residual=0.0)

    def test_csv_bytes(self, tmp_path):
        tr = qm.DynamicsTrace(shares=np.array([0.0, 0.25, 0.26]), converged=False,
                              iterations=2, residual=0.01)
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        assert path.read_bytes() == b"t,lambda2\n0,0\n1,0.25\n2,0.26\n"

    def test_pair_csv_bytes(self, tmp_path):
        tr = qm.DynamicsTrace(shares=np.array([[0.0, 0.0], [0.4, 0.2]]),
                              converged=True, iterations=1, residual=0.0)
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        assert path.read_bytes() == b"t,lambda1,lambda2\n0,0,0\n1,0.4,0.2\n"

    def test_final(self):
        tr = qm.DynamicsTrace(shares=np.array([[0.0, 0.0], [0.4, 0.2]]),
                              converged=True, iterations=1, residual=0.0)
        assert tr.final() == (0.4, 0.2)
