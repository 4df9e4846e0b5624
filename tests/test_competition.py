"""Quantity competition: demand inversion, best responses, Nash points."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qosmarket as qm
from qosmarket import competition
from qosmarket._optim import scan_then_bisect
from qosmarket.competition import (
    DEFAULT_STARTS,
    _cross_partials,
    _grid_of,
    _responder,
    _RevenueKernel,
    _revenue_surface,
    inverse_demand,
    marginal_valuations,
    revenues,
)
from test_acceptance import random_nonincreasing_density
from test_monopoly import nonincreasing_densities

TOL = 1e-9
# frozen solution for q1=2, entrant quality 1 - 0.5*lam, uniform valuations
NE_LAM1 = 0.4442117168786759
NE_LAM2 = 0.25589400282660835


def linear_game(q1=2.0, q_bar=1.0, c=0.5):
    u1 = qm.ValuationDistribution.uniform(1.0)
    return qm.CournotGame(u1, q1, qm.QoSModel.linear(q_bar, c))


class TestMarginalValuations:
    def test_uniform(self, uniform1):
        assert marginal_valuations(uniform1, 0.4, 0.2) == (
            pytest.approx(0.6, abs=1e-12), pytest.approx(0.4, abs=1e-12))
        assert marginal_valuations(uniform1, 0.0, 0.0) == (1.0, 1.0)

    def test_triangle(self, triangle):
        a1, a2 = marginal_valuations(triangle, 0.19, 0.56)
        assert a1 == pytest.approx(1 - math.sqrt(0.19), abs=TOL)
        assert a2 == pytest.approx(1 - math.sqrt(0.75), abs=TOL)

    def test_ordering(self, uniform1):
        a1, a2 = marginal_valuations(uniform1, 0.3, 0.4)
        assert a1 > a2


class TestInverseDemand:
    def test_constant_entrant(self, uniform1):
        game = qm.CournotGame(uniform1, 2.0, qm.QoSModel.constant(1.0))
        assert inverse_demand(game, 0.4, 0.2) == (
            pytest.approx(1.0, abs=1e-12), pytest.approx(0.4, abs=1e-12))
        # empty market: both prices sit at the top of the demand curves
        assert inverse_demand(game, 0.0, 0.0) == (2.0, 1.0)

    def test_congested_entrant(self, uniform1, split_qos):
        game = qm.CournotGame(uniform1, 1.687, split_qos)
        p1, p2 = inverse_demand(game, 0.3, 0.3)
        assert p1 == pytest.approx(0.69892, abs=TOL)
        assert p2 == pytest.approx(0.64264, abs=TOL)

    def test_prices_support_the_shares(self, uniform1, split_qos):
        # feeding the prices back into the fixed-price model returns the
        # shares we started from
        game = qm.CournotGame(uniform1, 1.687, split_qos)
        for lam1, lam2 in [(0.3, 0.3), (0.2, 0.4), (0.45, 0.1)]:
            p1, p2 = inverse_demand(game, lam1, lam2)
            m = qm.DuopolyMarket(uniform1, 1.687, split_qos, p1, p2)
            eq = qm.equilibrium_duopoly(m)
            assert eq.regime is qm.Regime.INTERIOR
            assert eq.lam1 == pytest.approx(lam1, abs=1e-8)
            assert eq.lam2 == pytest.approx(lam2, abs=1e-8)


class TestRevenues:
    def test_values(self, uniform1):
        game = qm.CournotGame(uniform1, 2.0, qm.QoSModel.constant(1.0))
        r1, r2 = revenues(game, 0.4, 0.2)
        assert r1 == pytest.approx(0.4, abs=1e-12)
        assert r2 == pytest.approx(0.08, abs=1e-12)

    def test_overfull_market_is_worthless(self, uniform1):
        game = qm.CournotGame(uniform1, 2.0, qm.QoSModel.constant(1.0))
        assert revenues(game, 0.7, 0.6) == (0.0, 0.0)

    def test_idle_provider_earns_nothing(self, uniform1):
        game = qm.CournotGame(uniform1, 2.0, qm.QoSModel.constant(1.0))
        r1, r2 = revenues(game, 0.0, 0.2)
        assert r1 == 0.0
        assert r2 == pytest.approx(0.16, abs=1e-12)

    def test_domain(self, uniform1):
        game = qm.CournotGame(uniform1, 2.0, qm.QoSModel.constant(1.0))
        with pytest.raises(qm.DomainError):
            revenues(game, 1.2, 0.0)


class TestBestResponse:
    def test_against_empty_rival(self, uniform1):
        game = qm.CournotGame(uniform1, 2.0, qm.QoSModel.constant(1.0))
        assert qm.best_response(game, 1, 0.0) == 0.5

    def test_matches_closed_form(self):
        game = linear_game()
        b1 = qm.best_response(game, 1, 0.4)
        assert b1 == pytest.approx(0.42, abs=1e-6)
        assert qm.best_response_closed(2.0, 1.0, 0.5, 1, 0.4) == pytest.approx(0.42, abs=1e-12)
        b2 = qm.best_response(game, 2, 0.5)
        closed = qm.best_response_closed(2.0, 1.0, 0.5, 2, 0.5)
        assert closed == pytest.approx(0.2324081207560018, abs=1e-12)
        assert b2 == pytest.approx(closed, abs=1e-6)

    def test_closed_form_grid_agreement(self):
        game = linear_game(q1=1.8, q_bar=1.2, c=0.3)
        for player in (1, 2):
            for other in np.linspace(0.0, 0.5, 6):
                num = qm.best_response(game, player, float(other))
                closed = qm.best_response_closed(1.8, 1.2, 0.3, player, float(other))
                assert num == pytest.approx(closed, abs=1e-6)

    def test_rival_share_beyond_a_short_entrant_curve(self, uniform1):
        game = qm.CournotGame(uniform1, 1.5, qm.QoSModel.tabulated([0.0, 0.3], [1.0, 0.9]))
        assert 0.0 < qm.best_response(game, 1, 0.3) <= 0.5
        with pytest.raises(qm.DomainError, match=re.escape("0.4 beyond the entrant curve's span [0.0, 0.3]")):
            qm.best_response(game, 1, 0.4)

    def test_entrant_vanishes_against_a_full_rival(self):
        b = qm.best_response_closed(2.0, 1.0, 0.5, 2, 0.999)
        assert 0 < b < 1e-3

    def test_responses_shrink_as_rival_grows(self):
        for player in (1, 2):
            prev = None
            for other in np.linspace(0.0, 0.5, 11):
                b = qm.best_response_closed(2.0, 1.0, 0.5, player, float(other))
                if prev is not None:
                    assert b <= prev + 1e-12
                prev = b

    def test_validation(self, uniform1):
        game = linear_game()
        with pytest.raises(qm.DomainError):
            qm.best_response(game, 3, 0.2)
        with pytest.raises(qm.DomainError):
            qm.best_response(game, 1, 1.5)
        assert qm.best_response_closed(2.0, 1.0, 0.0, 2, 0.2) == 0.4  # the constant curve's limit
        with pytest.raises(qm.ModelError):
            qm.best_response_closed(1.0, 1.0, 0.5, 1, 0.2)  # no quality gap
        a = np.linspace(0.0, 1.0, 51)
        rising = qm.ValuationDistribution.from_samples(a, 2.0 * a)
        game_r = qm.CournotGame(rising, 2.0, qm.QoSModel.constant(1.0))
        with pytest.raises(qm.ModelError):
            qm.best_response(game_r, 1, 0.2)


@st.composite
def entrant_curves(draw):
    """A linear curve on [0, 1], or a tabulated one from share 0 to an end
    anywhere in [0.1, 1], with nodes that may sit 1e-3 of the span apart."""
    q_bar = draw(st.floats(0.5, 2.0))
    if draw(st.booleans()):
        return qm.QoSModel.linear(q_bar, q_bar * draw(st.floats(0.0, 0.9)))
    end = draw(st.floats(0.1, 1.0))
    inner = sorted(draw(st.sets(st.integers(1, 999), max_size=6)))
    drops = np.sort(draw(st.lists(st.floats(0.0, 0.9), min_size=len(inner) + 2, max_size=len(inner) + 2)))
    return qm.QoSModel.tabulated([0.0, *(end * k / 1000 for k in inner), end], q_bar * (1.0 - drops))


class TestBestResponseRange:
    @given(nonincreasing_densities(), entrant_curves(), st.floats(1.05, 2.0), st.floats(0.0, 0.95))
    def test_both_responses_lie_in_the_half_market(self, dist, qos, gap, other):
        game = qm.CournotGame(dist, gap * qos.max_value(), qos)
        assert 0.0 < qm.best_response(game, 1, min(other, qos.domain[1])) <= 0.5
        assert 0.0 < qm.best_response(game, 2, other) <= 0.5


class TestSupermodularity:
    def test_linear_curve_passes(self, uniform1):
        rep = qm.supermodularity_check(linear_game())
        assert rep.holds
        assert rep.worst_margin > 0

    def test_constant_curve_passes(self, uniform1):
        game = qm.CournotGame(uniform1, 2.0, qm.QoSModel.constant(1.0))
        rep = qm.supermodularity_check(game)
        assert rep.holds
        assert rep.worst_margin == pytest.approx(1.0, abs=1e-12)

    def test_steep_tabulated_curve_fails(self, uniform1):
        lams = np.linspace(0.0, 0.5, 11)
        tab = qm.QoSModel.tabulated(lams, 1 - 1.8 * lams)
        rep = qm.supermodularity_check(qm.CournotGame(uniform1, 2.0, tab))
        assert not rep.holds
        assert rep.worst_margin == pytest.approx(-0.8, abs=1e-9)
        assert rep.worst_point[1] == pytest.approx(0.5, abs=1e-9)

    def test_short_steep_segment_is_not_missed(self, uniform1, short_steep_qos):
        rep = qm.supermodularity_check(qm.CournotGame(uniform1, 2.0, short_steep_qos))
        assert rep.holds is False
        # g + lam * g' at the steep segment's right end: 0.9 - 0.30004 * 3000
        assert rep.worst_margin == pytest.approx(-899.22, rel=1e-9)
        assert rep.worst_point[1] == 0.30004

    def test_custom_density_uses_cross_partials(self, triangle):
        game = qm.CournotGame(triangle, 1.0, qm.QoSModel.constant(0.5))
        rep = qm.supermodularity_check(game)
        assert rep.holds

    def test_vanishing_density_gives_a_finite_margin(self, triangle):
        # f(beta) = 0: the lam1 = 0 edge would be 0 * inf, and is left out
        rep = qm.supermodularity_check(qm.CournotGame(triangle, 1.5, qm.QoSModel.constant(0.5)))
        assert math.isfinite(rep.worst_margin)
        assert rep.holds is True

    def test_entrant_curve_shorter_than_half_the_market(self, triangle):
        qos = qm.QoSModel.tabulated([0.0, 0.3], [1.0, 0.8])
        rep = qm.supermodularity_check(qm.CournotGame(triangle, 1.5, qos))
        assert rep.holds is True
        assert 0.0 <= rep.worst_point[0] <= 0.5 and 0.0 <= rep.worst_point[1] <= 0.3

    def test_steep_segment_between_grid_lines_fails_for_a_custom_density(self, triangle):
        # g + lam2 g' is about -690 just right of 0.3071: the cross-partials
        # are positive there for any density
        qos = qm.QoSModel.tabulated([0.0, 0.3071, 0.30714, 1.0], [1.0, 0.99, 0.9, 0.89])
        rep = qm.supermodularity_check(qm.CournotGame(triangle, 1.5, qos))
        assert rep.holds is False
        assert rep.worst_point[1] == 0.30714

    @given(st.floats(0.2, 5.0), entrant_curves(), st.floats(1.05, 2.0))
    def test_uniform_margin_is_beta_times_the_segment_end_minimum(self, beta, qos, gap):
        rep = qm.supermodularity_check(qm.CournotGame(qm.ValuationDistribution.uniform(beta),
                                                     gap * qos.max_value(), qos))
        hi = min(0.5, qos.domain[1])
        ends = [(lam, qos.evaluate(lam), s) for lam0, lam1, _, _, s in qos.segments() if lam0 <= hi
                for lam in (lam0, min(lam1, hi))]
        want = beta * min(g + lam * s for lam, g, s in ends)
        # the incumbent's Q(w) - Q(1 - lam1) = -beta lam2 rounds: g' scales that
        scale = beta * max(g + abs(s) for _, g, s in ends)
        assert rep.worst_margin == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)
        assert rep.holds == (rep.worst_margin >= 0.0)

    def test_closed_form_matches_central_differences(self, triangle):
        """At seeded points whose difference stencil stays inside one piece of
        the curve (in lam2) and of the density (in a2), both closed-form
        cross-partials agree with central differences of the revenues."""
        h = 1e-5
        rng = np.random.default_rng(11)
        games = [seeded_custom_game(seed) for seed in range(6)]
        games.append(qm.CournotGame(triangle, 1.5, qm.QoSModel.tabulated([0.0, 0.2, 1.0], [1.2, 1.0, 0.7])))
        checked = 0
        for game in games:
            dist, qos = game.dist, game.qos2
            for lam1, lam2 in rng.uniform(0.01, 0.49, (40, 2)):
                w = 1.0 - lam1 - lam2
                lo, hi = dist.quantile(w - 2.0 * h), dist.quantile(w + 2.0 * h)
                density = [p for p in dist.segments() if p[0] < lo and hi < p[1]]
                curve = [p for p in qos.segments() if p[0] < lam2 - h and lam2 + h < p[1]]
                if not (density and curve):
                    continue
                a2 = dist.quantile(w)
                crosses = _cross_partials(dist, *(np.array([v]) for v in (
                    lam1, lam2, qos.evaluate(lam2), curve[0][4], a2, dist.pdf(a2), density[0][4])))
                for cross, q1, own, rival in zip(crosses, (game.q1, None), (lam1, lam2), (lam2, lam1)):
                    r = [_revenue_surface(dist, qos, own + do, rival + dr, q1) for do in (h, -h) for dr in (h, -h)]
                    fd = (r[0] - r[1] - r[2] + r[3]) / (4.0 * h * h)
                    assert float(cross[0]) == pytest.approx(fd, rel=1e-5, abs=1e-5)
                checked += 1
        assert checked > 150


class TestNash:
    def test_reference_solution(self):
        out = qm.nash_solve(linear_game(), (0.25, 0.25), 1_000, 1e-10)
        assert out.lam1 == pytest.approx(NE_LAM1, abs=1e-7)
        assert out.lam2 == pytest.approx(NE_LAM2, abs=1e-7)
        assert qm.supermodularity_check(linear_game()).holds
        assert 0 < out.lam1 < 0.5 and 0 < out.lam2 < 0.5
        # prices and revenues are consistent with the shares
        p1, p2 = inverse_demand(linear_game(), out.lam1, out.lam2)
        assert out.p1 == pytest.approx(p1, abs=1e-12)
        assert out.p2 == pytest.approx(p2, abs=1e-12)
        assert out.r1 == pytest.approx(p1 * out.lam1, abs=1e-12)
        assert out.r2 == pytest.approx(p2 * out.lam2, abs=1e-12)

    def test_solution_solves_both_reaction_equations(self):
        out = qm.nash_solve(linear_game(), (0.25, 0.25), 1_000, 1e-10)
        assert abs(out.lam1 - qm.best_response_closed(2.0, 1.0, 0.5, 1, out.lam2)) < 1e-8
        assert abs(out.lam2 - qm.best_response_closed(2.0, 1.0, 0.5, 2, out.lam1)) < 1e-8

    def test_restart_at_solution_returns_in_one_round(self):
        game = linear_game()
        out = qm.nash_solve(game, (0.25, 0.25), 1_000, 1e-10)
        again = qm.nash_solve(game, (out.lam1, out.lam2), 1_000, 1e-10)
        assert again.iterations == 1
        assert again.lam1 == pytest.approx(out.lam1, abs=1e-9)

    def test_path_records_the_trajectory(self):
        out = qm.nash_solve(linear_game(), (0.25, 0.25), 1_000, 1e-10)
        assert out.path[0] == (0.25, 0.25)
        assert out.path[-1] == (out.lam1, out.lam2)
        assert len(out.path) == out.iterations + 1

    def test_all_starts_agree(self):
        game = linear_game(q1=1.687, q_bar=1.633, c=0.088)
        outs = qm.nash_solve_multi(game, DEFAULT_STARTS, 1_000, 1e-10)
        assert len(outs) == len(DEFAULT_STARTS)
        for a in outs:
            for b in outs:
                assert abs(a.lam1 - b.lam1) < 1e-7
                assert abs(a.lam2 - b.lam2) < 1e-7

    @pytest.mark.parametrize("density", ["uniform", "triangle"])
    def test_default_starts_solve_each_distinct_start_once(self, density, triangle, monkeypatch):
        dist = qm.ValuationDistribution.uniform(1.0) if density == "uniform" else triangle
        game = qm.CournotGame(dist, 2.0, qm.QoSModel.linear(1.0, 0.5))
        five = ((0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5), (0.25, 0.25))

        def outcomes(starts):
            return {(o.lam1, o.lam2, o.r1, o.r2, o.iterations, o.path[1:])
                    for o in qm.nash_solve_multi(game, starts)}

        before = outcomes(five)
        solve, starts = competition.nash_solve, []
        monkeypatch.setattr(competition, "nash_solve",
                            lambda g, start, *rest: starts.append(start) or solve(g, start, *rest))
        assert outcomes(DEFAULT_STARTS) == before
        assert len(starts) == 3

    def test_reference_technology_solutions(self, uniform1, split_qos, common_qos):
        out_s = qm.nash_solve(qm.CournotGame(uniform1, 1.687, split_qos),
                              (0.25, 0.25), 1_000, 1e-10)
        assert out_s.lam1 == pytest.approx(0.34585958252741744, abs=1e-7)
        assert out_s.lam2 == pytest.approx(0.3241368410434774, abs=1e-7)
        assert out_s.r1 == pytest.approx(0.2017970013435285, abs=1e-7)
        assert out_s.r2 == pytest.approx(0.17162488361497996, abs=1e-7)
        out_c = qm.nash_solve(qm.CournotGame(uniform1, 1.687, common_qos),
                              (0.25, 0.25), 1_000, 1e-10)
        assert out_c.r2 == pytest.approx(0.16523154946724183, abs=1e-7)

    def test_negligible_congestion_approaches_the_frictionless_split(self):
        out = qm.nash_solve(linear_game(c=1e-6), (0.25, 0.25), 1_000, 1e-10)
        assert out.lam1 == pytest.approx(3 / 7, abs=1e-4)
        assert out.lam2 == pytest.approx(2 / 7, abs=1e-4)

    def test_own_deviation_cannot_improve(self, uniform1, triangle):
        # first-order check along each axis at the solution
        game = qm.CournotGame(triangle, 1.0, qm.QoSModel.constant(0.5))
        out = qm.nash_solve(game, (0.25, 0.25), 1_000, 1e-10)
        h = 1e-4
        r1 = revenues(game, out.lam1, out.lam2)[0]
        r2 = revenues(game, out.lam1, out.lam2)[1]
        for d in (-h, h):
            assert revenues(game, out.lam1 + d, out.lam2)[0] <= r1 + 1e-6
            assert revenues(game, out.lam1, out.lam2 + d)[1] <= r2 + 1e-6

    def test_round_limit_raises_with_path(self):
        with pytest.raises(qm.NonConvergenceError) as exc:
            qm.nash_solve(linear_game(), (0.0, 0.5), 1, 1e-14)
        err = exc.value
        assert err.path[0] == (0.0, 0.5)
        assert len(err.path) == 2

    def test_start_validation(self):
        with pytest.raises(qm.DomainError):
            qm.nash_solve(linear_game(), (0.6, 0.1), 100, 1e-10)
        with pytest.raises(qm.DomainError):
            qm.nash_solve(linear_game(), (-0.1, 0.1), 100, 1e-10)

    @pytest.mark.parametrize("rounds, tol, name", [
        (0, 1e-10, "max_rounds"), (-1, 1e-10, "max_rounds"),
        (100, 0.0, "tol"), (100, -1e-10, "tol"), (100, float("nan"), "tol"),
    ])
    def test_budget_validation(self, rounds, tol, name):
        with pytest.raises(qm.DomainError, match=name):
            qm.nash_solve(linear_game(), (0.25, 0.25), rounds, tol)

    def test_entrant_curve_must_start_at_share_zero(self, triangle):
        late = qm.QoSModel.tabulated([0.1, 1.0], [1.0, 0.8])
        with pytest.raises(qm.ModelError, match=r"\[0\.1, 1\.0\]"):
            qm.CournotGame(triangle, 1.2, late)

    def test_start_beyond_the_entrant_span(self, triangle):
        # the first incumbent response would evaluate g(0.4) on a curve
        # that ends at 0.3; the start is named instead
        game = qm.CournotGame(triangle, 1.2, qm.QoSModel.tabulated([0.0, 0.3], [1.0, 0.9]))
        with pytest.raises(qm.DomainError, match=r"start.*\[0\.0, 0\.3\]"):
            qm.nash_solve(game, (0.25, 0.4))
        out = qm.nash_solve(game, (0.25, 0.3))
        assert 0.0 < out.lam2 <= 0.3

    def test_solve_leaves_the_certificate_to_the_game(self, monkeypatch, triangle, split_qos):
        def refuse(game):
            raise AssertionError("supermodularity_check called")

        monkeypatch.setattr(qm.competition, "supermodularity_check", refuse)
        game = qm.CournotGame(triangle, 1.687, split_qos)
        qm.nash_solve(game)
        qm.nash_solve_multi(game)
        problem = qm.SelectionProblem(
            triangle, (qm.Technology("split", split_qos, 0.05), qm.Technology.stay_out()), q1=1.687)
        assert qm.select(problem).chosen.name == "split"

    def test_outcome_share_validation(self):
        with pytest.raises(qm.ModelError):
            qm.NashOutcome(lam1=0.0, lam2=0.2, p1=1.0, p2=0.5, r1=0.0, r2=0.1,
                           iterations=1, path=((0.0, 0.2),))


class TestNashRobustness:
    def test_seeded_custom_games_converge(self):
        # best responses placed by golden section (about 1e-8) made some of
        # these games cycle below the default tol, e.g. games 3, 4 and 9
        rng = np.random.default_rng(7)
        for k in range(40):
            dist = random_nonincreasing_density(rng)
            q_bar = rng.uniform(0.8, 1.6)
            c = rng.uniform(0.02, 0.4) * q_bar
            q1 = q_bar * rng.uniform(1.05, 1.5)
            game = qm.CournotGame(dist, q1, qm.QoSModel.linear(q_bar, c))
            try:
                qm.nash_solve(game, max_rounds=60)
            except qm.NonConvergenceError as exc:
                pytest.fail(f"game {k}: {exc}")

    @pytest.mark.parametrize("c", [1e-12, 1e-300, 5e-324])
    def test_converges_as_congestion_vanishes(self, uniform1, c):
        # at these slopes the textbook entrant response (c w + q_bar - s) / (3c)
        # cancels every digit, so the closed rounds need its conjugate form
        flat = qm.nash_solve(qm.CournotGame(uniform1, 1.687, qm.QoSModel.linear(1.633, 0.0)))
        out = qm.nash_solve(qm.CournotGame(uniform1, 1.687, qm.QoSModel.linear(1.633, c)))
        assert out.lam1 == pytest.approx(flat.lam1, abs=1e-12)
        assert out.lam2 == pytest.approx(flat.lam2, abs=1e-12)

    def test_best_response_is_a_stationary_point(self, triangle):
        game = qm.CournotGame(triangle, 1.0, qm.QoSModel.constant(0.5))
        for player in (1, 2):
            for other in (0.1, 0.3):
                b = qm.best_response(game, player, other)
                q1 = game.q1 if player == 1 else None
                assert abs(revenue_slope(triangle, game.qos2, b, other, q1)) < 1e-12


def revenue_slope(dist, qos2, own: float, other: float, q1) -> float:
    """The revenue kernel's slope in the own share at one point."""
    return _RevenueKernel(dist, qos2, q1, _grid_of(np.array([own]))).slope(other)(own)


def seeded_custom_game(seed: int) -> qm.CournotGame:
    """A custom-density game; every other entrant curve is tabulated, so the
    entrant's revenue slope jumps at its nodes."""
    rng = np.random.default_rng(seed)
    dist = random_nonincreasing_density(rng)
    q_bar = rng.uniform(0.8, 1.6)
    if seed % 2:
        lams = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, 4)), [1.0]))
        qos = qm.QoSModel.tabulated(lams, q_bar * (1.0 - np.sort(rng.uniform(0.0, 0.4, 6))))
    else:
        qos = qm.QoSModel.linear(q_bar, rng.uniform(0.02, 0.4) * q_bar)
    return qm.CournotGame(dist, q_bar * rng.uniform(1.05, 1.5), qos)


def rebuilt_response(game: qm.CournotGame, player: int, other: float) -> float:
    """The best response with the whole revenue surface evaluated afresh."""
    q1 = game.q1 if player == 1 else None
    hi = 0.5 if player == 1 else min(0.5, game.qos2.domain[1])
    kinks = () if player == 1 else tuple(x for x in game.qos2.nodes if 0.0 < x < hi)
    xs = np.union1d(np.linspace(0.0, hi, competition._SCAN), kinks)
    kernel = _RevenueKernel(game.dist._unit, game.qos2, q1, _grid_of(xs))

    def surface(lam):
        return _revenue_surface(game.dist._unit, game.qos2, lam, other, q1)

    return scan_then_bisect(surface, kernel.slope(other), xs, kernel.scan(other), kinks)


class TestOncePerSolveScan:
    """Each player's grid and own-share column are built once per solve."""

    @settings(max_examples=40)
    @given(st.integers(0, 2**16), st.lists(st.floats(0.0, 0.5), min_size=1, max_size=4))
    def test_built_response_matches_best_response_bit_for_bit(self, seed, others):
        game = seeded_custom_game(seed)
        for player in (1, 2):
            respond = _responder(game, player)
            for other in others:
                b = respond(other)
                assert b == qm.best_response(game, player, other)
                assert b == rebuilt_response(game, player, other)

    def test_scalar_probe_matches_the_array_surface(self):
        own = np.linspace(0.0, 0.5, 101)
        for seed in range(6):
            game = seeded_custom_game(seed)
            for q1 in (game.q1, None):
                for other in (0.0, 0.3, 0.7):  # 0.7: past the market's end
                    unit = game.dist._unit
                    surface = _RevenueKernel(unit, game.qos2, q1, _grid_of(own)).scan(other)
                    probes = [_revenue_surface(unit, game.qos2, float(o), other, q1) for o in own]
                    assert np.array(probes).tobytes() == surface.tobytes()

    def test_custom_solve_makes_two_array_quantiles_per_round(self, monkeypatch, triangle, split_qos):
        # one rival-dependent column per scanned best response, plus the
        # incumbent's own-share column once and the two verification
        # responses; rounds after the second that follow one that moved no
        # share by more than a scan cell climb and scan nothing
        sizes = array_quantile_sizes(monkeypatch)
        out = qm.nash_solve(qm.CournotGame(triangle, 1.687, split_qos))
        cell = 0.5 / (competition._SCAN - 1)
        moves = [max(abs(b1 - a1), abs(b2 - a2)) for (a1, a2), (b1, b2) in zip(out.path, out.path[1:])]
        scanned = sum(r < 2 or moves[r - 1] > cell for r in range(out.iterations))
        assert (out.iterations, scanned) == (13, 5)
        assert len(sizes) == 2 * scanned + 3 == 13
        assert set(sizes) == {competition._SCAN}


class TestSharedGrid:
    """The scan grid of a span is made once and shared; kinks join a copy."""

    def test_maximizers_on_one_span_share_read_only_arrays(self, monkeypatch, triangle, uniform1,
                                                           split_qos):
        grids = []

        class Recording(_RevenueKernel):
            def __init__(self, dist, qos2, q1, grid):
                grids.append(grid)
                super().__init__(dist, qos2, q1, grid)

        monkeypatch.setattr(competition, "_RevenueKernel", Recording)
        qm.optimize(triangle, split_qos)
        qm.optimize(uniform1, qm.QoSModel.constant(1.2))
        _responder(qm.CournotGame(triangle, 1.687, split_qos), 1)
        assert len(grids) == 3
        for grid in grids[1:]:
            assert all(a is b for a, b in zip(grid, grids[0]))
        xs, own, rest = grids[0]
        assert xs.tobytes() == np.linspace(0.0, 0.5, competition._SCAN).tobytes()
        assert own.tobytes() == xs[::-1].tobytes()
        assert rest.tobytes() == (1.0 - xs[::-1]).tobytes()
        for arr in grids[0]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_kinked_grid_is_the_union_with_the_kinks(self):
        lin = np.linspace(0.0, 0.5, competition._SCAN)
        kinks = (1e-7, 0.1001, 0.25, 0.30011, 0.30012, 0.5 - 1e-9)
        assert 0.25 in lin  # one kink is a grid point already
        xs, own, rest = competition._scan_grid(0.0, 0.5, kinks)
        assert xs.tobytes() == np.union1d(lin, kinks).tobytes()
        assert xs.size == competition._SCAN + len(kinks) - 1
        assert own.tobytes() == xs[::-1].tobytes()
        assert rest.tobytes() == (1.0 - xs[::-1]).tobytes()
        # the shared grid is untouched
        assert competition._scan_grid(0.0, 0.5, ())[0].tobytes() == lin.tobytes()


def array_quantile_sizes(monkeypatch) -> list[int]:
    """The sizes of the array quantiles taken from here on: those of the
    public ``quantile`` and those of the revenue kernel's sorted path."""
    quantile, sorted_quantile = qm.ValuationDistribution.quantile, qm.ValuationDistribution._sorted_quantile
    sizes = []

    def counting(self, u):
        if np.ndim(u) > 0:
            sizes.append(np.size(u))
        return quantile(self, u)

    def counting_sorted(self, u):
        sizes.append(np.size(u))
        return sorted_quantile(self, u)

    monkeypatch.setattr(qm.ValuationDistribution, "quantile", counting)
    monkeypatch.setattr(qm.ValuationDistribution, "_sorted_quantile", counting_sorted)
    return sizes


def global_rounds(game: qm.CournotGame, start=(0.25, 0.25), tol=1e-10):
    """Alternating public best responses, each a fresh global scan, until no
    share moves by ``tol``: ``(lam1, lam2, rounds)``."""
    l1, l2 = start
    for rounds in range(1, 1_001):
        n1 = qm.best_response(game, 1, l2)
        n2 = qm.best_response(game, 2, n1)
        delta = max(abs(n1 - l1), abs(n2 - l2))
        l1, l2 = n1, n2
        if delta < tol:
            return l1, l2, rounds
    raise AssertionError("reference iteration did not converge")


class TestClimbingRounds:
    """Rounds after the second that follow one that moved each share by at
    most a scan cell climb from a secant prediction instead of scanning."""

    @pytest.mark.parametrize("seed", range(20))  # odd seeds have tabulated curves
    def test_solve_agrees_with_global_rounds(self, seed):
        game = seeded_custom_game(seed)
        out = qm.nash_solve(game)
        l1, l2, rounds = global_rounds(game)
        assert out.iterations == rounds
        assert out.lam1 == pytest.approx(l1, abs=1e-14)
        assert out.lam2 == pytest.approx(l2, abs=1e-14)
        r1, r2 = revenues(game, l1, l2)
        assert out.r1 == pytest.approx(r1, abs=1e-14)
        assert out.r2 == pytest.approx(r2, abs=1e-14)

    def test_a_wrong_climb_is_undone_by_the_next_scan(self, monkeypatch, triangle, split_qos):
        game = qm.CournotGame(triangle, 1.687, split_qos)
        step, calls = competition.step_peak, []

        def once_wrong(*args):
            calls.append(args)
            return 0.05 if len(calls) == 1 else step(*args)

        monkeypatch.setattr(competition, "step_peak", once_wrong)
        out = qm.nash_solve(game)
        l1, l2, _ = global_rounds(game)
        assert len(calls) > 2
        assert out.lam1 == pytest.approx(l1, abs=1e-9)
        assert out.lam2 == pytest.approx(l2, abs=1e-9)

    def test_a_stalled_climb_falls_back_to_global_rounds(self, monkeypatch, triangle, split_qos):
        # valuations scaled by 1,000 scale revenues too, so a point 1e-4 off
        # the equilibrium fails verification
        a = np.linspace(0.0, 1_000.0, 101)
        game = qm.CournotGame(qm.ValuationDistribution.from_samples(a, triangle.pdf(a / 1_000.0) / 1_000.0),
                              1.687, split_qos)
        l1, l2, _ = global_rounds(game)
        step, landed = competition.step_peak, []

        def stalled(*args):  # each player's first step lands 1e-4 off its peak, and stays there
            landed.append(step(*args) + 1e-4 if len(landed) < 2 else landed[len(landed) % 2])
            return landed[-1]

        monkeypatch.setattr(competition, "step_peak", stalled)
        scans = array_quantile_sizes(monkeypatch)
        out = qm.nash_solve(game)
        assert len(landed) == 4  # two climbed rounds, the second one stalled
        assert out.lam1 == pytest.approx(l1, abs=1e-9)
        assert out.lam2 == pytest.approx(l2, abs=1e-9)
        # every round but the climbed ones scans, plus the own-share column
        # and two verifications after each of the two converged rounds
        assert len(scans) == 2 * (out.iterations - 2) + 5

    def test_verification_is_relative_to_revenue(self, monkeypatch, triangle, split_qos):
        # 5e-5 off the equilibrium each player gains only about 4.5e-9 by
        # re-optimizing, but about 4e-8 of its revenue: not an equilibrium
        game = qm.CournotGame(triangle, 1.687, split_qos)
        l1, l2, _ = global_rounds(game)
        step, landed = competition.step_peak, []

        def stalled(*args):  # each player's first step lands 5e-5 off its peak, and stays there
            landed.append(step(*args) + 5e-5 if len(landed) < 2 else landed[len(landed) % 2])
            return landed[-1]

        monkeypatch.setattr(competition, "step_peak", stalled)
        out = qm.nash_solve(game)
        assert len(landed) == 4  # two stepped rounds, the second one stalled
        assert out.lam1 == pytest.approx(l1, abs=1e-9)
        assert out.lam2 == pytest.approx(l2, abs=1e-9)

    @pytest.mark.parametrize("density", ["uniform", "triangle"])
    def test_failed_verification_after_a_global_round_raises(self, density, monkeypatch, triangle,
                                                             split_qos):
        dist = qm.ValuationDistribution.uniform(1.0) if density == "uniform" else triangle
        monkeypatch.setattr(competition, "_VERIFY_TOL", -1.0)
        with pytest.raises(qm.NonConvergenceError, match="failed equilibrium verification"):
            qm.nash_solve(qm.CournotGame(dist, 1.687, split_qos))

    def test_round_limit_names_the_last_move(self):
        with pytest.raises(qm.NonConvergenceError) as exc:
            qm.nash_solve(linear_game(), (0.0, 0.5), 3, 1e-14)
        (a1, a2), (b1, b2) = exc.value.path[-2:]
        move = max(abs(b1 - a1), abs(b2 - a2))
        assert str(exc.value) == (f"best-response iteration did not converge in 3 rounds "
                                  f"(last move {move:.2g})")
        assert 1e-14 <= move < 1e-2
