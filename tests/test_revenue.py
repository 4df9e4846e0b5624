"""Revenue as a function of price, marginal user, or served share."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qosmarket as qm
from qosmarket import _optim
from qosmarket._optim import itp_root, scan_then_bisect, step_peak
from qosmarket.competition import _RevenueKernel, _grid_of, _revenue_surface
from qosmarket.revenue import revenue_at_price
from test_acceptance import random_nonincreasing_density
from test_competition import revenue_slope
from test_monopoly import full_span_curves, nonincreasing_densities

TOL = 1e-9
GOLDEN_SHARE = 0.42264973081037427
GOLDEN_ALPHA = 0.5773502691896257
GOLDEN_PRICE = 0.4553418012614795
GOLDEN_REV = 0.19245008972987523
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


# Reference solvers: plain bisection and a derivative-free grid scan with
# golden-section refinement, kept here as black boxes to check the package's
# own solvers against.


def bisect_root(fn, lo, hi, *, xtol=1e-12, max_iter=200):
    """Root of a monotone continuous function on the bracket [lo, hi], to
    within ``xtol``, or an endpoint where ``fn`` is exactly zero."""
    flo = fn(lo)
    if flo == 0.0:
        return lo
    fhi = fn(hi)
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError("bisect_root: endpoints do not bracket a root")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
        if hi - lo < xtol:
            break
    return 0.5 * (lo + hi)


def golden_section_max(fn, lo, hi, *, xtol=1e-11, max_iter=200):
    """Maximum of a function unimodal on [lo, hi]: the midpoint of the final
    bracket; equal interior values keep the left subinterval."""
    a, b = float(lo), float(hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = float(fn(c)), float(fn(d))
    for _ in range(max_iter):
        if b - a < xtol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = float(fn(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = float(fn(d))
    return 0.5 * (a + b)


def scan_then_refine(fn, lo, hi, num, *, xtol=1e-11):
    """``(argmax, max)`` of ``fn`` (scalars and arrays alike) from a
    ``num``-point scan refined by golden section in the two cells around
    the first grid maximum; the grid point wins ties."""
    xs = np.linspace(lo, hi, num)
    vals = np.asarray(fn(xs), dtype=float)
    i = int(np.argmax(vals))
    a = float(xs[i - 1]) if i > 0 else float(xs[0])
    b = float(xs[i + 1]) if i + 1 < num else float(xs[num - 1])
    x = golden_section_max(fn, a, b, xtol=xtol)
    fx = float(fn(x))
    fi = float(vals[i])
    if fi > fx or (fi == fx and xs[i] <= x):
        return float(xs[i]), fi
    return float(x), fx


class TestRevenueAtPrice:
    def test_constant_quality(self, uniform1):
        const = qm.QoSModel.constant(1.0)
        assert revenue_at_price(uniform1, const, 0.5) == pytest.approx(0.25, abs=TOL)
        assert revenue_at_price(uniform1, const, 0.0) == 0.0
        assert revenue_at_price(uniform1, const, 2.0) == 0.0

    def test_congested_quality(self, uniform1):
        qos = qm.QoSModel.linear(1.0, 0.5)
        expected = 0.3 * 0.5780455542707112
        assert revenue_at_price(uniform1, qos, 0.3) == pytest.approx(expected, abs=TOL)


class TestPriceFromMarginal:
    def test_values(self, uniform1):
        # the price alpha * g(1 - F(alpha)) makes alpha the marginal user
        const = qm.QoSModel.constant(1.0)
        assert qm.equilibrium(qm.MonopolyMarket(uniform1, const, 0.5)) == pytest.approx(0.5, abs=1e-12)
        qos = qm.QoSModel.linear(1.0, 0.5)
        # marginal user 0.6 leaves share 0.4, so quality is 0.8
        assert qm.equilibrium(qm.MonopolyMarket(uniform1, qos, 0.48)) == pytest.approx(0.4, abs=1e-12)


class TestOptimize:
    def test_constant_quality_interior_optimum(self, uniform1):
        opt = qm.optimize(uniform1, qm.QoSModel.constant(1.0))
        assert opt.share == 0.5
        assert opt.price == 0.5
        assert opt.marginal_valuation == 0.5
        assert opt.revenue == 0.25

    def test_congested_optimum(self, uniform1):
        opt = qm.optimize(uniform1, qm.QoSModel.linear(1.0, 0.5))
        assert opt.share == pytest.approx(GOLDEN_SHARE, abs=1e-6)
        assert opt.marginal_valuation == pytest.approx(GOLDEN_ALPHA, abs=1e-6)
        assert opt.price == pytest.approx(GOLDEN_PRICE, abs=1e-6)
        assert opt.revenue == pytest.approx(GOLDEN_REV, abs=TOL)

    def test_reference_technologies(self, uniform1, split_qos, common_qos):
        opt_s = qm.optimize(uniform1, split_qos)
        assert opt_s.share == pytest.approx(0.4930813835603867, abs=1e-6)
        assert opt_s.revenue == pytest.approx(0.3973261193525431, abs=TOL)
        opt_c = qm.optimize(uniform1, common_qos)
        assert opt_c.share == pytest.approx(0.4895867973693356, abs=1e-6)
        assert opt_c.revenue == pytest.approx(0.3867929857228158, abs=TOL)

    def test_internal_consistency(self, uniform1, triangle):
        # price, marginal user, share, and revenue must describe one point
        cases = [
            (uniform1, qm.QoSModel.linear(1.4, 0.6)),
            (uniform1, qm.QoSModel.constant(0.8)),
            (triangle, qm.QoSModel.linear(1.0, 0.4)),
        ]
        for dist, qos in cases:
            opt = qm.optimize(dist, qos)
            assert opt.price == pytest.approx(
                opt.marginal_valuation * qos.evaluate(opt.share), abs=1e-10)
            assert opt.share == pytest.approx(
                1 - dist.cdf(opt.marginal_valuation), abs=1e-10)
            assert opt.revenue == pytest.approx(opt.price * opt.share, abs=1e-10)

    def test_first_order_condition(self, uniform1, split_qos):
        h = 1e-5
        for qos in (qm.QoSModel.linear(1.0, 0.5), split_qos):
            opt = qm.optimize(uniform1, qos)

            def j(lam, qos=qos):
                return lam * (1 - lam) * qos.evaluate(lam)

            fd = (j(opt.share + h) - j(opt.share - h)) / (2 * h)
            assert abs(fd) < 1e-6

    def test_rising_density_can_push_past_half(self):
        a = np.linspace(0.0, 1.0, 51)
        rising = qm.ValuationDistribution.from_samples(a, 2.0 * a)
        opt = qm.optimize(rising, qm.QoSModel.constant(1.0))
        assert opt.share == pytest.approx(2.0 / 3.0, abs=1e-6)


class TestClosedForm:
    def test_reference_point(self):
        opt = qm.optimum_closed_form(1.0, 1.0, 0.5)
        assert opt.share == pytest.approx(GOLDEN_SHARE, abs=1e-12)
        assert opt.marginal_valuation == pytest.approx(GOLDEN_ALPHA, abs=1e-12)
        assert opt.price == pytest.approx(GOLDEN_PRICE, abs=1e-12)
        assert opt.revenue == pytest.approx(GOLDEN_REV, abs=1e-12)

    def test_no_congestion_limit(self):
        opt = qm.optimum_closed_form(1.0, 1.0, 0.0)
        assert opt.share == 0.5
        assert opt.marginal_valuation == 0.5
        assert opt.price == 0.5

    def test_scale_in_beta(self):
        opt = qm.optimum_closed_form(2.0, 1.0, 0.5)
        assert opt.share == pytest.approx(GOLDEN_SHARE, abs=1e-12)
        assert opt.marginal_valuation == pytest.approx(1.1547005383792515, abs=1e-12)
        assert opt.price == pytest.approx(0.910683602522959, abs=1e-12)

    def test_validation(self):
        with pytest.raises(qm.ModelError):
            qm.optimum_closed_form(0.0, 1.0, 0.5)
        with pytest.raises(qm.ModelError):
            qm.optimum_closed_form(1.0, 0.0, 0.0)
        with pytest.raises(qm.ModelError):
            qm.optimum_closed_form(1.0, 1.0, 1.0)
        with pytest.raises(qm.ModelError):
            qm.optimum_closed_form(1.0, 1.0, -0.1)

    def test_matches_search(self, uniform1):
        for q_bar in (0.8, 1.4):
            for ratio in (0.1, 0.6):
                c = q_bar * ratio
                closed = qm.optimum_closed_form(1.0, q_bar, c)
                num = qm.optimize(uniform1, qm.QoSModel.linear(q_bar, c))
                assert num.share == pytest.approx(closed.share, abs=1e-6)
                assert num.price == pytest.approx(closed.price, abs=1e-6)


class TestParameterizationAgreement:
    def test_three_searches_agree(self, uniform1, split_qos):
        """Optimizing over price, marginal user, or share finds one revenue."""
        for qos in (qm.QoSModel.linear(1.0, 0.5), split_qos):
            best = qm.optimize(uniform1, qos).revenue

            def rev_of_price(p, q=qos):
                # the scan passes an array, the refine stage scalars
                if np.ndim(p) == 0:
                    return revenue_at_price(uniform1, q, float(p))
                return np.array([revenue_at_price(uniform1, q, float(v)) for v in p])

            _, via_price = scan_then_refine(rev_of_price, 0.0, qos.evaluate(0.0), 501)

            def via_alpha(alpha, q=qos):
                share = 1 - uniform1.cdf(alpha)
                return alpha * q.evaluate(share) * share

            _, best_alpha = scan_then_refine(via_alpha, 0.0, 1.0, 501)
            assert via_price == pytest.approx(best, abs=1e-8)
            assert best_alpha == pytest.approx(best, abs=1e-8)


class TestBounds:
    def test_constant_quality_hits_upper_share_bound(self, uniform1):
        b = qm.optimum_bounds(uniform1, qm.QoSModel.constant(1.0))
        assert b.tightened
        assert b.share_low == pytest.approx(0.3819660112501051, abs=1e-12)
        assert b.share_high == 0.5
        assert b.alpha_low == 0.5
        assert b.alpha_high == pytest.approx(0.6180339887498949, abs=1e-12)
        assert b.price_low == 0.5
        assert b.price_high == pytest.approx(0.6180339887498949, abs=1e-12)
        opt = qm.optimize(uniform1, qm.QoSModel.constant(1.0))
        assert b.share_low < opt.share <= b.share_high

    def test_reference_technology_bounds(self, uniform1, split_qos):
        b = qm.optimum_bounds(uniform1, split_qos)
        assert b.tightened
        assert b.price_low == pytest.approx(0.7945, abs=TOL)
        assert b.price_high == pytest.approx(0.9884755216085969, abs=TOL)
        opt = qm.optimize(uniform1, split_qos)
        assert b.share_low < opt.share <= b.share_high
        assert b.alpha_low <= opt.marginal_valuation < b.alpha_high
        assert b.price_low <= opt.price < b.price_high

    def test_steep_decay_only_gets_base_bounds(self, uniform1):
        b = qm.optimum_bounds(uniform1, qm.QoSModel.linear(1.0, 0.9))
        assert not b.tightened
        assert b.share_low == 0.0
        assert b.share_high == 0.5
        opt = qm.optimize(uniform1, qm.QoSModel.linear(1.0, 0.9))
        assert b.share_low < opt.share <= b.share_high

    def test_custom_density_gets_base_bounds(self, triangle):
        b = qm.optimum_bounds(triangle, qm.QoSModel.constant(1.0))
        assert not b.tightened
        assert b.alpha_low == pytest.approx(triangle.quantile(0.5), abs=1e-12)
        assert b.alpha_high == 1.0
        opt = qm.optimize(triangle, qm.QoSModel.constant(1.0))
        assert b.share_low < opt.share <= b.share_high
        assert b.alpha_low <= opt.marginal_valuation < b.alpha_high

    def test_rising_density_rejected(self):
        a = np.linspace(0.0, 1.0, 51)
        rising = qm.ValuationDistribution.from_samples(a, 2.0 * a)
        with pytest.raises(qm.ModelError):
            qm.optimum_bounds(rising, qm.QoSModel.constant(1.0))

    @settings(max_examples=60)
    @given(st.one_of(nonincreasing_densities(), st.floats(0.5, 2.0).map(qm.ValuationDistribution.uniform)),
           full_span_curves())
    def test_optimum_lies_inside_the_bounds(self, dist, qos):
        assert_inside_bounds(dist, qos)

    @settings(max_examples=30)
    @given(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.0, 0.49))
    def test_optimum_lies_inside_the_tightened_uniform_bounds(self, beta, q_bar, ratio):
        # max(-g'/g) = c / (q_bar - c) < 1 for c < q_bar / 2
        dist, qos = qm.ValuationDistribution.uniform(beta), qm.QoSModel.linear(q_bar, ratio * q_bar)
        assert assert_inside_bounds(dist, qos).tightened


def assert_inside_bounds(dist, qos):
    """``optimize``'s answer against ``optimum_bounds``, as the CLI's
    ``*_within`` rows compare them; returns the bounds."""
    b, opt = qm.optimum_bounds(dist, qos), qm.optimize(dist, qos)
    assert b.share_low < opt.share <= b.share_high
    assert b.alpha_low <= opt.marginal_valuation < b.alpha_high
    assert b.price_low <= opt.price < b.price_high
    return b


def revenue_curve(dist, qos, shares):
    """Rows of ``(share, price, revenue)`` along the marginal-user curve; the
    revenue is the entrant's against an empty rival."""
    price = dist.quantile(1.0 - shares) * qos.evaluate(shares)
    revenue = _RevenueKernel(dist, qos, None, _grid_of(shares)).scan(0.0)
    return np.column_stack([shares, price, revenue])


class TestRevenueCurve:
    def test_rows(self, uniform1):
        qos = qm.QoSModel.linear(1.0, 0.5)
        curve = revenue_curve(uniform1, qos, np.array([0.2, 0.5]))
        assert curve.shape == (2, 3)
        share, price, rev = curve[0]
        assert (share, price, rev) == (0.2, pytest.approx(0.72), pytest.approx(0.144))
        assert curve[1][2] == pytest.approx(0.1875, abs=1e-12)

    def test_peak_matches_optimize(self, uniform1, split_qos):
        shares = np.linspace(0.0, 0.5, 2001)
        curve = revenue_curve(uniform1, split_qos, shares)
        best = qm.optimize(uniform1, split_qos)
        assert curve[:, 2].max() == pytest.approx(best.revenue, abs=1e-6)


class TestExactOptimum:
    """The slope refinement places smooth maxima to rounding, not to ~1e-8."""

    def test_triangle_optimum(self, triangle):
        # revenue lam * (1 - sqrt(lam)) peaks where 1 - 1.5 sqrt(lam) = 0
        opt = qm.optimize(triangle, qm.QoSModel.constant(1.0))
        assert abs(opt.share - 4.0 / 9.0) <= 1e-12
        assert abs(opt.marginal_valuation - 1.0 / 3.0) <= 1e-12

    def test_uniform_linear_matches_closed_form(self, uniform1, split_qos):
        num = qm.optimize(uniform1, split_qos)
        closed = qm.optimum_closed_form(1.0, 1.633, 0.088)
        for field in ("share", "marginal_valuation", "price", "revenue"):
            assert abs(getattr(num, field) - getattr(closed, field)) <= 1e-12, field

    def test_density_vanishing_at_zero(self):
        # f(a) = 2a: revenue lam * sqrt(1 - lam) peaks at lam = 2/3, and the
        # slope at lam = 1 is -inf rather than a division by zero
        a = np.linspace(0.0, 1.0, 11)
        rising = qm.ValuationDistribution.from_samples(a, 2.0 * a)
        const = qm.QoSModel.constant(1.0)
        assert abs(qm.optimize(rising, const).share - 2.0 / 3.0) <= 1e-12
        assert revenue_slope(rising, const, 1.0, 0.0, None) == -math.inf

    def test_slope_at_share_zero_is_the_price_level(self, triangle):
        # pdf(beta) = 0 for the triangle; at share 0 no 1/pdf term enters
        assert revenue_slope(triangle, qm.QoSModel.constant(1.0), 0.0, 0.0, None) == 1.0

    def test_never_below_the_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            xs = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 6)]))
            f = rng.uniform(0.05, 3.0, xs.size)
            dist = qm.ValuationDistribution.from_samples(xs, f / np.sum(np.diff(xs) * (f[1:] + f[:-1]) / 2))
            qos = qm.QoSModel.tabulated([0.0, 0.4, 1.0], [1.5, rng.uniform(0.8, 1.5), 0.6])
            opt = qm.optimize(dist, qos)
            hi = 0.5 if dist.is_nonincreasing_pdf() else 1.0
            lam = np.linspace(0.0, hi, 2001)
            scan = dist.quantile(1.0 - lam) * qos.evaluate(lam) * lam
            assert opt.revenue >= scan.max() * (1.0 - 1e-12)


def scanned(fn, slope, lo, hi, num):
    """:func:`scan_then_bisect` on ``fn``'s scan over ``num`` points of [lo, hi]."""
    xs = np.linspace(lo, hi, num)
    return scan_then_bisect(fn, slope, xs, np.asarray(fn(xs), dtype=float))


class TestScanThenBisect:
    def test_kink_maximum(self):
        # slope jumps from +1 to -2 at 0.3: the root of the slope is the kink
        x = scanned(lambda t: np.minimum(t, 0.9 - 2.0 * t),
                    lambda t: 1.0 if t < 0.3 else -2.0, 0.0, 1.0, 11)
        assert abs(x - 0.3) <= 1e-15

    def test_grid_point_when_slope_keeps_its_sign(self):
        assert scanned(lambda t: t, lambda t: 1.0, 0.0, 1.0, 11) == 1.0

    def test_grid_point_when_the_root_is_worse(self):
        # a slope whose root (0.45) is not the maximum cannot lower the grid value
        x = scanned(lambda t: -(t - 0.5) ** 2, lambda t: 0.45 - t, 0.0, 1.0, 11)
        assert x == 0.5


class TestStepPeak:
    @pytest.mark.parametrize("x0", [0.2999, 0.3, 0.3001])
    def test_smooth_root_from_either_side(self, x0):
        assert abs(step_peak(lambda t: 0.3 - t, x0, 1e-3, 0.0, 1.0) - 0.3) <= 1e-15

    @pytest.mark.parametrize("x0", [0.1, 0.5])
    def test_none_when_the_step_does_not_bracket(self, x0):
        assert step_peak(lambda t: 0.3 - t, x0, 1e-3, 0.0, 1.0) is None

    def test_none_where_the_slope_points_out_of_the_interval(self):
        assert step_peak(lambda t: 1.0, 0.5, 1e-3, 0.0, 0.5) is None
        assert step_peak(lambda t: -1.0, 0.0, 1e-3, 0.0, 0.5) is None

    @pytest.mark.parametrize("x0", [0.295, 0.3, 0.305])
    def test_node_where_the_slope_jumps_through_zero(self, x0):
        assert step_peak(lambda t: 1.0 if t < 0.3 else -2.0, x0, 1e-2, 0.0, 1.0, (0.3,)) == 0.3

    @pytest.mark.parametrize("x0", [0.15, 0.24])
    def test_none_at_a_node_where_the_slope_jumps_back_up(self, x0):
        # the slope falls through zero at 0.25 and jumps from -0.05 to +0.15
        # at the node 0.3, so a step that holds the node cannot answer
        def slope(t):
            return 0.25 - t if t < 0.3 else 0.45 - t

        assert step_peak(slope, x0, 0.2, 0.0, 1.0, (0.3,)) is None

    def test_none_at_a_node_past_a_smooth_peak(self):
        # the slope 1 - 2t is negative on both sides of the node 0.7, so the
        # slope does not jump through zero there: the peak at 0.5 is no node
        assert step_peak(lambda t: 1 - 2 * t, 0.4, 0.4, 0.0, 1.0, (0.7,)) is None

    def test_start_outside_the_interval_is_clamped(self):
        assert abs(step_peak(lambda t: 0.3 - t, -1.0, 0.5, 0.0, 1.0) - 0.3) <= 1e-15
        assert abs(step_peak(lambda t: 0.7 - t, 2.0, 0.5, 0.0, 1.0) - 0.7) <= 1e-15
        # the clamped start is a node where the slope jumps through zero
        assert step_peak(lambda t: 1.0 if t < 0.5 else -1.0, 2.0, 0.5, 0.0, 0.5, (0.5,)) == 0.5


@pytest.fixture
def slope_shares(monkeypatch):
    """The shares at which ``optimize`` evaluates the revenue slope."""
    at, slope = [], _RevenueKernel.slope

    def recording(kernel, other):
        fn = slope(kernel, other)

        def recorded(own):
            at.append(own)
            return fn(own)

        return recorded

    monkeypatch.setattr(_RevenueKernel, "slope", recording)
    return at


class TestKinkMaximum:
    # uniform valuations: revenue (1 - lam) lam g(lam) rises into the node at
    # 0.29917 (slope about +0.38) and falls after it, where g drops by 0.48
    # over 0.1 (slope about -0.6)
    KINKED = ([0.0, 0.29917, 0.4, 1.0], [1.0, 0.98, 0.5, 0.4])

    def test_optimum_at_a_curve_node_is_the_node(self, uniform1, slope_shares):
        opt = qm.optimize(uniform1, qm.QoSModel.tabulated(*self.KINKED))
        assert opt.share == 0.29917
        assert len(slope_shares) <= 4

    def test_root_search_alone_lands_within_1e15_of_the_node(self, uniform1):
        qos = qm.QoSModel.tabulated(*self.KINKED)
        xs = np.linspace(0.0, 0.5, 2_001)
        kernel = _RevenueKernel(uniform1, qos, None, _grid_of(xs))
        x = scan_then_bisect(lambda lam: _revenue_surface(uniform1, qos, lam, 0.0, None),
                             kernel.slope(0.0), xs, kernel.scan(0.0))
        assert x != 0.29917
        assert abs(x - 0.29917) <= 1e-15

    def test_no_slope_point_is_evaluated_twice(self, slope_shares):
        # the end slopes of the sign test go on to itp_root as they are
        rng = np.random.default_rng(5)
        for _ in range(20):
            slope_shares.clear()
            qos = qm.QoSModel.linear(rng.uniform(0.8, 1.6), rng.uniform(0.02, 0.5))
            qm.optimize(random_nonincreasing_density(rng), qos)
            assert len(slope_shares) > 2
            assert len(set(slope_shares)) == len(slope_shares)


@st.composite
def cliff_curves(draw):
    """A tabulated curve on [0, 1] with one to four short steep segments
    (1e-6 to 3e-4 wide) inside (0, 1/2), between long gentle ones."""
    q_bar = draw(st.floats(0.5, 2.0))
    n = draw(st.integers(1, 4))
    starts = sorted(draw(st.lists(st.floats(0.01, 0.49), min_size=n, max_size=n)))
    widths = draw(st.lists(st.floats(1e-6, 3e-4), min_size=n, max_size=n))
    xs = [0.0]
    for s, w in zip(starts, widths):
        if s > xs[-1]:
            xs += [s, s + w]
    xs.append(1.0)
    # odd segments are the short ones: they drop 0.01-0.3, the long ones 0-0.1
    drops = np.array([draw(st.floats(0.01, 0.3) if i % 2 else st.floats(0.0, 0.1))
                      for i in range(len(xs) - 1)])
    drops *= min(1.0, 0.9 / drops.sum())
    return qm.QoSModel.tabulated(xs, q_bar * (1.0 - np.concatenate(([0.0], np.cumsum(drops)))))


class TestNodesInTheScan:
    """The curve's nodes join the scan grid, so a maximum at a node is found
    even where the slope keeps its sign at the grid points either side."""

    # the slope is positive at the grid points 0.29975 and 0.30025; the
    # revenue peaks at the node 0.30011, where the quality starts to fall by
    # 0.29 over 1e-5
    CLIFF = ([0.0, 0.30011, 0.30012, 1.0], [1.0, 0.99, 0.7, 0.6])

    def test_optimum_at_a_node_between_grid_points(self, uniform1, triangle):
        qos = qm.QoSModel.tabulated(*self.CLIFF)
        for dist in (uniform1, triangle):
            assert qm.optimize(dist, qos).share == 0.30011

    def test_entrant_response_at_a_node_between_grid_points(self, uniform1):
        game = qm.CournotGame(uniform1, 2.0, qm.QoSModel.tabulated(*self.CLIFF))
        assert qm.best_response(game, 2, 0.2) == 0.30011

    @settings(max_examples=60)
    @given(nonincreasing_densities(), cliff_curves(), st.floats(0.0, 0.45))
    def test_never_below_a_dense_oracle(self, dist, qos, other):
        # 200,001 grid points on [0, 1/2] and every node of the curve there
        lam = np.union1d(np.linspace(0.0, 0.5, 200_001), [x for x in qos.nodes if x < 0.5])

        def oracle(rival):
            rest = 1.0 - lam - rival
            rev = lam * dist.quantile(np.clip(rest, 0.0, 1.0)) * qos.evaluate(lam)
            return float(np.max(np.where(rest >= 0.0, rev, 0.0)))

        assert qm.optimize(dist, qos).revenue >= oracle(0.0) * (1.0 - 1e-12)
        game = qm.CournotGame(dist, 2.0 * qos.max_value(), qos)
        response = qm.best_response(game, 2, other)
        assert qm.competition.revenues(game, other, response)[1] >= oracle(other) * (1.0 - 1e-12)


def counted(fn):
    """``fn`` recording the points it is called at in ``.xs``."""
    def wrapped(x):
        wrapped.xs.append(x)
        return fn(x)
    wrapped.xs = []
    return wrapped


class TestItpRoot:
    def test_step_slope_within_one_evaluation_of_bisection(self):
        # the step slope of test_kink_maximum, on the bracket the scan hands over
        # and on some lopsided ones
        def step(t):
            return 1.0 if t < 0.3 else -2.0

        for a, b in ((0.2, 0.4), (0.0, 1.0), (0.299, 0.9), (0.1, 0.3000001)):
            itp, bis = counted(step), counted(step)
            x = itp_root(itp, a, b)
            bisect_root(bis, a, b, xtol=1e-15)
            assert abs(x - 0.3) <= 1e-15
            assert len(itp.xs) <= len(bis.xs) + 1

    def test_smooth_slopes_take_few_evaluations(self, monkeypatch):
        # bisection from the two-cell bracket to 1e-15 takes 41 evaluations;
        # no probe may repeat a point (rounding onto a bracket end)
        per_root = []

        def counting_itp(fn, lo, hi, **kw):
            slope = counted(fn)
            x = itp_root(slope, lo, hi, **kw)
            per_root.append(len(slope.xs))
            assert len(set(slope.xs)) == len(slope.xs)
            return x

        monkeypatch.setattr(_optim, "itp_root", counting_itp)
        rng = np.random.default_rng(11)
        for _ in range(100):
            dist = random_nonincreasing_density(rng)
            q_bar = rng.uniform(0.8, 1.6)
            game = qm.CournotGame(dist, q_bar * rng.uniform(1.05, 1.5),
                                  qm.QoSModel.linear(q_bar, rng.uniform(0.02, 0.4) * q_bar))
            for player in (1, 2):
                qm.best_response(game, player, rng.uniform(0.05, 0.45))
        assert len(per_root) >= 150
        assert sum(per_root) / len(per_root) <= 15.0

    def test_rejects_a_non_bracket(self):
        with pytest.raises(ValueError):
            itp_root(lambda t: t - 2.0, 0.0, 1.0)

    def test_exact_zero_at_an_endpoint(self):
        assert itp_root(lambda t: t, 0.0, 1.0) == 0.0
        assert itp_root(lambda t: 1.0 - t, 0.0, 1.0) == 1.0

    def test_given_end_values_are_not_evaluated(self):
        def fn(t):
            return math.cos(3.0 * t) - t

        given, fresh = counted(fn), counted(fn)
        x = itp_root(given, 0.1, 0.6, flo=fn(0.1), fhi=fn(0.6))
        assert itp_root(fresh, 0.1, 0.6) == x
        assert 0.1 not in given.xs and 0.6 not in given.xs
        assert fresh.xs[:2] == [0.1, 0.6]
        assert given.xs == fresh.xs[2:]
        assert itp_root(counted(fn), 0.1, 0.6, flo=0.0) == 0.1
