"""Valuation distributions: density, cdf, quantile, and shape queries."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qosmarket as qm
from qosmarket import _table
from qosmarket.valuation import load_pdf_samples, save_pdf_samples

TOL = 1e-9


def random_nonincreasing_samples(rng):
    """Node positions and densities of a seeded non-increasing density."""
    beta = float(rng.uniform(0.5, 2.0))
    knots = np.sort(rng.uniform(0.0, 1.0, int(rng.integers(3, 40))))
    xs = np.unique(np.concatenate([[0.0, 1.0], knots])) * beta
    f = np.sort(rng.uniform(0.05, 3.0, xs.size))[::-1].copy()
    if rng.uniform() < 0.3:
        f[-1] = 0.0
    return xs, f / float(np.sum((f[1:] + f[:-1]) * np.diff(xs)) / 2.0)


class TestUniform:
    def test_pdf_values(self):
        d = qm.ValuationDistribution.uniform(2.0)
        assert d.pdf(1.0) == 0.5
        assert d.pdf(0.0) == 0.5
        assert d.pdf(2.0) == 0.5
        assert d.pdf(2.5) == 0.0
        assert d.pdf(-0.1) == 0.0

    def test_cdf_values(self, uniform1):
        assert uniform1.cdf(0.25) == 0.25
        assert uniform1.cdf(-1.0) == 0.0
        assert uniform1.cdf(3.0) == 1.0
        d = qm.ValuationDistribution.uniform(2.0)
        assert d.cdf(1.0) == 0.5

    def test_quantile_values(self):
        d = qm.ValuationDistribution.uniform(2.0)
        assert d.quantile(0.5) == 1.0
        assert d.quantile(0.0) == 0.0
        assert d.quantile(1.0) == 2.0

    def test_k_constant_is_exactly_one(self):
        for beta in (0.5, 1.0, 2.0, 3.7):
            d = qm.ValuationDistribution.uniform(beta)
            assert d.k_constant() == 1.0

    def test_flags(self, uniform1):
        assert uniform1.is_uniform()
        assert uniform1.is_nonincreasing_pdf()
        # equal nodes are uniform however the table was built
        assert qm.ValuationDistribution.from_samples([0.0, 0.5, 1.0], [1.0, 1.0, 1.0]).is_uniform()
        assert uniform1.beta == 1.0

    def test_validation(self):
        with pytest.raises(qm.ModelError):
            qm.ValuationDistribution.uniform(0.0)
        with pytest.raises(qm.ModelError):
            qm.ValuationDistribution.uniform(-1.0)


class TestTriangleDensity:
    """Custom density f(a) = 2(1 - a): every map has a closed form to check."""

    def test_pdf(self, triangle):
        assert triangle.pdf(0.0) == pytest.approx(2.0, abs=TOL)
        assert triangle.pdf(0.5) == pytest.approx(1.0, abs=TOL)
        assert triangle.pdf(1.0) == pytest.approx(0.0, abs=TOL)
        assert triangle.pdf(1.5) == 0.0
        assert triangle.pdf(-0.5) == 0.0

    def test_cdf(self, triangle):
        assert triangle.cdf(0.5) == pytest.approx(0.75, abs=TOL)
        assert triangle.cdf(0.25) == pytest.approx(2 * 0.25 - 0.25**2, abs=TOL)
        assert triangle.cdf(0.0) == 0.0
        assert triangle.cdf(1.0) == 1.0

    def test_quantile(self, triangle):
        assert triangle.quantile(0.75) == pytest.approx(0.5, abs=TOL)
        assert triangle.quantile(0.81) == pytest.approx(1 - math.sqrt(0.19), abs=TOL)
        assert triangle.quantile(0.25) == pytest.approx(1 - math.sqrt(0.75), abs=TOL)
        assert triangle.quantile(0.0) == 0.0
        assert triangle.quantile(1.0) == 1.0

    def test_k_constant(self, triangle):
        # max of a * 2(1 - a) is 0.5 at a = 1/2
        assert triangle.k_constant() == pytest.approx(0.5, abs=1e-6)

    def test_flags(self, triangle):
        assert not triangle.is_uniform()
        assert triangle.is_nonincreasing_pdf()
        assert triangle.beta == 1.0

    def test_rising_density_not_nonincreasing(self):
        a = np.linspace(0.0, 1.0, 51)
        d = qm.ValuationDistribution.from_samples(a, 2.0 * a)
        assert not d.is_nonincreasing_pdf()


class TestKConstantExact:
    @staticmethod
    def per_segment_max(d, xs):
        """max of a * f(a) over each segment's quadratic s a^2 + (f0 - s x0) a,
        taken at the segment ends and at the vertex clipped into the segment."""
        f = [d.pdf(float(x)) for x in xs]  # node values come back exactly
        best = 0.0
        for x0, x1, f0, f1 in zip(xs, xs[1:], f, f[1:]):
            s = (f1 - f0) / (x1 - x0)
            cands = [x0, x1]
            if s != 0.0:
                cands.append(min(max(-(f0 - s * x0) / (2.0 * s), x0), x1))
            best = max(best, max(a * (f0 + s * (a - x0)) for a in cands))
        return best

    def test_matches_per_segment_closed_form(self):
        rng = np.random.default_rng(20_120_419)
        for _ in range(200):
            xs, f = random_nonincreasing_samples(rng)
            d = qm.ValuationDistribution.from_samples(xs, f)
            want = self.per_segment_max(d, xs.tolist())
            assert d.k_constant() == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_vertex_inside_a_segment(self):
        # f(a) = 2(1 - a) on two nodes: a f(a) peaks at a = 1/2 between them
        d = qm.ValuationDistribution.from_samples([0.0, 1.0], [2.0, 0.0])
        assert d.k_constant() == pytest.approx(0.5, rel=1e-15)


class TestVectorization:
    def test_pdf_array_matches_scalars(self, triangle, uniform1):
        pts = np.array([-0.2, 0.0, 0.3, 0.7, 1.0, 1.4])
        for d in (triangle, uniform1):
            vec = d.pdf(pts)
            assert vec.shape == pts.shape
            for x, v in zip(pts, vec):
                assert v == d.pdf(float(x))

    def test_cdf_array_matches_scalars(self, triangle, uniform1):
        pts = np.array([-0.2, 0.0, 0.3, 0.7, 1.0, 1.4])
        for d in (triangle, uniform1):
            vec = d.cdf(pts)
            for x, v in zip(pts, vec):
                assert v == d.cdf(float(x))

    def test_quantile_array_matches_scalars(self, triangle, uniform1):
        us = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
        for d in (triangle, uniform1):
            vec = d.quantile(us)
            for u, v in zip(us, vec):
                assert v == pytest.approx(d.quantile(float(u)), abs=1e-12)

    def test_cdf_scalar_and_array_agree_bit_for_bit(self, triangle):
        rng = np.random.default_rng(5)
        cases = [(triangle, np.linspace(0.0, 1.0, 101))]
        for beta in (0.5, 1.0, 3.7):
            cases.append((qm.ValuationDistribution.uniform(beta), np.array([0.0, beta])))
        for _ in range(20):
            xs, f = random_nonincreasing_samples(rng)
            cases.append((qm.ValuationDistribution.from_samples(xs, f), xs))
        for d, nodes in cases:
            probes = np.concatenate(
                [nodes, [0.0, d.beta, -0.1, d.beta * 1.1], rng.uniform(0.0, d.beta, 200)]
            )
            scalars = np.array([d.cdf(float(a)) for a in probes])
            assert scalars.tobytes() == d.cdf(probes).tobytes()
            assert math.isnan(d.cdf(math.nan))


class TestRoundTrips:
    def test_cdf_of_quantile_recovers_u(self, triangle, uniform1):
        rng = np.random.default_rng(7)
        us = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 200)])
        for d in (triangle, uniform1):
            for u in us:
                assert d.cdf(d.quantile(float(u))) == pytest.approx(u, abs=TOL)

    def test_quantile_of_cdf_recovers_alpha(self, triangle, uniform1):
        # stay away from beta for the triangle: its density vanishes there
        alphas = np.linspace(0.0, 0.95, 40)
        for d in (triangle, uniform1):
            for a in alphas:
                assert d.quantile(d.cdf(float(a))) == pytest.approx(a, abs=1e-7)

    def test_quantile_domain_error(self, triangle, uniform1):
        for d in (triangle, uniform1):
            with pytest.raises(qm.DomainError):
                d.quantile(-0.1)
            with pytest.raises(qm.DomainError):
                d.quantile(1.5)


class TestNonincreasingVerdict:
    """The density check runs once per instance, with the same verdict."""

    @pytest.mark.parametrize("name, want", [
        ("uniform", True), ("triangle", True), ("rising", False),
        ("bump within the 1e-12 slack", True), ("bump beyond the slack", False)])
    def test_verdict(self, name, want, triangle):
        a = np.array([0.0, 0.5, 1.0])
        dist = {
            "uniform": lambda: qm.ValuationDistribution.uniform(2.0),
            "triangle": lambda: triangle,
            "rising": lambda: qm.ValuationDistribution.from_samples(a, 2.0 * a),
            "bump within the 1e-12 slack": lambda: qm.ValuationDistribution.from_samples(a, [1.0, 1.0 + 5e-13, 1.0]),
            "bump beyond the slack": lambda: qm.ValuationDistribution.from_samples(a, [1.0, 1.0 + 5e-12, 1.0]),
        }[name]()
        assert dist.is_nonincreasing_pdf() is want
        assert dist.is_nonincreasing_pdf() is want  # the cached verdict


class TestFromSamplesValidation:
    def test_grid_must_start_at_zero(self):
        with pytest.raises(qm.ModelError):
            qm.ValuationDistribution.from_samples([0.1, 0.5, 1.0], [1.0, 1.0, 1.0])

    def test_grid_must_ascend(self):
        with pytest.raises(qm.ModelError):
            qm.ValuationDistribution.from_samples([0.0, 0.5, 0.5], [1.0, 1.0, 1.0])

    def test_positions_must_stay_apart_once_divided_by_beta(self):
        # 5e-324 / 2 rounds to 0, onto the first node
        with pytest.raises(qm.ModelError, match="alphas collide once divided by beta=2.0"):
            qm.ValuationDistribution.from_samples([0.0, 5e-324, 2.0], [0.5, 0.5, 0.5])

    def test_density_nonnegative(self):
        with pytest.raises(qm.ModelError):
            qm.ValuationDistribution.from_samples([0.0, 0.5, 1.0], [1.0, -0.1, 1.0])

    def test_interior_density_positive(self):
        with pytest.raises(qm.ModelError):
            qm.ValuationDistribution.from_samples([0.0, 0.5, 1.0], [2.0, 0.0, 2.0])

    def test_integral_must_be_near_one(self):
        a = np.linspace(0.0, 1.0, 11)
        with pytest.raises(qm.ModelError):
            qm.ValuationDistribution.from_samples(a, 3.0 * (1.0 - a))

    def test_too_few_samples(self):
        with pytest.raises(qm.ModelError):
            qm.ValuationDistribution.from_samples([0.0], [1.0])

    def test_direct_construction_rejected(self):
        with pytest.raises(TypeError):
            qm.ValuationDistribution()

    def test_input_arrays_are_copied(self):
        a = np.linspace(0.0, 1.0, 21)
        f = 2.0 * (1.0 - a)
        d = qm.ValuationDistribution.from_samples(a, f)
        before = d.pdf(0.25)
        f[:] = 99.0
        assert d.pdf(0.25) == before


class TestCsvFormat:
    def test_round_trip(self, tmp_path):
        a = np.linspace(0.0, 1.0, 41)
        f = 2.0 * (1.0 - a)
        path = tmp_path / "density.csv"
        save_pdf_samples(path, a, f)
        a2, f2 = load_pdf_samples(path)
        assert np.allclose(a2, a, atol=1e-12)
        assert np.allclose(f2, f, atol=1e-12)
        d1 = qm.ValuationDistribution.from_samples(a, f)
        d2 = qm.ValuationDistribution.from_csv(path)
        for u in (0.1, 0.5, 0.9):
            assert d2.quantile(u) == pytest.approx(d1.quantile(u), abs=1e-12)

    def test_header_is_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0,2\n1,0\n")
        with pytest.raises(qm.ModelError):
            load_pdf_samples(path)

    def test_bad_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alpha,pdf\n0,2\n0.5,oops\n1,0\n")
        with pytest.raises(qm.ModelError) as exc:
            load_pdf_samples(path)
        assert "3" in str(exc.value)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alpha,pdf\n0,2,9\n")
        with pytest.raises(qm.ModelError):
            load_pdf_samples(path)


@st.composite
def densities(draw):
    """A piecewise-linear density, non-increasing or not, with node positions.

    Endpoint densities may be zero; interior ones stay positive.
    """
    n = draw(st.integers(2, 12))
    gaps = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1)))
    xs = np.concatenate([[0.0], np.cumsum(gaps)])
    xs = xs / xs[-1] * draw(st.floats(0.1, 5.0))
    f = np.array(draw(st.lists(st.floats(0.01, 3.0), min_size=n, max_size=n)))
    if draw(st.booleans()):
        f = np.sort(f)[::-1].copy()
    f[-1] *= draw(st.sampled_from([0.0, 1.0]))
    if n > 2 or f[-1] > 0.0:
        f[0] *= draw(st.sampled_from([0.0, 1.0]))
    f /= float(np.sum(np.diff(xs) * 0.5 * (f[:-1] + f[1:])))
    return qm.ValuationDistribution.from_samples(xs, f), xs


probabilities = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30)


class TestQuantileProperties:
    @settings(max_examples=150)
    @given(densities(), probabilities)
    def test_cdf_undoes_quantile(self, dist_nodes, us):
        d, xs = dist_nodes
        u = np.concatenate([us, d.cdf(xs), [0.0, 1.0]])
        assert np.max(np.abs(d.cdf(d.quantile(u)) - u)) <= 1e-14

    @settings(max_examples=150)
    @given(densities(), probabilities)
    def test_nondecreasing(self, dist_nodes, us):
        d, xs = dist_nodes
        u = np.concatenate([us, d.cdf(xs)])
        # each probability with its neighbouring floats
        u = np.sort(np.clip(np.concatenate([u, np.nextafter(u, -1.0), np.nextafter(u, 2.0)]), 0.0, 1.0))
        assert np.all(np.diff(d.quantile(u)) >= 0.0)

    @settings(max_examples=150)
    @given(densities(), probabilities)
    def test_scalar_and_array_agree_bit_for_bit(self, dist_nodes, us):
        d, xs = dist_nodes
        u = np.concatenate([us, d.cdf(xs), [0.0, 1.0]])
        scalars = np.array([d.quantile(float(v)) for v in u])
        assert scalars.tobytes() == d.quantile(u).tobytes()
        assert d.quantile(0.0) == 0.0 and d.quantile(1.0) == d.beta
        # the revenue kernel's paths, on the unit table: sorted arrays, and
        # each scalar with its density
        unit = d._unit
        ordered = np.sort(u)
        assert unit._sorted_quantile(ordered).tobytes() == unit.quantile(ordered).tobytes()
        for v in u.tolist():
            a = unit.quantile(v)
            assert unit._quantile_density(v) == (a, unit.pdf(a))

    @settings(max_examples=100)
    @given(densities())
    @example((qm.ValuationDistribution.from_samples([0.0, 0.25, 0.75, 1.0], [1.25, 1.0, 1.0, 0.75]),
              None))  # a flat segment between falling ones
    def test_sorted_path_on_one_segment(self, dist_nodes):
        d = dist_nodes[0]._unit
        cum = np.array(d._cum)
        for i, (a, b) in enumerate(zip(cum, cum[1:])):
            u = np.unique([a, np.nextafter(a, 2.0), 0.5 * (a + b), np.nextafter(b, -1.0)])
            u = u[u < b]
            if i == cum.size - 2:
                u = np.append(u, b)  # 1 belongs to the last segment
            assert _table.one_segment(d._cum, u) == i
            assert d._sorted_quantile(u).tobytes() == d.quantile(u).tobytes()
            if i < cum.size - 2:  # an interior node starts the next segment
                assert _table.one_segment(d._cum, np.array([a, b])) is None

    @settings(max_examples=100)
    @given(densities())
    def test_tables_match_the_node_arrays(self, dist_nodes):
        # reference: the same tables gathered from the frozen node arrays
        d, _ = dist_nodes
        x, f, cum, slope = _table.frozen_arrays(d._x, d._f, d._cum, d._slope)
        up = slope > 0.0
        j = np.arange(slope.size) + up
        entries = np.array([cum[j], f[j], f[j] * f[j], 2.0 * np.abs(slope), np.where(up, -2.0, 2.0),
                            x[j], x[:-1], x[1:]])
        assert d._entries.tobytes() == entries.tobytes()
        assert d._entries.shape == entries.shape and not d._entries.flags.writeable
        bounds = np.concatenate(([-math.inf], cum[1:-1], [math.inf]))
        assert d._cum_bounds.tobytes() == bounds.tobytes()

    @settings(max_examples=100)
    @given(
        densities(),
        st.one_of(
            st.floats(max_value=-1e-300),
            st.floats(min_value=1.0, exclude_min=True),
            st.sampled_from([math.nan, math.inf, -math.inf]),
        ),
    )
    def test_out_of_range_raises(self, dist_nodes, bad):
        d, _ = dist_nodes
        with pytest.raises(qm.DomainError):
            d.quantile(bad)
        with pytest.raises(qm.DomainError):
            d.quantile(np.array([0.5, bad]))
        with pytest.raises(qm.DomainError):
            d._quantile_density(bad)
        with pytest.raises(qm.DomainError):
            d._sorted_quantile(np.sort([0.5, bad]))
