"""Quality curves, affine fitting, technology records, throughput helper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qosmarket as qm
from qosmarket import _table
from qosmarket.qos import (
    average_throughput,
    load_qos_samples,
    save_qos_samples,
)

TOL = 1e-9


class TestEvaluate:
    def test_linear(self):
        g = qm.QoSModel.linear(1.633, 0.088)
        assert g.evaluate(0.0) == 1.633
        assert g.evaluate(1.0) == pytest.approx(1.545, abs=1e-12)
        assert qm.QoSModel.linear(1.0, 0.5).evaluate(0.5) == 0.75

    def test_constant(self):
        g = qm.QoSModel.constant(1.687)
        assert g.evaluate(0.0) == 1.687
        assert g.evaluate(0.9) == 1.687

    def test_tabulated_interpolates(self):
        g = qm.QoSModel.tabulated([0.0, 0.5, 1.0], [1.0, 0.8, 0.7])
        assert g.evaluate(0.25) == pytest.approx(0.9, abs=1e-12)
        assert g.evaluate(0.5) == 0.8
        assert g.evaluate(1.0) == 0.7

    def test_domain_errors(self):
        g = qm.QoSModel.linear(1.0, 0.5)
        with pytest.raises(qm.DomainError):
            g.evaluate(-0.1)
        with pytest.raises(qm.DomainError):
            g.evaluate(1.1)
        # tabulated curves are only defined on their sample span
        t = qm.QoSModel.tabulated([0.2, 0.6], [1.0, 0.9])
        with pytest.raises(qm.DomainError):
            t.evaluate(0.1)
        assert t.domain == (0.2, 0.6)

    def test_vector_evaluate(self):
        g = qm.QoSModel.linear(2.0, 0.5)
        lams = np.linspace(0.0, 1.0, 7)
        vals = g.evaluate(lams)
        for lam, v in zip(lams, vals):
            assert v == g.evaluate(float(lam))

    def test_scalar_and_array_agree_bit_for_bit(self, short_steep_qos):
        rng = np.random.default_rng(3)
        cases = [
            (short_steep_qos, [0.0, 0.30001, 0.30004, 1.0]),
            (qm.QoSModel.tabulated([0.2, 0.35, 0.6], [1.0, 0.95, 0.9]), [0.2, 0.35, 0.6]),
            (qm.QoSModel.linear(1.633, 0.088), [0.0, 1.0]),
            (qm.QoSModel.constant(1.687), [0.0, 1.0]),
        ]
        for _ in range(20):
            k = int(rng.integers(2, 30))
            lams = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, k)]))
            qs = 1.8 - np.cumsum(rng.uniform(0.0, 0.05, lams.size))
            cases.append((qm.QoSModel.tabulated(lams, qs), lams.tolist()))
        for g, nodes in cases:
            lo, hi = g.domain
            probes = np.concatenate([nodes, [lo, hi], rng.uniform(lo, hi, 200)])
            scalars = np.array([g.evaluate(float(lam)) for lam in probes])
            assert scalars.tobytes() == g.evaluate(probes).tobytes()
            slopes = np.array([g.derivative(float(lam)) for lam in probes])
            assert slopes.tobytes() == g.derivative(probes).tobytes()
            pairs = [g._value_slope(lam) for lam in probes.tolist()]
            assert pairs == list(zip(scalars.tolist(), slopes.tolist()))

    def test_nonincreasing_everywhere(self):
        curves = [
            qm.QoSModel.constant(1.3),
            qm.QoSModel.linear(1.7, 0.15),
            qm.QoSModel.tabulated([0.0, 0.3, 0.8, 1.0], [2.0, 1.7, 1.69, 1.0]),
        ]
        for g in curves:
            lo, hi = g.domain
            vals = g.evaluate(np.linspace(lo, hi, 1001))
            assert np.all(np.diff(vals) <= 1e-12)

    def test_max_value(self):
        assert qm.QoSModel.linear(1.7, 0.2).max_value() == 1.7
        assert qm.QoSModel.tabulated([0.1, 0.9], [1.4, 1.2]).max_value() == 1.4


@st.composite
def curves(draw):
    """A tabulated curve of 2-12 nodes on [0, 1] or a subinterval of it."""
    lo = draw(st.sampled_from([0.0, 0.1]))
    hi = draw(st.sampled_from([1.0, 0.7]))
    inner = draw(st.lists(st.floats(0.001, 0.999), max_size=10))
    x = np.unique(np.concatenate([[lo, hi], lo + (hi - lo) * np.array(inner)]))
    drops = sorted(draw(st.lists(st.floats(0.0, 0.5), min_size=len(x), max_size=len(x))))
    return qm.QoSModel.tabulated(x, [1.5 * (1.0 - d) for d in drops])


class TestSortedValues:
    """The node-placing column path equals :meth:`QoSModel.evaluate` bit for bit."""

    @staticmethod
    def check(g, t):
        want = g.evaluate(t).tobytes()
        assert _table.sorted_values(g._x, g._q, g._slope, t).tobytes() == want
        assert g._sorted_values(t).tobytes() == want

    @settings(max_examples=100)
    @given(curves(), st.lists(st.floats(0.0, 1.0), max_size=20))
    def test_many_runs(self, g, fractions):
        x = np.array(g.nodes)
        lo, hi = g.domain
        ends = [np.nextafter(lo, 2.0), np.nextafter(hi, -1.0)]
        t = np.sort(np.concatenate([x, ends, lo + (hi - lo) * np.array(fractions)]))
        self.check(g, np.clip(t, lo, hi))

    @settings(max_examples=100)
    @given(curves())
    def test_one_run_per_segment(self, g):
        x = np.array(g.nodes)
        for i, (a, b) in enumerate(zip(x, x[1:])):
            t = np.unique([a, np.nextafter(a, 2.0), 0.5 * (a + b), np.nextafter(b, -1.0)])
            t = t[t < b]
            if i == x.size - 2:
                t = np.append(t, b)  # the top node belongs to the last segment
            assert _table.one_segment(g.nodes, t) == i
            self.check(g, t)
            if i < x.size - 2:  # an interior node starts the next segment
                assert _table.one_segment(g.nodes, np.array([a, b])) is None

    def test_interior_nodes_come_back_exactly(self):
        # the left segment's expression misses the node at 0.41 by an ulp
        g = qm.QoSModel.tabulated([0.0, 0.37, 0.41, 1.0], [1.5, 1.38, 0.9, 0.7])
        assert g._q[1] + g._slope[1] * (0.41 - 0.37) != 0.9
        assert g._sorted_values(np.array([0.38, 0.41]))[-1] == 0.9
        assert g._sorted_values(np.array(g.nodes)).tolist() == [1.5, 1.38, 0.9, 0.7]

    @settings(max_examples=50)
    @given(curves())
    def test_same_error_outside_the_span(self, g):
        lo, hi = g.domain
        for bad in (np.nextafter(lo, -1.0), np.nextafter(hi, 2.0)):
            t = np.sort([lo, 0.5 * (lo + hi), hi, bad])
            with pytest.raises(qm.DomainError) as want:
                g.evaluate(t)
            with pytest.raises(qm.DomainError) as got:
                g._sorted_values(t)
            assert str(got.value) == str(want.value)


class TestDerivative:
    def test_linear_and_constant(self):
        assert qm.QoSModel.linear(1.611, 0.129).derivative(0.4) == -0.129
        assert qm.QoSModel.constant(2.0).derivative(0.7) == 0.0

    def test_tabulated_segment_slopes(self):
        g = qm.QoSModel.tabulated([0.0, 0.5, 1.0], [1.0, 0.8, 0.7])
        assert g.derivative(0.25) == pytest.approx(-0.4, abs=1e-12)
        # at a node the right-hand segment applies, except at the top
        assert g.derivative(0.5) == pytest.approx(-0.2, abs=1e-12)
        assert g.derivative(0.0) == pytest.approx(-0.4, abs=1e-12)
        assert g.derivative(1.0) == pytest.approx(-0.2, abs=1e-12)

    def test_checks_the_span_without_evaluating(self, monkeypatch):
        g = qm.QoSModel.tabulated([0.1, 0.5, 0.9], [1.0, 0.8, 0.7])
        outside = (0.05, float("nan"), np.array([0.2, 0.95]), [0.0])
        messages = []
        for lam in outside:
            with pytest.raises(qm.DomainError) as exc:
                g.evaluate(lam)
            messages.append(str(exc.value))

        def refuse(self, lam):
            raise AssertionError("derivative evaluated the curve")

        monkeypatch.setattr(qm.QoSModel, "evaluate", refuse)
        assert g.derivative(0.3) == pytest.approx(-0.5, abs=1e-12)
        assert g.derivative(np.array([0.3, 0.5, 0.9])) == pytest.approx([-0.5, -0.25, -0.25], abs=1e-12)
        for lam, message in zip(outside, messages):
            with pytest.raises(qm.DomainError) as exc:
                g.derivative(lam)
            assert str(exc.value) == message

    def test_matches_finite_difference(self):
        h = 1e-5
        curves = [
            qm.QoSModel.constant(1.3),
            qm.QoSModel.linear(1.7, 0.15),
            qm.QoSModel.tabulated([0.0, 0.25, 0.5, 1.0], [1.9, 1.8, 1.75, 1.2]),
        ]
        for g in curves:
            lo, hi = g.domain
            # probe off the nodes so the central difference never straddles
            # a kink; an even count keeps the grid midpoint off 0.5
            for lam in np.linspace(lo + 0.01, hi - 0.01, 8):
                fd = (g.evaluate(lam + h) - g.evaluate(lam - h)) / (2 * h)
                assert abs(fd - g.derivative(float(lam))) < 1e-6


class TestConstruction:
    def test_linear_validation(self):
        with pytest.raises(qm.ModelError):
            qm.QoSModel.linear(1.0, 1.0)
        with pytest.raises(qm.ModelError):
            qm.QoSModel.linear(1.0, 1.5)
        with pytest.raises(qm.ModelError):
            qm.QoSModel.linear(0.0, 0.0)
        with pytest.raises(qm.ModelError):
            qm.QoSModel.linear(1.0, -0.1)

    def test_constant_validation(self):
        with pytest.raises(qm.ModelError):
            qm.QoSModel.constant(0.0)

    def test_tabulated_validation(self):
        with pytest.raises(qm.ModelError):
            qm.QoSModel.tabulated([0.0, 0.5], [1.0, 1.1])  # increasing
        with pytest.raises(qm.ModelError):
            qm.QoSModel.tabulated([0.5, 0.2], [1.0, 0.9])  # descending grid
        with pytest.raises(qm.ModelError):
            qm.QoSModel.tabulated([0.0, 1.2], [1.0, 0.9])  # outside [0, 1]
        with pytest.raises(qm.ModelError):
            qm.QoSModel.tabulated([0.0, 1.0], [1.0, 0.0])  # zero quality

    def test_parameter_access(self):
        g = qm.QoSModel.linear(1.633, 0.088)
        assert (g.q_bar, g.c) == (1.633, 0.088)
        const = qm.QoSModel.constant(2.0)
        assert (const.q_bar, const.c) == (2.0, 0.0)
        two = qm.QoSModel.tabulated([0.0, 1.0], [1.633, 1.545])
        assert two.q_bar == 1.633 and two.c == pytest.approx(0.088, abs=1e-15)
        assert str(qm.QoSModel.linear(1.0, 0.0).c) == "0.0"  # not -0.0
        t = qm.QoSModel.tabulated([0.0, 0.5, 1.0], [1.0, 0.95, 0.8])  # kinked
        with pytest.raises(qm.ModelError):
            t.q_bar
        with pytest.raises(qm.ModelError):
            t.c

    def test_kinds(self):
        assert qm.QoSModel.constant(1.0).is_affine()
        assert qm.QoSModel.linear(1.0, 0.1).is_affine()
        assert qm.QoSModel.tabulated([0, 1], [1, 0.9]).is_affine()
        assert not qm.QoSModel.tabulated([0, 0.5, 1], [1, 0.95, 0.8]).is_affine()
        assert not qm.QoSModel.tabulated([0, 0.5], [1, 0.95]).is_affine()


class TestAffineFit:
    def test_exact_affine_recovered(self):
        lams = np.linspace(0.0, 1.0, 12)
        q = 1.633 - 0.088 * lams
        fit = qm.fit_affine(lams, q)
        assert fit.model.q_bar == pytest.approx(1.633, abs=1e-12)
        assert fit.model.c == pytest.approx(0.088, abs=1e-12)
        assert fit.rms_residual == pytest.approx(0.0, abs=1e-12)

    def test_flat_samples_give_zero_slope(self):
        fit = qm.fit_affine([0.0, 1.0], [1.0, 1.0])
        assert fit.model.is_affine()
        assert fit.model.q_bar == pytest.approx(1.0, abs=1e-12)
        assert fit.model.c == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_curve(self):
        # concave decay: least squares lands above the curve at the ends
        lams = np.linspace(0.0, 1.0, 11)
        q = 1.7 - 0.1 * lams - 0.05 * lams**2
        fit = qm.fit_affine(lams, q)
        assert fit.model.q_bar == pytest.approx(1.7075, abs=1e-9)
        assert fit.model.c == pytest.approx(0.15, abs=1e-9)
        assert fit.rms_residual == pytest.approx(0.004415880433163922, abs=1e-9)

    def test_fit_errors(self):
        with pytest.raises(qm.FitError):
            qm.fit_affine([0.0], [1.0])
        with pytest.raises(qm.FitError):
            qm.fit_affine([0.0, 0.0], [1.0, 0.9])
        with pytest.raises(qm.FitError):
            qm.fit_affine([0.0, 1.0], [1.0, 1.1])  # quality rising
        with pytest.raises(qm.FitError):
            qm.fit_affine([0.0, 1.0], [1.0, -1.0])  # slope too steep: c >= q_bar

    def test_fit_error_is_model_error(self):
        assert issubclass(qm.FitError, qm.ModelError)


class TestTechnology:
    def test_entry_and_stay_out(self):
        t = qm.Technology("split", qm.QoSModel.linear(1.633, 0.088), 0.05)
        assert t.is_entry
        out = qm.Technology.stay_out()
        assert not out.is_entry
        assert out.name == "not-enter"
        assert out.cost_per_period == 0.0

    def test_validation(self):
        with pytest.raises(qm.ModelError):
            qm.Technology("x", qm.QoSModel.constant(1.0), -0.1)
        with pytest.raises(qm.ModelError):
            qm.Technology("out", None, 0.5)


class TestAverageThroughput:
    def test_examples(self):
        assert average_throughput(0.3, 2.0, 0.5) == pytest.approx(1.55, abs=1e-12)
        assert average_throughput(0.0, 1.7, 0.1) == 1.7
        assert average_throughput(1.0, 9.9, 0.4) == 0.4

    def test_validation(self):
        with pytest.raises(qm.DomainError):
            average_throughput(1.2, 1.0, 1.0)
        with pytest.raises(qm.DomainError):
            average_throughput(-0.1, 1.0, 1.0)


class TestCsvFormat:
    def test_round_trip(self, tmp_path):
        lams = np.linspace(0.0, 1.0, 11)
        q = 1.7 - 0.1 * lams - 0.05 * lams**2
        path = tmp_path / "qos.csv"
        save_qos_samples(path, lams, q)
        l2, q2 = load_qos_samples(path)
        assert np.allclose(l2, lams, atol=1e-12)
        assert np.allclose(q2, q, atol=1e-12)

    def test_from_csv_builds_tabulated(self, tmp_path):
        path = tmp_path / "qos.csv"
        save_qos_samples(path, [0.0, 0.5, 1.0], [1.0, 0.8, 0.7])
        g = qm.QoSModel.from_csv(path)
        assert not g.is_affine()
        assert g.evaluate(0.25) == pytest.approx(0.9, abs=1e-12)

    def test_header_is_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,1\n1,0.9\n")
        with pytest.raises(qm.ModelError):
            load_qos_samples(path)

    def test_bad_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lambda,qos\n0,1\nnope,0.9\n")
        with pytest.raises(qm.ModelError) as exc:
            load_qos_samples(path)
        assert "3" in str(exc.value)
