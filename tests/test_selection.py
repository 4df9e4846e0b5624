"""Technology choice: profits, the chosen option, and cost-grid maps."""

import numpy as np
import pytest

import qosmarket as qm
from qosmarket.selection import technology_profit

MONO_REV_SPLIT = 0.3973261193525431
MONO_REV_COMMON = 0.3867929857228158
DUO_REV_SPLIT = 0.17162488361497996
DUO_REV_COMMON = 0.16523154946724183


def pair_problem(uniform1, split_qos, common_qos, q1=None,
                 k_split=0.05, k_common=0.02):
    techs = (
        qm.Technology("split", split_qos, k_split),
        qm.Technology("common", common_qos, k_common),
        qm.Technology.stay_out(),
    )
    return qm.SelectionProblem(dist=uniform1, technologies=techs, q1=q1)


class TestProblemValidation:
    def test_needs_exactly_one_stay_out(self, uniform1, split_qos):
        with pytest.raises(qm.ModelError):
            qm.SelectionProblem(dist=uniform1, technologies=(
                qm.Technology("a", split_qos, 0.1),))
        with pytest.raises(qm.ModelError):
            qm.SelectionProblem(dist=uniform1, technologies=(
                qm.Technology("a", split_qos, 0.1),
                qm.Technology.stay_out("x"), qm.Technology.stay_out("y")))

    def test_needs_an_entry_option(self, uniform1):
        with pytest.raises(qm.ModelError):
            qm.SelectionProblem(dist=uniform1, technologies=(qm.Technology.stay_out(),))

    def test_names_must_be_unique(self, uniform1, split_qos):
        with pytest.raises(qm.ModelError):
            qm.SelectionProblem(dist=uniform1, technologies=(
                qm.Technology("a", split_qos, 0.1),
                qm.Technology("a", split_qos, 0.2),
                qm.Technology.stay_out()))

    def test_incumbent_must_dominate_quality(self, uniform1, split_qos):
        with pytest.raises(qm.ModelError):
            pair_problem(uniform1, split_qos, split_qos, q1=1.5)

    def test_stay_out_listed_last_regardless_of_input_order(self, uniform1, split_qos):
        p = qm.SelectionProblem(dist=uniform1, technologies=(
            qm.Technology.stay_out(),
            qm.Technology("a", split_qos, 0.1)))
        assert [t.name for t in p.ordered()] == ["a", "not-enter"]

    def test_incumbent_needs_entrant_curves_from_share_zero(self, uniform1):
        late = qm.Technology("late", qm.QoSModel.tabulated([0.2, 1.0], [1.0, 0.8]), 0.0)
        techs = (late, qm.Technology.stay_out())
        with pytest.raises(qm.ModelError, match=r"'late' curve spans \[0\.2, 1\.0\]"):
            qm.SelectionProblem(uniform1, techs, q1=2.0)
        qm.SelectionProblem(uniform1, techs)  # alone, the entrant prices on its span


class TestTechnologyProfit:
    def test_staying_out_is_free(self, uniform1, split_qos):
        p = pair_problem(uniform1, split_qos, qm.QoSModel.linear(1.611, 0.129))
        out = [t for t in p.technologies if not t.is_entry][0]
        assert technology_profit(p, out) == 0.0

    def test_profit_is_revenue_minus_cost(self, uniform1):
        qos = qm.QoSModel.linear(1.0, 0.5)
        p = qm.SelectionProblem(dist=uniform1, technologies=(
            qm.Technology("solo", qos, 0.1), qm.Technology.stay_out()))
        assert technology_profit(p, p.technologies[0]) == pytest.approx(
            0.19245008972987523 - 0.1, abs=1e-6)

    def test_heavy_cost_goes_negative(self, uniform1):
        qos = qm.QoSModel.linear(1.0, 0.5)
        p = qm.SelectionProblem(dist=uniform1, technologies=(
            qm.Technology("solo", qos, 0.3), qm.Technology.stay_out()))
        assert technology_profit(p, p.technologies[0]) < 0

    def test_membership_enforced(self, uniform1, split_qos, common_qos):
        p = pair_problem(uniform1, split_qos, common_qos)
        foreign = qm.Technology("other", qm.QoSModel.constant(1.0), 0.0)
        with pytest.raises(qm.ModelError):
            technology_profit(p, foreign)


class TestSelect:
    def test_without_incumbent(self, uniform1, split_qos, common_qos):
        res = qm.select(pair_problem(uniform1, split_qos, common_qos))
        assert res.chosen.name == "common"
        profits = dict(res.profits)
        assert profits["split"] == pytest.approx(MONO_REV_SPLIT - 0.05, abs=1e-6)
        assert profits["common"] == pytest.approx(MONO_REV_COMMON - 0.02, abs=1e-6)
        assert profits["not-enter"] == 0.0

    def test_with_incumbent(self, uniform1, split_qos, common_qos):
        res = qm.select(pair_problem(uniform1, split_qos, common_qos, q1=1.687))
        assert res.chosen.name == "common"
        profits = dict(res.profits)
        assert profits["split"] == pytest.approx(DUO_REV_SPLIT - 0.05, abs=1e-6)
        assert profits["common"] == pytest.approx(DUO_REV_COMMON - 0.02, abs=1e-6)

    def test_equal_costs_follow_quality(self, uniform1, split_qos, common_qos):
        res = qm.select(pair_problem(uniform1, split_qos, common_qos,
                                     k_split=0.1, k_common=0.1))
        assert res.chosen.name == "split"

    def test_prohibitive_costs_mean_no_entry(self, uniform1, split_qos, common_qos):
        res = qm.select(pair_problem(uniform1, split_qos, common_qos,
                                     k_split=0.9, k_common=0.9))
        assert res.chosen.name == "not-enter"
        assert all(p <= 0 for _, p in res.profits)

    def test_zero_profit_tie_prefers_entry(self, uniform1):
        # cost exactly equal to revenue: entry ties stay-out and wins by order
        qos = qm.QoSModel.constant(1.0)
        rev = qm.optimize(uniform1, qos).revenue
        p = qm.SelectionProblem(dist=uniform1, technologies=(
            qm.Technology("solo", qos, rev), qm.Technology.stay_out()))
        assert qm.select(p).chosen.name == "solo"

    def test_profit_rows_follow_listing_order(self, uniform1, split_qos, common_qos):
        res = qm.select(pair_problem(uniform1, split_qos, common_qos))
        assert [name for name, _ in res.profits] == ["split", "common", "not-enter"]


class TestDecisionMap:
    def test_cells_match_pointwise_selection(self, uniform1, split_qos, common_qos):
        p = pair_problem(uniform1, split_qos, common_qos)
        grid = np.array([0.0, 0.15, 0.3, 0.5])
        dm = qm.decision_map(p, grid, grid)
        assert dm.tech_names == ("split", "common")
        for i, k1 in enumerate(grid):
            for j, k2 in enumerate(grid):
                best = max(
                    [(MONO_REV_SPLIT - k1, 0, "split"),
                     (MONO_REV_COMMON - k2, 1, "common"),
                     (0.0, 2, "not-enter")],
                    key=lambda t: (t[0], -t[1]))
                assert dm.cells[i][j] == best[2]

    def test_incumbent_shrinks_the_entry_region(self, uniform1, split_qos, common_qos):
        grid = np.linspace(0.0, 0.3, 5)
        mono = qm.decision_map(pair_problem(uniform1, split_qos, common_qos),
                               grid, grid)
        duo = qm.decision_map(pair_problem(uniform1, split_qos, common_qos, q1=1.687),
                              grid, grid)
        mono_out = {(i, j) for i in range(5) for j in range(5)
                    if mono.cells[i][j] == "not-enter"}
        duo_out = {(i, j) for i in range(5) for j in range(5)
                   if duo.cells[i][j] == "not-enter"}
        assert mono_out <= duo_out
        assert len(duo_out) > len(mono_out)

    def test_csv_layout(self, uniform1, split_qos, common_qos, tmp_path):
        p = pair_problem(uniform1, split_qos, common_qos)
        dm = qm.decision_map(p, np.array([0.0, 0.5]), np.array([0.0, 0.5]))
        path = tmp_path / "map.csv"
        dm.to_csv(path)
        assert path.read_text() == (
            "k_split,k_common,choice\n"
            "0,0,split\n"
            "0,0.5,split\n"
            "0.5,0,common\n"
            "0.5,0.5,not-enter\n")

    def test_needs_exactly_two_entries(self, uniform1, split_qos):
        p = qm.SelectionProblem(dist=uniform1, technologies=(
            qm.Technology("solo", split_qos, 0.1), qm.Technology.stay_out()))
        with pytest.raises(qm.ModelError):
            qm.decision_map(p, np.array([0.0, 0.1]), np.array([0.0, 0.1]))

    def test_grids_must_ascend(self, uniform1, split_qos, common_qos):
        p = pair_problem(uniform1, split_qos, common_qos)
        with pytest.raises(qm.ModelError):
            qm.decision_map(p, np.array([0.1, 0.0]), np.array([0.0, 0.1]))
        with pytest.raises(qm.ModelError):
            qm.decision_map(p, np.array([-0.1, 0.2]), np.array([0.0, 0.1]))


class TestEntryBarrier:
    def test_competition_cuts_revenue(self, uniform1, split_qos, common_qos):
        # an incumbent turns the monopoly optimum into a shared market
        assert DUO_REV_SPLIT < MONO_REV_SPLIT
        assert DUO_REV_COMMON < MONO_REV_COMMON
        mono = pair_problem(uniform1, split_qos, common_qos)
        duo = pair_problem(uniform1, split_qos, common_qos, q1=1.687)
        for tech in mono.technologies:
            if tech.is_entry:
                assert technology_profit(duo, tech) < technology_profit(mono, tech)
