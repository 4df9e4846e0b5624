"""Scenario files: schema, defaults, path resolution, failure diagnostics."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import qosmarket as qm
from qosmarket.scenario import load_scenario

BASE = {
    "distribution": {"kind": "uniform", "beta": 1.0},
    "technologies": [{"name": "t", "qos": {"kind": "constant", "q": 1.0}}],
    "prices": {"p2": 0.3},
}


def write(tmp_path, payload, name="case.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return p


class TestGoldenScenarios:
    def test_monopoly_file(self, scenario_dir):
        s = load_scenario(scenario_dir / "split_monopoly.json")
        assert s.name == "split_monopoly"
        assert s.dist.is_uniform() and s.dist.beta == 1.0
        assert [t.name for t in s.technologies] == ["split", "common"]
        split = s.technology("split")
        assert (split.qos.q_bar, split.qos.c) == (1.633, 0.088)
        assert split.cost_per_period == 0.05
        assert (s.q1, s.p1, s.p2) == (None, None, 1.2)
        assert isinstance(s.dynamics.variant, qm.Synchronous)
        assert s.dynamics.lambda0 == 0.0
        assert s.dynamics.tol == 1e-12
        assert s.metadata["activity_ratio"] == 0.8

    def test_duopoly_file(self, scenario_dir):
        s = load_scenario(scenario_dir / "split_duopoly.json")
        assert (s.q1, s.p1, s.p2) == (1.687, 0.58, 0.53)
        assert s.dynamics.lambda0 == (0.0, 0.0)

    def test_custom_distribution_file(self, scenario_dir):
        # the density csv is referenced relative to the scenario file
        s = load_scenario(scenario_dir / "triangle_custom.json")
        assert not s.dist.is_uniform()
        assert s.dist.pdf(0.0) == pytest.approx(2.0, abs=1e-9)
        assert s.technology(None).name == "flat"

    def test_unknown_technology_is_reported(self, scenario_dir):
        s = load_scenario(scenario_dir / "split_monopoly.json")
        with pytest.raises(qm.ScenarioError) as exc:
            s.technology("fiber")
        assert "split" in str(exc.value) and "common" in str(exc.value)


class TestDefaults:
    def test_dynamics_block_is_optional(self, tmp_path):
        s = load_scenario(write(tmp_path, BASE))
        assert s.dynamics is None
        assert s.name == "case"

    def test_iteration_defaults(self, tmp_path):
        payload = {**BASE, "dynamics": {"variant": {"kind": "synchronous"},
                                        "lambda0": 0.25}}
        s = load_scenario(write(tmp_path, payload))
        assert s.dynamics.max_iter == 10_000
        assert s.dynamics.tol == 1e-10

    def test_cost_defaults_to_zero(self, tmp_path):
        s = load_scenario(write(tmp_path, BASE))
        assert s.technologies[0].cost_per_period == 0.0

    def test_name_defaults_to_stem_and_can_be_overridden(self, tmp_path):
        s = load_scenario(write(tmp_path, {**BASE, "name": "renamed"}))
        assert s.name == "renamed"


class TestVariantParsing:
    @pytest.mark.parametrize("variant,expected", [
        ({"kind": "synchronous"}, qm.Synchronous),
        ({"kind": "partial", "epsilon": 0.25}, qm.Partial),
        ({"kind": "switching_cost", "cost": 0.2}, qm.SwitchingCost),
        ({"kind": "positive_externality", "q_bar": 1.0, "delta": 0.5,
          "phi": 0.2, "gamma": 1.0}, qm.PositiveExternality),
    ])
    def test_kinds(self, tmp_path, variant, expected):
        payload = {**BASE, "dynamics": {"variant": variant, "lambda0": 0.0}}
        s = load_scenario(write(tmp_path, payload))
        assert isinstance(s.dynamics.variant, expected)

    def test_parameters_survive(self, tmp_path):
        payload = {**BASE, "dynamics": {
            "variant": {"kind": "partial", "epsilon": 0.25}, "lambda0": 0.1}}
        s = load_scenario(write(tmp_path, payload))
        assert s.dynamics.variant.epsilon == 0.25


class TestDiagnostics:
    def test_missing_file(self, tmp_path):
        with pytest.raises(qm.ScenarioError) as exc:
            load_scenario(tmp_path / "nope.json")
        assert "nope.json" in str(exc.value)

    def test_invalid_json_reports_line(self, tmp_path):
        p = write(tmp_path, '{\n  "distribution": oops\n}')
        with pytest.raises(qm.ScenarioError) as exc:
            load_scenario(p)
        assert ":2:" in str(exc.value)
        assert "invalid JSON" in str(exc.value)

    def test_missing_required_key(self, tmp_path):
        p = write(tmp_path, {"technologies": BASE["technologies"]})
        with pytest.raises(qm.ScenarioError) as exc:
            load_scenario(p)
        assert "missing required key 'distribution'" in str(exc.value)

    def test_unknown_kinds(self, tmp_path):
        p = write(tmp_path, {**BASE, "distribution": {"kind": "normal"}})
        with pytest.raises(qm.ScenarioError, match="unknown distribution kind"):
            load_scenario(p)
        p2 = write(tmp_path, {**BASE, "dynamics": {
            "variant": {"kind": "warp"}, "lambda0": 0.0}}, "v.json")
        with pytest.raises(qm.ScenarioError, match="unknown variant kind"):
            load_scenario(p2)

    def test_unknown_qos_kind(self, tmp_path):
        p = write(tmp_path, {**BASE, "technologies": [{"name": "t", "qos": {"kind": "cubic"}}]})
        with pytest.raises(qm.ScenarioError,
                           match=re.escape("technologies[0].qos.kind: unknown QoS kind 'cubic'")):
            load_scenario(p)

    @pytest.mark.parametrize("change, key", [
        ({"distribution": {"kind": "custom", "file": 3}}, "distribution.file"),
        ({"distribution": {"kind": "custom", "file": ["a.csv"]}}, "distribution.file"),
        ({"technologies": [{"name": "t", "qos": {"kind": "tabulated", "file": 3}}]},
         "technologies[0].qos.file"),
        ({"technologies": [{"name": 3, "qos": {"kind": "constant", "q": 1.0}}]},
         "technologies[0].name"),
        ({"name": ["x"]}, "name"),
    ])
    def test_text_values_are_type_checked(self, tmp_path, change, key):
        p = write(tmp_path, {**BASE, **change})
        with pytest.raises(qm.ScenarioError, match=re.escape(f"{p}: {key}: expected a string")):
            load_scenario(p)

    def test_numbers_are_type_checked(self, tmp_path):
        p = write(tmp_path, {**BASE, "distribution": {"kind": "uniform", "beta": True}})
        with pytest.raises(qm.ScenarioError, match="expected a number"):
            load_scenario(p)

    def test_start_share_arity(self, tmp_path):
        p = write(tmp_path, {**BASE, "dynamics": {
            "variant": {"kind": "synchronous"}, "lambda0": [0.1, 0.2, 0.3]}})
        with pytest.raises(qm.ScenarioError, match="expected 2 entries, got 3"):
            load_scenario(p)

    def test_solver_settings_validated(self, tmp_path):
        p = write(tmp_path, {**BASE, "dynamics": {
            "variant": {"kind": "synchronous"}, "lambda0": 0.0, "tol": 0}})
        with pytest.raises(qm.ScenarioError):
            load_scenario(p)
        p2 = write(tmp_path, {**BASE, "dynamics": {
            "variant": {"kind": "synchronous"}, "lambda0": 0.0, "max_iter": 0}},
            "m.json")
        with pytest.raises(qm.ScenarioError):
            load_scenario(p2)

    def test_model_violations_become_scenario_errors(self, tmp_path):
        # a constructor's error names the file and the key it came from
        cases = [
            ({"technologies": [{"name": "t", "qos": {"kind": "linear", "q_bar": 1.0, "c": 2.0}}]},
             "technologies[0].qos: need 0 <= c < q_bar, got c=2.0, q_bar=1.0"),
            ({"technologies": [{"name": "t", "qos": {"kind": "constant", "q": 1.0}, "cost": -1}]},
             "technologies[0].cost: must be >= 0, got -1.0"),
            ({"distribution": {"kind": "uniform", "beta": -1}},
             "distribution: beta must be positive and finite, got -1.0"),
            ({"distribution": {"kind": "uniform", "beta": 5e-324}},
             "distribution: beta=5e-324 is too small: 1/beta is not finite"),
            ({"dynamics": {"variant": {"kind": "partial", "epsilon": 2}, "lambda0": 0.0}},
             "dynamics.variant: epsilon must be in (0, 1], got 2.0"),
            ({"technologies": [{"name": "t", "qos": {"kind": "constant", "q": 0.5}},
                               {"name": "u", "qos": {"kind": "linear", "q_bar": 1.633, "c": 0.088}}],
              "incumbent": {"q1": 1.0}},
             "incumbent.q1: technologies[1].qos quality reaches 1.633, must stay below q1=1.0"),
        ]
        for change, message in cases:
            p = write(tmp_path, {**BASE, **change})
            with pytest.raises(qm.ScenarioError) as exc:
                load_scenario(p)
            assert str(exc.value) == f"{p}: {message}"

    def test_structure_checks(self, tmp_path):
        p = write(tmp_path, {**BASE, "technologies": []})
        with pytest.raises(qm.ScenarioError, match="nonempty list"):
            load_scenario(p)
        p2 = write(tmp_path, {**BASE, "metadata": "hello"}, "m.json")
        with pytest.raises(qm.ScenarioError, match="expected an object"):
            load_scenario(p2)

    def test_every_message_names_the_file(self, tmp_path):
        p = write(tmp_path, {**BASE, "technologies": []})
        with pytest.raises(qm.ScenarioError) as exc:
            load_scenario(p)
        assert str(p) in str(exc.value)

    @pytest.mark.parametrize("names, where, what", [
        (["e", "f", "e"], "technologies[2].name", "duplicate technology name 'e' (also technologies[0].name)"),
        (["e", "not-enter"], "technologies[1].name", "'not-enter' is reserved for the stay-out option"),
    ])
    def test_technology_names_are_distinct_and_not_reserved(self, tmp_path, names, where, what):
        techs = [{"name": n, "qos": {"kind": "constant", "q": 1.0}} for n in names]
        p = write(tmp_path, {**BASE, "technologies": techs})
        with pytest.raises(qm.ScenarioError) as exc:
            load_scenario(p)
        assert str(exc.value) == f"{p}: {where}: {what}"


class TestUnknownKeys:
    @pytest.mark.parametrize("payload, where, key", [
        ({**BASE, "incumbant": {"q1": 2.0}}, "scenario", "incumbant"),
        ({**BASE, "prices ": {"p2": 0.3}}, "scenario", "prices "),
        ({**BASE, "distribution": {"kind": "uniform", "beta": 1.0, "bta": 2.0}}, "distribution", "bta"),
        ({**BASE, "distribution": {"kind": "uniform", "beta": 1.0, "file": "x.csv"}}, "distribution", "file"),
        ({**BASE, "technologies": [{"name": "t", "qos": {"kind": "constant", "q": 1.0}, "costs": 0.1}]},
         "technologies[0]", "costs"),
        ({**BASE, "technologies": [{"name": "t", "qos": {"kind": "constant", "q": 1.0, "c": 0.1}}]},
         "technologies[0].qos", "c"),
        ({**BASE, "incumbent": {"q1": 2.0, "q2": 1.0}}, "incumbent", "q2"),
        ({**BASE, "prices": {"p2": 0.3, "p3": 0.1}}, "prices", "p3"),
        ({**BASE, "dynamics": {"variant": {"kind": "synchronous"}, "lambda0": 0.0, "tolerance": 1e-9}}, "dynamics", "tolerance"),
        ({**BASE, "dynamics": {"variant": {"kind": "partial", "epsilon": 0.5, "eps": 0.1}, "lambda0": 0.0}},
         "dynamics.variant", "eps"),
    ])
    def test_rejected_with_key_and_path(self, tmp_path, payload, where, key):
        p = write(tmp_path, payload)
        with pytest.raises(qm.ScenarioError) as exc:
            load_scenario(p)
        assert str(exc.value).startswith(f"{p}: {where}: unknown key {key!r}")

    def test_metadata_is_free_form(self, tmp_path):
        s = load_scenario(write(tmp_path, {**BASE, "metadata": {"anything": {"nested": [1, 2]}}}))
        assert s.metadata == {"anything": {"nested": [1, 2]}}


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading, lang):
    """The first ``lang`` code block under the README's ``## heading``."""
    section = README.read_text().split(f"## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


class TestReadmeContract:
    def test_scenario_example_loads(self, tmp_path):
        s = load_scenario(write(tmp_path, readme_block("Scenario files", "json")))
        assert s.name == "split_duopoly"
        assert [t.name for t in s.technologies] == ["split", "common"]
        assert (s.q1, s.p1, s.p2) == (1.687, 0.58, 0.53)
        assert s.dynamics.lambda0 == (0.0, 0.0) and s.dynamics.tol == 1e-12
        assert s.metadata == {"anything": "opaque"}

    def test_quick_start_values(self):
        # every "expression  # value" line must print that value; "..." stands
        # for the digits the README leaves out
        code = readme_block("Quick start", "python")
        ns = {}
        exec(code, ns)
        checked = {}
        for line in code.splitlines():
            m = re.match(r"([^=#]+?)\s+#\s+(\(.*?\)|[-\d.e]+)", line)
            if m:
                expr, want = m.groups()
                got = eval(expr, ns)
                shown = repr(tuple(float(v) if isinstance(v, float) else v for v in got)
                             if isinstance(got, tuple) else got)
                assert re.fullmatch(re.escape(want).replace(r"\.\.\.", r"\d*"), shown), (expr, want, shown)
                checked[expr] = want
        assert checked["qm.equilibrium(market)"] == "0.2549207697255652"
        assert checked["best.price, best.share, best.revenue"] == "(0.8058..., 0.4930..., 0.3973...)"
        assert len(checked) == 4


class TestRelativePaths:
    def test_csv_next_to_scenario(self, tmp_path):
        (tmp_path / "curve.csv").write_text(
            "lambda,qos\n0,1.7\n0.5,1.6\n1,1.55\n")
        payload = {**BASE, "technologies": [
            {"name": "tab", "qos": {"kind": "tabulated", "file": "curve.csv"}}]}
        s = load_scenario(write(tmp_path, payload))
        assert not s.technologies[0].qos.is_affine()
        assert s.technologies[0].qos.evaluate(0.25) == pytest.approx(1.65, abs=1e-12)

    def test_custom_distribution_next_to_scenario(self, tmp_path):
        a = np.linspace(0.0, 1.0, 21)
        lines = ["alpha,pdf"] + [f"{x:.12g},{2*(1-x):.12g}" for x in a]
        (tmp_path / "pdf.csv").write_text("\n".join(lines) + "\n")
        payload = {**BASE, "distribution": {"kind": "custom", "file": "pdf.csv"}}
        s = load_scenario(write(tmp_path, payload))
        assert not s.dist.is_uniform()
        assert s.dist.cdf(0.5) == pytest.approx(0.75, abs=1e-9)
