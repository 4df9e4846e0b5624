"""Command line interface: outputs, exit codes, determinism."""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qosmarket
from qosmarket import cli, competition, selection

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
MONO = str(SCENARIO_DIR / "split_monopoly.json")
DUO = str(SCENARIO_DIR / "split_duopoly.json")
TRI = str(SCENARIO_DIR / "triangle_custom.json")
QOS_CSV = str(SCENARIO_DIR / "qos_curve.csv")
CUSTOM_INC = str(SCENARIO_DIR.parent / "perfbench" / "scenarios" / "custom_incumbent.json")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_analysis(path):
    rows = read_rows(path)
    assert rows[0] == ["section", "key", "value"]
    return {(s, k): v for s, k, v in rows[1:]}


class TestSimulate:
    def test_monopoly_run(self, tmp_path, capsys):
        assert cli.main(["simulate", MONO, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "converged=true" in out
        assert "technology=split" in out
        assert "final_lambda2=0.254920769726" in out
        rows = read_rows(tmp_path / "split_monopoly_simulate.csv")
        assert rows[0] == ["t", "lambda2"]
        assert rows[1] == ["0", "0"]
        assert float(rows[-1][1]) == pytest.approx(0.25492076972556554, abs=1e-9)

    def test_duopoly_run(self, tmp_path, capsys):
        assert cli.main(["simulate", DUO, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "final_lambda1=" in out and "final_lambda2=" in out
        rows = read_rows(tmp_path / "split_duopoly_simulate.csv")
        assert rows[0] == ["t", "lambda1", "lambda2"]
        assert float(rows[-1][1]) == pytest.approx(0.3748945243, abs=1e-8)
        assert float(rows[-1][2]) == pytest.approx(0.2953011521, abs=1e-8)

    def test_custom_distribution_run(self, tmp_path, capsys):
        assert cli.main(["simulate", TRI, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "triangle_custom_simulate.csv")
        assert float(rows[-1][1]) == pytest.approx(0.49, abs=1e-9)

    def test_technology_flag(self, tmp_path, capsys):
        assert cli.main(["simulate", MONO, "--technology", "common",
                         "--out", str(tmp_path)]) == 0
        assert "technology=common" in capsys.readouterr().out

    def test_iteration_cap_reports_nonconvergence(self, tmp_path, capsys):
        # running out of iterations is an outcome, not an error
        assert cli.main(["simulate", MONO, "--max-iter", "3",
                         "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "converged=false" in out
        assert "iterations=3" in out

    def test_global_flags_accepted_before_subcommand(self, tmp_path, capsys):
        assert cli.main(["--out", str(tmp_path), "--max-iter", "3",
                         "simulate", MONO]) == 0
        assert "converged=false" in capsys.readouterr().out


class TestAnalyze:
    def test_monopoly_report(self, tmp_path, capsys):
        assert cli.main(["analyze", MONO, "--out", str(tmp_path)]) == 0
        vals = read_analysis(tmp_path / "split_monopoly_analyze.csv")
        assert vals[("meta", "scenario")] == "split_monopoly"
        assert float(vals[("monopoly_equilibrium", "share")]) == pytest.approx(
            0.25492076972556554, abs=1e-9)
        assert vals[("monopoly_stability", "holds")] == "true"
        assert float(vals[("monopoly_stability", "degradation_ratio")]) == pytest.approx(
            0.088 / 1.633, abs=1e-9)
        assert float(vals[("revenue_optimum", "revenue")]) == pytest.approx(
            0.3973261193525431, abs=1e-9)
        assert vals[("optimum_bounds", "tightened")] == "true"
        assert vals[("optimum_bounds", "share_within")] == "true"
        assert vals[("optimum_bounds", "price_within")] == "true"
        # no incumbent in this scenario, so no duopoly sections
        assert not any(s.startswith("duopoly") for s, _ in vals)

    def test_duopoly_report(self, tmp_path, capsys):
        assert cli.main(["analyze", DUO, "--out", str(tmp_path)]) == 0
        vals = read_analysis(tmp_path / "split_duopoly_analyze.csv")
        assert vals[("duopoly_equilibrium", "regime")] == "interior"
        assert float(vals[("duopoly_equilibrium", "lambda1")]) == pytest.approx(
            0.3748945243, abs=1e-8)
        assert float(vals[("duopoly_equilibrium", "lambda2")]) == pytest.approx(
            0.2953011521, abs=1e-8)
        assert vals[("duopoly_stability", "holds")] == "false"
        assert float(vals[("duopoly_stability", "lhs")]) == pytest.approx(
            1.6835181783130329, abs=1e-6)
        # revenue at the fixed-price equilibrium
        assert float(vals[("duopoly_equilibrium", "revenue1")]) == pytest.approx(
            0.58 * 0.3748945243, abs=1e-8)

    def test_custom_density_report(self, tmp_path, capsys):
        assert cli.main(["analyze", TRI, "--out", str(tmp_path)]) == 0
        vals = read_analysis(tmp_path / "triangle_custom_analyze.csv")
        assert vals[("optimum_bounds", "tightened")] == "false"
        assert ("monopoly_stability", "degradation_ratio") not in vals
        assert float(vals[("monopoly_stability", "lhs")]) == 0.0
        assert vals[("monopoly_stability", "lhs")] != "-0"
        assert float(vals[("revenue_optimum", "revenue")]) == pytest.approx(
            4 / 27, abs=1e-8)
        assert float(vals[("monopoly_equilibrium", "share")]) == pytest.approx(
            0.49, abs=1e-9)


class TestCompete:
    def test_reference_run(self, tmp_path, capsys):
        assert cli.main(["compete", DUO, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "supermodular=true" in out
        assert "rounds=16" in out
        rows = read_rows(tmp_path / "split_duopoly_compete.csv")
        assert rows[0] == ["round", "lambda1", "lambda2", "p1", "p2", "R1", "R2"]
        assert rows[1][:3] == ["0", "0.25", "0.25"]
        last = rows[-1]
        assert float(last[1]) == pytest.approx(0.34585958252741744, abs=1e-7)
        assert float(last[2]) == pytest.approx(0.3241368410434774, abs=1e-7)
        assert float(last[3]) == pytest.approx(0.5834651157, abs=1e-7)
        assert float(last[5]) == pytest.approx(0.2017970013, abs=1e-7)

    @pytest.mark.parametrize("qos", [
        None,  # split_duopoly itself
        {"kind": "linear", "q_bar": 1.633, "c": 0.088},
        {"kind": "linear", "q_bar": 1.0, "c": 0.9},  # cross-partials of both signs
    ])
    def test_supermodular_is_the_games_verdict(self, qos, tmp_path, capsys):
        path = Path(DUO)
        if qos is not None:
            path = tmp_path / "custom_duopoly.json"
            path.write_text(json.dumps({
                "distribution": {"kind": "custom", "file": str(SCENARIO_DIR / "triangle_pdf.csv")},
                "technologies": [{"name": "entry", "qos": qos}],
                "incumbent": {"q1": 1.687},
            }))
        assert cli.main(["compete", str(path), "--out", str(tmp_path)]) == 0
        sc = qosmarket.load_scenario(path)
        game = qosmarket.CournotGame(sc.dist, sc.q1, sc.technologies[0].qos)
        holds = qosmarket.supermodularity_check(game).holds
        line = capsys.readouterr().out.splitlines()[0]
        assert line.endswith(f" supermodular={'true' if holds else 'false'}")

    def test_entrant_curve_shorter_than_half_the_market(self, tmp_path, capsys):
        curve = tmp_path / "short_qos.csv"
        curve.write_text("lambda,qos\n0,1.0\n0.3,0.8\n")
        path = tmp_path / "short_curve.json"
        path.write_text(json.dumps({
            "distribution": {"kind": "custom", "file": str(SCENARIO_DIR / "triangle_pdf.csv")},
            "technologies": [{"name": "entry", "qos": {"kind": "tabulated", "file": str(curve)}}],
            "incumbent": {"q1": 1.5},
        }))
        assert cli.main(["compete", str(path), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[0].endswith(" supermodular=true")

    def test_start_flag_reaches_same_solution(self, tmp_path, capsys):
        assert cli.main(["compete", DUO, "--start", "0.1,0.3",
                         "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "split_duopoly_compete.csv")
        assert rows[1][:3] == ["0", "0.1", "0.3"]
        assert float(rows[-1][1]) == pytest.approx(0.34585958252741744, abs=1e-6)

    def test_round_cap_exits_3_with_partial_trace(self, tmp_path, capsys):
        assert cli.main(["compete", DUO, "--max-iter", "2",
                         "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "did not converge" in err
        rows = read_rows(tmp_path / "split_duopoly_compete.csv")
        assert len(rows) == 4  # header, start, two rounds
        assert rows[1][0] == "0" and rows[-1][0] == "2"

    @pytest.mark.parametrize("flag, value, name", [("--max-iter", "0", "max_rounds"),
                                                   ("--tol", "0", "tol")])
    def test_empty_budget_is_a_configuration_error(self, flag, value, name, tmp_path, capsys):
        assert cli.main(["compete", DUO, flag, value, "--out", str(tmp_path)]) == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "split_duopoly_compete.csv").exists()

    def test_needs_an_incumbent(self, tmp_path, capsys):
        assert cli.main(["compete", MONO, "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_start(self, tmp_path, capsys):
        assert cli.main(["compete", DUO, "--start", "0.25",
                         "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestSelect:
    def test_monopoly_profit_table(self, tmp_path, capsys):
        assert cli.main(["select", MONO, "--out", str(tmp_path)]) == 0
        assert "chosen=common" in capsys.readouterr().out
        rows = read_rows(tmp_path / "split_monopoly_select.csv")
        assert rows[0] == ["technology", "cost", "revenue", "profit"]
        table = {r[0]: r[1:] for r in rows[1:]}
        assert table["not-enter"] == ["0", "0", "0"]
        assert float(table["split"][1]) == pytest.approx(0.3973261193525431, abs=1e-9)
        assert float(table["split"][2]) == pytest.approx(0.3473261193525431, abs=1e-9)
        assert float(table["common"][2]) == pytest.approx(0.3667929857228158, abs=1e-9)

    def test_duopoly_profit_table(self, tmp_path, capsys):
        assert cli.main(["select", DUO, "--out", str(tmp_path)]) == 0
        assert "chosen=common" in capsys.readouterr().out
        rows = read_rows(tmp_path / "split_duopoly_select.csv")
        table = {r[0]: r[1:] for r in rows[1:]}
        assert float(table["split"][1]) == pytest.approx(0.171624883615, abs=1e-7)
        assert float(table["common"][1]) == pytest.approx(0.165231549467, abs=1e-7)

    def test_decision_map_grid(self, tmp_path, capsys):
        assert cli.main(["select", MONO, "--k-grid", "0:0.3:4",
                         "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "split_monopoly_select_map.csv")
        assert rows[0] == ["k_split", "k_common", "choice"]
        assert len(rows) == 17
        cells = {(r[0], r[1]): r[2] for r in rows[1:]}
        assert cells[("0", "0")] == "split"
        assert cells[("0.1", "0")] == "common"
        assert cells[("0.3", "0.3")] == "split"

    def test_decision_map_solves_each_game_once(self, monkeypatch, tmp_path, capsys):
        # the profit table and the map share one Nash solve per technology
        solve, curves = selection.nash_solve, []

        def counting(game, *args, **kwargs):
            curves.append(game.qos2)
            return solve(game, *args, **kwargs)

        monkeypatch.setattr(selection, "nash_solve", counting)
        assert cli.main(["select", CUSTOM_INC, "--k-grid", "0:0.2:3", "--out", str(tmp_path)]) == 0
        assert len(curves) == 2 and curves[0] is not curves[1]

    def test_malformed_grid_writes_nothing(self, tmp_path, capsys):
        assert cli.main(["select", MONO, "--k-grid", "0:0.3",
                         "--out", str(tmp_path)]) == 2
        assert "expected LO:HI:N" in capsys.readouterr().err
        assert not (tmp_path / "split_monopoly_select.csv").exists()

    def test_unmappable_grid_writes_nothing(self, tmp_path, capsys):
        # the triangle scenario has one entry technology, so no map exists
        assert cli.main(["select", TRI, "--k-grid", "0:0.1:3", "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "decision map needs exactly two entry technologies" in err
        assert list(tmp_path.iterdir()) == []


class TestFitQos:
    def test_fit_output(self, tmp_path, capsys):
        assert cli.main(["fit-qos", QOS_CSV, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "q_bar=1.7075" in out and "c=0.15" in out
        content = (tmp_path / "qos_curve_fit-qos.csv").read_text()
        assert content == "q_bar,c,rms_residual\n1.7075,0.15,0.00441588043316\n"

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["fit-qos", str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unfittable_samples_name_the_file(self, tmp_path, capsys):
        samples = tmp_path / "twice.csv"
        samples.write_text("lambda,qos\n0.5,1.0\n0.5,0.9\n")
        assert cli.main(["fit-qos", str(samples), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {samples}: lams must be distinct\n"
        assert not (tmp_path / "twice_fit-qos.csv").exists()
        with pytest.raises(qosmarket.FitError, match="twice.csv: lams must be distinct"):
            cli.cmd_fit_qos(argparse.Namespace(csvfile=samples), tmp_path)


class TestErrorPaths:
    @pytest.mark.parametrize("argv", [
        ["analyze", MONO, "--tol", "1e-8"],
        ["analyze", MONO, "--max-iter", "5"],
        ["select", MONO, "--tol", "1e-8"],
        ["select", MONO, "--max-iter", "5"],
        ["fit-qos", QOS_CSV, "--tol", "1e-8"],
        ["fit-qos", QOS_CSV, "--max-iter", "5"],
        ["--tol", "1e-8", "analyze", MONO],
        ["--max-iter", "5", "select", MONO],
        ["--max-iter", "5", "fit-qos", QOS_CSV],
        ["select", MONO, "--k-grid2", "0:1:3"],
    ])
    def test_ignored_flags_are_refused(self, argv, tmp_path, capsys):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        flag = next(a for a in argv if a.startswith("--"))
        assert flag in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_scenario(self, tmp_path, capsys):
        assert cli.main(["simulate", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_technology(self, tmp_path, capsys):
        assert cli.main(["simulate", MONO, "--technology", "fiber",
                         "--out", str(tmp_path)]) == 2
        assert "fiber" in capsys.readouterr().err

    @pytest.mark.parametrize("change, key", [
        ({"distribution": {"kind": "custom", "file": 3}}, "distribution.file"),
        ({"name": ["x"]}, "name"),
    ])
    def test_wrongly_typed_text_is_a_configuration_error(self, change, key, tmp_path, capsys):
        payload = {
            "distribution": {"kind": "uniform", "beta": 1.0},
            "technologies": [{"name": "t", "qos": {"kind": "constant", "q": 1.0}}],
            **change,
        }
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert cli.main(["analyze", str(path), "--out", str(out)]) == 2
        assert f"{key}: expected a string" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["analyze", "compete", "select"])
    @pytest.mark.parametrize("second, key", [("e", "technologies[1].name"),
                                             ("not-enter", "technologies[1].name")])
    def test_clashing_technology_names_are_configuration_errors(self, command, second, key,
                                                                 tmp_path, capsys):
        payload = {
            "distribution": {"kind": "uniform", "beta": 1.0},
            "technologies": [{"name": "e", "qos": {"kind": "linear", "q_bar": 1.6, "c": 0.1}},
                             {"name": second, "qos": {"kind": "constant", "q": 1.5}}],
            "incumbent": {"q1": 1.7},
        }
        path = tmp_path / "clash.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert cli.main([command, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and key in err
        assert not out.exists() or list(out.iterdir()) == []

    def test_scenario_without_dynamics(self, tmp_path, capsys):
        payload = {
            "distribution": {"kind": "uniform", "beta": 1.0},
            "technologies": [{"name": "t", "qos": {"kind": "constant", "q": 1.0}}],
            "prices": {"p2": 0.3},
        }
        path = tmp_path / "static.json"
        path.write_text(json.dumps(payload))
        assert cli.main(["simulate", str(path), "--out", str(tmp_path)]) == 2
        assert "dynamics" in capsys.readouterr().err

    def test_no_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_output_directory_is_created(self, tmp_path, capsys):
        nested = tmp_path / "a" / "b"
        assert cli.main(["fit-qos", QOS_CSV, "--out", str(nested)]) == 0
        assert (nested / "qos_curve_fit-qos.csv").exists()

    @pytest.mark.parametrize("module", ["qosmarket", "qosmarket.cli"])
    def test_python_dash_m_runs_the_cli(self, module, tmp_path):
        src = str(Path(qosmarket.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", module, "simulate", str(tmp_path / "nope.json"),
             "--out", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    @pytest.mark.parametrize("command", ["compete", "select"])
    def test_escaped_best_response_is_a_model_error(self, command, tmp_path, capsys, monkeypatch):
        # an entrant maximizer that answers 0, outside every best response's range
        maximizer = competition._maximizer

        def escaping(dist, qos2, q1, lo, hi):
            maximize = maximizer(dist, qos2, q1, lo, hi)
            return maximize if q1 is not None else lambda other, start=None, width=0.0: 0.0

        monkeypatch.setattr(competition, "_maximizer", escaping)
        assert cli.main([command, DUO, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error: player 2's best response 0.0 escaped (0, 1/2]" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("out/*.csv"))


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path, capsys):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        for d in (d1, d2):
            assert cli.main(["analyze", DUO, "--out", str(d)]) == 0
            assert cli.main(["compete", DUO, "--out", str(d)]) == 0
        for name in ("split_duopoly_analyze.csv", "split_duopoly_compete.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
