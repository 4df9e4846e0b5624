"""Command-line front end: run scenario files, write CSV results.

Subcommands: ``simulate`` (share dynamics trace), ``analyze``
(equilibria, stability verdicts, revenue optimum and bounds),
``compete`` (share-competition equilibrium plus best-response
trajectory), ``select`` (technology profit table and optional cost-grid
decision map), ``fit-qos`` (affine fit of measured QoS samples).

Outputs land in ``--out`` (default: current directory) named
``<scenario>_<command>.csv``.  Every CSV file goes through the package's
one writer, ``_table.write_rows``, and every number on stdout and in a
cell through its ``fmt``: 12 significant digits, ``true``/``false`` for
verdicts; runs are byte-for-byte reproducible.  Scenario files are read
by :func:`qosmarket.scenario.load_scenario`, which looks each ``kind`` up
in one table per section (``scenario._KINDS``).  Exit codes: 0 success,
2 configuration error, 3 required convergence failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import competition, duopoly, monopoly, revenue, selection
from ._table import fmt, write_rows
from .errors import FitError, MarketError, NonConvergenceError, ScenarioError
from .monopoly import Synchronous
from .qos import Technology, fit_affine, load_qos_samples
from .scenario import Scenario, load_scenario

__all__ = ["main", "console_main"]


def _pick_entry(scenario: Scenario, name: str | None) -> Technology:
    tech = scenario.technology(name)
    if not tech.is_entry:
        raise ScenarioError(f"technology {tech.name!r} has no QoS curve")
    return tech


def cmd_simulate(scenario: Scenario, args, out_dir: Path) -> int:
    if scenario.dynamics is None:
        raise ScenarioError(f"scenario {scenario.name!r} has no dynamics section")
    dyn = scenario.dynamics
    max_iter = dyn.max_iter if args.max_iter is None else args.max_iter
    tol = dyn.tol if args.tol is None else args.tol
    tech = _pick_entry(scenario, args.technology)
    two_sided = scenario.q1 is not None and scenario.p1 is not None
    if two_sided:
        if scenario.p2 is None:
            raise ScenarioError("duopoly simulation needs prices.p2")
        if not isinstance(dyn.lambda0, tuple):
            raise ScenarioError("duopoly simulation needs a two-entry lambda0")
        if not isinstance(dyn.variant, Synchronous):
            raise ScenarioError("duopoly simulation supports only the synchronous variant")
        market = duopoly.DuopolyMarket(
            scenario.dist, scenario.q1, tech.qos, scenario.p1, scenario.p2
        )
        trace = duopoly.simulate_duopoly(market, dyn.lambda0, max_iter, tol)
    else:
        if scenario.p2 is None:
            raise ScenarioError("monopoly simulation needs prices.p2")
        if isinstance(dyn.lambda0, tuple):
            raise ScenarioError("monopoly simulation needs a scalar lambda0")
        market = monopoly.MonopolyMarket(scenario.dist, tech.qos, scenario.p2)
        trace = monopoly.simulate(market, dyn.variant, dyn.lambda0, max_iter, tol)
    out_path = out_dir / f"{scenario.name}_simulate.csv"
    trace.to_csv(out_path)
    final = trace.final()
    final_txt = (
        f"final_lambda1={fmt(final[0])} final_lambda2={fmt(final[1])}"
        if isinstance(final, tuple)
        else f"final_lambda2={fmt(final)}"
    )
    print(
        f"simulate name={scenario.name} technology={tech.name} "
        f"converged={fmt(trace.converged)} iterations={trace.iterations} "
        f"residual={fmt(trace.residual)} {final_txt}"
    )
    print(f"wrote {out_path}")
    return 0


def cmd_analyze(scenario: Scenario, args, out_dir: Path) -> int:
    tech = _pick_entry(scenario, args.technology)
    dist = scenario.dist
    qos = tech.qos
    rows: list[tuple] = [
        ("meta", "scenario", scenario.name),
        ("meta", "technology", tech.name),
    ]
    if scenario.p2 is not None:
        market = monopoly.MonopolyMarket(dist, qos, scenario.p2)
        share = monopoly.equilibrium(market)
        rows += [
            ("monopoly_equilibrium", "price", scenario.p2),
            ("monopoly_equilibrium", "share", share),
            ("monopoly_equilibrium", "revenue", scenario.p2 * share),
        ]
    cond = monopoly.convergence_condition(dist, qos)
    rows += [
        ("monopoly_stability", "holds", cond.holds),
        ("monopoly_stability", "lhs", cond.lhs),
        ("monopoly_stability", "rhs", cond.rhs),
    ]
    if cond.degradation_ratio is not None:
        rows += [
            ("monopoly_stability", "degradation_ratio", cond.degradation_ratio),
            ("monopoly_stability", "degradation_bound", cond.degradation_bound),
        ]
    opt = revenue.optimize(dist, qos)
    rows += [
        ("revenue_optimum", "share", opt.share),
        ("revenue_optimum", "marginal_valuation", opt.marginal_valuation),
        ("revenue_optimum", "price", opt.price),
        ("revenue_optimum", "revenue", opt.revenue),
    ]
    if dist.is_nonincreasing_pdf():
        bounds = revenue.optimum_bounds(dist, qos)
        rows += [
            ("optimum_bounds", "applicable", True),
            ("optimum_bounds", "tightened", bounds.tightened),
            ("optimum_bounds", "share_low", bounds.share_low),
            ("optimum_bounds", "share_high", bounds.share_high),
            ("optimum_bounds", "alpha_low", bounds.alpha_low),
            ("optimum_bounds", "alpha_high", bounds.alpha_high),
            ("optimum_bounds", "price_low", bounds.price_low),
            ("optimum_bounds", "price_high", bounds.price_high),
            ("optimum_bounds", "share_within", bounds.share_low < opt.share <= bounds.share_high),
            ("optimum_bounds", "alpha_within", bounds.alpha_low <= opt.marginal_valuation < bounds.alpha_high),
            ("optimum_bounds", "price_within", bounds.price_low <= opt.price < bounds.price_high),
        ]
    else:
        rows.append(("optimum_bounds", "applicable", False))
    if scenario.q1 is not None:
        if scenario.p1 is not None and scenario.p2 is not None:
            market2 = duopoly.DuopolyMarket(
                dist, scenario.q1, qos, scenario.p1, scenario.p2
            )
            eq = duopoly.equilibrium_duopoly(market2)
            r1, r2 = scenario.p1 * eq.lam1, scenario.p2 * eq.lam2
            rows += [
                ("duopoly_equilibrium", "regime", eq.regime.value),
                ("duopoly_equilibrium", "lambda1", eq.lam1),
                ("duopoly_equilibrium", "lambda2", eq.lam2),
            ]
            if eq.theta1 is not None:
                rows += [
                    ("duopoly_equilibrium", "theta1", eq.theta1),
                    ("duopoly_equilibrium", "theta2", eq.theta2),
                ]
            rows += [
                ("duopoly_equilibrium", "revenue1", r1),
                ("duopoly_equilibrium", "revenue2", r2),
            ]
        cond2 = duopoly.convergence_condition_duopoly(dist, scenario.q1, qos)
        rows += [
            ("duopoly_stability", "holds", cond2.holds),
            ("duopoly_stability", "lhs", cond2.lhs),
            ("duopoly_stability", "rhs", cond2.rhs),
        ]
    out_path = out_dir / f"{scenario.name}_analyze.csv"
    write_rows(out_path, ("section", "key", "value"), rows)
    print(f"analyze name={scenario.name} technology={tech.name} rows={len(rows)}")
    print(f"wrote {out_path}")
    return 0


def _write_trajectory(path: Path, game: competition.CournotGame, points) -> None:
    write_rows(path, ("round", "lambda1", "lambda2", "p1", "p2", "R1", "R2"), (
        (rnd, l1, l2, *competition.inverse_demand(game, l1, l2),
         *competition.revenues(game, l1, l2))
        for rnd, (l1, l2) in enumerate(points)
    ))


def cmd_compete(scenario: Scenario, args, out_dir: Path) -> int:
    if scenario.q1 is None:
        raise ScenarioError(f"scenario {scenario.name!r} has no incumbent")
    tech = _pick_entry(scenario, args.technology)
    game = competition.CournotGame(scenario.dist, scenario.q1, tech.qos)
    given = {key: value for key, value in (("max_rounds", args.max_iter), ("tol", args.tol))
             if value is not None}
    out_path = out_dir / f"{scenario.name}_compete.csv"
    try:
        outcome = competition.nash_solve(game, args.start, **given)
    except NonConvergenceError as exc:
        _write_trajectory(out_path, game, exc.path)
        print(f"wrote {out_path}")
        print(f"compete name={scenario.name}: {exc}", file=sys.stderr)
        return 3
    _write_trajectory(out_path, game, outcome.path)
    print(
        f"compete name={scenario.name} technology={tech.name} rounds={outcome.iterations} "
        f"lambda1={fmt(outcome.lam1)} lambda2={fmt(outcome.lam2)} "
        f"p1={fmt(outcome.p1)} p2={fmt(outcome.p2)} "
        f"r1={fmt(outcome.r1)} r2={fmt(outcome.r2)} "
        f"supermodular={fmt(competition.supermodularity_check(game).holds)}"
    )
    print(f"wrote {out_path}")
    return 0


def _parse_grid(text: str, where: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ScenarioError(f"{where}: expected LO:HI:N, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ScenarioError(f"{where}: expected LO:HI:N, got {text!r}") from None
    if n < 1 or hi < lo:
        raise ScenarioError(f"{where}: empty grid {text!r}")
    return np.linspace(lo, hi, n)


def cmd_select(scenario: Scenario, args, out_dir: Path) -> int:
    # parse and solve everything before writing, so a failing request writes nothing
    grid1 = grid2 = None
    if args.k_grid is not None:
        grid1 = _parse_grid(args.k_grid, "--k-grid")
        grid2 = (
            _parse_grid(args.k_grid2, "--k-grid2") if args.k_grid2 is not None else grid1
        )
    problem = selection.SelectionProblem(
        dist=scenario.dist,
        technologies=(*scenario.technologies, Technology.stay_out()),
        q1=scenario.q1,
    )
    result, dmap = selection._decide(problem, grid1, grid2)
    out_path = out_dir / f"{scenario.name}_select.csv"
    write_rows(out_path, ("technology", "cost", "revenue", "profit"), (
        (name, tech.cost_per_period, profit + tech.cost_per_period if tech.is_entry else 0.0,
         profit)
        for tech, (name, profit) in zip(problem.ordered(), result.profits)
    ))
    print(f"select name={scenario.name} chosen={result.chosen.name}")
    print(f"wrote {out_path}")
    if dmap is not None:
        map_path = out_dir / f"{scenario.name}_select_map.csv"
        dmap.to_csv(map_path)
        print(f"wrote {map_path}")
    return 0


def cmd_fit_qos(args, out_dir: Path) -> int:
    lams, qualities = load_qos_samples(args.csvfile)
    try:
        fit = fit_affine(lams, qualities)
    except FitError as exc:
        raise FitError(f"{args.csvfile}: {exc}") from exc
    out_path = out_dir / f"{Path(args.csvfile).stem}_fit-qos.csv"
    write_rows(out_path, ("q_bar", "c", "rms_residual"),
               [(fit.model.q_bar, fit.model.c, fit.rms_residual)])
    print(
        f"fit-qos file={args.csvfile} q_bar={fmt(fit.model.q_bar)} "
        f"c={fmt(fit.model.c)} rms_residual={fmt(fit.rms_residual)}"
    )
    print(f"wrote {out_path}")
    return 0


def _add_shared(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # subparsers suppress the defaults so they never clobber values the
    # top-level parser already collected from flags placed before the command
    default = None if top_level else argparse.SUPPRESS
    parser.add_argument(
        "--tol", type=float, default=default,
        help="override solver tolerance (simulate, compete)",
    )
    parser.add_argument(
        "--max-iter", type=int, default=default,
        help="override iteration budget (simulate, compete)",
    )
    parser.add_argument(
        "--out", type=Path, default=default, help="directory for CSV outputs (default: .)"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qosmarket",
        description="Subscription-market models with load-dependent quality of service.",
    )
    _add_shared(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_cmd(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        _add_shared(p, top_level=False)
        p.add_argument("scenario", type=Path)
        p.add_argument(
            "--technology", default=None, help="entry technology name (default: first)"
        )
        return p

    scenario_cmd("simulate", "iterate the share dynamics and trace the path")
    scenario_cmd("analyze", "equilibria, stability verdicts, revenue optimum")
    compete = scenario_cmd("compete", "share-competition equilibrium and trajectory")
    compete.add_argument(
        "--start",
        default="0.25,0.25",
        help="start shares as LAM1,LAM2 (default 0.25,0.25)",
    )
    sel = sub.add_parser("select", help="technology profit table and decision map")
    _add_shared(sel, top_level=False)
    sel.add_argument("scenario", type=Path)
    sel.add_argument("--k-grid", default=None, help="cost grid LO:HI:N for the map")
    sel.add_argument("--k-grid2", default=None, help="second-axis grid (default: --k-grid)")
    fit = sub.add_parser("fit-qos", help="affine fit of lambda,qos samples")
    _add_shared(fit, top_level=False)
    fit.add_argument("csvfile", type=Path)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_dir: Path = args.out if args.out is not None else Path(".")
    try:
        if args.command in ("analyze", "select", "fit-qos"):
            for flag, value in (("--tol", args.tol), ("--max-iter", args.max_iter)):
                if value is not None:
                    raise ScenarioError(f"{flag} applies to simulate and compete, not {args.command}")
        if args.command == "select" and args.k_grid2 is not None and args.k_grid is None:
            raise ScenarioError("--k-grid2: needs --k-grid")
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "fit-qos":
            return cmd_fit_qos(args, out_dir)
        scenario = load_scenario(args.scenario)
        if args.command == "simulate":
            return cmd_simulate(scenario, args, out_dir)
        if args.command == "analyze":
            return cmd_analyze(scenario, args, out_dir)
        if args.command == "compete":
            start_parts = str(args.start).split(",")
            if len(start_parts) != 2:
                raise ScenarioError(f"--start: expected LAM1,LAM2, got {args.start!r}")
            try:
                args.start = (float(start_parts[0]), float(start_parts[1]))
            except ValueError:
                raise ScenarioError(
                    f"--start: expected LAM1,LAM2, got {args.start!r}"
                ) from None
            return cmd_compete(scenario, args, out_dir)
        if args.command == "select":
            return cmd_select(scenario, args, out_dir)
        raise ScenarioError(f"unknown command {args.command!r}")
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MarketError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
