"""The three workloads: seeded inputs, the fixed task list of one pass, and
the answer check behind every task.

``generate(name, seed)`` draws a workload's raw inputs (plain numbers and
lists) from the seed alone.  ``build(name, raw, ctx)`` turns them into
package objects, writes the scenario files the CLI reads, and returns the
pass: a list of :class:`Task`, each one call into a public entry point of
``qosmarket`` plus a check of its answer against a reference that does not
come from the same code path (closed forms, residuals, re-optimization, or
the in-process API for the CLI).

Why each workload exists:

* ``uniform_closed``: uniform valuations with linear and constant QoS.  Time
  goes to ``_optim`` control flow, scalar ``cdf`` and ``evaluate``; no cdf is
  ever inverted by bisection, so a quantile change must leave it flat.
* ``custom_density``: piecewise-linear non-increasing densities (11-201
  nodes) and the repo's triangle density.  Nearly all time goes to
  ``quantile`` bisection, scalar from golden section and 2,001-point vectors
  from the scans.
* ``cli_startup``: fresh-process CLI runs over the repo's scenarios and
  seeded variants of them; start-up and import dominate, solvers barely
  show.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import qosmarket as qm

WORKLOADS = ("uniform_closed", "custom_density", "cli_startup")

# A custom-density Nash solve that has not converged after this many
# best-response rounds counts as a failed operation.  Converging games from
# this generator take 5 to 14 rounds; the package default (1,000) would let
# one cycling game run for minutes.
NASH_MAX_ROUNDS = 20

_CLI_BOOT = "from qosmarket.cli import console_main; console_main()"


class CheckFailed(Exception):
    """An answer disagreed with its reference."""


@dataclass
class Task:
    """One timed call.  ``kind`` names the latency sample it feeds."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None] | None = None


@dataclass
class Context:
    """Where a run reads and writes, and how it starts the CLI."""

    root: Path  # checkout root: holds src/ and scenarios/
    work: Path  # generated scenario files and CLI outputs
    in_process: bool = False  # traced runs call cli.main here instead of a fresh process

    def env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def python(self, code: str, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", code, *args],
            cwd=self.root,
            env=self.env(),
            capture_output=True,
            text=True,
            timeout=120,
        )

    def cli(self, *argv: str) -> tuple[int, str]:
        argv = (*argv, "--out", str(self.work / "out"))
        if self.in_process:
            import qosmarket.cli as cli_module

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_module.main(list(argv))
            return code, buf.getvalue()
        proc = self.python(_CLI_BOOT, *argv)
        return proc.returncode, proc.stdout


# --------------------------------------------------------------------------
# comparisons


def _close(got: float, want: float, tol: float, what: str) -> None:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        raise CheckFailed(f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


def _rel_close(got: float, want: float, rel: float, what: str, abs_tol: float = 0.0) -> None:
    _close(got, want, rel * abs(want) + abs_tol, what)


def _choice(values: list[float], names: list[str], slack: float = 1e-9) -> str | None:
    """Name of the largest value, first on ties; ``None`` when the top two are
    too close to call from a reference computed another way."""
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    if len(order) > 1 and values[order[0]] - values[order[1]] <= slack:
        return None
    return names[order[0]]


# --------------------------------------------------------------------------
# reference values


def _closed_nash(q1: float, qb: float, c: float) -> tuple[float, float]:
    """Fixed point of the closed-form best responses, iterated to a standstill."""
    l1 = l2 = 0.25
    for _ in range(10_000):
        n1 = qm.best_response_closed(q1, qb, c, 1, l2)
        n2 = qm.best_response_closed(q1, qb, c, 2, n1)
        done = max(abs(n1 - l1), abs(n2 - l2)) < 1e-15
        l1, l2 = n1, n2
        if done:
            break
    return l1, l2


def _closed_entrant_revenue(beta: float, q1: float, qb: float, c: float) -> float:
    l1, l2 = _closed_nash(q1, qb, c)
    return l2 * beta * (1.0 - l1 - l2) * (qb - c * l2)


def _kmax(x: np.ndarray, f: np.ndarray) -> float:
    """max of alpha * f(alpha) for a piecewise-linear density, on a fine grid."""
    a = np.linspace(0.0, x[-1], 200_001)
    return float(np.max(a * np.interp(a, x, f)))


def _check_reoptimized(game, out) -> None:
    r1, r2 = qm.competition.revenues(game, out.lam1, out.lam2)
    b1 = qm.competition.revenues(game, qm.best_response(game, 1, out.lam2), out.lam2)[0]
    b2 = qm.competition.revenues(game, out.lam1, qm.best_response(game, 2, out.lam1))[1]
    if b1 - r1 >= 1e-8 or b2 - r2 >= 1e-8:
        raise CheckFailed(f"Nash point improvable by {b1 - r1:.3g}, {b2 - r2:.3g}")


def _check_trace_fixed_point(trace, want: float, what: str) -> None:
    if not trace.converged:
        raise CheckFailed(f"{what}: did not converge")
    _close(float(trace.final()), want, 1e-8, what)


def _in_band(a: float, band, tol: float, what: str) -> None:
    if not any(lo - tol <= a <= hi + tol for lo, hi in band):
        raise CheckFailed(f"{what}: threshold {a!r} outside band {band!r}")


# --------------------------------------------------------------------------
# input generation (pure data, a function of the seed only)


def _u(rng, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _linear(rng, cmin: float, cmax: float) -> dict:
    qb = _u(rng, 1.0, 2.0)
    return {"kind": "linear", "q_bar": qb, "c": _u(rng, cmin, cmax) * qb}


def _density(rng) -> dict:
    n = int(rng.integers(11, 202))
    beta = _u(rng, 0.8, 1.5)
    inner = np.sort(rng.uniform(0.0, beta, n - 2))
    x = np.concatenate(([0.0], inner, [beta]))
    if np.any(np.diff(x) <= 1e-9 * beta):  # vanishingly unlikely; keep nodes distinct
        x = np.linspace(0.0, beta, n)
    f = np.sort(rng.uniform(0.2, 1.0, n))[::-1]
    if rng.uniform() < 0.3:
        f[-1] = 0.0  # endpoint densities may vanish
    f = f / float(np.sum(np.diff(x) * 0.5 * (f[:-1] + f[1:])))
    return {"x": x.tolist(), "f": f.tolist()}


def _tabulated(rng) -> dict:
    k = int(rng.integers(3, 12))
    x = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, k)), [1.0]))
    qb = _u(rng, 1.0, 2.0)
    drop = np.sort(rng.uniform(0.0, _u(rng, 0.05, 0.4), k + 2))
    drop[0] = 0.0
    return {"kind": "tabulated", "x": x.tolist(), "q": (qb * (1.0 - drop)).tolist()}


def _variants(rng) -> dict:
    """Parameters of the non-synchronous ``simulate`` variants, as fractions
    that :func:`_dynamics_task` scales to the market they run on."""
    return {
        "epsilon": _u(rng, 0.3, 0.95),
        "cost_frac": _u(rng, 0.01, 0.1),
        "pe": [_u(rng, 0.0, 1.0), _u(rng, 0.0, 1.0), _u(rng, 1.0, 2.0), _u(rng, 0.2, 0.6)],
    }


def _gen_uniform(rng) -> dict:
    def market(i: int, cmax=0.9):
        # every fifth curve is constant; a fixed share keeps run medians comparable
        qos = {"kind": "constant", "q": _u(rng, 1.0, 2.0)} if i % 5 == 4 else _linear(rng, 0.02, cmax)
        beta = _u(rng, 0.5, 2.0)
        g0 = qos.get("q_bar", qos.get("q"))
        return {"beta": beta, "qos": qos, "price": _u(rng, 0.05, 0.95) * beta * g0}

    def game():
        qos = _linear(rng, 0.05, 0.6)
        return {"beta": _u(rng, 0.5, 2.0), "q1": qos["q_bar"] * _u(rng, 1.05, 1.6), "qos": qos}

    def problem(incumbent: bool):
        beta = _u(rng, 0.5, 2.0)
        techs = [_linear(rng, 0.05, 0.6) for _ in range(2)]
        scale = beta * max(t["q_bar"] for t in techs) / 4.0
        for t in techs:
            t["cost"] = _u(rng, 0.0, 0.3) * scale
        q1 = max(t["q_bar"] for t in techs) * _u(rng, 1.05, 1.5) if incumbent else None
        # decision-map cost grid: wide enough that every choice shows up
        k_max = (0.1 if incumbent else 0.3) * beta * max(t["q_bar"] for t in techs)
        return {"beta": beta, "techs": techs, "q1": q1, "k_max": k_max}

    dynamics = [market(i, cmax=0.4) | {"lam0": _u(rng, 0.05, 0.95)} | _variants(rng) for i in range(40)]
    duopoly = []
    for _ in range(20):
        qos = _linear(rng, 0.02, 0.15)
        beta = _u(rng, 0.5, 2.0)
        q1 = qos["q_bar"] * _u(rng, 1.5, 2.5)
        p2 = _u(rng, 0.1, 0.5) * beta * qos["q_bar"]
        p1 = p2 * q1 / qos["q_bar"] * _u(rng, 1.1, 1.6)
        duopoly.append({"beta": beta, "q1": q1, "qos": qos, "p1": p1, "p2": p2,
                        "start": [_u(rng, 0.0, 0.5), _u(rng, 0.0, 0.5)]})
    return {
        "markets": [market(i) for i in range(200)],
        "dynamics": dynamics,
        "duopoly": duopoly,
        "pricing": [{"beta": _u(rng, 0.5, 2.0), "qos": _linear(rng, 0.02, 0.9)} for _ in range(100)],
        "conditions": [{"beta": _u(rng, 0.5, 2.0), "qos": _linear(rng, 0.0, 0.9)} for _ in range(50)],
        "games": [game() for _ in range(40)],
        # mostly without an incumbent, so the run's median is an optimize-based
        # select; the Nash-based ones still show in wall_s and the trace
        "selection": [problem(i >= 8) for i in range(10)],
        "maps": [problem(False), problem(True)],
        "cli": _gen_cli_scenarios(rng),
    }


def _gen_custom(rng) -> dict:
    densities = [_density(rng) for _ in range(6)]  # index 6 is the repo's triangle

    def pick():
        return int(rng.integers(0, len(densities) + 1))

    # a fixed share of tabulated curves (every third), so that the median of
    # a run does not depend on how many the seed happened to draw
    def qos(i: int):
        return _tabulated(rng) if i % 3 == 2 else _linear(rng, 0.02, 0.4)

    def market(i: int = 0):
        return {"dist": pick(), "qos": qos(i), "price_frac": _u(rng, 0.05, 0.9)}

    dynamics = [market() | {"lam0": _u(rng, 0.05, 0.95)} | _variants(rng) for _ in range(32)]
    duopoly = []
    for _ in range(2):
        q = _linear(rng, 0.02, 0.15)
        duopoly.append({"dist": pick(), "qos": q, "q1": q["q_bar"] * _u(rng, 1.5, 2.5),
                        "p2_frac": _u(rng, 0.1, 0.5), "p1_mult": _u(rng, 1.1, 1.6),
                        "start": [_u(rng, 0.0, 0.5), _u(rng, 0.0, 0.5)]})

    def game():
        q = _linear(rng, 0.02, 0.3)
        return {"dist": pick(), "qos": q, "q1": q["q_bar"] * _u(rng, 1.03, 1.3)}

    return {
        "densities": densities,
        "markets": [market(i) for i in range(120)],
        "dynamics": dynamics,
        "duopoly": duopoly,
        "pricing": [{"dist": pick(), "qos": qos(i)} for i in range(12)],
        "conditions": [{"dist": pick(), "qos": _linear(rng, 0.02, 0.4)} for _ in range(4)],
        "bands": [market() | {"cost_frac": _u(rng, 0.01, 0.1)} for _ in range(4)],
        "map": {"dist": pick(), "techs": [qos(i) | {"cost": _u(rng, 0.0, 0.1)} for i in (0, 2)]},
        "nash": game(),
        "supermodularity": game(),
        "cli": {"density": _density(rng), "qos": _linear(rng, 0.02, 0.4),
                "price_frac": _u(rng, 0.1, 0.6), "lam0": _u(rng, 0.05, 0.95),
                "cost": _u(rng, 0.0, 0.05)},
    }


def _gen_cli_scenarios(rng) -> dict:
    """Seeded variants of the repo's split scenarios, plus a noisy QoS curve."""
    techs = [
        {"name": "split", "q_bar": 1.633 * _u(rng, 0.98, 1.0), "c": 0.088 * _u(rng, 0.9, 1.1),
         "cost": _u(rng, 0.0, 0.1)},
        {"name": "common", "q_bar": 1.611 * _u(rng, 0.98, 1.0), "c": 0.129 * _u(rng, 0.9, 1.1),
         "cost": _u(rng, 0.0, 0.1)},
    ]
    lam = np.linspace(0.0, 1.0, 11)
    qb, c = _u(rng, 1.5, 1.8), _u(rng, 0.05, 0.2)
    noise = np.sort(rng.uniform(0.0, 0.01, lam.size))
    return {
        "techs": techs,
        "q1": _u(rng, 1.687, 1.75),
        "p_mono": _u(rng, 0.9, 1.4),
        "p1": _u(rng, 0.55, 0.65),
        "p2": _u(rng, 0.45, 0.55),
        "lam0": _u(rng, 0.0, 0.5),
        "qos_curve": {"lambda": lam.tolist(), "qos": (qb - c * lam - noise).tolist()},
    }


_GENERATORS = {
    "uniform_closed": _gen_uniform,
    "custom_density": _gen_custom,
    "cli_startup": _gen_cli_scenarios,
}


def generate(name: str, seed: int) -> dict:
    """Raw inputs of workload ``name``; the same seed gives the same inputs."""
    return _GENERATORS[name](np.random.default_rng([seed, WORKLOADS.index(name)]))


# --------------------------------------------------------------------------
# package objects


def _qos(spec: dict) -> qm.QoSModel:
    if spec["kind"] == "linear":
        return qm.QoSModel.linear(spec["q_bar"], spec["c"])
    if spec["kind"] == "constant":
        return qm.QoSModel.constant(spec["q"])
    return qm.QoSModel.tabulated(spec["x"], spec["q"])


def _techs(specs: list[dict]) -> tuple:
    return tuple(
        qm.Technology(name=f"t{i}", qos=_qos(s), cost_per_period=s["cost"]) for i, s in enumerate(specs)
    ) + (qm.Technology.stay_out(),)


def _write_scenario(path: Path, body: dict) -> Path:
    path.write_text(json.dumps(body, indent=1))
    return path


def _write_csv(path: Path, header: tuple[str, str], cols: tuple[list, list]) -> Path:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(zip(*(["%.17g" % v for v in col] for col in cols)))
    return path


# --------------------------------------------------------------------------
# CLI probes: each CLI run follows the in-process reference it is checked against


def _stdout_fields(text: str) -> dict[str, str]:
    first = text.splitlines()[0] if text else ""
    return dict(part.split("=", 1) for part in first.split() if "=" in part)


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _compare_fields(got: dict[str, str], want: dict, what: str) -> None:
    for key, value in want.items():
        if key not in got:
            raise CheckFailed(f"{what}: no {key}= in CLI output")
        if isinstance(value, float):
            _rel_close(float(got[key]), value, 1e-10, f"{what} {key}", abs_tol=1e-12)
        elif got[key] != str(value):
            raise CheckFailed(f"{what} {key}: got {got[key]!r}, want {value!r}")


class _Probe:
    """CLI runs, each checked against in-process reference calls.

    :meth:`tasks` puts all references before all fresh-process runs: an
    in-process call made just after a child process ran finds the CPU
    caches cold and can take twice as long.  Each fresh-process run is made
    ``repeats`` times, for more samples of its latency.  ``runs`` holds
    units: tasks that stay next to each other.
    """

    def __init__(self, ctx: Context, repeats: int = 1) -> None:
        self.ctx = ctx
        self.repeats = repeats
        self.refs: list[Task] = []
        self.runs: list[list[Task]] = []

    def tasks(self) -> list[Task]:
        return self.refs + [t for unit in self.runs for t in unit]

    def spread(self, tasks: list[Task]) -> list[Task]:
        """``tasks`` and the references, with the fresh-process runs, kinds
        alternating, placed at evenly spaced points among them rather than
        bunched at the end, so that a short slowdown of process start-up
        hits few samples.  The in-process call after each run is slowed by
        cold caches, but at the same points in every pass."""
        by_kind: dict[str, list] = {}
        for unit in self.runs:
            by_kind.setdefault(unit[0].kind, []).append(unit)
        units = _evenly([[[t] for t in tasks + self.refs], _evenly(list(by_kind.values()))])
        return [t for unit in units for t in unit]

    def _ref(self, kind: str, fn) -> dict:
        slot: dict = {}

        def run():
            slot["value"] = fn()
            return slot["value"]

        self.refs.append(Task(kind, run))
        return slot

    def _cli(self, argv: tuple[str, ...], check) -> None:
        def checked(result):
            code, out = result
            if code != 0:
                raise CheckFailed(f"CLI {' '.join(argv)} exited {code}")
            check(out)

        self.runs += [[Task("cli_run", lambda: self.ctx.cli(*argv), checked)]] * self.repeats

    def simulate(self, path: Path, sc: qm.Scenario) -> None:
        tech = sc.technologies[0]
        dyn = sc.dynamics
        if sc.q1 is not None and sc.p1 is not None:
            market = qm.DuopolyMarket(sc.dist, sc.q1, tech.qos, sc.p1, sc.p2)
            ref = self._ref("simulate_duopoly", lambda: qm.simulate_duopoly(market, dyn.lambda0, dyn.max_iter, dyn.tol))
        else:
            market = qm.MonopolyMarket(sc.dist, tech.qos, sc.p2)
            ref = self._ref("simulate", lambda: qm.simulate(market, dyn.variant, dyn.lambda0, dyn.max_iter, dyn.tol))

        def check(out: str) -> None:
            tr = ref["value"]
            want = {"converged": "true" if tr.converged else "false", "iterations": tr.iterations,
                    "residual": float(tr.residual)}
            final = tr.final()
            if isinstance(final, tuple):
                want |= {"final_lambda1": float(final[0]), "final_lambda2": float(final[1])}
            else:
                want["final_lambda2"] = float(final)
            _compare_fields(_stdout_fields(out), want, f"simulate {path.name}")

        self._cli(("simulate", str(path)), check)

    def analyze(self, path: Path, sc: qm.Scenario) -> None:
        tech = sc.technologies[0]
        eq = opt = duo = None
        if sc.p2 is not None:
            eq = self._ref("equilibrium", lambda: qm.equilibrium(qm.MonopolyMarket(sc.dist, tech.qos, sc.p2)))
        opt = self._ref("optimize", lambda: qm.optimize(sc.dist, tech.qos))
        if sc.q1 is not None and sc.p1 is not None:
            duo = self._ref("equilibrium_duopoly", lambda: qm.equilibrium_duopoly(
                qm.DuopolyMarket(sc.dist, sc.q1, tech.qos, sc.p1, sc.p2)))

        def check(out: str) -> None:
            rows = {(r[0], r[1]): r[2] for r in _read_rows(self.ctx.work / "out" / f"{sc.name}_analyze.csv")}
            want = {("revenue_optimum", "share"): opt["value"].share,
                    ("revenue_optimum", "revenue"): opt["value"].revenue}
            if eq is not None:
                want[("monopoly_equilibrium", "share")] = eq["value"]
            if duo is not None:
                want[("duopoly_equilibrium", "lambda1")] = duo["value"].lam1
                want[("duopoly_equilibrium", "lambda2")] = duo["value"].lam2
            for key, value in want.items():
                if key not in rows:
                    raise CheckFailed(f"analyze {path.name}: no row {key}")
                _rel_close(float(rows[key]), float(value), 1e-10, f"analyze {path.name} {key}", 1e-12)

        self._cli(("analyze", str(path)), check)

    def compete(self, path: Path, sc: qm.Scenario) -> None:
        game = qm.CournotGame(sc.dist, sc.q1, sc.technologies[0].qos)
        ref = self._ref("nash", lambda: qm.nash_solve(game))

        def check(out: str) -> None:
            o = ref["value"]
            _compare_fields(_stdout_fields(out), {
                "rounds": o.iterations, "lambda1": o.lam1, "lambda2": o.lam2, "p1": o.p1, "p2": o.p2,
                "r1": o.r1, "r2": o.r2}, f"compete {path.name}")

        self._cli(("compete", str(path)), check)

    def select(self, path: Path, sc: qm.Scenario, grid: str | None = None) -> None:
        problem = qm.SelectionProblem(sc.dist, (*sc.technologies, qm.Technology.stay_out()), sc.q1)
        ref = self._ref("select", lambda: qm.select(problem))
        dmap = None
        if grid is not None:
            lo, hi, n = grid.split(":")
            ks = np.linspace(float(lo), float(hi), int(n))
            dmap = self._ref("decision_map", lambda: qm.decision_map(problem, ks, ks))

        def check(out: str) -> None:
            res = ref["value"]
            _compare_fields(_stdout_fields(out), {"chosen": res.chosen.name}, f"select {path.name}")
            rows = _read_rows(self.ctx.work / "out" / f"{sc.name}_select.csv")
            for row, (name, profit) in zip(rows, res.profits):
                if row[0] != name:
                    raise CheckFailed(f"select {path.name}: row {row[0]!r}, want {name!r}")
                _rel_close(float(row[3]), profit, 1e-10, f"select {path.name} {name}", 1e-12)
            if dmap is not None:
                cells = [r[2] for r in _read_rows(self.ctx.work / "out" / f"{sc.name}_select_map.csv")]
                if cells != [c for row in dmap["value"].cells for c in row]:
                    raise CheckFailed(f"select {path.name}: decision map differs from the API")

        argv = ("select", str(path)) + (("--k-grid", grid) if grid else ())
        self._cli(argv, check)

    def fit_qos(self, path: Path) -> None:
        ref = self._ref("fit_qos", lambda: qm.fit_affine(*qm.qos.load_qos_samples(path)))

        def check(out: str) -> None:
            fit = ref["value"]
            _compare_fields(_stdout_fields(out), {"q_bar": fit.model.q_bar, "c": fit.model.c,
                                                  "rms_residual": fit.rms_residual}, f"fit-qos {path.name}")

        self._cli(("fit-qos", str(path)), check)

    def import_time(self) -> None:
        """``python -c "import qosmarket"``, each followed by a bare
        ``python -c pass``: the report shows how fast processes started in
        the same pass, so that a drift in machine speed is visible."""
        if self.ctx.in_process:
            return  # a fresh interpreter cannot be traced from here

        def checker(what: str):
            def check(proc):
                if proc.returncode != 0:
                    raise CheckFailed(f"{what} failed: {proc.stderr.strip()[-200:]}")
            return check

        self.runs += [[Task("import", lambda: self.ctx.python("import qosmarket"), checker("import qosmarket")),
                       Task("python_start", lambda: self.ctx.python("pass"), checker("python -c pass"))]] * self.repeats


def _split_scenarios(raw: dict, ctx: Context) -> tuple[Path, Path, Path]:
    """Write the seeded monopoly and duopoly variants and the QoS curve."""
    techs = [{"name": t["name"], "qos": {"kind": "linear", "q_bar": t["q_bar"], "c": t["c"]}, "cost": t["cost"]}
             for t in raw["techs"]]
    uniform = {"kind": "uniform", "beta": 1.0}
    mono = _write_scenario(ctx.work / "seeded_monopoly.json", {
        "name": "seeded_monopoly", "distribution": uniform, "technologies": techs,
        "prices": {"p2": raw["p_mono"]},
        "dynamics": {"variant": {"kind": "synchronous"}, "lambda0": raw["lam0"], "max_iter": 10000, "tol": 1e-12}})
    duo = _write_scenario(ctx.work / "seeded_duopoly.json", {
        "name": "seeded_duopoly", "distribution": uniform, "technologies": techs,
        "incumbent": {"q1": raw["q1"]}, "prices": {"p1": raw["p1"], "p2": raw["p2"]},
        "dynamics": {"variant": {"kind": "synchronous"}, "lambda0": [raw["lam0"], raw["lam0"]],
                     "max_iter": 10000, "tol": 1e-12}})
    curve = _write_csv(ctx.work / "seeded_qos.csv", ("lambda", "qos"),
                       (raw["qos_curve"]["lambda"], raw["qos_curve"]["qos"]))
    return mono, duo, curve


# --------------------------------------------------------------------------
# passes


def _build_uniform(raw: dict, ctx: Context) -> list[Task]:
    tasks: list[Task] = []

    for m in raw["markets"]:
        dist, qos = qm.ValuationDistribution.uniform(m["beta"]), _qos(m["qos"])
        market = qm.MonopolyMarket(dist, qos, m["price"])

        def check(got, market=market):
            want = qm.equilibrium_closed_form(market.dist, market.qos, market.price)
            _close(got, want, 1e-9, "equilibrium vs closed form")

        tasks.append(Task("equilibrium", lambda market=market: qm.equilibrium(market), check))

    for m in raw["dynamics"]:
        dist, qos = qm.ValuationDistribution.uniform(m["beta"]), _qos(m["qos"])
        market = qm.MonopolyMarket(dist, qos, m["price"])
        tasks.append(_dynamics_task(market, m, qm.equilibrium_closed_form))

    for d in raw["duopoly"]:
        market = qm.DuopolyMarket(qm.ValuationDistribution.uniform(d["beta"]), d["q1"], _qos(d["qos"]),
                                  d["p1"], d["p2"])
        tasks += _duopoly_tasks(market, d["start"])

    for p in raw["pricing"]:
        dist, qos = qm.ValuationDistribution.uniform(p["beta"]), _qos(p["qos"])

        def check(got, beta=p["beta"], qos=qos):
            want = qm.optimum_closed_form(beta, qos.q_bar, qos.c)
            _rel_close(got.revenue, want.revenue, 1e-9, "optimize revenue vs closed form")
            _close(got.share, want.share, 1e-6, "optimize share vs closed form")

        tasks.append(Task("optimize", lambda dist=dist, qos=qos: qm.optimize(dist, qos), check))

    for p in raw["conditions"]:
        dist, qos = qm.ValuationDistribution.uniform(p["beta"]), _qos(p["qos"])
        ratio = qos.c / qos.q_bar

        def check(rep, qos=qos, ratio=ratio):
            _rel_close(rep.lhs, qos.c / (qos.q_bar - qos.c), 1e-9, "max -g'/g")
            if abs(ratio - 0.5) > 1e-9 and rep.holds != (ratio < 0.5):
                raise CheckFailed(f"condition verdict {rep.holds} at c/q_bar={ratio}")

        tasks.append(Task("convergence_condition", lambda dist=dist, qos=qos: qm.convergence_condition(dist, qos), check))

    for g in raw["games"]:
        qos = _qos(g["qos"])
        game = qm.CournotGame(qm.ValuationDistribution.uniform(g["beta"]), g["q1"], qos)

        def check(out, game=game):
            want = _closed_nash(game.q1, game.qos2.q_bar, game.qos2.c)
            _close(out.lam1, want[0], 1e-8, "Nash lam1 vs closed-form best responses")
            _close(out.lam2, want[1], 1e-8, "Nash lam2 vs closed-form best responses")

        tasks.append(Task("nash", lambda game=game: qm.nash_solve(game), check))

    for p in raw["selection"]:
        problem = qm.SelectionProblem(qm.ValuationDistribution.uniform(p["beta"]), _techs(p["techs"]), p["q1"])
        names = [t.name for t in problem.ordered()]

        def check(res, p=p, names=names, problem=problem):
            gross = _uniform_gross(p)
            want = [gross[i] - t.cost_per_period for i, t in enumerate(problem.ordered()[:-1])] + [0.0]
            for (name, profit), w in zip(res.profits, want):
                _close(profit, w, 1e-8, f"select profit of {name}")
            best = _choice(want, names)
            if best is not None and res.chosen.name != best:
                raise CheckFailed(f"select chose {res.chosen.name}, want {best}")

        tasks.append(Task("select", lambda problem=problem: qm.select(problem), check))

    for p in raw["maps"]:
        problem = qm.SelectionProblem(qm.ValuationDistribution.uniform(p["beta"]), _techs(p["techs"]), p["q1"])
        ks = np.linspace(0.0, p["k_max"], 41)
        tasks.append(Task("decision_map", lambda problem=problem, ks=ks: qm.decision_map(problem, ks, ks),
                          _map_check(problem, lambda p=p: _uniform_gross(p), ks)))

    mono, duo, _ = _split_scenarios(raw["cli"], ctx)
    probe = _Probe(ctx)
    sc_mono, sc_duo = qm.load_scenario(mono), qm.load_scenario(duo)
    probe.simulate(mono, sc_mono)
    probe.analyze(mono, sc_mono)
    probe.compete(duo, sc_duo)
    probe.select(duo, sc_duo, "0:0.2:41")
    for _ in range(2):
        probe.import_time()
    return probe.spread(tasks)


def _uniform_gross(p: dict) -> list[float]:
    """Closed-form revenue of each entry technology of a uniform problem."""
    if p["q1"] is None:
        return [qm.optimum_closed_form(p["beta"], t["q_bar"], t["c"]).revenue for t in p["techs"]]
    return [_closed_entrant_revenue(p["beta"], p["q1"], t["q_bar"], t["c"]) for t in p["techs"]]


def _map_check(problem, reference_gross, ks: np.ndarray):
    names = [t.name for t in problem.ordered()]

    def check(dmap):
        gross = reference_gross()
        for i, k1 in enumerate(ks):
            for j, k2 in enumerate(ks):
                best = _choice([gross[0] - k1, gross[1] - k2, 0.0], names)
                if best is not None and dmap.cells[i][j] != best:
                    raise CheckFailed(f"decision map ({k1:.4g}, {k2:.4g}): {dmap.cells[i][j]}, want {best}")

    return check


def _dynamics_task(market, m: dict, reference_equilibrium) -> Task:
    """The four ``simulate`` variants from one start, as one task, so that
    every ``simulate`` sample does the same mix of work.  The synchronous and
    partial paths must end at ``reference_equilibrium(dist, qos, price)``."""
    lam0 = m["lam0"]
    switching = qm.SwitchingCost(m["cost_frac"] * market.price)
    delta, phi, gamma, frac = m["pe"]
    q_bar = market.qos.max_value()
    # keep the externality variant's contraction condition with room to spare
    scale = frac * q_bar / (market.dist.max_density() * (phi * gamma + delta))
    pe = qm.PositiveExternality(q_bar, delta * scale, phi * scale, gamma)
    variants = (qm.Synchronous(), qm.Partial(m["epsilon"]), switching, pe)

    def check(traces):
        sync, partial, sw, ext = traces
        eq = reference_equilibrium(market.dist, market.qos, market.price)
        _check_trace_fixed_point(sync, eq, "synchronous dynamics")
        _check_trace_fixed_point(partial, eq, "partial dynamics")
        if not (sw.converged and ext.converged):
            raise CheckFailed("switching-cost or externality dynamics did not converge")
        a = float(market.dist.quantile(1.0 - float(sw.final())))
        _in_band(a, qm.switching_cost_equilibrium_band(market, switching.cost), 1e-7, "switching-cost rest point")
        lam = float(ext.final())
        _close(qm.monopoly.step_variant(market, pe, lam), lam, 1e-8, "externality fixed point")

    return Task("simulate", lambda: [qm.simulate(market, v, lam0) for v in variants], check)


def _duopoly_tasks(market, start) -> list[Task]:
    slot: dict = {}

    def eq_run():
        slot["eq"] = qm.equilibrium_duopoly(market)
        return slot["eq"]

    def eq_check(eq):
        theta1 = eq.theta1 if eq.theta1 is not None else market.p1 / market.q1
        _close(eq.lam1, 1.0 - market.dist.cdf(theta1), 1e-12, "duopoly incumbent share")
        if eq.theta2 is not None:
            g = market.qos2.evaluate(eq.lam2)
            _close(eq.lam2, market.dist.cdf(theta1) - market.dist.cdf(market.p2 / g), 1e-9,
                   "duopoly entrant residual")

    def sim_check(trace):
        if not trace.converged:
            raise CheckFailed("duopoly dynamics did not converge")
        l1, l2 = trace.final()
        _close(l1, slot["eq"].lam1, 1e-8, "duopoly dynamics lam1 vs equilibrium")
        _close(l2, slot["eq"].lam2, 1e-8, "duopoly dynamics lam2 vs equilibrium")

    return [
        Task("equilibrium_duopoly", eq_run, eq_check),
        Task("simulate_duopoly", lambda: qm.simulate_duopoly(market, tuple(start)), sim_check),
    ]


def _build_custom(raw: dict, ctx: Context) -> list[Task]:
    tasks: list[Task] = []
    dists = [qm.ValuationDistribution.from_samples(d["x"], d["f"]) for d in raw["densities"]]
    dists.append(qm.ValuationDistribution.from_csv(ctx.root / "scenarios" / "triangle_pdf.csv"))
    nodes = [(np.asarray(d["x"]), np.asarray(d["f"])) for d in raw["densities"]]
    nodes.append(qm.valuation.load_pdf_samples(ctx.root / "scenarios" / "triangle_pdf.csv"))

    def priced(m: dict, frac: float):
        dist, qos = dists[m["dist"]], _qos(m["qos"])
        return qm.MonopolyMarket(dist, qos, frac * dist.beta * qos.max_value())

    def residual_check(market):
        def check(lam):
            h = 1.0 - market.dist.cdf(market.price / market.qos.evaluate(lam))
            _close(h, lam, 1e-9, "equilibrium residual |h(lam) - lam|")
        return check

    for m in raw["markets"]:
        market = priced(m, m["price_frac"])
        tasks.append(Task("equilibrium", lambda market=market: qm.equilibrium(market), residual_check(market)))

    for m in raw["dynamics"]:
        market = priced(m, m["price_frac"])
        tasks.append(_dynamics_task(market, m, lambda d, q, p: qm.equilibrium(qm.MonopolyMarket(d, q, p))))

    for d in raw["duopoly"]:
        dist, qos = dists[d["dist"]], _qos(d["qos"])
        p2 = d["p2_frac"] * dist.beta * qos.q_bar
        market = qm.DuopolyMarket(dist, d["q1"], qos, p2 * d["p1_mult"] * d["q1"] / qos.q_bar, p2)
        tasks += _duopoly_tasks(market, d["start"])

    for p in raw["pricing"]:
        dist, qos = dists[p["dist"]], _qos(p["qos"])
        tasks.append(Task("optimize", lambda dist=dist, qos=qos: qm.optimize(dist, qos), _scan_check(dist, qos)))

    for p in raw["conditions"]:
        dist, qos = dists[p["dist"]], _qos(p["qos"])

        def check(rep, x_f=nodes[p["dist"]], qos=qos):
            _rel_close(1.0 / rep.rhs, _kmax(*x_f), 1e-5, "K = max alpha f(alpha)")
            _rel_close(rep.lhs, qos.c / (qos.q_bar - qos.c), 1e-9, "max -g'/g")

        tasks.append(Task("convergence_condition", lambda dist=dist, qos=qos: qm.convergence_condition(dist, qos), check))

    for b in raw["bands"]:
        market = priced(b, b["price_frac"])
        cost = b["cost_frac"] * market.price

        def check(band, market=market):
            lam = qm.equilibrium(market)
            _in_band(market.price / market.qos.evaluate(lam), band, 1e-9, "zero-cost threshold")

        tasks.append(Task("switching_cost_band",
                          lambda market=market, cost=cost: qm.switching_cost_equilibrium_band(market, cost), check))

    mp = raw["map"]
    problem = qm.SelectionProblem(dists[mp["dist"]], _techs(mp["techs"]))
    ks = np.linspace(0.0, 0.2, 41)

    def gross():
        return [qm.optimize(problem.dist, t.qos).revenue for t in problem.ordered()[:-1]]

    tasks.append(Task("decision_map", lambda: qm.decision_map(problem, ks, ks), _map_check(problem, gross, ks)))

    g = raw["nash"]
    game = qm.CournotGame(dists[g["dist"]], g["q1"], _qos(g["qos"]))
    tasks.append(Task("nash", lambda: qm.nash_solve(game, max_rounds=NASH_MAX_ROUNDS),
                      lambda out: _check_reoptimized(game, out)))

    g = raw["supermodularity"]
    sgame = qm.CournotGame(dists[g["dist"]], g["q1"], _qos(g["qos"]))

    def sm_check(rep):
        if not (math.isfinite(rep.worst_margin) and all(0.0 <= v <= 0.5 for v in rep.worst_point)):
            raise CheckFailed(f"supermodularity report out of range: {rep}")
        if rep.holds != (rep.worst_margin >= -1e-6):
            raise CheckFailed(f"supermodularity verdict disagrees with its margin: {rep}")

    tasks.append(Task("supermodularity_check", lambda: qm.supermodularity_check(sgame), sm_check))

    sc = qm.load_scenario(Path(__file__).resolve().parent / "scenarios" / "custom_incumbent.json")
    inc_problem = qm.SelectionProblem(sc.dist, (*sc.technologies, qm.Technology.stay_out()), sc.q1)

    def select_check(res):
        names = [t.name for t in inc_problem.ordered()]
        profits = [p for _, p in res.profits]
        if [n for n, _ in res.profits] != names or profits[-1] != 0.0:
            raise CheckFailed(f"select profit table malformed: {res.profits}")
        for t, p in zip(inc_problem.ordered()[:-1], profits):
            # competition only lowers the entrant's inverse demand, so its
            # Nash revenue cannot beat its monopoly optimum
            bound = qm.optimize(sc.dist, t.qos).revenue
            if not 0.0 < p + t.cost_per_period <= bound + 1e-12:
                raise CheckFailed(f"{t.name}: Nash revenue {p + t.cost_per_period} outside (0, {bound}]")
        best = _choice(profits, names, slack=0.0)
        if best is not None and res.chosen.name != best:
            raise CheckFailed(f"select chose {res.chosen.name}, want {best}")

    tasks.append(Task("select", lambda: qm.select(inc_problem), select_check))

    c = raw["cli"]
    pdf = _write_csv(ctx.work / "seeded_pdf.csv", ("alpha", "pdf"), (c["density"]["x"], c["density"]["f"]))
    beta = c["density"]["x"][-1]
    path = _write_scenario(ctx.work / "seeded_custom.json", {
        "name": "seeded_custom", "distribution": {"kind": "custom", "file": pdf.name},
        "technologies": [{"name": "entry", "qos": {"kind": "linear", "q_bar": c["qos"]["q_bar"], "c": c["qos"]["c"]},
                          "cost": c["cost"]}],
        "prices": {"p2": c["price_frac"] * beta * c["qos"]["q_bar"]},
        "dynamics": {"variant": {"kind": "synchronous"}, "lambda0": c["lam0"], "max_iter": 10000, "tol": 1e-12}})
    scn = qm.load_scenario(path)
    # only two passes fit in a run: repeats give the fresh-process metrics
    # enough samples
    probe = _Probe(ctx, repeats=3)
    probe.simulate(path, scn)
    probe.analyze(path, scn)
    for _ in range(2):
        probe.import_time()
    return probe.spread(_mixed(tasks, {"decision_map", "nash", "supermodularity_check", "select"}))


def _mixed(tasks: list[Task], heavy: set[str]) -> list[Task]:
    """The same tasks, each kind spread evenly over the pass instead of run
    as one block, and the ``heavy`` kinds (one call each, seconds long)
    spread as one group.  Only two passes fit in a run, and a block of
    samples would see the machine's speed in one short window only."""
    groups: dict[str, list[Task]] = {}
    for t in tasks:
        groups.setdefault("" if t.kind in heavy else t.kind, []).append(t)
    return _evenly(list(groups.values()))


def _evenly(groups: list[list]) -> list:
    """The items of all ``groups`` in one list, each group's items at evenly
    spaced points of it, in their own order."""
    keyed = [((i + 0.5) / len(g), order, x) for order, g in enumerate(groups) for i, x in enumerate(g)]
    return [x for _, _, x in sorted(keyed, key=lambda k: k[:2])]


def _scan_check(dist, qos):
    """optimize must beat its own 2,001-point scan, and cdf must undo quantile."""

    def check(opt):
        lo, hi = max(qos.domain[0], 0.0), min(qos.domain[1], 0.5 if dist.is_nonincreasing_pdf() else 1.0)
        lam = np.linspace(lo, hi, 2001)
        scan = dist.quantile(1.0 - lam) * qos.evaluate(lam) * lam
        if opt.revenue < float(np.max(scan)) * (1.0 - 1e-12):
            raise CheckFailed(f"optimize revenue {opt.revenue} below its scan's {np.max(scan)}")
        _rel_close(opt.price, opt.marginal_valuation * qos.evaluate(opt.share), 1e-12, "price = alpha g(share)")
        u = np.linspace(0.0, 1.0, 2001)
        err = float(np.max(np.abs(dist.cdf(dist.quantile(u)) - u)))
        if err > 1e-9:
            raise CheckFailed(f"cdf(quantile(u)) misses u by {err:.3g}")

    return check


def _build_cli(raw: dict, ctx: Context) -> list[Task]:
    probe = _Probe(ctx)
    repo = ctx.root / "scenarios"
    mono, duo, curve = _split_scenarios(raw, ctx)
    sc = {p: qm.load_scenario(p) for p in (repo / "split_monopoly.json", repo / "split_duopoly.json",
                                           repo / "triangle_custom.json", mono, duo)}
    for p in (repo / "split_monopoly.json", repo / "split_duopoly.json", repo / "triangle_custom.json", mono):
        probe.simulate(p, sc[p])
    for p in (repo / "split_monopoly.json", repo / "split_duopoly.json", repo / "triangle_custom.json", duo):
        probe.analyze(p, sc[p])
    for p in (repo / "split_duopoly.json", duo):
        probe.compete(p, sc[p])
    for p in (repo / "split_monopoly.json", repo / "split_duopoly.json", mono):
        probe.select(p, sc[p], "0:0.2:41")
    probe.fit_qos(repo / "qos_curve.csv")
    probe.fit_qos(curve)
    for _ in range(2):
        probe.import_time()
    return probe.tasks()


_BUILDERS = {"uniform_closed": _build_uniform, "custom_density": _build_custom, "cli_startup": _build_cli}


def build(name: str, raw: dict, ctx: Context) -> list[Task]:
    """Package objects, scenario files and the fixed task list of one pass."""
    (ctx.work / "out").mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](raw, ctx)
