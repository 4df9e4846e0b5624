"""Closed-loop runner: set up, run the pass, repeat until the time is up.

One process, one task at a time.  A pass is the workload's fixed task list;
every pass starts from a fresh set-up (new inputs built from the same seed),
so every pass does the same work, lazy caches included.  Untraced runs give
the end-to-end metrics; traced runs wrap the package (see ``tracing``) and
give the per-layer ones.
"""

from __future__ import annotations

import contextlib
import math
import resource
import statistics
import subprocess
import time
from collections import defaultdict
from dataclasses import dataclass, field

import qosmarket as qm

import tracing
import workloads

# name -> unit.  Every workload reports all of these; BENCHMARK.json lists
# the same names.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "equilibrium_ms_p50": "ms",
    "simulate_ms_p50": "ms",
    "optimize_ms_p50": "ms",
    "nash_ms_p50": "ms",
    "select_ms_p50": "ms",
    "cli_run_ms_p50": "ms",
    "import_ms_p50": "ms",
    "max_rss_mb": "MB",
}
_LATENCY_KINDS = ("equilibrium", "simulate", "optimize", "nash", "select", "cli_run", "import")

PER_LAYER = {
    "valuation.cdf.calls": "count",
    "valuation.cdf.points": "count",
    "valuation.cdf.self_s": "s",
    "valuation.quantile.calls": "count",
    "valuation.quantile.points": "count",
    "valuation.quantile.self_s": "s",
    "valuation.cdf_calls_per_quantile": "ratio",
    "valuation.k_constant.self_s": "s",
    "qos.evaluate.calls": "count",
    "qos.evaluate.self_s": "s",
    "qos.derivative.calls": "count",
    "optim.bisect_root.calls": "count",
    "optim.bisect_root.fn_evals": "count",
    "optim.bisect_root.self_s": "s",
    "optim.golden_section_max.calls": "count",
    "optim.golden_section_max.fn_evals": "count",
    "optim.scan_then_refine.calls": "count",
    "optim.scan_then_refine.self_s": "s",
    "monopoly.equilibrium.self_s": "s",
    "monopoly.simulate.calls": "count",
    "monopoly.simulate.steps": "count",
    "monopoly.simulate.converged_frac": "ratio",
    "monopoly.convergence_condition.self_s": "s",
    "monopoly.switching_cost_equilibrium_band.self_s": "s",
    "revenue.optimize.calls": "count",
    "revenue.optimize.self_s": "s",
    "duopoly.equilibrium_duopoly.self_s": "s",
    "duopoly.simulate_duopoly.self_s": "s",
    "competition.best_response.calls": "count",
    "competition.best_response.self_s": "s",
    "competition.nash_solve.rounds": "count",
    "competition.nash_solve.converged_frac": "ratio",
    "competition.supermodularity_check.self_s": "s",
    "selection.select.self_s": "s",
    "selection.decision_map.self_s": "s",
    "scenario.load_scenario.self_s": "s",
    "cli.main.self_s": "s",
    "cli.python_start_ms": "ms",
    "tracing_overhead_s": "s",
    "calib_ms": "ms",
}

SETUP_REPEATS = 15  # extra set-ups before the first pass, so setup_s is a median of warm ones
MIN_PASSES = 2
PYTHON_START_REPEATS = 5


def p50(samples: list[float]) -> float:
    return statistics.median(samples)


def p90(samples: list[float]) -> float | None:
    """Nearest-rank 90th percentile, only with at least ten samples beyond it."""
    if len(samples) < 100:
        return None
    return sorted(samples)[math.ceil(0.9 * len(samples)) - 1]


def calib_ms() -> float:
    """A fixed pure-Python loop: how fast this machine is right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


@dataclass
class Tally:
    samples: dict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # answers that disagreed with their reference, or crashed
    failures: list = field(default_factory=list)
    failed_by_kind: dict = field(default_factory=lambda: defaultdict(int))

    def fail(self, kind: str, msg: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        self.failed_by_kind[kind] += 1
        if len(self.failures) < 10:
            self.failures.append(f"{kind}: {msg}")


def run_pass(tasks: list, tally: Tally, tracer: tracing.Tracer | None = None) -> float:
    """Run every task once, in order, then check the answers; return the
    summed task time.  With a tracer, the tasks run instrumented and the
    checks, which call the package too, run after the tracing has ended."""
    wall = 0.0
    answers = []
    with tracing.instrument(tracer) if tracer is not None else contextlib.nullcontext():
        for task in tasks:
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                out = task.run()
            except qm.NonConvergenceError as exc:
                # the package's own report that it gave up: a failed operation,
                # not a wrong answer; its time still counts as time to answer
                dt = time.perf_counter() - t0
                tally.fail(task.kind, f"NonConvergenceError: {exc}", wrong=False)
            except Exception as exc:  # a crash is reported, and the run goes on
                dt = time.perf_counter() - t0
                tally.fail(task.kind, f"{type(exc).__name__}: {exc}", wrong=True)
            else:
                dt = time.perf_counter() - t0
                if task.check is not None:
                    answers.append((task, out))
            tally.samples[task.kind].append(dt)
            wall += dt
    for task, out in answers:
        try:
            task.check(out)
        except Exception as exc:
            tally.fail(task.kind, f"{type(exc).__name__}: {exc}", wrong=True)
    return wall


def python_start_ms(ctx: workloads.Context) -> float:
    times = []
    for _ in range(PYTHON_START_REPEATS):
        t0 = time.perf_counter()
        proc = ctx.python("pass")
        times.append((time.perf_counter() - t0) * 1e3)
        if proc.returncode != 0:
            raise subprocess.SubprocessError(f"python -c pass exited {proc.returncode}")
    return p50(times)


def run(name: str, seed: int, seconds: float, trace: bool, ctx: workloads.Context) -> tuple[dict, dict]:
    """Run one workload; return ``(result, report)``.

    ``result`` is the contract line: correct, attempted, failed, metrics.
    ``report`` carries sample counts, p90s, machine speed and failures.
    """
    t_end = time.perf_counter() + seconds
    ctx.in_process = trace
    setups: list[float] = []
    calib = [calib_ms()]
    tally = Tally()

    def setup() -> list:
        t0 = time.perf_counter()
        tasks = workloads.build(name, workloads.generate(name, seed), ctx)
        setups.append(time.perf_counter() - t0)
        return tasks

    for _ in range(SETUP_REPEATS):
        setup()

    walls: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict] = []

    def more(done: int, minimum: int, last: float) -> bool:
        """Start another pass while one more still fits before the deadline."""
        return done < minimum or time.perf_counter() + last <= t_end

    if not trace:
        last = 0.0
        while more(len(walls), MIN_PASSES, last):
            t0 = time.perf_counter()
            walls.append(run_pass(setup(), tally))
            last = time.perf_counter() - t0
            calib.append(calib_ms())
    else:
        last = 0.0
        while more(len(traced_walls), 1, last):
            t0 = time.perf_counter()
            # untraced and traced passes alternate, so that the overhead
            # compares passes made at the same machine speed
            walls.append(run_pass(setup(), tally))
            tracer = tracing.Tracer()
            traced_walls.append(run_pass(setup(), tally, tracer))
            layers.append(tracing.layer_metrics(tracer))
            last = time.perf_counter() - t0
            calib.append(calib_ms())

    samples = dict(tally.samples)
    report = {
        "workload": name,
        "seed": seed,
        "passes": len(walls) + len(traced_walls),
        "setup_s": {"n": len(setups), "p50": p50(setups)},
        "wall_s": {"n": len(walls), "p50": p50(walls)},
        "latency_ms": {
            k: {"n": len(v), "p50": p50(v) * 1e3, "p90": None if p90(v) is None else p90(v) * 1e3}
            for k, v in sorted(samples.items())
        },
        "calib_ms": {"n": len(calib), "p50": p50(calib), "min": min(calib), "max": max(calib)},
        "failed_share": f"{tally.failed}/{tally.attempted}",
        "failed_by_kind": dict(tally.failed_by_kind),
        "failures": tally.failures,
    }

    if not trace:
        values = {
            "setup_s": p50(setups),
            "wall_s": p50(walls),
            "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for kind in _LATENCY_KINDS:
            if not samples.get(kind):
                raise RuntimeError(f"workload {name} produced no {kind} samples")
            values[f"{kind}_ms_p50"] = p50(samples[kind]) * 1e3
        units = END_TO_END
    else:
        counts = [{k: v for k, v in layer.items() if not k.endswith("_s")} for layer in layers]
        if any(c != counts[0] for c in counts[1:]):
            tally.wrong += 1
            report["failures"].append("traced counts differ between passes of the same inputs")
        values = {}
        for key in PER_LAYER:
            if key.endswith("_s"):
                values[key] = p50([layer.get(key, 0.0) for layer in layers])
            else:
                values[key] = float(layers[0].get(key, 0.0))
        values["cli.python_start_ms"] = python_start_ms(ctx)
        values["tracing_overhead_s"] = p50(traced_walls) - p50(walls)
        values["calib_ms"] = p50(calib)
        report["traced_wall_s"] = {"n": len(traced_walls), "p50": p50(traced_walls)}
        units = PER_LAYER

    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return result, report
