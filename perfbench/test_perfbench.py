"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import qosmarket as qm  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_p50_and_p90_rule():
    assert harness.p50([3.0, 1.0, 2.0]) == 2.0
    assert harness.p90([float(i) for i in range(99)]) is None
    assert harness.p90([float(i) for i in range(1, 101)]) == 90.0
    assert harness.p90([float(i) for i in range(1, 201)]) == 180.0


def test_run_pass_counts_samples_and_failures():
    def cycle():
        raise qm.NonConvergenceError("cycle", [(0.25, 0.25)])

    def wrong(_):
        raise workloads.CheckFailed("off")

    tasks = [
        workloads.Task("a", lambda: 1),
        workloads.Task("a", lambda: 2, wrong),
        workloads.Task("b", cycle),
        workloads.Task("b", lambda: 1 / 0),
    ]
    tally = harness.Tally()
    harness.run_pass(tasks, tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (4, 3, 2)
    assert {k: len(v) for k, v in tally.samples.items()} == {"a": 2, "b": 2}
    assert tally.failed_by_kind == {"a": 1, "b": 2}


def _scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 6]
    tr = tracing.Tracer(clock=_scripted_clock([0, 1, 2, 3, 4, 5, 6, 10]))
    a = tr.enter(tr.intern("A"))
    b = tr.enter(tr.intern("B"))
    tr.exit(tr.enter(tr.intern("C")))
    tr.exit(b)
    tr.exit(tr.enter(tr.intern("D")))
    tr.exit(a)
    assert list(tr.parent) == [-1, 0, 1, 0]
    own = tracing.self_times(tr.start, tr.end, tr.parent)
    assert own.tolist() == [6.0, 2.0, 1.0, 1.0]
    m = tracing.layer_metrics(tr)
    assert m["A.self_s"] == 6.0 and m["A.calls"] == 1


def test_self_time_counts_overlapping_children_once():
    own = tracing.self_times([0.0, 1.0, 3.0], [10.0, 5.0, 7.0], [-1, 0, 0])
    assert own.tolist() == [4.0, 4.0, 4.0]


def test_instrument_wraps_every_binding_and_restores():
    bindings = [
        (qm.monopoly, "equilibrium"),
        (qm.revenue, "equilibrium"),
        (qm, "equilibrium"),
        (qm._optim, "golden_section_max"),
        (qm.valuation, "scan_then_refine"),
        (qm.selection, "nash_solve"),
        (qm.cli, "main"),
    ]
    before = [getattr(o, n) for o, n in bindings]
    cdf = qm.ValuationDistribution.cdf
    with tracing.instrument(tracing.Tracer()):
        assert all(getattr(o, n) is not b for (o, n), b in zip(bindings, before))
        assert qm.ValuationDistribution.cdf is not cdf
    assert [getattr(o, n) for o, n in bindings] == before
    assert qm.ValuationDistribution.cdf is cdf


def test_custom_optimize_counts_match_profile():
    dist = qm.ValuationDistribution.from_csv(ROOT / "scenarios" / "triangle_pdf.csv")
    qos = qm.QoSModel.linear(1.633, 0.088)
    counts = []
    for _ in range(2):
        tr = tracing.Tracer()
        with tracing.instrument(tr):
            qm.optimize(dist, qos)
        m = tracing.layer_metrics(tr)
        counts.append((m["valuation.quantile.calls"], m["valuation.cdf.calls"]))
        assert m["optim.golden_section_max.calls"] == 1
        assert m["optim.golden_section_max.fn_evals"] > 0
    assert counts == [(42, 2016)] * 2


def test_traced_pass_leaves_the_answer_checks_out(tmp_path):
    # the checks scan 2,001-point quantiles; the trace must count only the
    # optimize calls themselves, and the checks must still run
    ctx = workloads.Context(root=ROOT, work=tmp_path, in_process=True)
    tasks = workloads.build("custom_density", workloads.generate("custom_density", 5), ctx)
    optimize = [t for t in tasks if t.kind == "optimize"]
    tally = harness.Tally()
    tr = tracing.Tracer()
    harness.run_pass(optimize, tally, tr)
    m = tracing.layer_metrics(tr)
    assert (tally.attempted, tally.failed) == (len(optimize), 0), tally.failures
    assert m["valuation.quantile.calls"] == 42 * len(optimize)
    assert m["valuation.cdf.calls"] == 2016 * len(optimize)

    def wrong(_):
        raise workloads.CheckFailed("off")

    tally = harness.Tally()
    harness.run_pass([workloads.Task("optimize", optimize[0].run, wrong)], tally, tracing.Tracer())
    assert (tally.failed, tally.wrong) == (1, 1)


def test_spread_keeps_task_order_and_places_every_run(tmp_path):
    probe = workloads._Probe(workloads.Context(root=ROOT, work=tmp_path), repeats=2)
    probe.import_time()
    tasks = [workloads.Task("a", lambda i=i: i) for i in range(10)]
    out = probe.spread(tasks)
    assert [t for t in out if t.kind == "a"] == tasks
    kinds = [t.kind for t in out]
    assert kinds.count("import") == kinds.count("python_start") == 2
    assert kinds[0] == kinds[-1] == "a"  # runs sit among the tasks, not at an end
    starts = [i for i, k in enumerate(kinds) if k == "python_start"]
    assert all(kinds[i - 1] == "import" for i in starts)  # each bare start next to its import


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_determines_inputs(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.generate(name, 7) != workloads.generate(name, 8)


def test_same_seed_gives_identical_counts_and_correct_answers(tmp_path):
    ctx = workloads.Context(root=ROOT, work=tmp_path, in_process=True)
    counts = []
    for _ in range(2):
        tally = harness.Tally()
        tr = tracing.Tracer()
        harness.run_pass(workloads.build("uniform_closed", workloads.generate("uniform_closed", 3), ctx), tally, tr)
        assert tally.failed == 0, tally.failures
        counts.append({k: v for k, v in tracing.layer_metrics(tr).items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["valuation.cdf_calls_per_quantile"] == 0  # no bisection on the uniform path


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert spec["paths"] == ["perfbench"]
