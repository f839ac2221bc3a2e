"""Tests of the benchmark's own machinery.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import io
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402
import suite  # noqa: E402
from spans import (  # noqa: E402
    Span,
    SpanProxy,
    SpanRecorder,
    load_spans,
    self_times,
    summarize,
    tail_percentile,
    tiling_error,
)

#: Sizes small enough for every group to build, check and trace in seconds.
TINY = {
    "fig2-single-file": {"graph_sizes": (12, 16), "file_tokens": 6},
    "fig56-subdivided": {"n": 14, "total_tokens": 8, "file_counts": (2, 4)},
    "trace-explain": {"n": 14, "tokens": 6, "instances": 1},
    "online-locd-dynamic": {
        "decoys": (4, 8),
        "dynamic_n": 12,
        "dynamic_tokens": 6,
    },
}


def _single(group, seed, tmp_path):
    """A workload of one group, at test size."""
    return suite.Workload(
        group, [suite.build_group(group, seed, str(tmp_path), TINY[group])]
    )


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_self_times_on_a_handmade_tree():
    spans = [
        Span("root", 0.0, 10.0, None, "u"),
        Span("a", 1.0, 4.0, 0, "u"),
        Span("a1", 2.0, 3.0, 1, "u"),
        Span("b", 5.0, 9.0, 0, "u"),
        Span("b1", 5.0, 6.0, 3, "u"),
        Span("b2", 7.0, 9.0, 3, "u"),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0]
    assert tiling_error(spans) == 0.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, None, "u"),
        Span("a", 1.0, 6.0, 0, "u"),
        Span("b", 4.0, 8.0, 0, "u"),
    ]
    assert self_times(spans)[0] == 3.0


def test_recorder_spans_tile_each_unit():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    for unit in ("u0", "u1"):
        with rec.span("bench", unit=unit):
            with rec.span("engine.random"):
                with rec.span("heuristics.propose"):
                    pass
            with rec.span("prune"):
                pass
    assert [s.unit for s in rec.spans] == ["u0"] * 4 + ["u1"] * 4
    assert [s.parent for s in rec.spans[:4]] == [None, 0, 1, 0]
    assert tiling_error(rec.spans) == 0.0
    summary = summarize(rec.spans, rounds=2)
    # bench: 0..7 with children 1..4 and 5..6 -> 7 - 3 - 1 = 3 per unit.
    assert summary["bench"]["busy_s"] == 3.0
    assert summary["engine.random"]["calls"] == 1.0
    assert summary["engine.random"]["busy_s"] == 2.0


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(19) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10_000) == 99.9


# ----------------------------------------------------------------------
# Best-of-k timing
# ----------------------------------------------------------------------
def test_best_of_k_sums_each_units_fastest_repeat():
    assert bench.best_of_k([[3.0, 1.0, 2.0], [5.0, 4.0, 6.0]]) == 5.0
    assert bench.best_of_k([[0.25]]) == 0.25


def test_rounds_respects_the_minimum_and_the_deadline(tmp_path):
    workload = _single("fig2-single-file", 3, tmp_path)
    run = bench.Run(workload, seconds=0.0)
    assert run.rounds(run.timed_round, 3) == 3
    assert all(len(times) == 3 for times in run.times)
    assert run.sweep_s() == sum(min(t) for t in run.times)


# ----------------------------------------------------------------------
# Oracle checks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", suite.WORKLOADS)
def test_every_workload_passes_its_oracles_and_tiles(name, tmp_path):
    workload = suite.build(name, 5, str(tmp_path), TINY)
    run = bench.TracedRun(workload, seconds=0.0)
    run.rounds(run.traced_round, 1)
    assert run.problems == []
    assert all(run.ok) and run.failed == 0
    assert tiling_error(run.recorder.spans) < 1e-9
    path = str(tmp_path / "spans.jsonl")
    run.recorder.dump(path)
    spans = load_spans(path)
    assert spans == run.recorder.spans
    setup = {"import.obs_s": 0.1, "import.experiments_s": 0.2}
    metrics = bench.layer_metrics(run, spans, setup)
    for kind in bench.SPAN_KINDS:
        for field_name, _unit in bench.SPAN_FIELDS:
            assert f"{kind}.{field_name}" in metrics
    for group in suite.WORKLOADS[name]:
        assert metrics[f"{group}.sweep_s"]["value"] > 0
        assert metrics[f"{group}.sweep_s"]["value"] <= run.sweep_s()
    assert run.warm_sweep_s() > 0


def test_corrupted_record_drives_ok_rate_below_one(tmp_path):
    workload = _single("fig2-single-file", 11, tmp_path)
    unit = workload.units[0]
    original = unit.run

    def corrupted():
        output = copy.deepcopy(original())
        output["records"][0]["makespan"] += 1
        return output

    unit.run = corrupted
    run = bench.Run(workload, seconds=0.0)
    run.timed_round()
    assert run.ok == [False, True]
    assert run.failed >= 1
    assert any("disagrees with the reference run" in p for p in run.problems)


def test_flood_then_optimal_ratio_is_checked(tmp_path):
    workload = _single("online-locd-dynamic", 2, tmp_path)
    unit = next(u for u in workload.units if "flood_then_optimal" in str(u.spec.params))
    output = dict(unit.run(), ratio=2.5)
    assert any("not exactly 2" in p for p in unit.check(output))


# ----------------------------------------------------------------------
# Proxies leave the program's behaviour unchanged
# ----------------------------------------------------------------------
def _problem():
    from repro.topology import random_graph
    from repro.workloads import single_file

    return single_file(random_graph(24, random.Random(4)), file_tokens=10)


@pytest.mark.parametrize("kernel", ["state", "batch"])
def test_proxied_heuristic_runs_are_byte_identical(kernel):
    from repro.heuristics import HEURISTIC_FACTORIES
    from repro.obs import JsonlTracer
    from repro.sim import run_heuristic

    problem = _problem()
    for name, factory in HEURISTIC_FACTORIES.items():
        rec = SpanRecorder()
        proxy = SpanProxy(factory(), rec, suite._PROPOSE)
        assert hasattr(proxy, "propose_vector") == hasattr(factory(), "propose_vector")
        traces = []
        schedules = []
        for heuristic in (factory(), proxy):
            handle = io.StringIO()
            result = run_heuristic(
                problem, heuristic, seed=9, tracer=JsonlTracer(handle=handle), kernel=kernel
            )
            traces.append(handle.getvalue())
            schedules.append(suite.signature(result.schedule))
        assert traces[0] == traces[1], name
        assert schedules[0] == schedules[1], name
        assert [s.name for s in rec.spans] == ["heuristics.propose"] * len(schedules[0])


def test_proxied_locd_and_dynamic_runs_are_identical():
    from repro.extensions.dynamic import periodic_outages, run_dynamic
    from repro.heuristics import make_heuristic
    from repro.locd import LocalRarest, guessing_instance, run_local

    rec = SpanRecorder()
    problem = guessing_instance(3, 8, [5])
    plain = run_local(problem, LocalRarest(), seed=1)
    proxied = run_local(problem, SpanProxy(LocalRarest(), rec, {"decide": "d"}), seed=1)
    assert suite.signature(plain.schedule) == suite.signature(proxied.schedule)
    assert rec.spans and {s.name for s in rec.spans} == {"d"}

    base = _problem()
    plain = run_dynamic(periodic_outages(base, 2, 1, seed=3), make_heuristic("local"), seed=2)
    conditions = SpanProxy(periodic_outages(base, 2, 1, seed=3), rec, {"problem_at": "p"})
    proxied = run_dynamic(conditions, make_heuristic("local"), seed=2)
    assert suite.signature(plain.schedule) == suite.signature(proxied.schedule)
    assert sum(1 for s in rec.spans if s.name == "p") >= plain.makespan


# ----------------------------------------------------------------------
# The command line
# ----------------------------------------------------------------------
def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = bench.main(["--workload", "fig2-fig56", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
