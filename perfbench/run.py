"""Paper-figure benchmark: best-of-k sweep timing with oracle-checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload fig2-single-file --seed 1 --seconds 26 --trace 0

One run builds the workload's unit list from ``--seed``, checks every
unit's output against independent oracles once, then repeats the units
round-robin for ``--seconds`` seconds.  A unit's time is its fastest
repeat and ``sweep_s`` is the sum of those, so every unit's figure comes
from the calmest part of the run (see ``perfbench/README.md``).  With
``--trace 1`` the run also repeats a traced twin of every unit and
reports per-layer metrics instead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fresh interpreters started to measure set-up, the median reported: as
#: many as fit SETUP_BUDGET_S at the first probe's speed, within bounds.
SETUP_MIN, SETUP_MAX = 3, 9
SETUP_BUDGET_S = 2.0
#: Rounds made even when one round outlasts ``--seconds``.
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
#: A run stops starting rounds after this many seconds whatever the rounds.
HARD_STOP_S = 120.0
#: Warm replays per round, stopping early once they took WARM_BUDGET_S.
WARM_REPEATS = 20
WARM_BUDGET_S = 0.5
#: Iterations of the host calibration loop (about 2 ms).
CALIB_LOOPS = 20_000


def calib_ms() -> float:
    """Time a fixed pure-Python loop; it touches no program code."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIB_LOOPS):
        acc = (acc * 31 + i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


def best_of_k(samples: Sequence[Sequence[float]]) -> float:
    """Sum over units of each unit's fastest repeat."""
    return sum(min(times) for times in samples)


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# Set-up: a fresh interpreter imports the entry modules and builds units
# ----------------------------------------------------------------------
def setup_probe(workload: str, seed: int, tmpdir: str) -> Dict[str, float]:
    """Import ``workload``'s entry modules and build its unit list, timed.

    Called in a fresh interpreter (``--setup-probe``), so the imports are
    cold.  ``repro.obs*`` and ``repro.experiments`` are timed apart.
    """
    import importlib

    import suite

    started = time.perf_counter()
    times = {"import.obs_s": 0.0, "import.experiments_s": 0.0}
    for module in suite.entry_modules(workload):
        t0 = time.perf_counter()
        importlib.import_module(module)
        elapsed = time.perf_counter() - t0
        if module.startswith("repro.obs"):
            times["import.obs_s"] += elapsed
        elif module == "repro.experiments":
            times["import.experiments_s"] += elapsed
    suite.build(workload, seed, tmpdir)
    times["setup_s"] = time.perf_counter() - started
    return times


def setup_once(workload: str, seed: int, tmpdir: str) -> Dict[str, float]:
    """One fresh-interpreter set-up probe (see :func:`setup_probe`)."""
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--setup-probe",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--tmpdir",
            tmpdir,
        ],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SetupProbes:
    """Set-up probes spread over a run, one before each early round."""

    def __init__(self, workload: str, seed: int, tmpdir: str) -> None:
        self.args = (workload, seed, tmpdir)
        self.rows: List[Dict[str, float]] = []
        self.wanted = SETUP_MIN

    def probe(self) -> None:
        start = time.perf_counter()
        self.rows.append(setup_once(*self.args))
        if len(self.rows) == 1:
            fit = int(SETUP_BUDGET_S / (time.perf_counter() - start))
            self.wanted = max(SETUP_MIN, min(SETUP_MAX, fit))

    def pending(self) -> bool:
        return len(self.rows) < self.wanted

    def median(self) -> Dict[str, float]:
        return {key: statistics.median(r[key] for r in self.rows) for key in self.rows[0]}


# ----------------------------------------------------------------------
# The measured run
# ----------------------------------------------------------------------
class Run:
    """One benchmark run over one workload.

    Rounds run every unit once, interleaved with the host probe.  The
    first round also checks each unit's output against its oracles, so
    the oracle work spreads the timed repeats over a longer window instead
    of adding a separate pass; later rounds check that outputs repeat.
    """

    def __init__(self, workload: Any, seconds: float) -> None:
        self.workload = workload
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.calib: List[float] = []
        self.units = workload.units
        self.first: List[Any] = [None] * len(self.units)
        self.ok = [False] * len(self.units)
        self.times: List[List[float]] = [[] for _ in self.units]
        #: Each group's slice of the unit list, in order.
        self.slices: Dict[str, slice] = {}
        start = 0
        for group in workload.groups:
            self.slices[group.name] = slice(start, start + len(group.units))
            start += len(group.units)
        self.warm_times: Dict[str, List[float]] = {g.name: [] for g in workload.groups}

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def _timed(self, label: str, fn: Any, *args: Any) -> Tuple[bool, Any, float]:
        """Call ``fn`` once, timed; a raise counts as a failed attempt."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = fn(*args)
        except Exception as exc:  # noqa: BLE001 — counted and reported
            self._fail(f"{label}: {type(exc).__name__}: {exc}")
            return False, None, 0.0
        return True, output, time.perf_counter() - start

    def _accept(self, i: int, output: Any, twin: str = "") -> None:
        """Check a unit's first output; compare later ones with it."""
        unit = self.units[i]
        if self.first[i] is None:
            self.first[i] = output
            try:
                problems = unit.check(output)
            except Exception as exc:  # noqa: BLE001 — counted and reported
                problems = [f"oracle raised {type(exc).__name__}: {exc}"]
            for problem in problems:
                self._fail(f"{unit.name}: {problem}")
            self.ok[i] = not problems
        elif unit.digest(output) != unit.digest(self.first[i]):
            self._fail(f"{unit.name}: {twin or 'repeat'} output differs from the first")

    def timed_round(self) -> None:
        """Every unit once, untraced, then each group's warm replays."""
        for i, unit in enumerate(self.units):
            self.calib.append(calib_ms())
            done, output, elapsed = self._timed(unit.name, unit.run)
            if done:
                self.times[i].append(elapsed)
                self._accept(i, output)
        for group in self.workload.groups:
            if group.sweep is not None:
                self._warm_replays(group)

    def _warm_replays(self, group: Any) -> None:
        """Replay the group's grid from the warm cache, a few times."""
        times = self.warm_times[group.name]
        spent = 0.0
        for _ in range(WARM_REPEATS):
            done, output, elapsed = self._timed(
                f"{group.name} warm replay", group.sweep.replay
            )
            if not done:
                break
            if not times and output != self.first[self.slices[group.name]]:
                self._fail(f"{group.name}: warm replay differs from the computed outputs")
            times.append(elapsed)
            spent += elapsed
            if spent > WARM_BUDGET_S:
                break

    def rounds(self, round_fn: Any, minimum: int, probes: Any = None) -> int:
        """Repeat ``round_fn`` for about ``--seconds``, at least ``minimum``
        times.  Pending set-up ``probes`` run one before each round, so
        they spread over the run as the repeats do."""
        started = time.perf_counter()
        done = 0
        last = 0.0
        while True:
            elapsed = time.perf_counter() - started
            if done >= minimum and (
                elapsed + last / 2 > self.seconds or elapsed > HARD_STOP_S
            ):
                break
            if probes is not None and probes.pending():
                probes.probe()
            round_start = time.perf_counter()
            round_fn()
            last = time.perf_counter() - round_start
            done += 1
        while probes is not None and probes.pending():
            probes.probe()
        return done

    def sweep_s(self, group: str = "") -> float:
        """Best-of-k sum over the workload's units, or one group's."""
        times = self.times[self.slices[group]] if group else self.times
        return best_of_k([t for t in times if t])

    def warm_sweep_s(self) -> float:
        return sum(min(t) for t in self.warm_times.values() if t)


class TracedRun(Run):
    """Adds the traced twins, point-function probes and span probes."""

    def __init__(self, workload: Any, seconds: float) -> None:
        super().__init__(workload, seconds)
        from spans import SpanRecorder

        self.recorder = SpanRecorder()
        self.traced_times: List[List[float]] = [[] for _ in self.units]
        self.point_times: List[List[float]] = [[] for _ in self.units]
        self.traced_rounds = 0

    def traced_round(self) -> None:
        from repro.experiments.sweep import resolve_point_function

        self.timed_round()
        rec = self.recorder
        for i, unit in enumerate(self.units):
            if unit.spec is not None:
                fn = resolve_point_function(unit.spec.kind)
                done, _output, elapsed = self._timed(f"{unit.name} point", fn, unit.spec)
                if done:
                    self.point_times[i].append(elapsed)
            root = len(rec.spans)
            done, output, _elapsed = self._timed(
                f"{unit.name} traced", self._traced_unit, unit
            )
            if done:
                self.traced_times[i].append(rec.spans[root].duration)
                self._accept(i, output, twin="traced")
        for group in self.workload.groups:
            for probe in group.probes:
                probe(rec)
        self.traced_rounds += 1

    def _traced_unit(self, unit: Any) -> Any:
        unit_id = f"{unit.name}#{self.traced_rounds}"
        with self.recorder.span("bench", unit=unit_id):
            return unit.traced(self.recorder)


SPAN_KINDS = (
    "instance.build",
    "bounds.timesteps",
    "bounds.bandwidth",
    "engine.round_robin",
    "engine.random",
    "engine.local",
    "engine.bandwidth",
    "engine.global",
    "heuristics.propose",
    "prune",
    "sweep.hit",
    "obs.trace",
    "obs.verify",
    "obs.attribute",
    "obs.diameter",
    "locd.run_local",
    "locd.decide",
    "dynamic.run",
    "dynamic.problem_at",
)
#: Every group, so each traced run reports the same per-layer metrics.
GROUPS = (
    "fig2-single-file",
    "fig56-subdivided",
    "trace-explain",
    "online-locd-dynamic",
)
SPAN_FIELDS = (
    ("calls", "count"),
    ("busy_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("tail_pct", "%"),
)


def _sweep_counts(workload: Any) -> Tuple[int, float, float]:
    """Grid points, and cache hits per warm replay and misses per cold
    pass, from the executors' own outcome records."""
    points = 0
    hits = misses = 0.0
    for sweep in (g.sweep for g in workload.groups if g.sweep is not None):
        n = len(sweep.specs)
        warm = sweep.warm.outcomes
        cold = [o for e in sweep.cold_executors for o in e.outcomes]
        points += n
        hits += n * sum(o.cache_hit for o in warm) / max(1, len(warm))
        misses += n * sum(not o.cache_hit for o in cold) / max(1, len(cold))
    return points, hits, misses


def layer_metrics(
    run: TracedRun, recorded: Sequence[Any], setup: Dict[str, float]
) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics from a traced run's ``recorded`` spans, per sweep."""
    from spans import summarize

    rounds = max(1, run.traced_rounds)
    summary = summarize(recorded, rounds)
    counts = {k: v / rounds for k, v in run.recorder.counts.items()}
    metrics: Dict[str, Dict[str, Any]] = {}
    for kind in SPAN_KINDS:
        row = summary.get(kind, {})
        for field_name, unit in SPAN_FIELDS:
            metrics[f"{kind}.{field_name}"] = _metric(row.get(field_name, 0.0), unit)

    engines = [summary[k] for k in SPAN_KINDS if k.startswith("engine.") and k in summary]
    engine_busy = sum(row["busy_s"] for row in engines)
    # Wall time of every run whose moves are counted (engine and dynamic).
    engine_wall = sum(row["wall_s"] for row in engines) + summary.get(
        "dynamic.run", {}
    ).get("wall_s", 0.0)
    moves = counts.get("engine.moves", 0.0)
    raw = counts.get("prune.raw_bandwidth", 0.0)
    points, hits, misses = _sweep_counts(run.workload)
    overhead = [
        min(t) - min(p)
        for t, p in zip(run.times, run.point_times)
        if t and p
    ]
    untraced = run.sweep_s()
    traced = best_of_k([t for t in run.traced_times if t])
    extra = {
        "engine.apply.busy_s": (engine_busy, "s"),
        "engine.steps": (counts.get("engine.steps", 0.0), "count"),
        "engine.moves": (moves, "count"),
        "engine.moves_per_s": (moves / engine_wall if engine_wall else 0.0, "1/s"),
        "engine.stalls": (counts.get("engine.stalls", 0.0), "count"),
        "prune.kept_ratio": (
            counts.get("prune.kept_bandwidth", 0.0) / raw if raw else 0.0,
            "ratio",
        ),
        "sweep.points": (points, "count"),
        "sweep.cache_hits": (hits, "count"),
        "sweep.cache_misses": (misses, "count"),
        "sweep.overhead_ms": (sum(overhead) * 1e3, "ms"),
        "obs.trace.bytes": (counts.get("obs.trace.bytes", 0.0), "B"),
        "obs.trace.events": (counts.get("obs.trace.events", 0.0), "count"),
        "locd.engine_s": (
            summary.get("locd.run_local", {}).get("busy_s", 0.0),
            "s",
        ),
        "import.experiments_s": (setup["import.experiments_s"], "s"),
        "import.obs_s": (setup["import.obs_s"], "s"),
        "host.calib_ms": (statistics.median(run.calib), "ms"),
        "bench.busy_s": (summary.get("bench", {}).get("busy_s", 0.0), "s"),
        "trace.overhead_ratio": (traced / untraced if untraced else 0.0, "ratio"),
    }
    for group in GROUPS:
        extra[f"{group}.sweep_s"] = (run.sweep_s(group) if group in run.slices else 0.0, "s")
    for name, (value, unit) in extra.items():
        metrics[name] = _metric(value, unit)
    return metrics


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans", help="where a traced run writes its spans (JSONL; default: scratch)"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tmpdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("perfbench: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    import suite

    if args.workload not in suite.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(suite.WORKLOADS)}")
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed, args.tmpdir)))
        return 0

    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        return _measure(args, suite, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _measure(args: argparse.Namespace, suite: Any, tmpdir: str) -> int:
    """Measure one workload and print its result line."""
    probes = SetupProbes(args.workload, args.seed, tmpdir)
    probes.probe()  # the first set-up is measured before anything else runs
    workload = suite.build(args.workload, args.seed, tmpdir)
    run = TracedRun(workload, args.seconds) if args.trace else Run(workload, args.seconds)
    started = time.perf_counter()
    if isinstance(run, TracedRun):
        rounds = run.rounds(run.traced_round, MIN_TRACED_ROUNDS, probes)
    else:
        rounds = run.rounds(run.timed_round, MIN_ROUNDS, probes)
    print(f"{rounds} rounds in {time.perf_counter() - started:.2f}s")
    setup = probes.median()
    print(f"set-up probes: {len(probes.rows)}")

    ok_rate = sum(run.ok) / len(run.ok)
    for unit, times in zip(run.units, run.times):
        if times:
            print(f"unit {unit.name}: best {min(times):.6f}s of {len(times)}")
    for group in workload.groups:
        print(f"group {group.name}: sweep_s {run.sweep_s(group.name):.6f}")
    print(
        f"host.calib_ms median={statistics.median(run.calib):.4f} "
        f"min={min(run.calib):.4f} max={max(run.calib):.4f} n={len(run.calib)}"
    )
    print(f"ok_rate={ok_rate}")
    for problem in run.problems[:20]:
        print(f"problem: {problem}")

    if isinstance(run, TracedRun):
        from spans import load_spans, tiling_error

        path = args.spans or os.path.join(tmpdir, "spans.jsonl")
        run.recorder.dump(path)
        recorded = load_spans(path)
        error = tiling_error(recorded)
        print(f"trace tiling error {error:.3e}s over {len(recorded)} spans")
        if error > 1e-6:
            run._fail(f"self times do not tile the units (error {error:.3e}s)")
        metrics = layer_metrics(run, recorded, setup)
    else:
        metrics = {
            "sweep_s": _metric(run.sweep_s(), "s"),
            "setup_s": _metric(setup["setup_s"], "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
            "ok_rate": _metric(ok_rate, "ratio"),
            "warm_sweep_s": _metric(run.warm_sweep_s(), "s"),
        }
    result = {
        "correct": run.failed == 0 and ok_rate == 1.0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
