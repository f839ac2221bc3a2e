"""The benchmark's workloads: timed units, oracle checks, traced twins.

A workload is a list of groups, each a fixed list of :class:`Unit` values
built from a seed: a figure slice (Figure 2; Figures 5/6), or an analysis
(trace-explain; the online LOCD and dynamic measurements).  Each unit has

* ``run`` — the untraced call into the program's public entry point
  (``Executor.run`` on a driver's point grid, ``run_heuristic`` plus
  ``validate_trace``/``attribute_trace``); this is what ``sweep_s`` times;
* ``check`` — oracle checks on one output of ``run``, made once per unit
  outside the timed repeats; it returns the problems found (none = ok);
* ``traced`` — the same work split at layer boundaries, with spans
  recorded by the benchmark around each call and through proxies it
  hands to the program; its output must equal ``run``'s;
* ``digest`` — the comparable form of an output.

Grids are built the way the drivers build them (``trial_grid`` for
Figures 2/5/6, ``PointSpec.make`` with the drivers' params for ``locd``
and ``ext_dynamic``), so the point functions under test are the drivers'
own.  Program modules are imported when a workload is built, so the
set-up probe measures those imports.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from spans import SpanProxy, SpanRecorder

__all__ = [
    "WORKLOADS",
    "ENTRY_MODULES",
    "SIZES",
    "Unit",
    "Group",
    "Workload",
    "build",
    "build_group",
    "entry_modules",
    "signature",
]

#: Each workload interleaves two groups, so one run covers two figure
#: slices for twice as long; see README.md for why there are not four.
WORKLOADS: Dict[str, Tuple[str, ...]] = {
    "fig2-fig56": ("fig2-single-file", "fig56-subdivided"),
    "trace-locd-dynamic": ("trace-explain", "online-locd-dynamic"),
}

#: Modules each group imports before building its units, in import
#: order; the set-up probe times ``repro.obs*`` and ``repro.experiments``
#: separately.
ENTRY_MODULES: Dict[str, Tuple[str, ...]] = {
    "fig2-single-file": ("repro.obs", "repro.experiments", "repro.sim.reference"),
    "fig56-subdivided": ("repro.obs", "repro.experiments", "repro.sim.reference"),
    "trace-explain": (
        "repro.obs",
        "repro.obs.analyze",
        "repro.sim",
        "repro.heuristics",
        "repro.sim.reference",
    ),
    "online-locd-dynamic": (
        "repro.obs",
        "repro.experiments",
        "repro.locd",
        "repro.extensions.dynamic",
        "repro.sim.reference",
    ),
}


def entry_modules(workload: str) -> List[str]:
    """The workload's groups' entry modules, first occurrence first."""
    return list(dict.fromkeys(m for g in WORKLOADS[workload] for m in ENTRY_MODULES[g]))


#: Instance sizes per group.  Tests pass smaller ones to :func:`build`.
#: Several instances per workload average out how much one random graph
#: costs, so the spread across seeds stays small (see README.md).
SIZES: Dict[str, Dict[str, Any]] = {
    # Figure 2: one file from one source over G(n, 2 ln n / n).
    "fig2-single-file": {"graph_sizes": (150, 175, 200, 225, 250), "file_tokens": 40},
    # Figures 5/6: 64 tokens split into 4, 8 and 16 files, both senders.
    "fig56-subdivided": {
        "n": 120,
        "total_tokens": 64,
        "file_counts": (4, 8, 16),
        "multi_sender": (False, True),
    },
    # All five heuristics traced on each instance, then verify/attribute.
    "trace-explain": {"n": 80, "tokens": 40, "instances": 8},
    # locd at the PAPER decoy counts up to 32; one trial of ext_dynamic.
    "online-locd-dynamic": {
        "separation": 3,
        "decoys": (4, 8, 16, 32),
        "dynamic_n": 60,
        "dynamic_tokens": 40,
        "dynamic_trials": 1,
    },
}

_PROPOSE = {"propose": "heuristics.propose", "propose_vector": "heuristics.propose"}


@dataclass
class Unit:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], List[str]]
    traced: Callable[[SpanRecorder], Any]
    digest: Callable[[Any], Any] = lambda output: output
    #: The unit's sweep point, when ``run`` is ``Executor.run([spec])``.
    spec: Any = None


@dataclass
class Group:
    """One figure slice or analysis: a unit list plus its warm store."""

    name: str
    units: List[Unit]
    #: The sweep grid, for groups whose units run through the executor;
    #: its warm replay serves the whole grid from the result cache.
    sweep: Optional[_Sweep] = None
    #: Traced-run probes outside any unit's tiling (obs.diameter, sweep.hit).
    probes: List[Callable[[SpanRecorder], None]] = field(default_factory=list)


@dataclass
class Workload:
    """What one benchmark run measures: its groups' units, interleaved."""

    name: str
    groups: List[Group]

    @property
    def units(self) -> List[Unit]:
        return [unit for group in self.groups for unit in group.units]


def signature(schedule: Any) -> List[List[Tuple[Tuple[int, int], int]]]:
    """A schedule as sorted ``((src, dst), token mask)`` lists per step."""
    return [
        sorted((key, ts.sends[key].mask) for key in ts.sends)
        for ts in schedule.steps
    ]


def _count_run(rec: SpanRecorder, result: Any) -> None:
    """Engine counters of one finished run."""
    rec.count("engine.steps", result.makespan)
    rec.count("engine.moves", result.bandwidth)
    rec.count("engine.stalls", sum(1 for ts in result.schedule.steps if not ts))


# ----------------------------------------------------------------------
# Figures 2, 5 and 6: trial points through the sweep executor
# ----------------------------------------------------------------------
def _trial_factory(kind: str, spec: Any) -> Callable[[random.Random], Any]:
    """The problem factory the ``fig2``/``fig5`` point function uses."""
    from repro.topology import random_graph
    from repro.workloads import file_subdivision, single_file

    n = spec.param("n")
    if kind == "fig2":
        tokens = spec.param("file_tokens")
        return lambda rng: single_file(random_graph(n, rng), file_tokens=tokens)
    num_files = spec.param("num_files")
    total = spec.param("total_tokens")
    multi = spec.param("multi_sender")
    return lambda rng: file_subdivision(
        random_graph(n, rng), num_files, rng=rng, total_tokens=total, multi_sender=multi
    )


def _engine_seed(base_seed: int, trial: int, h_index: int) -> int:
    """``run_trial``'s per-heuristic seed derivation."""
    return base_seed * 31 + trial * 7 + h_index * 101


def _traced_trial(rec: SpanRecorder, kind: str, spec: Any) -> Dict[str, Any]:
    """``run_trial`` split at its layer boundaries."""
    from repro.core.bounds import remaining_bandwidth, remaining_timesteps
    from repro.core.pruning import prune_schedule
    from repro.experiments.runner import TrialRecord, records_to_dicts, trial_stats
    from repro.heuristics import HEURISTIC_FACTORIES
    from repro.sim import Engine

    factory = _trial_factory(kind, spec)
    trial = spec.param("trial")
    with rec.span("instance.build"):
        problem = factory(random.Random(spec.seed + trial))
    with rec.span("bounds.bandwidth"):
        bound_bw = remaining_bandwidth(problem)
    with rec.span("bounds.timesteps"):
        bound_ts = remaining_timesteps(problem)
    records = []
    for h_index, name in enumerate(HEURISTIC_FACTORIES):
        heuristic = SpanProxy(HEURISTIC_FACTORIES[name](), rec, _PROPOSE)
        rng = random.Random(_engine_seed(spec.seed, trial, h_index))
        with rec.span(f"engine.{name}"):
            result = Engine(problem, heuristic, rng=rng).run()
        with rec.span("prune"):
            pruned, _stats = prune_schedule(problem, result.schedule)
        _count_run(rec, result)
        rec.count("prune.raw_bandwidth", result.bandwidth)
        rec.count("prune.kept_bandwidth", pruned.bandwidth)
        records.append(
            TrialRecord(
                heuristic=name,
                trial=trial,
                makespan=result.makespan,
                bandwidth=result.bandwidth,
                pruned_bandwidth=pruned.bandwidth,
                success=result.success,
                bound_bandwidth=bound_bw,
                bound_timesteps=bound_ts,
            )
        )
    return {"records": records_to_dicts(records), "stats": trial_stats(records)}


def _check_trial(kind: str, spec: Any, output: Dict[str, Any]) -> List[str]:
    """Oracle checks on one trial point's records.

    Every heuristic's schedule must equal the frozen reference engine's
    on the same instance and seed, the records must report that run,
    and the §5 bounds must sit below what the run achieved.
    """
    from repro.heuristics import HEURISTIC_FACTORIES
    from repro.sim import run_heuristic
    from repro.sim.reference import make_reference_heuristic, reference_run_heuristic

    trial = spec.param("trial")
    problem = _trial_factory(kind, spec)(random.Random(spec.seed + trial))
    records = output["records"]
    problems: List[str] = []
    if [r["heuristic"] for r in records] != list(HEURISTIC_FACTORIES):
        return [f"{kind}: records cover {[r['heuristic'] for r in records]}"]
    for h_index, record in enumerate(records):
        name = record["heuristic"]
        seed = _engine_seed(spec.seed, trial, h_index)
        new = run_heuristic(problem, HEURISTIC_FACTORIES[name](), seed=seed)
        ref = reference_run_heuristic(problem, make_reference_heuristic(name), seed=seed)
        where = f"{kind}[{spec.index}] {name}"
        if signature(new.schedule) != signature(ref.schedule):
            problems.append(f"{where}: schedule differs from the reference engine")
        if (record["makespan"], record["bandwidth"], record["success"]) != (
            ref.makespan,
            ref.bandwidth,
            ref.success,
        ):
            problems.append(f"{where}: record {record} disagrees with the reference run")
        if not record["success"]:
            problems.append(f"{where}: run did not finish")
        if not record["bound_timesteps"] <= record["makespan"]:
            problems.append(f"{where}: bound_timesteps above makespan")
        if not (
            record["bound_bandwidth"]
            <= record["pruned_bandwidth"]
            <= record["bandwidth"]
        ):
            problems.append(
                f"{where}: bound_bandwidth <= pruned_bandwidth <= bandwidth fails"
            )
    return problems


class _Sweep:
    """Runs single points through the sweep executor.

    A point's first run goes through a cache-writing executor, so the
    warm replay can serve the whole grid from the cache afterwards; later
    runs use the cold executor (cache off, or writing when ``cold_cache``).
    """

    def __init__(self, specs: Sequence[Any], cache_dir: str, cold_cache: bool) -> None:
        from repro.experiments.sweep import Executor, ExecutorConfig

        store = ExecutorConfig(use_cache=True, force=True, cache_dir=cache_dir)
        self.specs = list(specs)
        self.first = Executor(store)
        self.cold = self.first if cold_cache else Executor(ExecutorConfig())
        self.warm = Executor(ExecutorConfig(use_cache=True, cache_dir=cache_dir))
        self._stored: set = set()

    def run(self, spec: Any) -> Dict[str, Any]:
        if spec in self._stored:
            return self.cold.run([spec])[0]
        self._stored.add(spec)
        return self.first.run([spec])[0]

    def replay(self) -> List[Dict[str, Any]]:
        return self.warm.run(self.specs)

    @property
    def cold_executors(self) -> List[Any]:
        return [self.first] if self.cold is self.first else [self.first, self.cold]


def _trial_units(kind: str, sweep: _Sweep) -> List[Unit]:
    units = []
    for spec in sweep.specs:
        units.append(
            Unit(
                name=f"{spec.figure}[{spec.index}]",
                run=lambda spec=spec: sweep.run(spec),
                check=lambda out, spec=spec: _check_trial(kind, spec, out),
                traced=lambda rec, spec=spec: _traced_trial(rec, kind, spec),
                spec=spec,
            )
        )
    return units


def _build_fig2(seed: int, tmpdir: str, sizes: Dict[str, Any]) -> Group:
    from repro.experiments.runner import trial_grid

    configs = [
        {"n": n, "file_tokens": sizes["file_tokens"]} for n in sizes["graph_sizes"]
    ]
    sweep = _Sweep(
        trial_grid("fig2", "fig2", configs, 1, seed),
        os.path.join(tmpdir, "cache"),
        cold_cache=False,
    )
    return Group(
        "fig2-single-file",
        _trial_units("fig2", sweep),
        sweep=sweep,
    )


def _build_fig56(seed: int, tmpdir: str, sizes: Dict[str, Any]) -> Group:
    from repro.experiments.runner import trial_grid

    specs = []
    for multi in sizes["multi_sender"]:
        configs = [
            {
                "num_files": files,
                "n": sizes["n"],
                "total_tokens": sizes["total_tokens"],
                "multi_sender": multi,
            }
            for files in sizes["file_counts"]
        ]
        # Figure 6 is Figure 5's grid with multi_sender=True.  It draws
        # its own graphs (seed + 1), so every unit is an independent
        # instance and one unlucky graph moves the sum less.
        figure, base = ("fig6", seed + 1) if multi else ("fig5", seed)
        specs.extend(trial_grid(figure, "fig5", configs, 1, base))
    # The cold pass writes the cache on every repeat (force=True).
    sweep = _Sweep(specs, os.path.join(tmpdir, "cache"), cold_cache=True)

    def sweep_hits(rec: SpanRecorder) -> None:
        for spec in specs:
            with rec.span("sweep.hit", unit=f"sweep.hit[{spec.figure}.{spec.index}]"):
                sweep.warm.run([spec])

    return Group(
        "fig56-subdivided",
        _trial_units("fig5", sweep),
        sweep=sweep,
        probes=[sweep_hits],
    )


# ----------------------------------------------------------------------
# Trace and explain: the obs layer's writes beside its reads
# ----------------------------------------------------------------------
def _build_trace(seed: int, tmpdir: str, sizes: Dict[str, Any]) -> Group:
    from repro.core.bounds import diameter_knowledge_bound
    from repro.core.problem import Problem
    from repro.heuristics import HEURISTIC_FACTORIES
    from repro.obs import JsonlTracer, read_events
    from repro.obs.analyze import attribute_trace, split_runs, validate_trace
    from repro.sim import run_heuristic
    from repro.sim.reference import make_reference_heuristic, reference_run_heuristic
    from repro.topology import random_graph
    from repro.workloads import single_file

    names = list(HEURISTIC_FACTORIES)

    def engine_seed(i: int, h_index: int) -> int:
        return seed * 31 + i * 7 + h_index * 101

    def untraced(i: int, problem: Any, path: str) -> Dict[str, Any]:
        results = []
        with JsonlTracer(path=path) as tracer:
            for h_index, name in enumerate(names):
                results.append(
                    run_heuristic(
                        problem,
                        HEURISTIC_FACTORIES[name](),
                        seed=engine_seed(i, h_index),
                        tracer=tracer,
                    )
                )
        return {
            "results": results,
            "verify": validate_trace(path),
            "attribution": attribute_trace(path),
        }

    def traced(rec: SpanRecorder, i: int, problem: Any, path: str) -> Dict[str, Any]:
        results = []
        with JsonlTracer(path=path) as tracer:
            proxy = SpanProxy(tracer, rec, {"emit": "obs.trace"})
            for h_index, name in enumerate(names):
                heuristic = SpanProxy(HEURISTIC_FACTORIES[name](), rec, _PROPOSE)
                with rec.span(f"engine.{name}"):
                    result = run_heuristic(
                        problem, heuristic, seed=engine_seed(i, h_index), tracer=proxy
                    )
                _count_run(rec, result)
                results.append(result)
        rec.count("obs.trace.bytes", os.path.getsize(path))
        with open(path, encoding="utf-8") as handle:
            rec.count("obs.trace.events", sum(1 for _ in handle))
        with rec.span("obs.verify"):
            verify = validate_trace(path)
        with rec.span("obs.attribute"):
            attribution = attribute_trace(path)
        return {"results": results, "verify": verify, "attribution": attribution}

    def digest(output: Dict[str, Any]) -> Any:
        return (
            [(r.makespan, r.bandwidth, r.success) for r in output["results"]],
            output["verify"].ok,
            output["verify"].steps_checked,
            [
                (a.heuristic, a.makespan, a.gap, sorted(a.gap_terms.items()))
                for a in output["attribution"].runs
            ],
        )

    def check(i: int, problem: Any, output: Dict[str, Any]) -> List[str]:
        problems: List[str] = []
        verify = output["verify"]
        if not verify.ok or verify.runs_checked != len(names):
            problems.append(f"trace[{i}]: trace fails verification: {verify.render()}")
        for h_index, (name, result) in enumerate(zip(names, output["results"])):
            ref = reference_run_heuristic(
                problem, make_reference_heuristic(name), seed=engine_seed(i, h_index)
            )
            if signature(result.schedule) != signature(ref.schedule) or not ref.success:
                problems.append(f"trace[{i}] {name}: schedule differs from the reference engine")
        runs = output["attribution"].runs
        if [a.makespan for a in runs] != [r.makespan for r in output["results"]]:
            problems.append(f"trace[{i}]: attributed makespans differ from the runs")
        for a in runs:
            if a.path.length != a.makespan:
                problems.append(f"trace[{i}] {a.heuristic}: critical path != makespan")
            if sum(a.gap_terms.values()) != a.gap:
                problems.append(f"trace[{i}] {a.heuristic}: gap terms do not sum to the gap")
        return problems

    units = []
    paths = []
    for i in range(sizes["instances"]):
        rng = random.Random(seed * 7919 + i)
        problem = single_file(random_graph(sizes["n"], rng), file_tokens=sizes["tokens"])
        path = os.path.join(tmpdir, f"trace-{i}.jsonl")
        paths.append(path)
        units.append(
            Unit(
                name=f"trace[{i}]",
                run=lambda i=i, p=problem, path=path: untraced(i, p, path),
                check=lambda out, i=i, p=problem: check(i, p, out),
                traced=lambda rec, i=i, p=problem, path=path: traced(rec, i, p, path),
                digest=digest,
            )
        )

    def diameters(rec: SpanRecorder) -> None:
        # attribute_trace decodes a fresh Problem per run and evaluates
        # the diameter bound on it; time that term on the same inputs.
        for i, path in enumerate(paths):
            _header, runs = split_runs(read_events(path))
            for run in runs:
                problem = Problem.from_dict(run.start["instance"])
                with rec.span("obs.diameter", unit=f"obs.diameter[{i}.{run.run}]"):
                    diameter_knowledge_bound(problem)

    return Group("trace-explain", units, probes=[diameters])


# ----------------------------------------------------------------------
# Online: the LOCD adversary and dynamic network conditions
# ----------------------------------------------------------------------
def _build_online(seed: int, tmpdir: str, sizes: Dict[str, Any]) -> Group:
    from repro.experiments import ext_dynamic, locd_exp
    from repro.experiments.sweep import PointSpec
    from repro.extensions.dynamic import run_dynamic
    from repro.heuristics import make_heuristic
    from repro.locd import guessing_instance, optimal_path_makespan, run_local
    from repro.sim.reference import (
        make_reference_heuristic,
        reference_run_dynamic,
        reference_run_local,
    )
    from repro.topology import random_graph
    from repro.workloads import single_file

    separation = sizes["separation"]
    # The drivers' own grids: locd_exp.run and ext_dynamic.run build these.
    locd_specs = [
        PointSpec.make(
            "locd",
            "locd",
            index,
            params={"decoys": decoys, "algorithm": name, "separation": separation},
            seed=seed,
        )
        for index, (decoys, name) in enumerate(
            (d, a) for d in sizes["decoys"] for a in locd_exp._ALGORITHM_ORDER
        )
    ]
    dynamic_specs = [
        PointSpec.make(
            "ext_dynamic",
            "ext_dynamic",
            index,
            params={
                "conditions": label,
                "heuristic": name,
                "trial": trial,
                "n": sizes["dynamic_n"],
                "tokens": sizes["dynamic_tokens"],
            },
            seed=seed,
        )
        for index, (label, name, trial) in enumerate(
            (c, h, t)
            for c in ext_dynamic._CONDITION_ORDER
            for h in ext_dynamic._HEURISTICS
            for t in range(sizes["dynamic_trials"])
        )
    ]

    def locd_outcome(spec: Any, makespans: Sequence[int]) -> Dict[str, Any]:
        worst = max(makespans)
        optimum = optimal_path_makespan(spec.param("separation"), 1)
        return {"worst_makespan": worst, "optimum": optimum, "ratio": worst / optimum}

    def locd_instances(spec: Any) -> List[Any]:
        decoys = spec.param("decoys")
        return [
            guessing_instance(spec.param("separation"), decoys, [token])
            for token in range(decoys)
        ]

    def locd_traced(rec: SpanRecorder, spec: Any) -> Dict[str, Any]:
        factory = locd_exp._ALGORITHMS[spec.param("algorithm")]
        with rec.span("instance.build"):
            problems = locd_instances(spec)
        makespans = []
        for problem in problems:
            algorithm = SpanProxy(factory(), rec, {"decide": "locd.decide"})
            with rec.span("locd.run_local"):
                makespans.append(run_local(problem, algorithm, seed=spec.seed).makespan)
        return locd_outcome(spec, makespans)

    def locd_check(spec: Any, output: Dict[str, Any]) -> List[str]:
        factory = locd_exp._ALGORITHMS[spec.param("algorithm")]
        where = f"locd[{spec.index}] {spec.param('algorithm')}"
        problems: List[str] = []
        makespans = [
            reference_run_local(problem, factory(), seed=spec.seed).makespan
            for problem in locd_instances(spec)
        ]
        if output != locd_outcome(spec, makespans):
            problems.append(f"{where}: {output} disagrees with the reference runs")
        if spec.param("algorithm") == "flood_then_optimal" and output["ratio"] != 2:
            problems.append(f"{where}: ratio {output['ratio']} is not exactly 2")
        return problems

    def dynamic_conditions(spec: Any) -> Any:
        trial = spec.param("trial")
        rng = random.Random(spec.seed + trial)
        problem = single_file(
            random_graph(spec.param("n"), rng), file_tokens=spec.param("tokens")
        )
        return ext_dynamic._CONDITIONS[spec.param("conditions")](problem, trial)

    def dynamic_traced(rec: SpanRecorder, spec: Any) -> Dict[str, Any]:
        with rec.span("instance.build"):
            conditions = dynamic_conditions(spec)
        proxy = SpanProxy(conditions, rec, {"problem_at": "dynamic.problem_at"})
        heuristic = SpanProxy(make_heuristic(spec.param("heuristic")), rec, _PROPOSE)
        with rec.span("dynamic.run"):
            result = run_dynamic(proxy, heuristic, seed=spec.param("trial"))
        _count_run(rec, result)
        return {"makespan": result.makespan}

    def dynamic_check(spec: Any, output: Dict[str, Any]) -> List[str]:
        name = spec.param("heuristic")
        trial = spec.param("trial")
        where = f"ext_dynamic[{spec.index}] {spec.param('conditions')}/{name}"
        new = run_dynamic(dynamic_conditions(spec), make_heuristic(name), seed=trial)
        ref = reference_run_dynamic(
            dynamic_conditions(spec), make_reference_heuristic(name), seed=trial
        )
        problems: List[str] = []
        if signature(new.schedule) != signature(ref.schedule):
            problems.append(f"{where}: schedule differs from reference_run_dynamic")
        if not ref.success or output != {"makespan": ref.makespan}:
            problems.append(f"{where}: {output} disagrees with the reference run")
        return problems

    sweep = _Sweep(
        locd_specs + dynamic_specs, os.path.join(tmpdir, "cache"), cold_cache=False
    )
    units = []
    for spec in locd_specs:
        units.append(
            Unit(
                name=f"locd[{spec.index}]",
                run=lambda spec=spec: sweep.run(spec),
                check=lambda out, spec=spec: locd_check(spec, out),
                traced=lambda rec, spec=spec: locd_traced(rec, spec),
                spec=spec,
            )
        )
    for spec in dynamic_specs:
        units.append(
            Unit(
                name=f"ext_dynamic[{spec.index}]",
                run=lambda spec=spec: sweep.run(spec),
                check=lambda out, spec=spec: dynamic_check(spec, out),
                traced=lambda rec, spec=spec: dynamic_traced(rec, spec),
                spec=spec,
            )
        )
    return Group(
        "online-locd-dynamic",
        units,
        sweep=sweep,
    )


_GROUP_FACTORIES = {
    "fig2-single-file": _build_fig2,
    "fig56-subdivided": _build_fig56,
    "trace-explain": _build_trace,
    "online-locd-dynamic": _build_online,
}


def build_group(
    name: str, seed: int, tmpdir: str, sizes: Optional[Dict[str, Any]] = None
) -> Group:
    """Build group ``name`` from ``seed``; scratch files go to ``tmpdir``."""
    return _GROUP_FACTORIES[name](seed, tmpdir, {**SIZES[name], **(sizes or {})})


def build(
    name: str,
    seed: int,
    tmpdir: str,
    sizes: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Workload:
    """Build workload ``name``; ``sizes`` overrides sizes per group."""
    sizes = sizes or {}
    return Workload(
        name,
        [build_group(g, seed, tmpdir, sizes.get(g)) for g in WORKLOADS[name]],
    )
