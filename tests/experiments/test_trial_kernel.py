"""The figure drivers' ``kernel="auto"`` moves no record and no trace byte.

:func:`repro.experiments.runner.run_trial` runs the vector-capable
heuristics on the batch kernel.  Here every fig2 and fig5 point is
computed by the real executor with a per-point trace, and again by a
reconstruction of ``run_trial`` in this file that forces the scalar
kernel for every heuristic; records and trace files must be equal byte
for byte.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List

import pytest

from repro.core.bounds import remaining_bandwidth, remaining_timesteps
from repro.core.problem import Problem
from repro.core.pruning import prune_schedule
from repro.experiments.runner import TrialRecord, records_to_dicts
from repro.experiments.sweep import Executor, ExecutorConfig, PointSpec
from repro.heuristics import HEURISTIC_FACTORIES
from repro.obs import JsonlTracer, activated
from repro.sim import Engine
from repro.sim.batch import HAVE_NUMPY
from repro.topology import random_graph
from repro.workloads import file_subdivision, single_file

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")


def fig2_factory(params: Dict[str, Any]) -> Callable[[random.Random], Problem]:
    def factory(rng: random.Random) -> Problem:
        return single_file(
            random_graph(params["n"], rng), file_tokens=params["file_tokens"]
        )

    return factory


def fig5_factory(params: Dict[str, Any]) -> Callable[[random.Random], Problem]:
    def factory(rng: random.Random) -> Problem:
        return file_subdivision(
            random_graph(params["n"], rng),
            params["num_files"],
            rng=rng,
            total_tokens=params["total_tokens"],
            multi_sender=params["multi_sender"],
        )

    return factory


def scalar_trial(
    factory: Callable[[random.Random], Problem], base_seed: int, trial: int
) -> List[TrialRecord]:
    """``run_trial`` with every engine pinned to ``kernel="state"``."""
    problem = factory(random.Random(base_seed + trial))
    bound_bw = remaining_bandwidth(problem)
    bound_ts = remaining_timesteps(problem)
    records = []
    for h_index, name in enumerate(HEURISTIC_FACTORIES):
        result = Engine(
            problem,
            HEURISTIC_FACTORIES[name](),
            rng=random.Random(base_seed * 31 + trial * 7 + h_index * 101),
            kernel="state",
        ).run()
        pruned, _stats = prune_schedule(problem, result.schedule)
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
    return records


SPECS = [
    PointSpec.make("fig2", "fig2", i, params={**params, "trial": trial}, seed=seed)
    for i, (params, trial, seed) in enumerate(
        [
            ({"n": 12, "file_tokens": 8}, 0, 1),
            ({"n": 24, "file_tokens": 20}, 1, 1002),
            # 70 tokens spill into a second bitplane.
            ({"n": 16, "file_tokens": 70}, 0, 2003),
        ]
    )
] + [
    PointSpec.make("fig5", "fig5", i, params={**params, "trial": 0}, seed=seed)
    for i, (params, seed) in enumerate(
        [
            ({"n": 14, "num_files": 1, "total_tokens": 16, "multi_sender": False}, 5),
            ({"n": 14, "num_files": 4, "total_tokens": 16, "multi_sender": False}, 6),
            ({"n": 16, "num_files": 2, "total_tokens": 32, "multi_sender": True}, 7),
        ]
    )
]
FACTORIES = {"fig2": fig2_factory, "fig5": fig5_factory}


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.index}")
def test_auto_trial_matches_scalar_reconstruction(tmp_path, spec):
    auto_dir = tmp_path / "auto"
    (output,) = Executor(ExecutorConfig(trace_dir=str(auto_dir))).run([spec])

    params = spec.params_dict()
    scalar_path = tmp_path / "scalar.jsonl"
    with JsonlTracer(path=str(scalar_path)) as tracer:
        tracer.emit(
            "trace_header",
            {
                "figure": spec.figure,
                "kind": spec.kind,
                "index": spec.index,
                "seed": spec.seed,
                "params": params,
            },
        )
        with activated(tracer):
            records = scalar_trial(
                FACTORIES[spec.kind](params), spec.seed, params["trial"]
            )

    assert output["records"] == records_to_dicts(records)
    (auto_file,) = sorted(auto_dir.iterdir())
    assert auto_file.read_bytes() == scalar_path.read_bytes()
