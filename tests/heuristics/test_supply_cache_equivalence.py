"""Global's supply cache and Bandwidth's early stop change nothing.

Both heuristics carry per-call caches that the frozen bodies in
:mod:`repro.sim.reference` do not:

* Global keeps each receiver's candidate mask and usable in-arc slots
  across passes of one timestep and rebuilds them only when the arc it
  just used runs out of budget;
* Bandwidth runs its relay BFS over out-neighbour lists built at reset
  and stops once every far needer has a label.

The family below aims at the paths those caches add.  Capacities of 1–2
exhaust arcs many times per step; directed and disconnected graphs leave
far needers the BFS can never reach; multi-sender subdivisions and
sparse want sets scatter the demand; and dynamic runs with changing
capacities re-run ``reset`` on new graphs mid-run.  Every run must give
the reference schedule (or the same stall) and leave the engine RNG in
the same state after every proposal.
"""

from __future__ import annotations

import random
from typing import Any, Callable, List, Tuple

import pytest

from repro.core.problem import Problem
from repro.extensions.dynamic import (
    DynamicEngine,
    periodic_outages,
    random_fluctuations,
)
from repro.heuristics import HEURISTIC_FACTORIES
from repro.sim import Engine, StallError
from repro.sim.reference import (
    ReferenceEngine,
    make_reference_heuristic,
    reference_run_dynamic,
)
from repro.topology import random_graph
from repro.topology.weights import unit_capacity
from repro.workloads import file_subdivision

from tests.conftest import make_random_problem

REWRITTEN = ("global", "bandwidth")


class Recording:
    """Wraps a heuristic; snapshots the engine RNG after every proposal."""

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self.name = inner.name
        self.states: List[object] = []

    def reset(self, problem: Problem, rng: random.Random) -> None:
        self.inner.reset(problem, rng)

    def propose(self, ctx: Any) -> Any:
        proposal = self.inner.propose(ctx)
        self.states.append(ctx.rng.getstate())
        return proposal


def signature(schedule: Any) -> List[List[Tuple[Tuple[int, int], int]]]:
    return [
        sorted((key, ts.sends[key].mask) for key in ts.sends)
        for ts in schedule.steps
    ]


def outcome(run: Callable[[], Any], rec: Recording) -> Tuple[object, ...]:
    """What a run produced: its schedule or its stall, plus RNG states."""
    try:
        result = run()
    except StallError as exc:
        return ("stall", str(exc), rec.states)
    return ("ok", result.success, signature(result.schedule), rec.states)


def assert_engine_equivalent(problem: Problem, name: str, seed: int) -> None:
    old_rec = Recording(make_reference_heuristic(name))
    new_rec = Recording(HEURISTIC_FACTORIES[name]())
    old_rng = random.Random(seed)
    new_rng = random.Random(seed)
    old = outcome(ReferenceEngine(problem, old_rec, rng=old_rng).run, old_rec)
    new = outcome(Engine(problem, new_rec, rng=new_rng).run, new_rec)
    assert old == new, (problem.name, name, seed)
    assert old_rng.getstate() == new_rng.getstate(), (problem.name, name)


def tight_problem(rng: random.Random, index: int) -> Problem:
    """A connected symmetric instance with capacities 1–2 and many
    tokens, so Global exhausts (and rebuilds) arcs every step."""
    problem = make_random_problem(
        rng, max_vertices=16, max_tokens=24, max_capacity=2
    )
    problem.name = f"tight-{index}"
    return problem


def directed_problem(rng: random.Random, index: int) -> Problem:
    """A directed graph of two or three components with sparse wants.

    Every component but the first holds no copy of some tokens its
    vertices want, so those far needers stay unreachable and the relay
    search runs to exhaustion; runs end in a stall.
    """
    n = rng.randint(6, 16)
    m = rng.randint(2, 12)
    parts = rng.randint(2, 3)
    component = [rng.randrange(parts) for _ in range(n)]
    arcs = set()
    for u in range(n):
        for v in range(n):
            if u != v and component[u] == component[v] and rng.random() < 0.3:
                arcs.add((u, v, rng.randint(1, 2)))
    holders = [v for v in range(n) if component[v] == 0] or [0]
    have = {v: [] for v in range(n)}
    for t in range(m):
        have[rng.choice(holders)].append(t)
    want = {
        v: [t for t in range(m) if t not in have[v] and rng.random() < 0.35]
        for v in range(n)
    }
    return Problem.build(
        n, m, sorted(arcs), have, want, name=f"directed-{index}"
    )


def subdivision_problem(rng: random.Random, index: int) -> Problem:
    """A multi-sender Figure 6 instance on unit-capacity links."""
    n = rng.randint(8, 20)
    files = rng.choice((1, 2, 4))
    problem = file_subdivision(
        random_graph(n, rng, capacity=unit_capacity),
        files,
        rng=rng,
        total_tokens=8 * files,
        multi_sender=True,
    )
    problem.name = f"subdivision-{index}"
    return problem


def sparse_want_problem(rng: random.Random, index: int) -> Problem:
    """A connected instance where each vertex wants few tokens."""
    base = make_random_problem(rng, max_vertices=14, max_tokens=16)
    want = {
        v: [t for t in base.want[v] if rng.random() < 0.25]
        for v in range(base.num_vertices)
    }
    return Problem.build(
        base.num_vertices,
        base.num_tokens,
        [(a.src, a.dst, a.capacity) for a in base.arcs],
        {v: list(base.have[v]) for v in range(base.num_vertices)},
        want,
        name=f"sparse-{index}",
    )


FAMILIES = {
    "tight": tight_problem,
    "directed": directed_problem,
    "subdivision": subdivision_problem,
    "sparse_want": sparse_want_problem,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("name", REWRITTEN)
def test_engine_family_matches_reference(family, name):
    rng = random.Random(f"supply-cache/{family}")
    build = FAMILIES[family]
    for i in range(12):
        assert_engine_equivalent(build(rng, i), name, seed=300 + i)


def test_directed_family_reaches_unreachable_needers():
    """The directed family really produces runs whose relay search
    cannot reach every far needer (they end in a stall)."""
    rng = random.Random("supply-cache/directed")
    stalls = 0
    for i in range(12):
        problem = directed_problem(rng, i)
        try:
            Engine(problem, HEURISTIC_FACTORIES["bandwidth"]()).run()
        except StallError:
            stalls += 1
    assert stalls >= 3


@pytest.mark.parametrize("name", REWRITTEN)
def test_dynamic_capacity_changes_match_reference(name):
    rng = random.Random("supply-cache/dynamic")
    for i in range(6):
        problem = make_random_problem(
            rng, max_vertices=12, max_tokens=12, max_capacity=3
        )
        seed = 700 + i
        for conditions in (
            random_fluctuations(problem, seed=seed, low=0.3, high=1.0),
            periodic_outages(problem, 3, 1, seed=seed),
        ):
            old_rec = Recording(make_reference_heuristic(name))
            new_rec = Recording(HEURISTIC_FACTORIES[name]())
            old = outcome(
                lambda: reference_run_dynamic(conditions, old_rec, seed=seed),
                old_rec,
            )
            new = outcome(
                DynamicEngine(conditions, new_rec, rng=random.Random(seed)).run,
                new_rec,
            )
            assert old == new, (conditions.name, name, i)
