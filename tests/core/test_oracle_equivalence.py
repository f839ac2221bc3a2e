"""The bit-parallel §5.1 post-passes equal their reference forms exactly.

``remaining_timesteps`` (one radius closure over token masks),
``prune_schedule``/``cleanup_schedule`` (raw-mask passes) and
``Problem.diameter`` (vertex-bit closure) are held to the per-vertex and
TokenSet oracles in :mod:`tests.core.oracles`: same values, same
exception type and message, same ``Timestep.sends`` in the same key
order, same ``PruneStats``.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.bounds import InfeasibleBoundError, remaining_timesteps
from repro.core.problem import Problem
from repro.core.pruning import prune_schedule
from repro.core.schedule import Schedule
from repro.core.tokenset import TokenSet
from repro.heuristics import HEURISTIC_FACTORIES
from repro.reductions.certificates import cleanup_schedule
from repro.sim import run_heuristic
from repro.topology import random_graph
from repro.workloads import file_subdivision

from tests.conftest import make_random_problem, problems_with_schedules
from tests.core import oracles

_HEURISTICS = sorted(HEURISTIC_FACTORIES)


def _random_directed(rng: random.Random, max_vertices: int = 9) -> Problem:
    """Arbitrary directed arcs (possibly none), any have/want: often
    disconnected and often infeasible."""
    n = rng.randint(1, max_vertices)
    m = rng.randint(1, 6)
    arcs = [
        (u, v, rng.randint(1, 3))
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < 0.2
    ]
    have = {v: [t for t in range(m) if rng.random() < 0.25] for v in range(n)}
    want = {v: [t for t in range(m) if rng.random() < 0.4] for v in range(n)}
    return Problem.build(n, m, arcs, have, want)


def _satisfiable(rng: random.Random) -> Problem:
    """Symmetric instances with capacities up to 4, or Figure 5/6
    subdivisions (single or multi-sender) on random graphs."""
    family = rng.randrange(3)
    if family == 0:
        return make_random_problem(rng, max_vertices=9, max_tokens=8, max_capacity=4)
    n = rng.randint(6, 24)
    num_files = rng.choice([1, 2, 4])
    return file_subdivision(
        random_graph(n, rng, p=min(1.0, 3.0 / n)),
        num_files,
        rng=rng,
        total_tokens=num_files * rng.randint(1, 6),
        multi_sender=family == 2,
    )


@st.composite
def _instances_with_possession(
    draw: st.DrawFn,
) -> Tuple[Problem, Optional[List[TokenSet]]]:
    """An instance plus either its initial state (``None``) or the
    possession after a random prefix of a replayed engine schedule."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    problem = _satisfiable(rng)
    if draw(st.booleans()):
        return problem, None
    heuristic = HEURISTIC_FACTORIES[draw(st.sampled_from(_HEURISTICS))]()
    result = run_heuristic(problem, heuristic, seed=rng.randrange(1000))
    history = result.schedule.replay(problem)
    return problem, history[draw(st.integers(0, len(history) - 1))]


def _outcome(fn, *args) -> Tuple[str, object]:
    try:
        return ("value", fn(*args))
    except InfeasibleBoundError as exc:
        return ("infeasible", str(exc))


def _sends(schedule: Schedule) -> List[list]:
    """Every step's sends as ordered item lists: equal iff same arcs,
    same tokens and same dict key order."""
    return [list(step.sends.items()) for step in schedule.steps]


# ----------------------------------------------------------------------
# remaining_timesteps
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(_instances_with_possession())
def test_bound_equals_oracle(case: Tuple[Problem, Optional[Sequence[TokenSet]]]) -> None:
    problem, possession = case
    assert remaining_timesteps(problem, possession) == oracles.remaining_timesteps(
        problem, possession
    )


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_bound_on_directed_instances_equals_oracle(seed: int) -> None:
    problem = _random_directed(random.Random(seed))
    new = _outcome(remaining_timesteps, problem)
    assert new == _outcome(oracles.remaining_timesteps, problem)
    assert (new[0] == "infeasible") == (not problem.is_satisfiable())


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_infeasible_raises_oracle_message(seed: int) -> None:
    problem = _random_directed(random.Random(seed))
    assume(not problem.is_satisfiable())
    with pytest.raises(InfeasibleBoundError) as new:
        remaining_timesteps(problem)
    with pytest.raises(InfeasibleBoundError) as old:
        oracles.remaining_timesteps(problem)
    assert str(new.value) == str(old.value)


def test_infeasible_message_names_first_vertex_and_lowest_token() -> None:
    # Vertices 1 and 2 are both cut off; 1 misses tokens 1 and 2.
    p = Problem.build(
        4, 3, [(0, 3, 1)], {0: [0, 1, 2]}, {1: [2, 1], 2: [0], 3: [0, 1, 2]}
    )
    with pytest.raises(
        InfeasibleBoundError,
        match=r"^vertex 1 needs token 1, which no vertex that can reach it possesses$",
    ):
        remaining_timesteps(p)
    assert _outcome(remaining_timesteps, p) == _outcome(oracles.remaining_timesteps, p)


# ----------------------------------------------------------------------
# prune_schedule / cleanup_schedule
# ----------------------------------------------------------------------
@st.composite
def _engine_runs(draw: st.DrawFn) -> Tuple[Problem, Schedule]:
    """An engine schedule, or a prefix of one (valid, maybe unsuccessful)."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    problem = _satisfiable(rng)
    heuristic = HEURISTIC_FACTORIES[draw(st.sampled_from(_HEURISTICS))]()
    steps = run_heuristic(problem, heuristic, seed=rng.randrange(1000)).schedule.steps
    return problem, Schedule(steps[: draw(st.integers(0, len(steps)))])


def _assert_prune_matches(problem: Problem, schedule: Schedule) -> None:
    pruned, stats = prune_schedule(problem, schedule)
    want_pruned, want_stats = oracles.prune_schedule(problem, schedule)
    assert _sends(pruned) == _sends(want_pruned)
    assert stats == want_stats
    assert _sends(cleanup_schedule(problem, schedule)) == _sends(
        oracles.cleanup_schedule(problem, schedule)
    )


@settings(max_examples=60, deadline=None)
@given(_engine_runs())
def test_prune_equals_oracle_on_engine_runs(case: Tuple[Problem, Schedule]) -> None:
    _assert_prune_matches(*case)


@settings(max_examples=60, deadline=None)
@given(problems_with_schedules())
def test_prune_equals_oracle_on_random_sends(case: Tuple[Problem, Schedule]) -> None:
    _assert_prune_matches(*case)


# ----------------------------------------------------------------------
# Problem.diameter
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_diameter_equals_bfs_oracle(seed: int) -> None:
    problem = _random_directed(random.Random(seed), max_vertices=12)
    assert problem.diameter() == oracles.diameter(problem)


@pytest.mark.parametrize(
    "n,arcs,expected",
    [
        (1, [], 0),
        (3, [], 0),
        (4, [(0, 1, 1), (2, 3, 1)], 1),  # two components
        (5, [(0, 1, 1), (1, 2, 1), (3, 4, 1)], 2),
        (4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)], 3),  # directed ring
    ],
)
def test_diameter_disconnected_and_single_vertex(n, arcs, expected) -> None:
    problem = Problem.build(n, 0, arcs, {}, {})
    assert problem.diameter() == oracles.diameter(problem) == expected
    assert problem.diameter() == expected  # cached value
