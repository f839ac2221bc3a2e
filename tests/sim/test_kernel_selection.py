"""``kernel="auto"`` picks the batch kernel exactly for vector deciders.

Every engine resolves its kernel in
:func:`repro.sim.engine.resolve_state_factory`, which now sees the
decider (heuristic or LOCD algorithm): ``"auto"`` means
:class:`~repro.sim.batch.BatchState` when the decider has
``propose_vector`` and :class:`~repro.sim.SimState` otherwise.  The
tests watch which kernel each engine actually constructs, and check
that the choice never moves a schedule.
"""

from __future__ import annotations

import random
from typing import Any, List

import pytest

import repro.sim.batch as batch_module
import repro.sim.engine as engine_module
from repro.extensions.dynamic import DynamicEngine, periodic_outages
from repro.heuristics import HEURISTIC_FACTORIES
from repro.heuristics.sequential import SequentialHeuristic
from repro.locd import LocalRarest, LocalEngine
from repro.sim import Engine
from repro.sim.batch import HAVE_NUMPY, BatchState
from repro.sim.engine import resolve_state_factory
from repro.sim.state import SimState

from tests.conftest import make_random_problem

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")

VECTOR = ("round_robin", "random", "local", "sequential")
SCALAR = ("bandwidth", "global")


def new_heuristic(name: str) -> Any:
    if name == "sequential":
        return SequentialHeuristic()
    return HEURISTIC_FACTORIES[name]()


class HidesVector:
    """Forwards only the heuristic protocol, so ``propose_vector`` is
    hidden even when the wrapped heuristic has one."""

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self.name = inner.name

    def reset(self, problem: Any, rng: random.Random) -> None:
        self.inner.reset(problem, rng)

    def propose(self, ctx: Any) -> Any:
        return self.inner.propose(ctx)


class VectorLocal(LocalRarest):
    """A LOCD algorithm that advertises a vector path."""

    def propose_vector(self, state: Any) -> None:
        return None


@pytest.fixture
def built(monkeypatch) -> List[str]:
    """Names of the kernel classes constructed while the test runs."""
    made: List[str] = []

    class RecordingSimState(SimState):
        def __init__(self, problem: Any) -> None:
            made.append("state")
            super().__init__(problem)

    class RecordingBatchState(BatchState):
        def __init__(self, problem: Any) -> None:
            made.append("batch")
            super().__init__(problem)

    monkeypatch.setattr(engine_module, "SimState", RecordingSimState)
    monkeypatch.setattr(batch_module, "SimState", RecordingSimState)
    monkeypatch.setattr(batch_module, "BatchState", RecordingBatchState)
    return made


@pytest.fixture
def problem():
    return make_random_problem(random.Random(41), max_vertices=10, max_tokens=8)


def signature(schedule: Any) -> list:
    return [
        sorted((key, ts.sends[key].mask) for key in ts.sends)
        for ts in schedule.steps
    ]


@pytest.mark.parametrize("name", VECTOR + SCALAR)
def test_engine_auto_follows_propose_vector(built, problem, name):
    auto = Engine(
        problem, new_heuristic(name), rng=random.Random(3), kernel="auto"
    ).run()
    assert built == (["batch"] if name in VECTOR else ["state"])
    plain = Engine(problem, new_heuristic(name), rng=random.Random(3)).run()
    assert built[1:] == ["state"]
    assert signature(auto.schedule) == signature(plain.schedule)


@pytest.mark.parametrize("name", VECTOR)
def test_wrapper_hiding_propose_vector_gets_scalar_kernel(built, problem, name):
    Engine(problem, HidesVector(new_heuristic(name)), kernel="auto").run()
    assert built == ["state"]


def test_resolution_is_per_decider():
    assert resolve_state_factory("auto", new_heuristic("local")) is BatchState
    assert resolve_state_factory("auto", new_heuristic("global")) is SimState
    assert resolve_state_factory("auto") is SimState
    # Explicit choices ignore the decider.
    assert resolve_state_factory("batch", new_heuristic("global")) is BatchState
    assert resolve_state_factory(None, new_heuristic("local")) is SimState
    assert resolve_state_factory("state", new_heuristic("local")) is SimState


def test_engine_default_stays_scalar(built, problem):
    Engine(problem, new_heuristic("round_robin")).run()
    assert built == ["state"]


def test_local_engine_follows_the_same_rule(built, problem):
    plain = LocalEngine(problem, LocalRarest(), kernel="auto").run()
    assert built == ["state"]
    vector = LocalEngine(problem, VectorLocal(), kernel="auto").run()
    assert built == ["state", "batch"]
    assert signature(plain.schedule) == signature(vector.schedule)


@pytest.mark.parametrize("name", ("round_robin", "global"))
def test_dynamic_engine_follows_the_same_rule(built, problem, name):
    conditions = periodic_outages(problem, 3, 1, seed=5)
    auto = DynamicEngine(
        conditions, new_heuristic(name), rng=random.Random(9), kernel="auto"
    ).run()
    assert built == (["batch"] if name in VECTOR else ["state"])
    plain = DynamicEngine(
        conditions, new_heuristic(name), rng=random.Random(9)
    ).run()
    assert signature(auto.schedule) == signature(plain.schedule)
