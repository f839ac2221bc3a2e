"""Locality-enforcing simulation loop for LOCD algorithms.

Unlike :class:`repro.sim.Engine` — which exposes the global state and
trusts heuristics to read only what they should — this runner hands each
vertex *only its own* :class:`Knowledge` when asking for its sends, so a
LOCD algorithm is mechanically incapable of cheating.  The loop per
timestep ``i``:

1. every vertex ``v`` computes its sends from ``k_i(v)`` (and optionally
   randomness, per Section 4.1);
2. sends are validated against the true state and applied;
3. ``k_{i+1}(v)`` merges the step-``i`` knowledge of ``v``'s gossip
   neighbors (both arc directions) into ``k_i(v)``, then records what
   ``v`` itself just received.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Protocol, Tuple, Union

from repro.core.problem import Problem
from repro.core.schedule import Schedule, Timestep
from repro.core.tokenset import TokenSet
from repro.locd.knowledge import Knowledge, initial_knowledge
from repro.obs.metrics import MetricsRegistry, current_metrics
from repro.obs.tracer import Tracer, current_tracer
from repro.sim.engine import (
    HeuristicViolation,
    RunResult,
    emit_run_start,
    emit_step_event,
    resolve_state_factory,
)
from repro.sim.state import SimState

__all__ = ["LocalAlgorithm", "LocalEngine", "run_local"]


class LocalAlgorithm(Protocol):
    """A per-vertex decision rule using only local knowledge."""

    name: str

    def reset(self, num_vertices: int, rng: random.Random) -> None:
        """Prepare per-run state.  Only the vertex count is global — it
        is not secret (a vertex could learn it, and algorithms only use
        it to size internal tables)."""

    def decide(
        self, step: int, knowledge: Knowledge, rng: random.Random
    ) -> Dict[Tuple[int, int], TokenSet]:
        """Sends out of ``knowledge.owner`` for this timestep, keyed by
        arc.  Every arc must leave the owner."""


class LocalEngine:
    """Synchronous LOCD simulation with per-vertex knowledge.

    ``tracer``/``metrics`` mirror :class:`repro.sim.Engine`: the tracer
    defaults to the ambient one (disabled unless activated), and the
    metrics registry — when given — receives the ``heuristic_select`` /
    ``kernel_apply`` / ``knowledge_flood`` phase timers.  Step events
    additionally carry ``facts_learned``, the gossip cost of the step.
    """

    def __init__(
        self,
        problem: Problem,
        algorithm: LocalAlgorithm,
        rng: Optional[random.Random] = None,
        max_steps: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        kernel: Union[str, Callable[[Problem], SimState], None] = None,
    ) -> None:
        self.problem = problem
        self.algorithm = algorithm
        self.rng = rng if rng is not None else random.Random(0)
        if max_steps is None:
            max_steps = 4 * max(problem.move_bound(), 1) + 4 * problem.num_vertices + 64
        self.max_steps = max_steps
        self.tracer: Tracer = tracer if tracer is not None else current_tracer()
        self.metrics = metrics if metrics is not None else current_metrics()
        # LOCD algorithms only ever see per-vertex Knowledge, so the
        # kernel choice cannot change decisions; the batch kernel's
        # matrix stays unsynced (lazy) and costs nothing here.
        self._state_factory = resolve_state_factory(kernel, algorithm)

    def _decide_step(
        self,
        step_index: int,
        knowledge: List[Knowledge],
        possession: List[TokenSet],
    ) -> Dict[Tuple[int, int], TokenSet]:
        """Collect and validate every vertex's sends for one timestep."""
        problem = self.problem
        sends: Dict[Tuple[int, int], TokenSet] = {}
        for v in range(problem.num_vertices):
            proposal = self.algorithm.decide(step_index, knowledge[v], self.rng)
            for (src, dst), tokens in proposal.items():
                if not tokens:
                    continue
                if src != v:
                    raise HeuristicViolation(
                        f"step {step_index}: vertex {v} proposed a send "
                        f"out of vertex {src}"
                    )
                if not problem.has_arc(src, dst):
                    raise HeuristicViolation(
                        f"step {step_index}: no arc ({src}, {dst})"
                    )
                if len(tokens) > problem.capacity(src, dst):
                    raise HeuristicViolation(
                        f"step {step_index}: arc ({src}, {dst}) over capacity"
                    )
                if not tokens <= possession[src]:
                    raise HeuristicViolation(
                        f"step {step_index}: vertex {src} sent unpossessed "
                        f"tokens {sorted(tokens - possession[src])}"
                    )
                sends[(src, dst)] = tokens
        return sends

    def _flood_knowledge(
        self,
        knowledge: List[Knowledge],
        arrivals: Dict[int, int],
    ) -> int:
        """Merge neighbor knowledge and record arrivals; return new facts."""
        problem = self.problem
        learned = 0
        snapshots = [k.snapshot() for k in knowledge]
        for v in range(problem.num_vertices):
            before = knowledge[v].size_facts()
            for u in problem.neighbors(v):
                knowledge[v].merge_from(snapshots[u])
            learned += knowledge[v].size_facts() - before
            if v in arrivals:
                knowledge[v].record_own_possession(TokenSet(arrivals[v]))
        return learned

    def run(self) -> RunResult:
        problem = self.problem
        state = self._state_factory(problem)
        possession = state.possession  # live list; read-only here
        tracer = self.tracer
        tracing = tracer.enabled
        metrics = self.metrics
        knowledge: List[Knowledge] = [
            initial_knowledge(problem, v) for v in range(problem.num_vertices)
        ]
        self.algorithm.reset(problem.num_vertices, self.rng)
        steps: List[Timestep] = []
        knowledge_cost = 0
        if tracing:
            emit_run_start(
                tracer, "locd", problem, self.algorithm.name, state, self.max_steps
            )

        success = state.satisfied()
        while not success and len(steps) < self.max_steps:
            step_index = len(steps)
            # 1. Decisions from local knowledge only.
            if metrics is not None:
                with metrics.timer("heuristic_select"):
                    sends = self._decide_step(step_index, knowledge, possession)
            else:
                sends = self._decide_step(step_index, knowledge, possession)
            timestep = Timestep(sends)
            steps.append(timestep)

            # 2. Apply token movement through the shared kernel.  The
            # raw arrivals (including already-held tokens) feed step 3:
            # a vertex records everything it was sent, not just gains.
            version_before = state.version
            if metrics is not None:
                with metrics.timer("kernel_apply"):
                    arrivals = state.apply_timestep(timestep)
            else:
                arrivals = state.apply_timestep(timestep)

            # 3. Gossip: merge the *previous* knowledge of both-direction
            # neighbors, then record own arrivals.
            if metrics is not None:
                with metrics.timer("knowledge_flood"):
                    learned = self._flood_knowledge(knowledge, arrivals)
            else:
                learned = self._flood_knowledge(knowledge, arrivals)
            knowledge_cost += learned
            if tracing:
                emit_step_event(
                    tracer,
                    problem,
                    state,
                    timestep,
                    step_index,
                    version_before,
                    extra={"facts_learned": learned},
                )
            if metrics is not None:
                metrics.counter("steps").inc()
                metrics.counter("facts_learned").inc(learned)

            success = state.satisfied()
        result = RunResult(
            problem=problem,
            heuristic_name=self.algorithm.name,
            schedule=Schedule(steps),
            success=success,
            knowledge_cost=knowledge_cost,
        )
        if tracing:
            tracer.emit(
                "run_end",
                {
                    "success": result.success,
                    "makespan": result.makespan,
                    "bandwidth": result.bandwidth,
                    "knowledge_cost": knowledge_cost,
                },
            )
        return result


def run_local(
    problem: Problem,
    algorithm: LocalAlgorithm,
    seed: int = 0,
    max_steps: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    kernel: Union[str, Callable[[Problem], SimState], None] = None,
) -> RunResult:
    """One-call convenience wrapper around :class:`LocalEngine`."""
    return LocalEngine(
        problem,
        algorithm,
        rng=random.Random(seed),
        max_steps=max_steps,
        tracer=tracer,
        metrics=metrics,
        kernel=kernel,
    ).run()
