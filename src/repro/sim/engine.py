"""Synchronous round-based simulator for OCD heuristics.

The engine owns the ground-truth state of one run: the possession vector
``p_i`` from Section 3.1, held in an incrementally maintained
:class:`repro.sim.state.SimState`.  Each timestep it hands the current
state to a heuristic as a read-only :class:`StepContext`, receives a
proposed set of sends, *validates the proposal against the model
constraints* (capacity and possession — a buggy heuristic raises
:class:`HeuristicViolation` instead of silently cheating), applies it,
and checks for success.

The engine presents a global view of the state.  Heuristics differ in how
much of that view they are allowed to read — e.g. Round-Robin only reads
the sender's own tokens while Global reads everything — and the strict
local-knowledge (LOCD) runner in :mod:`repro.locd` enforces locality
mechanically by constructing per-vertex knowledge views instead.

Per-step cost is O(delta), not O(swarm): the success test is a counter
read, the stall test rechecks only arcs whose endpoints changed, and the
:class:`StepContext` is a zero-copy view over the kernel's live state
(the pre-kernel loop snapshotted possession into fresh tuples every
step).  Schedules are byte-identical to the frozen pre-kernel loop in
:mod:`repro.sim.reference`, which the equivalence suite enforces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from repro.core.metrics import ScheduleMetrics, evaluate_schedule
from repro.core.problem import Problem
from repro.core.schedule import Schedule, Timestep
from repro.core.tokenset import TokenSet
from repro.obs.metrics import MetricsRegistry, current_metrics
from repro.obs.tracer import Tracer, current_tracer
from repro.sim.bitplanes import plane_count
from repro.sim.state import SimState

__all__ = [
    "Proposal",
    "StepContext",
    "HeuristicProtocol",
    "HeuristicViolation",
    "StallError",
    "RunResult",
    "Engine",
    "run_heuristic",
    "emit_run_start",
    "emit_step_event",
    "resolve_state_factory",
]

Proposal = Mapping[Tuple[int, int], TokenSet]


def resolve_state_factory(
    kernel: Union[str, Callable[[Problem], SimState], None],
    decider: object = None,
) -> Callable[[Problem], SimState]:
    """Resolve an engine ``kernel=`` argument to a state factory.

    The one place every engine (:class:`Engine`, the LOCD
    :class:`repro.locd.LocalEngine`, the dynamic-conditions engine)
    resolves its kernel.  ``"auto"`` is decided per *decider* — the
    heuristic or LOCD algorithm the engine drives: the batch kernel when
    it has ``propose_vector`` (its proposals then skip the per-arc
    Python loops), the scalar kernel otherwise (without a vector path
    the batch kernel has nothing to vectorize).

    The default scalar kernel resolves without touching
    :mod:`repro.sim.batch` at all, so the classic path stays import-free;
    anything else defers to :func:`repro.sim.batch.resolve_kernel`.
    """
    if kernel is None or kernel == "state":
        return SimState
    if kernel == "auto" and not hasattr(decider, "propose_vector"):
        return SimState
    from repro.sim.batch import resolve_kernel

    return resolve_kernel(kernel)


class HeuristicViolation(RuntimeError):
    """A heuristic proposed a send that breaks the model constraints."""


class StallError(RuntimeError):
    """A heuristic stopped making progress while demand remains."""


class StepContext:
    """Read-only view handed to a heuristic at each timestep.

    When built by an engine, ``possession`` and ``holder_counts`` are the
    kernel's *live* lists (zero-copy) and ``state`` exposes the
    :class:`SimState` so heuristics can consume the gain journal;
    ``version`` records the state version the view was issued at.  The
    view is only valid until the engine applies the step's sends —
    heuristics must not cache ``possession`` entries across steps (use
    ``state.gains_since`` to observe change instead).

    Constructed directly with plain sequences (``state=None``) it is a
    self-contained snapshot, which the heuristic unit tests and the
    gossip-stale LOCD views rely on.
    """

    __slots__ = (
        "problem",
        "step",
        "possession",
        "holder_counts",
        "rng",
        "state",
        "version",
        "_outstanding",
    )

    def __init__(
        self,
        problem: Problem,
        step: int,
        possession: Sequence[TokenSet],
        holder_counts: Sequence[int],
        rng: random.Random,
        state: Optional[SimState] = None,
    ) -> None:
        self.problem = problem
        self.step = step
        self.possession = possession
        self.holder_counts = holder_counts
        self.rng = rng
        self.state = state
        self.version = state.version if state is not None else 0
        self._outstanding: Optional[int] = None

    def useful(self, src: int, dst: int) -> TokenSet:
        """Tokens ``src`` holds that ``dst`` lacks — the flooding notion
        of a send that "can increase knowledge"."""
        return self.possession[src] - self.possession[dst]

    def outstanding(self, v: int) -> TokenSet:
        """Tokens ``v`` wants but does not yet possess."""
        return self.problem.want[v] - self.possession[v]

    def total_outstanding(self) -> int:
        """Total wanted-but-missing token count across all vertices.

        O(1) when kernel-backed (the deficit counter); computed once and
        cached for snapshot contexts.
        """
        if self.state is not None:
            return self.state.total_deficit
        if self._outstanding is None:
            self._outstanding = sum(
                len(self.outstanding(v)) for v in range(self.problem.num_vertices)
            )
        return self._outstanding


class HeuristicProtocol(Protocol):
    """What the engine requires of a heuristic."""

    name: str

    def reset(self, problem: Problem, rng: random.Random) -> None:
        """Prepare per-run state before the first timestep."""

    def propose(self, ctx: StepContext) -> Proposal:
        """Return the sends for this timestep as ``{(src, dst): tokens}``."""


@dataclass
class RunResult:
    """Outcome of one simulated run."""

    problem: Problem
    heuristic_name: str
    schedule: Schedule
    success: bool
    #: Total gossip facts learned over the run (LOCD runs only; 0 for the
    #: global-view engine).  See Knowledge.size_facts.
    knowledge_cost: int = 0

    @property
    def makespan(self) -> int:
        return self.schedule.makespan

    @property
    def bandwidth(self) -> int:
        return self.schedule.bandwidth

    def metrics(self) -> ScheduleMetrics:
        return evaluate_schedule(self.problem, self.schedule)


def emit_run_start(
    tracer: Tracer,
    engine: str,
    problem: Problem,
    heuristic: str,
    state: SimState,
    max_steps: int,
) -> None:
    """Emit the ``run_start`` event every simulation loop shares.

    Only deterministic facts of the instance and configuration — never
    wall-clock or process identity — so traces from identical seeds are
    byte-identical (the determinism suite compares raw bytes).

    Carries the full instance (``Problem.to_dict``) so a trace is
    self-contained: the replay validator (:mod:`repro.obs.analyze`)
    re-checks schedule validity from the trace alone, without the
    original problem file or a re-run.
    """
    tracer.emit(
        "run_start",
        {
            "engine": engine,
            "heuristic": heuristic,
            "problem": problem.name,
            "n": problem.num_vertices,
            "tokens": problem.num_tokens,
            "planes": plane_count(problem.num_tokens),
            "arcs": len(problem.arcs),
            "max_steps": max_steps,
            "total_deficit": state.total_deficit,
            "instance": problem.to_dict(),
        },
    )


def emit_step_event(
    tracer: Tracer,
    problem: Problem,
    state: SimState,
    timestep: Timestep,
    step: int,
    version_before: int,
    extra: Optional[Mapping[str, int]] = None,
) -> None:
    """Emit one per-timestep ``step`` event from the kernel's live state.

    Carries the dynamics the end-of-run aggregates hide: tokens moved
    and actually gained, the remaining per-vertex deficit, the
    holder-count histogram (rarest-token starvation shows up here), arc
    utilization, and ``transfers`` — the full per-arc token movement
    (sorted ``[src, dst, [tokens...]]`` triples), which is what lets
    ``trace-diff`` localize a divergence down to the token and lets
    ``trace-verify`` replay the run.  Callers only reach this behind a
    hoisted ``tracer.enabled`` check, so the untraced hot path never
    builds any of these payloads.
    """
    moves = 0
    for tokens in timestep.sends.values():
        moves += len(tokens)
    gained = 0
    for _vertex, mask in state.gains_since(version_before):
        gained += mask.bit_count()
    hist: Dict[int, int] = {}
    for count in state.holder_counts:
        hist[count] = hist.get(count, 0) + 1
    num_arcs = len(problem.arcs)
    fields: Dict[str, object] = {
        "step": step,
        "sends": len(timestep.sends),
        "moves": moves,
        "gained": gained,
        "deficit": state.total_deficit,
        "deficit_by_vertex": list(state.deficit),
        "holder_hist": [[count, hist[count]] for count in sorted(hist)],
        "arc_util": round(len(timestep.sends) / num_arcs, 6) if num_arcs else 0.0,
        "transfers": [
            [src, dst, sorted(timestep.sends[(src, dst)])]
            for src, dst in sorted(timestep.sends)
        ],
    }
    if extra:
        fields.update(extra)
    tracer.emit("step", fields)


class Engine:
    """Drives one heuristic over one problem to completion.

    Parameters
    ----------
    problem:
        The instance to solve.
    heuristic:
        Any object satisfying :class:`HeuristicProtocol`.
    rng:
        Randomness source for the heuristic; pass a seeded
        ``random.Random`` for reproducible runs.
    max_steps:
        Hard cap on simulated timesteps.  Defaults to a generous multiple
        of the Theorem 1 move bound ``m(n-1)``.
    stall_limit:
        Consecutive timesteps with an *empty* proposal after which the run
        raises :class:`StallError`.  Independently of this counter, the
        engine raises immediately when no arc anywhere carries a useful
        token while demand remains — possession only ever grows, so that
        state can never change again.  No-gain steps with non-empty
        proposals (e.g. Round-Robin cycling past tokens the peer already
        holds) are not stalls and simply count toward ``max_steps``.
    tracer:
        Trace sink for per-timestep events (:mod:`repro.obs`).  ``None``
        resolves the ambient tracer (:func:`repro.obs.current_tracer`),
        which defaults to the disabled :data:`repro.obs.NULL_TRACER` —
        the hot path then pays one hoisted boolean check per run.
    metrics:
        Optional :class:`repro.obs.MetricsRegistry` receiving the phase
        timers (``heuristic_select``, ``kernel_apply``) and run counters
        behind ``--profile``.  ``None`` resolves the ambient registry
        (:func:`repro.obs.current_metrics`), which defaults to ``None``
        — the unprofiled path skips all timing and wall-clock never
        enters it.
    kernel:
        Which step kernel holds the run's state: ``"state"`` (the
        default :class:`SimState`), ``"batch"`` (the numpy bitplane
        :class:`repro.sim.batch.BatchState`; raises a clear error when
        numpy is unavailable), ``"auto"`` (batch exactly when the
        heuristic has ``propose_vector`` — Round-Robin, Random, Local,
        Sequential — else state; see :func:`resolve_state_factory`), or
        a ``Problem -> SimState`` callable.  Kernels are
        interchangeable: schedules and traces are byte-identical
        whichever one runs (the batch-equivalence suite enforces this).
        With the batch kernel, heuristics exposing ``propose_vector``
        skip the per-arc Python proposal/validation loops entirely.
        The default stays ``"state"``: on small runs (n = 40, an
        8-token file) the batch kernel's per-step array work costs more
        than it saves, so only the figure drivers
        (:func:`repro.experiments.runner.run_trial`) opt into
        ``"auto"``.
    """

    def __init__(
        self,
        problem: Problem,
        heuristic: HeuristicProtocol,
        rng: Optional[random.Random] = None,
        max_steps: Optional[int] = None,
        stall_limit: int = 8,
        success_predicate: Optional[
            Callable[[Sequence[TokenSet]], bool]
        ] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        kernel: Union[str, Callable[[Problem], SimState], None] = None,
    ) -> None:
        self.problem = problem
        self.heuristic = heuristic
        self.rng = rng if rng is not None else random.Random(0)
        if max_steps is None:
            max_steps = 4 * max(problem.move_bound(), 1) + 64
        self.max_steps = max_steps
        self.stall_limit = stall_limit
        self.tracer: Tracer = tracer if tracer is not None else current_tracer()
        self.metrics = metrics if metrics is not None else current_metrics()
        # The default predicate is the paper's: w(v) ⊆ p_t(v) everywhere.
        # Extensions (e.g. threshold coding, §6) substitute their own.
        self.success_predicate = success_predicate
        # Arc capacities keyed for one-lookup proposal validation.
        self._capacities: Dict[Tuple[int, int], int] = {
            (arc.src, arc.dst): arc.capacity for arc in problem.arcs
        }
        self._state_factory = resolve_state_factory(kernel, heuristic)

    def run(self) -> RunResult:
        problem = self.problem
        state = self._state_factory(problem)
        predicate = self.success_predicate
        # Hoisted once per run: the untraced/unprofiled loop below never
        # touches the tracer again and never consults a clock.
        tracer = self.tracer
        tracing = tracer.enabled
        metrics = self.metrics

        def satisfied() -> bool:
            if predicate is not None:
                return predicate(state.possession)
            return state.satisfied()

        self.heuristic.reset(problem, self.rng)
        steps: List[Timestep] = []
        stalled_for = 0
        if tracing:
            emit_run_start(
                tracer, "sim", problem, self.heuristic.name, state, self.max_steps
            )
        # Vector fast path: a batch kernel plus a heuristic that can
        # propose as arrays.  ``propose_vector`` returning None means the
        # configuration is unsupported (e.g. tokens exceed one bitplane);
        # the condition is static per run, so fall back permanently.
        vector_fn: Optional[Callable[[SimState], Any]] = (
            getattr(self.heuristic, "propose_vector", None)
            if getattr(state, "supports_vector", False)
            else None
        )
        # Any-typed alias: ``validate_vector`` only exists on the batch
        # kernel, and the fast path only runs when the probe above found
        # one.
        vector_state: Any = state

        success = satisfied()
        while not success and len(steps) < self.max_steps:
            vec = None
            if vector_fn is not None:
                if metrics is not None:
                    with metrics.timer("heuristic_select"):
                        vec = vector_fn(state)
                else:
                    vec = vector_fn(state)
                if vec is None:
                    vector_fn = None
            if vec is None:
                ctx = StepContext(
                    problem,
                    len(steps),
                    state.possession,
                    state.holder_counts,
                    self.rng,
                    state=state,
                )
                if metrics is not None:
                    with metrics.timer("heuristic_select"):
                        proposal = self.heuristic.propose(ctx)
                else:
                    proposal = self.heuristic.propose(ctx)
            version_before = state.version
            if metrics is not None:
                with metrics.timer("kernel_apply"):
                    if vec is not None:
                        timestep, arrivals = vector_state.validate_vector(
                            vec, self.heuristic.name, len(steps)
                        )
                    else:
                        timestep, arrivals = self._validated_timestep(
                            proposal, state.possession_masks, len(steps)
                        )
                    state.apply_arrivals(arrivals)
            else:
                if vec is not None:
                    timestep, arrivals = vector_state.validate_vector(
                        vec, self.heuristic.name, len(steps)
                    )
                else:
                    timestep, arrivals = self._validated_timestep(
                        proposal, state.possession_masks, len(steps)
                    )
                state.apply_arrivals(arrivals)
            progressed = state.version != version_before
            steps.append(timestep)
            if tracing:
                emit_step_event(
                    tracer, problem, state, timestep, len(steps) - 1, version_before
                )
            if metrics is not None:
                metrics.counter("steps").inc()
                metrics.gauge("deficit").set(state.total_deficit)
            success = satisfied()
            if success:
                break
            if progressed:
                stalled_for = 0
                continue
            if not state.any_useful_arc():
                if tracing:
                    tracer.emit(
                        "stall",
                        {
                            "step": len(steps) - 1,
                            "consecutive": stalled_for + 1,
                            "terminal": True,
                        },
                    )
                raise StallError(
                    f"no arc carries a useful token at step {len(steps)} while "
                    f"demand remains; the instance is unsatisfiable from this state"
                )
            if timestep:
                stalled_for = 0
            else:
                stalled_for += 1
                if tracing:
                    tracer.emit(
                        "stall",
                        {"step": len(steps) - 1, "consecutive": stalled_for},
                    )
                if stalled_for >= self.stall_limit:
                    raise StallError(
                        f"heuristic {self.heuristic.name!r} proposed nothing for "
                        f"{stalled_for} consecutive timesteps at step {len(steps)} "
                        f"with demand remaining"
                    )
        result = RunResult(
            problem=problem,
            heuristic_name=self.heuristic.name,
            schedule=Schedule(steps),
            success=success,
        )
        if tracing:
            tracer.emit(
                "run_end",
                {
                    "success": result.success,
                    "makespan": result.makespan,
                    "bandwidth": result.bandwidth,
                },
            )
        return result

    # ------------------------------------------------------------------
    def _validated_timestep(
        self,
        proposal: Proposal,
        possession_masks: Sequence[int],
        step: int,
    ) -> Tuple[Timestep, Dict[int, int]]:
        """Validate a proposal; return the timestep and the per-vertex
        arrival masks aggregated during the same walk over the sends."""
        capacities = self._capacities
        sends: Dict[Tuple[int, int], TokenSet] = {}
        arrivals: Dict[int, int] = {}
        for (src, dst), tokens in proposal.items():
            mask = tokens.mask
            if not mask:
                continue
            cap = capacities.get((src, dst))
            if cap is None:
                raise HeuristicViolation(
                    f"step {step}: heuristic {self.heuristic.name!r} sent on "
                    f"missing arc ({src}, {dst})"
                )
            if mask.bit_count() > cap:
                raise HeuristicViolation(
                    f"step {step}: heuristic {self.heuristic.name!r} sent "
                    f"{len(tokens)} tokens on arc ({src}, {dst}) of capacity "
                    f"{cap}"
                )
            if mask & ~possession_masks[src]:
                missing = TokenSet(mask & ~possession_masks[src])
                raise HeuristicViolation(
                    f"step {step}: heuristic {self.heuristic.name!r} sent tokens "
                    f"{sorted(missing)} that vertex {src} does not possess"
                )
            sends[(src, dst)] = tokens
            prev = arrivals.get(dst)
            arrivals[dst] = mask if prev is None else prev | mask
        return Timestep.from_validated(sends), arrivals


def run_heuristic(
    problem: Problem,
    heuristic: HeuristicProtocol,
    seed: int = 0,
    max_steps: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    kernel: Union[str, Callable[[Problem], SimState], None] = None,
) -> RunResult:
    """One-call convenience wrapper around :class:`Engine`."""
    return Engine(
        problem,
        heuristic,
        rng=random.Random(seed),
        max_steps=max_steps,
        tracer=tracer,
        metrics=metrics,
        kernel=kernel,
    ).run()
