"""Schedule pruning — the bandwidth-reducing post-pass of Section 5.1.

    "Pruning first removes all moves that deliver a token repeatedly to
    the same vertex, and then works back from the last move to the first,
    removing moves that deliver tokens which were never used by the
    destination vertex."

Pass 1 (*dedup*) keeps only the earliest delivery of each token to each
vertex and drops deliveries of tokens the vertex started with.  This never
changes any possession set, so validity and success are preserved exactly.

Pass 2 (*backward sweep*) walks timesteps from last to first and removes a
delivery of token ``t`` to vertex ``v`` when ``v`` neither wants ``t`` nor
forwards ``t`` in any *retained* later timestep.  Because removability at
timestep ``i`` depends only on retained moves at timesteps ``> i`` (a
vertex can only send what it possessed at the start of the step), a single
backward pass removes entire useless relay chains.

Both passes run on raw ``int`` token bitmasks (``& ~``, ``|`` and
``int.bit_count()``) and count their bandwidth as they go; masks are
wrapped in :class:`~repro.core.tokenset.TokenSet` only when the output
timesteps are built.

Pruning never changes the makespan: timesteps are kept in place, possibly
empty.  Use :func:`drop_empty_tail` afterwards if trailing empty steps
should be trimmed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.problem import Problem
from repro.core.schedule import Schedule, Timestep

__all__ = ["PruneStats", "MaskStep", "dedup_masks", "prune_schedule", "drop_empty_tail"]

#: One timestep's sends as ``(src, dst) -> token bitmask``.
MaskStep = Dict[Tuple[int, int], int]


@dataclass(frozen=True)
class PruneStats:
    """How much each pruning pass removed."""

    original_bandwidth: int
    after_dedup: int
    after_backward: int

    @property
    def removed_by_dedup(self) -> int:
        return self.original_bandwidth - self.after_dedup

    @property
    def removed_by_backward(self) -> int:
        return self.after_dedup - self.after_backward

    @property
    def total_removed(self) -> int:
        return self.original_bandwidth - self.after_backward


def dedup_masks(problem: Problem, schedule: Schedule) -> Tuple[List[MaskStep], int, int]:
    """Pass 1: keep only the first delivery of each token to each vertex.

    Within one timestep, parallel deliveries of the same token to the same
    vertex over different arcs are reduced to one (lowest source id wins,
    for determinism).  Returns the kept sends of every timestep (empty
    steps included, arcs in sorted order) together with the schedule's
    bandwidth and the kept bandwidth.
    """
    delivered = [tokens.mask for tokens in problem.have]
    steps: List[MaskStep] = []
    sent = kept_bw = 0
    for step in schedule.steps:
        kept: MaskStep = {}
        for arc, mask in sorted(step.iter_sends_masks()):
            sent += mask.bit_count()
            dst = arc[1]
            # ``delivered`` is read only to dedup deliveries to ``dst``,
            # so folding this step's arrivals in at once is exact.
            useful = mask & ~delivered[dst]
            if useful:
                kept[arc] = useful
                delivered[dst] |= useful
                kept_bw += useful.bit_count()
        steps.append(kept)
    return steps, sent, kept_bw


def _backward_masks(problem: Problem, steps: List[MaskStep]) -> Tuple[List[MaskStep], int]:
    """Pass 2: remove deliveries whose token the destination never uses.

    ``future_sends[v]`` accumulates the tokens vertex ``v`` sends in
    retained timesteps strictly after the one being examined.  Returns
    the retained sends and their bandwidth.
    """
    want = [tokens.mask for tokens in problem.want]
    future_sends = [0] * problem.num_vertices
    pruned: List[MaskStep] = []
    kept_bw = 0
    for step in reversed(steps):
        kept: MaskStep = {}
        for arc, mask in step.items():
            dst = arc[1]
            used = mask & (want[dst] | future_sends[dst])
            if used:
                kept[arc] = used
                kept_bw += used.bit_count()
        for (src, _dst), mask in kept.items():
            future_sends[src] |= mask
        pruned.append(kept)
    pruned.reverse()
    return pruned, kept_bw


def prune_schedule(problem: Problem, schedule: Schedule) -> Tuple[Schedule, PruneStats]:
    """Apply both pruning passes; return the pruned schedule and stats.

    The input schedule must be valid for ``problem``; the output is valid,
    has the same makespan, never more bandwidth, and is successful iff the
    input was.
    """
    deduped, original_bw, after_dedup_bw = dedup_masks(problem, schedule)
    swept, after_backward_bw = _backward_masks(problem, deduped)
    pruned = Schedule([Timestep.from_masks(step) for step in swept])
    stats = PruneStats(
        original_bandwidth=original_bw,
        after_dedup=after_dedup_bw,
        after_backward=after_backward_bw,
    )
    return pruned, stats


def drop_empty_tail(schedule: Schedule) -> Schedule:
    """Trim trailing timesteps that carry no moves.

    Pruning keeps empty steps in place so the makespan is comparable with
    the unpruned run; call this when the shortest equivalent schedule is
    wanted instead.
    """
    steps = list(schedule.steps)
    while steps and not steps[-1]:
        steps.pop()
    return Schedule(steps)
