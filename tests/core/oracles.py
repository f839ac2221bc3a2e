"""Test-only reference implementations of the §5.1 post-passes.

These are the straightforward per-vertex / per-TokenSet forms of the
radius-closure timestep bound, the two pruning passes and the graph
diameter.  The shipped code computes the same results with bit-parallel
closures and raw ``int`` masks; ``test_oracle_equivalence.py`` holds the
two to exact equality (values, exception messages, dict key order).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.bounds import InfeasibleBoundError
from repro.core.problem import Problem
from repro.core.pruning import PruneStats
from repro.core.schedule import Schedule, Timestep
from repro.core.tokenset import EMPTY_TOKENSET, TokenSet

Sends = Dict[Tuple[int, int], TokenSet]


def reverse_distances_to(problem: Problem, dst: int) -> List[int]:
    """Hop distances from every vertex *to* ``dst`` (−1 if it cannot reach)."""
    dist = [-1] * problem.num_vertices
    dist[dst] = 0
    queue = deque([dst])
    while queue:
        v = queue.popleft()
        for arc in problem.in_arcs(v):
            if dist[arc.src] == -1:
                dist[arc.src] = dist[v] + 1
                queue.append(arc.src)
    return dist


def vertex_timestep_bound(
    problem: Problem, v: int, needed: TokenSet, possession: Sequence[TokenSet]
) -> int:
    """``max_i M_i(v)`` for a single vertex ``v`` with ``needed`` tokens.

    Every needed token is held at distance >= 1 once the reachability
    check passes, so ``v`` has in-arcs and ``in_cap`` is positive.
    """
    dist_to_v = reverse_distances_to(problem, v)
    token_dist: List[int] = []
    for token in needed:
        best = math.inf
        for u in range(problem.num_vertices):
            if token in possession[u] and dist_to_v[u] != -1 and dist_to_v[u] < best:
                best = dist_to_v[u]
        if best is math.inf:
            raise InfeasibleBoundError(
                f"vertex {v} needs token {token}, which no vertex that can "
                f"reach it possesses"
            )
        token_dist.append(int(best))
    if not token_dist:
        return 0
    in_cap = problem.in_capacity(v)
    token_dist.sort()
    max_dist = token_dist[-1]
    best_bound = 0
    total = len(token_dist)
    consumed = 0  # tokens with distance <= i
    for i in range(max_dist):
        while consumed < total and token_dist[consumed] <= i:
            consumed += 1
        outside = total - consumed
        bound = i + math.ceil(outside / in_cap)
        if bound > best_bound:
            best_bound = bound
    if max_dist > best_bound:
        best_bound = max_dist
    return best_bound


def remaining_timesteps(
    problem: Problem, possession: Optional[Sequence[TokenSet]] = None
) -> int:
    """The radius-closure bound, one reverse BFS and token scan per vertex."""
    if possession is None:
        possession = problem.have
    best = 0
    for v in range(problem.num_vertices):
        needed = problem.want[v] - possession[v]
        if not needed:
            continue
        bound = vertex_timestep_bound(problem, v, needed, possession)
        if bound > best:
            best = bound
    return best


def dedup_pass(problem: Problem, schedule: Schedule) -> List[Sends]:
    """Keep only the first delivery of each token to each vertex."""
    delivered: List[TokenSet] = list(problem.have)
    new_steps: List[Sends] = []
    for step in schedule.steps:
        kept: Sends = {}
        arriving_this_step: List[TokenSet] = [EMPTY_TOKENSET] * problem.num_vertices
        for (src, dst), tokens in sorted(step.sends.items()):
            useful = tokens - delivered[dst] - arriving_this_step[dst]
            if useful:
                kept[(src, dst)] = useful
                arriving_this_step[dst] = arriving_this_step[dst] | useful
        for v in range(problem.num_vertices):
            if arriving_this_step[v]:
                delivered[v] = delivered[v] | arriving_this_step[v]
        new_steps.append(kept)
    return new_steps


def backward_pass(problem: Problem, steps: List[Sends]) -> List[Sends]:
    """Remove deliveries whose token the destination never uses."""
    future_sends: List[TokenSet] = [EMPTY_TOKENSET] * problem.num_vertices
    pruned: List[Sends] = []
    for step in reversed(steps):
        kept: Sends = {}
        for (src, dst), tokens in step.items():
            used = tokens & (problem.want[dst] | future_sends[dst])
            if used:
                kept[(src, dst)] = used
        for (src, _dst), tokens in kept.items():
            future_sends[src] = future_sends[src] | tokens
        pruned.append(kept)
    pruned.reverse()
    return pruned


def prune_schedule(problem: Problem, schedule: Schedule) -> Tuple[Schedule, PruneStats]:
    """Both pruning passes on TokenSets, stats re-counted from schedules."""
    deduped = dedup_pass(problem, schedule)
    after_dedup_bw = sum(len(tokens) for step in deduped for tokens in step.values())
    swept = backward_pass(problem, deduped)
    pruned = Schedule([Timestep(step) for step in swept])
    stats = PruneStats(
        original_bandwidth=schedule.bandwidth,
        after_dedup=after_dedup_bw,
        after_backward=pruned.bandwidth,
    )
    return pruned, stats


def cleanup_schedule(problem: Problem, schedule: Schedule) -> Schedule:
    """Theorem 1 cleanup: the dedup pass with empty timesteps dropped."""
    return Schedule([Timestep(step) for step in dedup_pass(problem, schedule) if step])


def diameter(problem: Problem) -> int:
    """Longest finite BFS distance over all ordered vertex pairs."""
    return max(
        max(problem.distances_from(v)) for v in range(problem.num_vertices)
    )
