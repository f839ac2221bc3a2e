"""Lower-bound approximations for remaining bandwidth and timesteps.

Section 5.1 closes with two cheap lower bounds the paper uses to judge
heuristic quality on graphs too large for the exact solvers:

* **Remaining bandwidth** — "counting every token that is wanted but not
  known at each vertex": each such (vertex, token) pair costs at least one
  move, so the sum lower-bounds the bandwidth any schedule still needs.

* **Remaining timesteps** — ``M_i(v) = i + |T^{c_i(v)}| / indegree``,
  where ``T^{c_i(v)}`` is the set of tokens (still needed by ``v``) held
  only outside the radius-``i`` in-closure of ``v``, maximized over ``i``
  and over vertices.  A token held only at distance ``> i`` cannot arrive
  before timestep ``i + 1``, and from then on ``v`` receives at most its
  total incoming capacity per step, so completion takes at least
  ``i + ceil(outside_i / in_capacity)`` more steps.

  All vertices and radii are evaluated in one *radius closure* over
  token bitmasks: ``R_0[v]`` is ``v``'s possession mask and
  ``R_{i+1}[v] = R_i[v] | OR_{u -> v} R_i[u]``, so ``R_i[v]`` holds
  exactly the tokens possessed within ``i`` hops of ``v`` and
  ``outside_i(v) = popcount(need[v] & ~R_i[v])``.  The closure runs until
  no vertex still needs an outside token (or until a round changes
  nothing, at most ``diameter + 1`` rounds), so the whole bound costs
  ``O(diameter * |E|)`` big-int ORs.  Needed bits still outside the final
  closure mean no holder can reach that vertex: the instance is
  infeasible.  This is the time-expanded reachability of an exact solver
  collapsed to token masks.

  The paper divides by *indegree*; we divide by the total incoming
  *capacity* instead, because with capacities above one the indegree
  version can exceed the true optimum and stop being a lower bound.
  With unit capacities the two coincide.  This substitution is recorded
  in DESIGN.md.

Both functions accept an optional mid-run possession vector so the
simulator can report bound trajectories, and evaluate the initial state
when it is omitted.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

from repro.core.problem import Problem
from repro.core.tokenset import TokenSet

__all__ = [
    "remaining_bandwidth",
    "remaining_timesteps",
    "lookahead_timestep_bound",
    "diameter_knowledge_bound",
    "InfeasibleBoundError",
]


class InfeasibleBoundError(ValueError):
    """Raised when some wanted token has no holder anywhere — no schedule
    can succeed, so no finite bound exists."""


def _possession_or_initial(
    problem: Problem, possession: Optional[Sequence[TokenSet]]
) -> Sequence[TokenSet]:
    if possession is None:
        return problem.have
    if len(possession) != problem.num_vertices:
        raise ValueError(
            f"possession has {len(possession)} entries for "
            f"{problem.num_vertices} vertices"
        )
    return possession


def remaining_bandwidth(
    problem: Problem, possession: Optional[Sequence[TokenSet]] = None
) -> int:
    """Wanted-but-missing token count — a bandwidth lower bound.

    "Logically this represents the bandwidth that would be consumed if
    the schedule could be completed in a single timestep."
    """
    possession = _possession_or_initial(problem, possession)
    return sum(
        len(problem.want[v] - possession[v]) for v in range(problem.num_vertices)
    )


def remaining_timesteps(
    problem: Problem, possession: Optional[Sequence[TokenSet]] = None
) -> int:
    """The paper's radius-closure makespan lower bound, maximized over
    vertices and radii.

    One :meth:`Problem.reach_closures` pass seeded with the possession
    masks gives ``R_i[v]``, the tokens held within ``i`` hops of ``v``;
    ``outside_i(v)`` is the popcount of ``v``'s needed tokens not in
    ``R_i[v]``.  A vertex leaves the sweep once ``outside_i(v)`` is 0.

    Returns 0 when every want is already satisfied.  Raises
    :class:`InfeasibleBoundError` when some want can never be satisfied,
    naming the lowest such vertex and its lowest unreachable token.
    """
    possession = _possession_or_initial(problem, possession)
    held = [tokens.mask for tokens in possession]
    pending: Dict[int, Tuple[int, int]] = {}
    for v, wanted in enumerate(problem.want):
        needed = wanted.mask & ~held[v]
        if needed:
            # A vertex with no in-arcs never leaves ``pending`` and is
            # reported as infeasible below; the 1 only avoids dividing by 0.
            pending[v] = (needed, problem.in_capacity(v) or 1)
    best = 0
    reach = held
    rounds = problem.reach_closures(held)
    radius = 0
    while pending:
        for v, (needed, in_cap) in list(pending.items()):
            outside = (needed & ~reach[v]).bit_count()
            if outside == 0:
                del pending[v]
                continue
            bound = radius - (-outside // in_cap)
            if bound > best:
                best = bound
        if not pending:
            break
        following = next(rounds, None)
        if following is None:
            v = min(pending)
            unreachable = pending[v][0] & ~reach[v]
            token = (unreachable & -unreachable).bit_length() - 1
            raise InfeasibleBoundError(
                f"vertex {v} needs token {token}, which no vertex that can "
                f"reach it possesses"
            )
        reach = following
        radius += 1
    return best


def lookahead_timestep_bound(
    problem: Problem, possession: Optional[Sequence[TokenSet]] = None
) -> int:
    """The paper's one-timestep-lookahead special case.

    For each vertex, count exactly how many of its needed tokens are held
    by in-neighbors right now; everything receivable this step is bounded
    by both that count and the incoming capacity, and the remainder needs
    at least ``ceil(rest / in_capacity)`` further steps.
    """
    possession = _possession_or_initial(problem, possession)
    best = 0
    for v in range(problem.num_vertices):
        needed = problem.want[v] - possession[v]
        if not needed:
            continue
        in_cap = problem.in_capacity(v)
        if in_cap == 0:
            raise InfeasibleBoundError(
                f"vertex {v} still needs tokens but has no incoming arcs"
            )
        one_hop = TokenSet(0)
        for arc in problem.in_arcs(v):
            one_hop = one_hop | (possession[arc.src] & needed)
        receivable = min(len(one_hop), in_cap)
        rest = len(needed) - receivable
        bound = 1 + math.ceil(rest / in_cap) if rest > 0 else 1
        if bound > best:
            best = bound
    return best


def diameter_knowledge_bound(problem: Problem) -> int:
    """Upper bound on the *additive* cost of locality (Section 4.2).

    Flooding full state for ``diameter`` steps lets every vertex compute
    the same optimal global schedule deterministically, so an online
    algorithm exists whose makespan is at most ``diameter + optimum``.
    This returns that diameter term.
    """
    return problem.diameter()
