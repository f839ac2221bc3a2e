"""The Global heuristic — greedy coordinated diversity flooding (§5.1).

    "In addition to the aggregate vector, vertices have the ability to
    coordinate across each other at each timestep to ensure that they
    maximize diversity.  This also alleviates the need for vertices to
    request tokens from other vertices since there is global
    coordination.  Our implementation of this technique applies a greedy
    selection algorithm over the set of tokens and edges, and is thus not
    guaranteed to maximize diversity."

One coordinator plans the whole timestep.  Receivers are visited in
random rotation; each visit plans one arrival — the receiver's rarest
still-missing token that a capacity-bearing in-neighbor holds — and the
tentative holder count of that token is bumped immediately, so later
picks see the diversity created by earlier ones.  The rotation continues
until no receiver can add an arrival.  Coordination guarantees a vertex
never receives the same token twice in one turn.

The inner loops work on raw bitmasks with per-run precomputed arc
indices; the ``min``/``max`` selections are explicit loops that consume
the RNG exactly as the old ``key=...`` scans did (one draw per candidate
in the original candidate order, first element winning ties), keeping
schedules byte-identical to the pre-rewrite implementation.

Each receiver's supply is cached across the passes of one timestep: its
candidate mask and the in-arc slots that still carry budget.  This is
sound because an arc's budget is spent only when its head is visited —
only ``v``'s own visit spends budget on ``v``'s in-arcs, and possession
does not change while the step is planned.  So after each visit the
cache only loses the planned token, or, when the chosen arc has just
run out, is rebuilt from the slots still carrying budget.  The old code
re-ORed every budgeted in-neighbor on every visit.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.tokenset import TokenSet
from repro.heuristics.base import Heuristic
from repro.sim import Proposal, StepContext

__all__ = ["GlobalGreedyHeuristic"]


class GlobalGreedyHeuristic(Heuristic):
    """Globally coordinated greedy rarest-first flooding."""

    name = "global"

    def on_reset(self) -> None:
        problem = self.problem
        arcs = problem.arcs
        self._arc_keys: List[Tuple[int, int]] = [(a.src, a.dst) for a in arcs]
        self._arc_caps: List[int] = [a.capacity for a in arcs]
        index_of = {(a.src, a.dst): i for i, a in enumerate(arcs)}
        # Per-vertex in-arc views: global arc indices and source vertices,
        # in problem.in_arcs order (the order the old scans iterated).
        self._in_idx: List[List[int]] = []
        self._in_srcs: List[List[int]] = []
        for v in range(problem.num_vertices):
            in_arcs = problem.in_arcs(v)
            self._in_idx.append([index_of[(a.src, a.dst)] for a in in_arcs])
            self._in_srcs.append([a.src for a in in_arcs])
        self._active_template: List[int] = [
            v for v in range(problem.num_vertices) if problem.in_arcs(v)
        ]

    def propose(self, ctx: StepContext) -> Proposal:
        problem = ctx.problem
        rng = ctx.rng
        rng_random = rng.random
        state = ctx.state
        masks = (
            state.possession_masks
            if state is not None
            else [p.mask for p in ctx.possession]
        )
        tentative_counts = list(ctx.holder_counts)
        budgets = self._arc_caps.copy()
        planned = [0] * problem.num_vertices
        in_idx = self._in_idx
        in_srcs = self._in_srcs
        arc_keys = self._arc_keys
        sends: Dict[Tuple[int, int], int] = {}

        # Per-receiver supply caches for the whole call (see the module
        # docstring).  Every capacity is >= 1, so at the start every
        # in-arc is usable.
        usable_of: List[List[int]] = [[] for _ in range(problem.num_vertices)]
        cands = [0] * problem.num_vertices
        active = self._active_template.copy()
        for v in active:
            supply = 0
            for s in in_srcs[v]:
                supply |= masks[s]
            usable_of[v] = list(range(len(in_srcs[v])))
            cands[v] = supply & ~masks[v]
        rng.shuffle(active)
        while active:
            still_active = []
            for v in active:
                # Tokens some budgeted in-neighbor holds that v lacks and
                # is not already receiving this turn.
                candidates = cands[v]
                if not candidates:
                    continue
                # Explicit min over (tentative_count, rng.random()) across
                # candidate tokens in ascending order; first wins ties,
                # one RNG draw per candidate, like the old min(key=...).
                best_t = -1
                best_c = 0
                best_r = 0.0
                mm = candidates
                while mm:
                    low = mm & -mm
                    mm ^= low
                    t = low.bit_length() - 1
                    c = tentative_counts[t]
                    r = rng_random()
                    if best_t < 0 or c < best_c or (c == best_c and r < best_r):
                        best_t = t
                        best_c = c
                        best_r = r
                bit = 1 << best_t
                # Explicit max over (budget, rng.random()) across usable
                # suppliers that hold the token, in in-arc order.
                idxs = in_idx[v]
                srcs = in_srcs[v]
                usable = usable_of[v]
                best_j = -1
                best_b = -1
                best_r2 = 0.0
                for j in usable:
                    if masks[srcs[j]] & bit:
                        b = budgets[idxs[j]]
                        r = rng_random()
                        if b > best_b or (b == best_b and r > best_r2):
                            best_j = j
                            best_b = b
                            best_r2 = r
                arc_index = idxs[best_j]
                budgets[arc_index] = best_b - 1
                planned[v] |= bit
                tentative_counts[best_t] += 1
                key = arc_keys[arc_index]
                sends[key] = sends.get(key, 0) | bit
                still_active.append(v)
                if best_b > 1:
                    cands[v] = candidates ^ bit
                else:
                    # The chosen arc ran out: drop its slot and rebuild
                    # the supply from the in-arcs still carrying budget.
                    usable.remove(best_j)
                    supply = 0
                    for j in usable:
                        supply |= masks[srcs[j]]
                    cands[v] = supply & ~masks[v] & ~planned[v]
            active = still_active
        return {key: TokenSet(mask) for key, mask in sends.items()}
