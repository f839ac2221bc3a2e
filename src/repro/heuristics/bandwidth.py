"""The Bandwidth heuristic (Section 5.1).

    "This bandwidth heuristic is designed on the principle that each
    vertex shall obtain from its peers in its next turn only tokens that
    it will eventually use.  We then determine whether a vertex will use
    the token by i) if it needs the token, or ii) if it is the closest
    one-hop-knowledge vertex to a node that needs it.  A one-hop-knowledge
    vertex is one which for a given token *could* obtain the token in a
    single turn given the opportunity."

Unlike the flooding heuristics, nothing moves toward vertices that will
never use it, so bandwidth tracks the actual demand.  The price is speed:
tokens advance along a single relay frontier instead of flooding down
every link, which is why the paper finds it slightly slower.

This is an *online* heuristic "albeit with global knowledge": the pull
decisions need possession state and graph distances for the whole graph.

Mechanics per timestep, per token ``t`` still needed somewhere:

1. Every needer with an in-neighbor already holding ``t`` pulls it
   directly (case i).
2. For needers that cannot get ``t`` this turn, the one-hop-knowledge set
   ``U(t)`` (vertices lacking ``t`` whose in-neighborhood holds it) is
   computed, and a multi-source BFS from ``U(t)`` labels every vertex with
   its closest one-hop vertex; the label of each far needer becomes a
   relay and pulls ``t`` (case ii).
3. Each pulling vertex assigns its pulls, rarest token first, to
   in-neighbors that hold them, subject to per-arc capacity budgets.
   Requests that do not fit are retried on later turns.

Wanter lists, per-vertex supplier arrays and integer out-neighbor lists
are precomputed at reset (the dynamic-conditions engine calls reset again
whenever the turn's graph changes, so the lists follow it).  The per-step
scans work on raw bitmasks, and the supplier ``max`` is an explicit loop
consuming the RNG exactly as the old ``key=...`` scan did, keeping
schedules byte-identical to the pre-rewrite implementation.

The relay search of step 2 stops as soon as every far needer has a
label.  That is exact because a breadth-first search fixes a vertex's
label when it discovers the vertex; later rounds only label other
vertices.  So the relay set is the one a full search would give.  A far
needer that no one-hop vertex reaches (a directed or disconnected graph)
keeps the search running to exhaustion, as before.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set, Tuple

from repro.core.tokenset import TokenSet
from repro.heuristics.base import Heuristic
from repro.sim import Proposal, StepContext

__all__ = ["BandwidthHeuristic"]


class BandwidthHeuristic(Heuristic):
    """Demand-driven cautious pulling; only eventually-used tokens move."""

    name = "bandwidth"

    def on_reset(self) -> None:
        problem = self.problem
        # Who wants each token, in ascending vertex order (the order the
        # old per-token range scan produced needers in).
        self._wanters: List[List[int]] = [[] for _ in range(problem.num_tokens)]
        for v in range(problem.num_vertices):
            for t in problem.want[v]:
                self._wanters[t].append(v)
        self._sup_srcs: List[List[int]] = []
        self._sup_keys: List[List[Tuple[int, int]]] = []
        self._sup_caps: List[List[int]] = []
        for v in range(problem.num_vertices):
            in_arcs = problem.in_arcs(v)
            self._sup_srcs.append([arc.src for arc in in_arcs])
            self._sup_keys.append([(arc.src, arc.dst) for arc in in_arcs])
            self._sup_caps.append([arc.capacity for arc in in_arcs])
        self._out_nbrs: List[List[int]] = [
            [arc.dst for arc in problem.out_arcs(v)]
            for v in range(problem.num_vertices)
        ]

    def _closest_one_hop_labels(
        self, one_hop: List[int], targets: List[int]
    ) -> List[int]:
        """Multi-source BFS labels: for every vertex the BFS reached, the
        id of the nearest one-hop-knowledge vertex (−1 otherwise).

        Sources are seeded in increasing id order, so ties break toward
        the smallest vertex id deterministically.  A label is final the
        moment its vertex is discovered, so the search stops as soon as
        every vertex in ``targets`` (disjoint from ``one_hop``) has one;
        only the targets' labels are meaningful after an early stop.
        """
        out_nbrs = self._out_nbrs
        label = [-1] * len(out_nbrs)
        pending = [False] * len(out_nbrs)
        for x in targets:
            pending[x] = True
        remaining = len(targets)
        for u in one_hop:
            label[u] = u
        queue: deque[int] = deque(one_hop)
        while queue:
            v = queue.popleft()
            source = label[v]
            for w in out_nbrs[v]:
                if label[w] == -1:
                    label[w] = source
                    if pending[w]:
                        remaining -= 1
                        if not remaining:
                            return label
                    queue.append(w)
        return label

    def propose(self, ctx: StepContext) -> Proposal:
        problem = ctx.problem
        num_vertices = problem.num_vertices
        state = ctx.state
        masks = (
            state.possession_masks
            if state is not None
            else [p.mask for p in ctx.possession]
        )
        pulls: Dict[int, List[int]] = {}  # vertex -> tokens it pulls this turn

        # Which tokens each vertex could obtain in one turn: union of
        # in-neighbor possession; ``gain`` keeps the ones it lacks (the
        # tokens for which it is one-hop-knowledge).
        sup_srcs = self._sup_srcs
        one_hop_supply: List[int] = []
        gain: List[int] = []
        for v in range(num_vertices):
            supply = 0
            for s in sup_srcs[v]:
                supply |= masks[s]
            one_hop_supply.append(supply)
            gain.append(supply & ~masks[v])

        for token in range(problem.num_tokens):
            bit = 1 << token
            needers = [v for v in self._wanters[token] if not masks[v] & bit]
            if not needers:
                continue
            far_needers = []
            for v in needers:
                if one_hop_supply[v] & bit:
                    # case (i): the needer itself pulls
                    pulls.setdefault(v, []).append(token)
                else:
                    far_needers.append(v)
            if not far_needers:
                continue
            one_hop = [u for u in range(num_vertices) if gain[u] & bit]
            if not one_hop:
                continue  # token cannot advance this turn
            label = self._closest_one_hop_labels(one_hop, far_needers)
            relays: Set[int] = set()
            for x in far_needers:
                if label[x] != -1:
                    relays.add(label[x])
            for u in sorted(relays):
                # case (ii): closest one-hop relay pulls
                pulls.setdefault(u, []).append(token)

        # Assign pulls to supplying in-arcs, rarest token first.
        rng = ctx.rng
        rng_random = rng.random
        holder_counts = ctx.holder_counts
        sends: Dict[Tuple[int, int], int] = {}
        holder_key = holder_counts.__getitem__
        for v, tokens in pulls.items():
            rng.shuffle(tokens)
            tokens.sort(key=holder_key)
            srcs = sup_srcs[v]
            keys = self._sup_keys[v]
            budgets = self._sup_caps[v].copy()
            sup_masks = [masks[s] for s in srcs]
            for token in tokens:
                bit = 1 << token
                best_i = -1
                best_b = -1
                best_r = 0.0
                for i, b in enumerate(budgets):
                    if b > 0 and sup_masks[i] & bit:
                        r = rng_random()
                        if b > best_b or (b == best_b and r > best_r):
                            best_i = i
                            best_b = b
                            best_r = r
                if best_i < 0:
                    continue
                budgets[best_i] -= 1
                key = keys[best_i]
                sends[key] = sends.get(key, 0) | bit
        return {key: TokenSet(mask) for key, mask in sends.items()}
