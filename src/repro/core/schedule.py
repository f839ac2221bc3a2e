"""Distribution schedules: moves, timesteps, validity, and metrics.

Section 3.1 defines a *move* as an assignment of a token to an arc and a
*timestep* as a set of simultaneous moves.  A schedule is valid when every
timestep respects the arc capacities and the possession rule (a vertex may
only send tokens it held at the *start* of the timestep), and successful
when every vertex ends up holding everything it wants.

This module is the single authority on those rules.  The polynomial-time
verifier used in the NP-completeness argument (Theorem 3) is exactly
:meth:`Schedule.validate` followed by :meth:`Schedule.is_successful`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from repro.core.problem import Problem
from repro.core.tokenset import EMPTY_TOKENSET, TokenSet

__all__ = ["Move", "Timestep", "Schedule", "ScheduleError"]


class ScheduleError(ValueError):
    """Raised when a schedule violates the model constraints."""


@dataclass(frozen=True, order=True)
class Move:
    """One token crossing one arc during one timestep."""

    src: int
    dst: int
    token: int

    def __repr__(self) -> str:
        return f"Move({self.src}->{self.dst}, t{self.token})"


class Timestep:
    """The set of simultaneous moves of one timestep.

    Stored as a mapping from arc ``(src, dst)`` to the :class:`TokenSet`
    sent across it — the paper's ``s_i`` function.
    """

    __slots__ = ("sends",)

    def __init__(self, sends: Mapping[Tuple[int, int], TokenSet] | None = None) -> None:
        self.sends: Dict[Tuple[int, int], TokenSet] = {}
        if sends:
            for arc, tokens in sends.items():
                if tokens:
                    self.sends[arc] = tokens

    @classmethod
    def from_validated(
        cls, sends: Dict[Tuple[int, int], TokenSet]
    ) -> "Timestep":
        """Adopt ``sends`` without copying or re-filtering.

        For engine hot paths that just built a fresh dict of validated,
        non-empty sends; the caller must not mutate ``sends`` afterwards.
        """
        step = cls()
        step.sends = sends
        return step

    @classmethod
    def from_masks(cls, sends: Mapping[Tuple[int, int], int]) -> "Timestep":
        """Build a timestep from raw token bitmasks, skipping zero masks.

        For passes that work on ``int`` masks and wrap them in
        :class:`TokenSet` only once, when the output is built; arc order
        is kept.
        """
        step = cls()
        step.sends = {arc: TokenSet(mask) for arc, mask in sends.items() if mask}
        return step

    @classmethod
    def from_moves(cls, moves: Iterable[Move]) -> "Timestep":
        step = cls()
        for move in moves:
            arc = (move.src, move.dst)
            step.sends[arc] = step.sends.get(arc, EMPTY_TOKENSET).add(move.token)
        return step

    def moves(self) -> List[Move]:
        """All moves of this timestep, in deterministic order."""
        out: List[Move] = []
        for (src, dst), tokens in sorted(self.sends.items()):
            for token in tokens:
                out.append(Move(src, dst, token))
        return out

    def num_moves(self) -> int:
        return sum(len(tokens) for tokens in self.sends.values())

    def iter_sends_masks(self) -> Iterator[Tuple[Tuple[int, int], int]]:
        """Yield ``((src, dst), mask)`` for every send, in ``sends`` order.

        Mask-level passes (pruning) read timesteps through this, so a
        timestep kept in array form (the batch kernel's) can hand out raw
        bitmasks without building a :class:`TokenSet` per send.
        """
        for arc, tokens in self.sends.items():
            yield arc, tokens.mask

    def sent(self, src: int, dst: int) -> TokenSet:
        return self.sends.get((src, dst), EMPTY_TOKENSET)

    def __bool__(self) -> bool:
        return any(self.sends.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Timestep):
            return NotImplemented
        return self.sends == other.sends

    def __repr__(self) -> str:
        return f"Timestep({self.num_moves()} moves over {len(self.sends)} arcs)"


class Schedule:
    """A sequence of timesteps for one :class:`Problem`.

    The schedule does not store possession state; :meth:`replay`
    reconstructs the paper's ``p_i`` functions from the initial haves,
    and :meth:`validate` checks the capacity and possession constraints
    along the way.
    """

    __slots__ = ("steps",)

    def __init__(self, steps: Sequence[Timestep] = ()) -> None:
        self.steps: List[Timestep] = list(steps)

    @classmethod
    def from_move_lists(cls, move_lists: Sequence[Iterable[Move]]) -> "Schedule":
        return cls([Timestep.from_moves(moves) for moves in move_lists])

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> int:
        """Number of timesteps — the FOCD objective."""
        return len(self.steps)

    @property
    def bandwidth(self) -> int:
        """Total number of moves — the EOCD objective."""
        return sum(step.num_moves() for step in self.steps)

    def moves(self) -> List[Tuple[int, Move]]:
        """All ``(timestep_index, move)`` pairs in schedule order."""
        out: List[Tuple[int, Move]] = []
        for i, step in enumerate(self.steps):
            for move in step.moves():
                out.append((i, move))
        return out

    # ------------------------------------------------------------------
    # Replay and validation
    # ------------------------------------------------------------------
    def replay(self, problem: Problem) -> List[List[TokenSet]]:
        """Reconstruct possession history ``p_0 .. p_t`` without validating.

        Returns a list of ``t + 1`` possession vectors.  Tokens sent
        without being possessed are still delivered — use
        :meth:`validate` to check legality.
        """
        possession = [list(problem.have)]
        for step in self.steps:
            current = list(possession[-1])
            for (src, dst), tokens in step.sends.items():
                current[dst] = current[dst] | tokens
            possession.append(current)
        return possession

    def validate(self, problem: Problem) -> List[List[TokenSet]]:
        """Check every model constraint; return the possession history.

        Raises :class:`ScheduleError` on the first violation: an unknown
        arc, a capacity overflow, a send of an unpossessed token, or a
        token id outside the universe.  This is the polynomial-time
        verifier from the proof of Theorem 3.
        """
        universe = problem.all_tokens()
        possession: List[List[TokenSet]] = [list(problem.have)]
        for i, step in enumerate(self.steps):
            before = possession[-1]
            current = list(before)
            for (src, dst), tokens in step.sends.items():
                if not problem.has_arc(src, dst):
                    raise ScheduleError(
                        f"timestep {i}: no arc ({src}, {dst}) in the graph"
                    )
                if not tokens <= universe:
                    raise ScheduleError(
                        f"timestep {i}: arc ({src}, {dst}) carries tokens outside "
                        f"0..{problem.num_tokens - 1}"
                    )
                if len(tokens) > problem.capacity(src, dst):
                    raise ScheduleError(
                        f"timestep {i}: arc ({src}, {dst}) carries {len(tokens)} "
                        f"tokens, capacity {problem.capacity(src, dst)}"
                    )
                if not tokens <= before[src]:
                    lacking = tokens - before[src]
                    raise ScheduleError(
                        f"timestep {i}: vertex {src} sends tokens "
                        f"{sorted(lacking)} it does not possess"
                    )
                current[dst] = current[dst] | tokens
            possession.append(current)
        return possession

    def is_valid(self, problem: Problem) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(problem)
        except ScheduleError:
            return False
        return True

    def is_successful(self, problem: Problem) -> bool:
        """Whether the final possession covers every want (after validating)."""
        final = self.validate(problem)[-1]
        return all(
            problem.want[v] <= final[v] for v in range(problem.num_vertices)
        )

    def final_possession(self, problem: Problem) -> List[TokenSet]:
        return self.replay(problem)[-1]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "steps": [
                {f"{src},{dst}": sorted(tokens) for (src, dst), tokens in step.sends.items()}
                for step in self.steps
            ]
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Schedule":
        steps: List[Timestep] = []
        for step_data in data["steps"]:
            sends: Dict[Tuple[int, int], TokenSet] = {}
            for arc_key, tokens in step_data.items():
                src_s, dst_s = arc_key.split(",")
                sends[(int(src_s), int(dst_s))] = TokenSet.from_iterable(tokens)
            steps.append(Timestep(sends))
        return cls(steps)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Timestep]:
        return iter(self.steps)

    def __getitem__(self, index: int) -> Timestep:
        return self.steps[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.steps == other.steps

    def __repr__(self) -> str:
        return f"<Schedule makespan={self.makespan} bandwidth={self.bandwidth}>"
