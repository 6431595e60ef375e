"""State-based simulator (paper §1 item 4).

HSIS bundles a simulator that enumerates reachable states of the design
under user control — useful for finding easy bugs before running full
verification.  This implementation walks concrete states of the encoded
network: from the current state it enumerates the symbolic image and
lets the caller (or a seeded random policy) choose the successor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.network.fsm import SymbolicFsm

State = Dict[str, str]


@dataclass
class SimTrace:
    """History of one simulation run."""

    states: List[State] = field(default_factory=list)

    def format(self) -> str:
        lines = []
        for i, state in enumerate(self.states):
            body = " ".join(f"{k}={v}" for k, v in sorted(state.items()))
            lines.append(f"  {i:3d}: {body}")
        return "\n".join(lines)


class Simulator:
    """Interactive/random walker over the reachable states of a machine.

    The random policy is deterministic by default (``seed=0``) so runs
    are reproducible; pass a different seed for other walks, or
    ``seed=None`` to seed from OS entropy.
    """

    def __init__(self, fsm: SymbolicFsm, seed: Optional[int] = 0):
        self.fsm = fsm
        self.bdd = fsm.bdd
        self.random = random.Random(seed)
        self.trace = SimTrace()
        self.current: Optional[State] = None
        self._visited = fsm.bdd.false
        # Each step's image runs safe points: the visited set is rooted.
        self.bdd.keep(self.live_handles)

    def live_handles(self) -> List[int]:
        """The visited set, the one handle the simulator holds."""
        return [self._visited]

    # ------------------------------------------------------------------

    def initial_states(self, limit: Optional[int] = 64) -> List[State]:
        """Enumerate (up to ``limit``) initial states."""
        return list(self.fsm.states_iter(self.fsm.init, limit=limit))

    def reset(self, state: Optional[State] = None) -> State:
        """Restart simulation from ``state`` (default: a random initial one)."""
        if state is None:
            choices = self.initial_states()
            if not choices:
                raise ValueError("the machine has no initial states")
            state = self.random.choice(choices)
        self.current = dict(state)
        self.trace = SimTrace(states=[self.current])
        self._visited = self.fsm.state_cube(self.current)
        return self.current

    def successors(self, limit: Optional[int] = 64) -> List[State]:
        """Enumerate (up to ``limit``) successors of the current state."""
        if self.current is None:
            raise ValueError("call reset() first")
        # Building the relation runs safe points, which do not know the
        # cube: build it before the cube exists.
        self.fsm.require_transition()
        cube = self.fsm.state_cube(self.current)
        image = self.fsm.image(cube)
        return list(self.fsm.states_iter(image, limit=limit))

    def step(self, choice: Optional[int] = None, limit: Optional[int] = 64) -> State:
        """Advance one clock tick.

        ``choice`` indexes into :meth:`successors`; None picks randomly
        (the HSIS simulator's "under user control" knob).
        """
        succs = self.successors(limit=limit)
        if not succs:
            raise ValueError("deadlock: the current state has no successor")
        if choice is None:
            nxt = self.random.choice(succs)
        else:
            if not 0 <= choice < len(succs):
                raise IndexError(f"choice {choice} out of range 0..{len(succs) - 1}")
            nxt = succs[choice]
        self.current = dict(nxt)
        self.trace.states.append(self.current)
        self._visited = self.bdd.or_(self._visited, self.fsm.state_cube(self.current))
        return self.current

    def run(
        self,
        steps: int,
        policy: Optional[Callable[[List[State]], int]] = None,
    ) -> SimTrace:
        """Run ``steps`` ticks with an optional successor-choice policy."""
        if self.current is None:
            self.reset()
        for _ in range(steps):
            if policy is None:
                self.step()
            else:
                succs = self.successors()
                if not succs:
                    break
                self.step(policy(succs))
        return self.trace

    def visited_count(self) -> int:
        """Number of distinct states touched by this run."""
        return self.fsm.count_states(self._visited)

    def check(self, predicate: Dict[str, str]) -> bool:
        """Does the current state match a partial latch valuation?"""
        if self.current is None:
            raise ValueError("call reset() first")
        return all(self.current.get(k) == v for k, v in predicate.items())
