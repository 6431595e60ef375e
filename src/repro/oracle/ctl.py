"""Explicit fair-CTL labeling, mirroring :class:`repro.ctl.modelcheck.ModelChecker`.

Works over any explicit graph (nodes + successor sets + an atom
evaluator), so the same checker labels both raw Kripke structures and
bisimulation quotients.  The fixpoints follow the symbolic checker
node-for-node:

* ``fair`` is the whole space when fairness is trivial (*not* the
  infinite-path states — this matches ``ModelChecker.fair_states``),
* ``EX f = pre(f & fair) & space``,
* ``E[f U g] = lfp R . (g & fair) | (f & pre(R))``,
* ``EG f`` is the ν-fixpoint without fairness and the fair-path
  closure (:func:`repro.oracle.graphs.fair_path_states`) with it,
* universal operators go through the same existential duals, including
  ``A[f U g] = !(E[!g U (!f & !g)] | EG !g)``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Set, Tuple

from repro.ctl.ast import (
    AF,
    AG,
    AU,
    AX,
    And,
    Atom,
    EF,
    EG,
    EU,
    EX,
    FalseF,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    TrueF,
)
from repro.ctl.parser import parse_ctl
from repro.oracle.graphs import ExplicitFairness, fair_path_states

Node = object
AtomFn = Callable[[str, Tuple[str, ...]], Set[Node]]


class ExplicitModelChecker:
    """Bottom-up explicit CTL evaluation over an arbitrary finite graph."""

    def __init__(
        self,
        nodes: Iterable[Node],
        successors: Dict[Node, Set[Node]],
        atom_fn: AtomFn,
        fairness: Optional[ExplicitFairness] = None,
    ):
        self.space: Set[Node] = set(nodes)
        self.successors = successors
        self.atom_fn = atom_fn
        self.fairness = fairness or ExplicitFairness()
        self.edges: Set[Tuple[Node, Node]] = {
            (u, v)
            for u in self.space
            for v in successors.get(u, ())
            if v in self.space
        }
        self._fair: Optional[Set[Node]] = None
        self._cache: Dict[Formula, frozenset] = {}

    @classmethod
    def for_kripke(
        cls, kripke, fairness: Optional[ExplicitFairness] = None
    ) -> "ExplicitModelChecker":
        """Checker over an :class:`~repro.oracle.explicit.ExplicitKripke`."""
        return cls(
            kripke.states, kripke.successors, kripke.atom_states, fairness
        )

    # ------------------------------------------------------------------

    @property
    def has_fairness(self) -> bool:
        return not self.fairness.trivial

    def fair_states(self) -> Set[Node]:
        if self._fair is None:
            if self.has_fairness:
                self._fair = fair_path_states(
                    self.space, self.edges, self.fairness
                )
            else:
                self._fair = set(self.space)
        return self._fair

    def _pre(self, target: Set[Node]) -> Set[Node]:
        return {
            u
            for u in self.space
            if any(v in target for v in self.successors.get(u, ()))
        }

    # ------------------------------------------------------------------

    def eval(self, formula) -> frozenset:
        """Set of nodes satisfying ``formula``."""
        if isinstance(formula, str):
            formula = parse_ctl(formula)
        cached = self._cache.get(formula)
        if cached is None:
            cached = frozenset(self._eval(formula))
            self._cache[formula] = cached
        return cached

    def _eval(self, f: Formula) -> Set[Node]:
        if isinstance(f, TrueF):
            return set(self.space)
        if isinstance(f, FalseF):
            return set()
        if isinstance(f, Atom):
            return set(self.atom_fn(f.var, f.values)) & self.space
        if isinstance(f, Not):
            return self.space - self.eval(f.sub)
        if isinstance(f, And):
            return set(self.eval(f.left) & self.eval(f.right))
        if isinstance(f, Or):
            return set(self.eval(f.left) | self.eval(f.right))
        if isinstance(f, Implies):
            return self._eval(Or(Not(f.left), f.right))
        if isinstance(f, Iff):
            return self._eval(Implies(f.left, f.right)) & self._eval(
                Implies(f.right, f.left)
            )
        if isinstance(f, EX):
            return self.ex(set(self.eval(f.sub)))
        if isinstance(f, EU):
            return self.eu(set(self.eval(f.left)), set(self.eval(f.right)))
        if isinstance(f, EG):
            return self.eg(set(self.eval(f.sub)))
        if isinstance(f, EF):
            return self.eu(set(self.space), set(self.eval(f.sub)))
        if isinstance(f, AX):
            return self.space - self.ex(self.space - self.eval(f.sub))
        if isinstance(f, AG):
            ef_not = self.eu(set(self.space), self.space - self.eval(f.sub))
            return self.space - ef_not
        if isinstance(f, AF):
            return self.space - self.eg(self.space - self.eval(f.sub))
        if isinstance(f, AU):
            nf = self.space - self.eval(f.left)
            ng = self.space - self.eval(f.right)
            bad = self.eu(set(ng), nf & ng) | self.eg(set(ng))
            return self.space - bad
        raise TypeError(f"unknown formula node {f!r}")

    # -- fair fixpoint operators ---------------------------------------

    def ex(self, states: Set[Node]) -> Set[Node]:
        return self._pre(states & self.fair_states())

    def eu(self, hold: Set[Node], target: Set[Node]) -> Set[Node]:
        reach = (target & self.fair_states()) & self.space
        while True:
            new = reach | (hold & self._pre(reach) & self.space)
            if new == reach:
                return reach
            reach = new

    def eg(self, states: Set[Node]) -> Set[Node]:
        states = states & self.space
        if self.has_fairness:
            return fair_path_states(states, self.edges, self.fairness)
        z = set(states)
        while True:
            nz = z & self._pre(z)
            if nz == z:
                return z
            z = nz
