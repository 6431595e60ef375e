"""Interactive model-checking debugger (paper §6.2).

The CTL debugger unfolds a failed formula one step at a time.  CTL
formulas are state formulas, so every node of the explanation tree is a
(formula, state) pair with a verdict:

* boolean combinations branch into the sub-formulas responsible
  (``h = f | g`` false: the user may pick which of ``f``, ``g`` to see
  certified false);
* a false universal path formula is explained by a heuristically
  shortest witness path to the offending state (e.g. ``AG f`` by a
  shortest path to a ``!f`` state, ``AF f`` by a lasso staying in
  ``!f``);
* a false existential formula is explained by exhibiting that every
  successor fails.

:class:`CtlDebugger` builds the tree programmatically (depth-bounded);
the HSIS-style interactive prompt on top of it lives in
:mod:`repro.cli`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

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
from repro.ctl.modelcheck import ModelChecker
from repro.ctl.parser import parse_ctl
from repro.debug.trace import (
    TraceStep,
    decode_path,
    shortest_path_within,
    thread_fair_cycle,
)
from repro.lc.faircycle import find_fair_scc


@dataclass
class DebugNode:
    """One node of the explanation tree."""

    formula: Formula
    state: Dict[str, str]
    holds: bool
    note: str = ""
    path: List[TraceStep] = field(default_factory=list)
    children: List["DebugNode"] = field(default_factory=list)

    def format(self, indent: int = 0) -> str:
        pad = "  " * indent
        verdict = "holds" if self.holds else "FAILS"
        lines = [f"{pad}{self.formula}  {verdict} at {_fmt_state(self.state)}"]
        if self.note:
            lines.append(f"{pad}  note: {self.note}")
        for step in self.path:
            lines.append(f"{pad}  | {step.format()}")
        for child in self.children:
            lines.append(child.format(indent + 1))
        return "\n".join(lines)


def _fmt_state(state: Dict[str, str]) -> str:
    return "{" + " ".join(f"{k}={v}" for k, v in sorted(state.items())) + "}"


class CtlDebugger:
    """Explanation-tree builder over a :class:`ModelChecker`."""

    def __init__(self, checker: ModelChecker, max_depth: int = 4):
        self.mc = checker
        self.fsm = checker.fsm
        self.bdd = checker.bdd
        self.graph = checker.graph
        self.max_depth = max_depth

    # ------------------------------------------------------------------

    def explain(self, formula, state: Optional[Dict[str, str]] = None) -> DebugNode:
        """Explain why ``formula`` holds/fails at ``state``.

        ``state`` defaults to a failing initial state if the formula
        fails somewhere in ``init``, else to any initial state.
        """
        if isinstance(formula, str):
            formula = parse_ctl(formula)
        sat = self.mc.eval(formula)
        if state is None:
            failing = self.bdd.diff(self.fsm.init, sat)
            source = failing if failing != self.bdd.false else self.fsm.init
            picked = self.fsm.pick_state(source)
            assert picked is not None, "no initial states"
            state = picked
        return self._explain(formula, state, self.max_depth)

    # ------------------------------------------------------------------

    def _state_bdd(self, state: Dict[str, str]) -> int:
        return self.fsm.state_cube(state)

    def _holds_at(self, formula: Formula, state: Dict[str, str]) -> bool:
        s = self._state_bdd(state)
        return self.bdd.and_(s, self.mc.eval(formula)) != self.bdd.false

    def _explain(self, f: Formula, state: Dict[str, str], depth: int) -> DebugNode:
        holds = self._holds_at(f, state)
        node = DebugNode(formula=f, state=dict(state), holds=holds)
        if depth <= 0:
            node.note = "(depth limit reached; ask deeper)"
            return node
        if isinstance(f, (TrueF, FalseF, Atom)):
            node.note = "atomic"
            return node
        if isinstance(f, Not):
            node.children.append(self._explain(f.sub, state, depth - 1))
            return node
        if isinstance(f, And):
            for sub in (f.left, f.right):
                child_holds = self._holds_at(sub, state)
                if holds or not child_holds:
                    node.children.append(self._explain(sub, state, depth - 1))
            return node
        if isinstance(f, Or):
            # False disjunction: both disjuncts are certified false (the
            # interactive prompt lets the user pick one; the tree keeps both).
            for sub in (f.left, f.right):
                child_holds = self._holds_at(sub, state)
                if (not holds) or child_holds:
                    node.children.append(self._explain(sub, state, depth - 1))
                    if holds and child_holds:
                        break
            return node
        if isinstance(f, Implies):
            return self._explain(Or(Not(f.left), f.right), state, depth)
        if isinstance(f, Iff):
            return self._explain(
                And(Implies(f.left, f.right), Implies(f.right, f.left)), state, depth
            )
        if isinstance(f, (AG, AF, AX, AU)):
            return self._explain_universal(node, f, state, depth)
        if isinstance(f, (EX, EF, EG, EU)):
            return self._explain_existential(node, f, state, depth)
        node.note = "unsupported formula shape"
        return node

    # -- universal operators: false => existential witness of negation ----

    def _explain_universal(
        self, node: DebugNode, f: Formula, state: Dict[str, str], depth: int
    ) -> DebugNode:
        bdd = self.bdd
        s = self._state_bdd(state)
        if node.holds:
            node.note = "all paths satisfy the property"
            return node
        if isinstance(f, AX):
            bad = bdd.diff(self.mc.space, self.mc.eval(f.sub))
            succ = bdd.and_(self.graph.post(s), bad)
            nxt = self.fsm.pick_state(succ)
            assert nxt is not None
            node.note = "a successor violates the body"
            node.children.append(self._explain(f.sub, nxt, depth - 1))
            return node
        if isinstance(f, AG):
            bad = bdd.diff(self.mc.space, self.mc.eval(f.sub))
            path = shortest_path_within(
                self.graph, self.mc.space, s, bad, self.graph.trans
            )
            assert path is not None
            node.path = decode_path(self.fsm, path)
            node.note = f"shortest path to a violating state ({len(path) - 1} steps)"
            end = self.fsm.pick_state(path[-1])
            assert end is not None
            node.children.append(self._explain(f.sub, end, depth - 1))
            return node
        if isinstance(f, AF):
            node.path, cycle = self._lasso_witness(Not(f.sub), s)
            node.note = (
                "a (fair) path stays in the negation forever: prefix then cycle "
                f"of {len(cycle)} states"
            )
            node.path = node.path + cycle
            return node
        if isinstance(f, AU):
            # Violation: either a path where right never holds (lasso in
            # !right) or a path reaching !left & !right before right.
            nl = And(Not(f.left), Not(f.right))
            bad = self.mc.eval(nl)
            nr_region = bdd.diff(self.mc.space, self.mc.eval(f.right))
            path = shortest_path_within(self.graph, nr_region, s, bad, self.graph.trans)
            if path is not None:
                node.path = decode_path(self.fsm, path)
                node.note = "left fails before right ever holds"
            else:
                prefix, cycle = self._lasso_witness(Not(f.right), s)
                node.path = prefix + cycle
                node.note = "right never holds along this (fair) path"
            return node
        return node

    # -- existential operators --------------------------------------------

    def _explain_existential(
        self, node: DebugNode, f: Formula, state: Dict[str, str], depth: int
    ) -> DebugNode:
        bdd = self.bdd
        s = self._state_bdd(state)
        if not node.holds:
            if isinstance(f, EX):
                succs = list(self.fsm.states_iter(self.graph.post(s), limit=8))
                node.note = (
                    "no successor satisfies the body; successors: "
                    + "; ".join(_fmt_state(t) for t in succs)
                )
            else:
                node.note = "no path witnesses the property from this state"
            return node
        if isinstance(f, EX):
            good = self.mc.eval(f.sub)
            nxt = self.fsm.pick_state(bdd.and_(self.graph.post(s), good))
            assert nxt is not None
            node.note = "witness successor"
            node.children.append(self._explain(f.sub, nxt, depth - 1))
            return node
        if isinstance(f, (EF, EU)):
            hold_region = (
                self.mc.space if isinstance(f, EF) else self.mc.eval(f.left)
            )
            target_formula = f.sub if isinstance(f, EF) else f.right
            target = self.mc.eval(target_formula)
            region = bdd.or_(hold_region, target)
            path = shortest_path_within(self.graph, region, s, target, self.graph.trans)
            assert path is not None
            node.path = decode_path(self.fsm, path)
            node.note = f"witness path ({len(path) - 1} steps)"
            return node
        if isinstance(f, EG):
            prefix, cycle = self._lasso_witness(f.sub, s)
            node.path = prefix + cycle
            node.note = "witness lasso staying in the body"
            return node
        return node

    # ------------------------------------------------------------------

    def _lasso_witness(self, body: Formula, source: int):
        """Prefix+cycle (decoded) for a fair path from ``source`` staying in
        ``body``."""
        bdd = self.bdd
        # The fixpoints below run GC safe points that do not know
        # ``source``, so it stays held until the last of them returns.
        with bdd.hold(lambda: [source]):
            region = self.mc.eval(body) if not isinstance(body, TrueF) else self.mc.space
            region = bdd.and_(region, self.mc.eg(region))
            # Only a fair cycle that source reaches inside the region can
            # close its lasso.
            region = self.graph.forward_within(
                region, bdd.and_(source, region), self.graph.trans
            )
            scc = find_fair_scc(self.graph, self.mc.normalized, region)
        assert scc is not None, "EG region contains no fair cycle"
        t_region = self.graph.restrict(self.graph.trans, region)
        prefix_minterms = shortest_path_within(
            self.graph, region, bdd.and_(source, region), scc.states, t_region
        )
        assert prefix_minterms is not None
        anchor = prefix_minterms[-1]
        cycle_minterms = thread_fair_cycle(self.graph, scc, anchor)
        prefix = decode_path(self.fsm, prefix_minterms[:-1])
        cycle = decode_path(self.fsm, cycle_minterms)
        if cycle:
            cycle[0].note = "(cycle start)"
        return prefix, cycle
