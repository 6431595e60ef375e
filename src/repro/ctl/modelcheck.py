"""Fair CTL model checking (paper §5.2).

The checker evaluates formulas bottom-up over the product machine's state
space with the standard fixpoint characterizations; under fairness
constraints it uses the fair semantics of Emerson-Lei/McMillan:

* ``fair``            — states with some fair path (``EG_fair TRUE``),
* ``EX_fair f``       — ``EX (f & fair)``,
* ``E[f U g]_fair``   — ``E[f U (g & fair)]``,
* ``EG_fair f``       — states with a fair path staying in ``f``
  (backward closure from the fair cycles of the ``f``-restricted graph).

Universal operators are rewritten to existential duals.  Two of the
paper's optimizations are implemented:

* **Invariance fast path** — ``AG p`` with propositional ``p`` is checked
  by forward reachability with per-frontier early failure detection
  (§5.2 item 3 and §5.4), which also yields shortest counterexample
  prefixes for free.  Once the reached states are known, a passing
  invariant is one ``diff`` against them.
* **Reached-state don't cares** — with ``use_dc=True`` intermediate BDDs
  are minimized against the reachable care set using Coudert-Madre
  restrict (§1 item 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.automata.fairness import FairnessSpec, NormalizedFairness
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
    is_propositional,
)
from repro.ctl.parser import parse_ctl
from repro.lc.faircycle import FairGraph, all_fair_states
from repro.network.quantify import Conjunct, multiply_and_quantify
from repro.perf import EngineStats


@dataclass
class CtlResult:
    """Outcome of checking one formula against the initial states."""

    formula: Formula
    holds: bool
    satisfying: int
    failing_init: int
    seconds: float
    used_fast_path: bool = False
    counterexample_depth: Optional[int] = None


class ModelChecker:
    """Fair CTL model checker over a built :class:`SymbolicFsm`."""

    def __init__(
        self,
        fsm,
        fairness: Optional[FairnessSpec] = None,
        use_dc: bool = False,
        reached: Optional[int] = None,
    ):
        self.fsm = fsm
        self.bdd = fsm.bdd
        self.stats: EngineStats = getattr(fsm, "stats", None) or EngineStats(fsm.bdd)
        self.fairness = fairness if fairness is not None else FairnessSpec()
        self.normalized: NormalizedFairness = self.fairness.normalize(
            self.bdd, self.bdd.true
        )
        self.space = fsm.state_domain()
        self.use_dc = use_dc
        self._reached = reached
        self._fair: Optional[int] = None
        self._cache: Dict[Formula, int] = {}
        # Rooted before the graph: building it may build the relation.
        self.bdd.keep(self.live_handles)
        self.graph = FairGraph(fsm)

    def live_handles(self) -> List[int]:
        """The checker's long-lived sets: space, fairness, the reached and
        fair states once known, and every cached satisfying set."""
        handles = [self.space, *self.normalized.nodes(), *self._cache.values()]
        handles.extend(h for h in (self._reached, self._fair) if h is not None)
        return handles

    # ------------------------------------------------------------------
    # Fairness
    # ------------------------------------------------------------------

    @property
    def has_fairness(self) -> bool:
        return not self.normalized.trivial

    def fair_states(self) -> int:
        """States with at least one fair path (all of ``space`` if trivial
        fairness would make every infinite path fair *and* the relation is
        total on the reachable part; computed exactly regardless)."""
        if self._fair is None:
            if self.has_fairness:
                self._fair = all_fair_states(self.graph, self.normalized, self.space)
            else:
                self._fair = self.space
        return self._fair

    def reached(self) -> int:
        if self._reached is None:
            self._reached = self.fsm.reachable().reached
        return self._reached

    def _dc(self, f: int) -> int:
        """Minimize ``f`` with reached-state don't cares (values outside the
        reachable set are free; sound because successors of reached states
        are reached, so fixpoints restricted this way agree on reached)."""
        if not self.use_dc:
            return f
        care = self.reached()
        if care == self.bdd.true:
            return f
        return self.bdd.and_(self.bdd.restrict_dc(f, care), self.space)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def eval(self, formula) -> int:
        """Set of states satisfying ``formula`` (BDD over present state)."""
        if isinstance(formula, str):
            formula = parse_ctl(formula)
        cached = self._cache.get(formula)
        if cached is not None:
            return cached
        result = self._eval(formula)
        self._cache[formula] = result
        return result

    def _eval(self, f: Formula) -> int:
        bdd = self.bdd
        if isinstance(f, TrueF):
            return self.space
        if isinstance(f, FalseF):
            return bdd.false
        if isinstance(f, Atom):
            return self._atom_states(f)
        if isinstance(f, Not):
            return bdd.and_(bdd.not_(self.eval(f.sub)), self.space)
        if isinstance(f, And):
            return bdd.and_(self.eval(f.left), self.eval(f.right))
        if isinstance(f, Or):
            return bdd.or_(self.eval(f.left), self.eval(f.right))
        if isinstance(f, Implies):
            return self._eval(Or(Not(f.left), f.right))
        if isinstance(f, Iff):
            return bdd.and_(
                self._eval(Implies(f.left, f.right)),
                self._eval(Implies(f.right, f.left)),
            )
        if isinstance(f, EX):
            return self.ex(self.eval(f.sub))
        if isinstance(f, EU):
            return self.eu(self.eval(f.left), self.eval(f.right))
        if isinstance(f, EG):
            return self.eg(self.eval(f.sub))
        if isinstance(f, EF):
            return self.eu(self.space, self.eval(f.sub))
        # Universal duals.
        if isinstance(f, AX):
            return bdd.and_(bdd.not_(self.ex(bdd.not_(self.eval(f.sub)))), self.space)
        if isinstance(f, AG):
            inner = self.eval(f.sub)
            ef_not = self.eu(self.space, bdd.and_(bdd.not_(inner), self.space))
            return bdd.and_(bdd.not_(ef_not), self.space)
        if isinstance(f, AF):
            eg_not = self.eg(bdd.and_(bdd.not_(self.eval(f.sub)), self.space))
            return bdd.and_(bdd.not_(eg_not), self.space)
        if isinstance(f, AU):
            # A[f U g] = !(E[!g U (!f & !g)] | EG !g)
            # Both operands first: evaluating g may collect, and only the
            # cached results are roots, not !f.
            left, right = self.eval(f.left), self.eval(f.right)
            nf = bdd.and_(bdd.not_(left), self.space)
            ng = bdd.and_(bdd.not_(right), self.space)
            # The EU part must survive the safe points inside eg.
            until = self.eu(ng, bdd.and_(nf, ng))
            with bdd.hold(lambda: [until]):
                bad = bdd.or_(until, self.eg(ng))
            return bdd.and_(bdd.not_(bad), self.space)
        raise TypeError(f"unknown formula node {f!r}")

    def _atom_states(self, f: Atom) -> int:
        """Project an atom onto the state variables.

        Atoms over latches are direct literals.  Atoms over combinational
        nets are projected existentially through the network's table
        conjuncts: the result holds in state ``x`` iff *some* resolution
        of the combinational (possibly non-deterministic) logic makes the
        atom true — the "may" semantics; its negation is the "must not"
        set.  For deterministic logic the two coincide.
        """
        bdd = self.bdd
        var = self.fsm.var(f.var)
        x_bits = set(self.fsm.x_bits())
        if set(var.bits) <= x_bits:
            return bdd.and_(var.literal(f.values), self.space)
        literal = var.literal(f.values)
        y_bits = set(self.fsm.y_bits())
        pool = [
            c
            for c in self.fsm.conjuncts
            if not (set(c.support) & y_bits)
        ]
        pool.append(
            Conjunct(
                node=literal, support=frozenset(bdd.support(literal)), label="atom"
            )
        )
        quantify = set()
        for c in pool:
            quantify |= set(c.support)
        quantify -= x_bits
        result = multiply_and_quantify(bdd, pool, quantify, method="greedy")
        return bdd.and_(result.node, self.space)

    # -- fair fixpoint operators -----------------------------------------

    def ex(self, states: int) -> int:
        # The first fair_states() runs the fair-cycle search, whose safe
        # points do not know the (possibly unrooted) argument.
        with self.bdd.hold(lambda: [states]):
            fair = self.fair_states()
        target = self.bdd.and_(states, fair)
        return self._dc(self.bdd.and_(self.graph.pre(target), self.space))

    def eu(self, hold: int, target: int) -> int:
        bdd = self.bdd
        tracer = self.stats.tracer
        with bdd.hold(lambda: [hold, target]):  # as in ex
            fair = self.fair_states()
        target = bdd.and_(target, fair)
        reach = bdd.and_(target, self.space)
        iteration = 0
        while True:
            step = bdd.and_(hold, self.graph.pre(reach))
            new = self._dc(bdd.or_(reach, bdd.and_(step, self.space)))
            if tracer.enabled:
                tracer.instant(
                    "mc.eu_iter", cat="mc",
                    iteration=iteration,
                    reach_nodes=bdd.size(new),
                    delta_nodes=bdd.size(bdd.diff(new, reach)),
                    converged=new == reach,
                )
            if new == reach:
                return reach
            reach = new
            iteration += 1
            # Safe point: everything the fixpoint holds is passed along.
            bdd.maybe_gc(extra_roots=[hold, target, reach])

    def eg(self, states: int) -> int:
        bdd = self.bdd
        tracer = self.stats.tracer
        states = bdd.and_(states, self.space)
        if self.has_fairness:
            return all_fair_states(self.graph, self.normalized, states)
        z = states
        iteration = 0
        while True:
            nz = bdd.and_(z, self.graph.pre(z))
            if tracer.enabled:
                tracer.instant(
                    "mc.eg_iter", cat="mc",
                    iteration=iteration,
                    z_nodes=bdd.size(nz),
                    delta_nodes=bdd.size(bdd.diff(z, nz)),
                    converged=nz == z,
                )
            if nz == z:
                return z
            z = nz
            iteration += 1
            bdd.maybe_gc(extra_roots=[states, z])

    # ------------------------------------------------------------------
    # Checking against initial states
    # ------------------------------------------------------------------

    def check(self, formula, fast_invariant: bool = True) -> CtlResult:
        """Check ``formula`` on all initial states.

        ``AG <propositional>`` uses the forward-reachability fast path
        with early failure detection unless ``fast_invariant=False``.
        The fast path only applies under trivial fairness: forward
        reachability implements the plain semantics, and under fair
        semantics a reachable violation on no fair path is no violation.
        """
        if isinstance(formula, str):
            formula = parse_ctl(formula)
        with self.stats.phase("mc") as timer:
            if (
                fast_invariant
                and not self.has_fairness
                and isinstance(formula, AG)
                and is_propositional(formula.sub)
            ):
                result = self._check_invariant(formula)
            else:
                sat = self.eval(formula)
                failing = self.bdd.diff(self.fsm.init, sat)
                result = CtlResult(
                    formula=formula,
                    holds=failing == self.bdd.false,
                    satisfying=sat,
                    failing_init=failing,
                    seconds=0.0,
                )
        result.seconds = timer.seconds
        return result

    def _check_invariant(self, formula: AG) -> CtlResult:
        """Forward reachability with per-frontier property checks (§5.4).

        With the reached states known, a passing invariant costs one
        ``diff``; only a failing one searches again, for its depth."""
        bdd = self.bdd
        good = self.eval(formula.sub)
        if self._reached is not None:
            # Every reachable state only visits reachable states, all of
            # which satisfy the body, so the whole reached set models AG p.
            sat = bdd.and_(self._reached, self.space)
            if bdd.diff(sat, good) == bdd.false:
                return CtlResult(
                    formula=formula,
                    holds=True,
                    satisfying=sat,
                    failing_init=bdd.diff(self.fsm.init, sat),
                    seconds=0.0,
                    used_fast_path=True,
                )
        bad_depth: List[int] = []

        def bad_frontier(depth: int, frontier: int, reached: int) -> bool:
            if bdd.diff(bdd.and_(frontier, self.space), good) == bdd.false:
                return False
            bad_depth.append(depth)
            if self.stats.tracer.enabled:
                self.stats.tracer.instant("mc.early_fail", cat="mc", depth=depth)
            return True

        reached = self.fsm.reachable(observer=bad_frontier).reached
        violated = bool(bad_depth) or (
            bdd.diff(bdd.and_(reached, self.space), good) != bdd.false)
        if violated:
            sat = bdd.false
            failing = self.fsm.init
        else:
            self._reached = reached
            sat = bdd.and_(reached, self.space)
            failing = bdd.diff(self.fsm.init, sat)
        return CtlResult(
            formula=formula,
            holds=not violated,
            satisfying=sat,
            failing_init=failing,
            seconds=0.0,
            used_fast_path=True,
            counterexample_depth=bad_depth[0] if bad_depth else None,
        )


def check_ctl(
    fsm,
    formula,
    fairness: Optional[FairnessSpec] = None,
    use_dc: bool = False,
) -> CtlResult:
    """One-shot convenience wrapper around :class:`ModelChecker`."""
    checker = ModelChecker(fsm, fairness=fairness, use_dc=use_dc)
    return checker.check(formula)
