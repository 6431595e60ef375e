"""Symbolic FSM: transition relation, image computation, reachability.

This is the engine the property checkers run on.  A :class:`SymbolicFsm`
wraps an :class:`~repro.network.encode.EncodedNetwork` and provides:

* product transition-relation construction ``T(x, y)`` with a selectable
  early-quantification schedule (paper §4),
* forward/backward image with the present/next rename maps,
* a *partitioned* image that never builds the monolithic ``T`` (paper
  §8 future-work item 4, implemented),
* breadth-first reachability that records the frontier "onion rings"
  needed by the debuggers to extract shortest error-trace prefixes,
* state counting and enumeration in terms of the original multi-valued
  latch values.

Monitors (property automata) may be attached *before* the transition
relation is built; their state variables then become part of the product
machine (paper §5.2's language-containment product).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.bdd.manager import BDD, BddError
from repro.bdd.mdd import MddManager, MvVar
from repro.blifmv.ast import Model
from repro.blifmv.hierarchy import Elaboration
from repro.network.encode import NEXT_SUFFIX, EncodedNetwork, LatchVars, encode
from repro.network.quantify import (
    Conjunct,
    ImageSchedule,
    QuantifyResult,
    execute_schedule,
    multiply_and_quantify,
    plan_schedule,
)
from repro.perf import EngineStats
from repro.trace.tracer import Tracer

GC_NODE_THRESHOLD = 2_000_000


@dataclass
class ReachResult:
    """Reachable state set plus the BFS onion rings and run statistics."""

    reached: int
    rings: List[int]
    iterations: int
    converged: bool
    seconds: float


class SymbolicFsm:
    """The product machine of a flat BLIF-MV model (plus attached monitors)."""

    def __init__(
        self,
        model: "Model | Elaboration",
        order_method: str = "affinity",
        auto_gc: Optional[int] = None,
        cache_limit: Optional[int] = None,
        auto_reorder: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        order: Optional[List[str]] = None,
    ):
        self.stats = EngineStats()
        if tracer is not None:
            self.stats.tracer = tracer
        # An Elaboration (repro.blifmv.elaborate) switches on shared-shape
        # encoding: each distinct subcircuit shape is table-encoded once
        # and other instances are instantiated by variable substitution.
        elaboration = model if isinstance(model, Elaboration) else None
        if elaboration is not None:
            model = elaboration.flat
        with self.stats.phase("encode"):
            self.network: EncodedNetwork = encode(
                model,
                order_method=order_method,
                auto_gc=auto_gc,
                cache_limit=cache_limit,
                auto_reorder=auto_reorder,
                order=order,
                elaboration=elaboration,
                stats=self.stats,
            )
        self.mdd: MddManager = self.network.mdd
        self.bdd: BDD = self.mdd.bdd
        self.stats.bdd = self.bdd
        self.bdd.tracer = self.stats.tracer
        self.latches: List[LatchVars] = list(self.network.latches)
        self.conjuncts: List[Conjunct] = list(self.network.conjuncts)
        self.init: int = self.network.init
        self.trans: Optional[int] = None
        self.quantify_result: Optional[QuantifyResult] = None
        self._frozen = False
        # Partitioned-image schedule, planned once and replayed every
        # iteration; invalidated whenever the conjunct pool changes.
        self._part_plan: Optional[ImageSchedule] = None
        # Watermark gating full GC sweeps inside reachable(); see there.
        self._hard_gc_rearm = 0
        # Everything the FSM holds long-term must be a GC root so auto-GC
        # at engine safe points can never sweep it.
        self.bdd.register_root("fsm.init", self.init)
        self._register_conjunct_roots()

    def _register_conjunct_roots(self) -> None:
        self.bdd.register_root_group(
            "fsm.conjunct", (c.node for c in self.conjuncts)
        )

    # ------------------------------------------------------------------
    # Variable bookkeeping
    # ------------------------------------------------------------------

    @property
    def model(self) -> Model:
        return self.network.model

    def var(self, name: str) -> MvVar:
        """Look up any encoded variable (state, next-state or wire)."""
        return self.mdd[name]

    def x_vars(self) -> List[MvVar]:
        return [l.x for l in self.latches]

    def y_vars(self) -> List[MvVar]:
        return [l.y for l in self.latches]

    def x_bits(self) -> List[int]:
        return [b for l in self.latches for b in l.x.bits]

    def y_bits(self) -> List[int]:
        return [b for l in self.latches for b in l.y.bits]

    def x_cube(self) -> int:
        return self.bdd.cube(self.x_bits())

    def y_cube(self) -> int:
        return self.bdd.cube(self.y_bits())

    def x_to_y(self) -> Dict[int, int]:
        return self.mdd.rename_map((l.x, l.y) for l in self.latches)

    def y_to_x(self) -> Dict[int, int]:
        return self.mdd.rename_map((l.y, l.x) for l in self.latches)

    def state_domain(self) -> int:
        """Conjunction of present-state domain constraints (valid codes)."""
        return self.mdd.domain_constraint(l.x for l in self.latches)

    # ------------------------------------------------------------------
    # Monitor attachment (product machine construction, paper §5.2)
    # ------------------------------------------------------------------

    def add_state_var(
        self, name: str, values: Sequence[str], initial: Iterable[str]
    ) -> Tuple[MvVar, MvVar]:
        """Declare an extra latch pair (used by property monitors).

        Must be called before :meth:`build_transition`.  Returns the
        present/next :class:`MvVar` pair.  The initial-state set is
        conjoined into ``init``.
        """
        if self._frozen:
            raise BddError("cannot add state variables after build_transition()")
        x, y = self.mdd.declare_pair(name, name + NEXT_SUFFIX, values)
        self.latches.append(
            LatchVars(name=name, x=x, y=y, input_wire=name + NEXT_SUFFIX,
                      reset=tuple(initial))
        )
        self.init = self.bdd.and_(self.init, x.literal(list(initial)))
        self.bdd.register_root("fsm.init", self.init)
        self._part_plan = None
        return x, y

    def add_conjunct(self, node: int, label: str) -> None:
        """Add a transition-relation conjunct (monitor transition table)."""
        if self._frozen:
            raise BddError("cannot add conjuncts after build_transition()")
        self.conjuncts.append(
            Conjunct(node=node, support=frozenset(self.bdd.support(node)), label=label)
        )
        self._register_conjunct_roots()
        self._part_plan = None

    # ------------------------------------------------------------------
    # Transition relation
    # ------------------------------------------------------------------

    def nonstate_bits(self) -> Set[int]:
        keep = set(self.x_bits()) | set(self.y_bits())
        quantify: Set[int] = set()
        for c in self.conjuncts:
            quantify |= set(c.support)
        return quantify - keep

    def build_transition(self, method: str = "greedy") -> int:
        """Build the product transition relation ``T(x, y)``.

        All non-state variables are existentially quantified using the
        chosen early-quantification schedule.  Idempotent: rebuilding
        with a different method replaces the stored relation.
        """
        with self.stats.phase("build_tr"):
            result = multiply_and_quantify(
                self.bdd, self.conjuncts, self.nonstate_bits(), method=method,
                groups=self.network.conjunct_groups,
            )
        self.trans = result.node
        self.quantify_result = result
        self._frozen = True
        self.bdd.register_root("fsm.trans", self.trans)
        self.bdd.register_root("fsm.init", self.init)
        return self.trans

    def require_transition(self) -> int:
        if self.trans is None:
            self.build_transition()
        assert self.trans is not None
        return self.trans

    # ------------------------------------------------------------------
    # Images
    # ------------------------------------------------------------------

    def image(self, states: int, trans: Optional[int] = None) -> int:
        """Forward image: states reachable from ``states`` in one step."""
        t = self.require_transition() if trans is None else trans
        nxt = self.bdd.and_exists(t, states, self.x_cube())
        return self.bdd.rename(nxt, self.y_to_x(), strict=False)

    def preimage(self, states: int, trans: Optional[int] = None) -> int:
        """Backward image: states with a successor in ``states``."""
        t = self.require_transition() if trans is None else trans
        primed = self.bdd.rename(states, self.x_to_y(), strict=False)
        return self.bdd.and_exists(t, primed, self.y_cube())

    def partition_schedule(self) -> ImageSchedule:
        """The (cached) greedy schedule for partitioned images.

        The pool, the quantify set and the elimination order depend only
        on the conjunct supports — not on the frontier's value — so the
        schedule is planned once and replayed every BFS iteration.  The
        frontier slot is planned with the conservative support
        ``x_bits`` (a superset of any concrete frontier's support, which
        keeps early quantification sound).  The cache is invalidated by
        :meth:`add_conjunct` / :meth:`add_state_var`.
        """
        if self._part_plan is None:
            keep = set(self.y_bits())
            quantify = set()
            for c in self.conjuncts:
                quantify |= set(c.support)
            quantify |= set(self.x_bits())
            quantify -= keep
            supports = [c.support for c in self.conjuncts]
            supports.append(frozenset(self.x_bits()))
            # Instance conjunct groups (shared-shape encode) cluster each
            # instance's private wires inside the instance first; monitor
            # conjuncts and the frontier slot are appended after the
            # network's conjuncts, so the recorded indices stay valid.
            self._part_plan = plan_schedule(
                supports, quantify, groups=self.network.conjunct_groups
            )
            self.stats.bump("partitioned_plans_built")
            if self.stats.tracer.enabled:
                self.stats.tracer.instant(
                    "fsm.partition_plan", cat="fsm",
                    conjuncts=len(self.conjuncts),
                    steps=len(self._part_plan.steps),
                )
        return self._part_plan

    def image_partitioned(self, states: int) -> int:
        """Forward image straight from the conjunct list (no monolithic T).

        Implements the paper's future-work item 4 (partitioned transition
        relations): the reached-state set is computed without ever forming
        the product machine.  The multiply/quantify schedule is planned
        once (:meth:`partition_schedule`) and only the frontier conjunct
        changes between calls.
        """
        plan = self.partition_schedule()
        nodes = [c.node for c in self.conjuncts]
        nodes.append(states)
        result = execute_schedule(self.bdd, nodes, plan)
        self.stats.bump("partitioned_images")
        if self.stats.tracer.enabled:
            self.stats.tracer.instant(
                "fsm.image_partitioned", cat="fsm",
                plan_steps=len(plan.steps),
                peak_size=result.peak_size,
            )
        return self.bdd.rename(result.node, self.y_to_x(), strict=False)

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------

    def reachable(
        self,
        init: Optional[int] = None,
        max_iterations: Optional[int] = None,
        partitioned: bool = False,
        observer: Optional[Callable[[int, int], None]] = None,
    ) -> ReachResult:
        """Breadth-first reachable states from ``init`` (default: reset states).

        ``rings[k]`` holds exactly the states first reached at depth ``k``
        (the BFS onion rings) — the debuggers walk these backwards to
        produce shortest counterexample prefixes.  ``observer(depth,
        frontier)`` is called once per iteration (used by early failure
        detection).  ``max_iterations`` bounds the search; ``converged``
        tells whether a fixpoint was reached.
        """
        bdd = self.bdd
        tracer = self.stats.tracer
        if not partitioned:
            self.require_transition()
        self._hard_gc_rearm = 0
        with self.stats.phase("reach") as timer:
            current = self.init if init is None else init
            reached = current
            rings = [current]
            # The image computations below run their own GC/reorder safe
            # points that only know about registered roots and the
            # quantification-local pool — the onion rings must be durable
            # roots, not just extra_roots at this loop's own safe point.
            # (frontier is always rings[-1] and current is rings[0] when
            # image() runs, so the group covers every handle the loop
            # holds besides reached, which is registered separately.)
            bdd.register_root_group("fsm.rings", rings)
            iterations = 0
            converged = False
            frontier = current
            while frontier != bdd.false:
                if max_iterations is not None and iterations >= max_iterations:
                    break
                if observer is not None:
                    observer(iterations, frontier)
                step = (
                    self.image_partitioned(frontier)
                    if partitioned
                    else self.image(frontier)
                )
                frontier = bdd.diff(step, reached)
                iterations += 1
                if frontier == bdd.false:
                    converged = True
                    break
                reached = bdd.or_(reached, frontier)
                rings.append(frontier)
                bdd.register_root_group("fsm.rings", rings)
                bdd.register_root("fsm.reached", reached)
                if tracer.enabled:
                    tracer.instant(
                        "reach.ring", cat="reach",
                        depth=iterations,
                        frontier_nodes=bdd.size(frontier),
                        reached_nodes=bdd.size(reached),
                        frontier_states=self.count_states(frontier),
                        reached_states=self.count_states(reached),
                    )
                # Safe point: every live node the loop holds is either a
                # registered root or in extra_roots below.
                if len(bdd) > GC_NODE_THRESHOLD and len(bdd) >= self._hard_gc_rearm:
                    freed = bdd.gc(extra_roots=rings + [frontier, current])
                    after = len(bdd)
                    # A live set permanently above the threshold used to
                    # trigger a full sweep on *every* iteration even when
                    # the previous sweep freed almost nothing.  Re-arm
                    # only once the table has regrown past the survivors
                    # by half, so sweeps track actual garbage build-up.
                    self._hard_gc_rearm = max(
                        GC_NODE_THRESHOLD + 1, after + after // 2
                    )
                    self.stats.bump("reach_hard_gc")
                    self.stats.bump("reach_hard_gc_freed", freed)
                    if tracer.enabled:
                        tracer.instant(
                            "reach.hard_gc", cat="reach",
                            depth=iterations, freed=freed, live=after,
                        )
                else:
                    freed = bdd.maybe_gc(
                        extra_roots=rings + [frontier, current]
                    )
                    if freed:
                        self.stats.bump("auto_gc_freed", freed)
        return ReachResult(
            reached=reached,
            rings=rings,
            iterations=iterations,
            converged=converged,
            seconds=timer.seconds,
        )

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    def count_states(self, states: int) -> int:
        """Number of distinct states in ``states`` (valid encodings only)."""
        constrained = self.bdd.and_(states, self.state_domain())
        return self.bdd.sat_count(constrained, self.x_bits())

    def decode_state(self, assignment: Dict[int, bool]) -> Dict[str, str]:
        """Boolean assignment -> latch-name to value mapping."""
        return {l.name: l.x.decode(assignment) for l in self.latches}

    def states_iter(self, states: int, limit: Optional[int] = None) -> Iterator[Dict[str, str]]:
        """Enumerate states as latch-value dictionaries (up to ``limit``)."""
        constrained = self.bdd.and_(states, self.state_domain())
        for i, assignment in enumerate(self.bdd.sat_iter(constrained, self.x_bits())):
            if limit is not None and i >= limit:
                return
            yield self.decode_state(assignment)

    def state_cube(self, valuation: Dict[str, str]) -> int:
        """BDD of the single state (or partial state set) ``valuation``."""
        f = self.bdd.true
        for name, value in valuation.items():
            f = self.bdd.and_(f, self.mdd[name].literal(value))
        return f

    def pick_state(self, states: int) -> Optional[Dict[str, str]]:
        """One concrete state out of ``states`` (None if empty)."""
        constrained = self.bdd.and_(states, self.state_domain())
        cube = self.bdd.pick_cube(constrained, self.x_bits())
        if cube is None:
            return None
        return self.decode_state(cube)
