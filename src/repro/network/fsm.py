"""Symbolic FSM: transition relation, image computation, reachability.

This is the engine the property checkers run on.  A :class:`SymbolicFsm`
wraps an :class:`~repro.network.encode.EncodedNetwork` and provides:

* product transition-relation construction ``T(x, y)`` with a selectable
  early-quantification schedule (paper §4),
* forward/backward image with the present/next rename maps,
* breadth-first reachability that records the frontier "onion rings"
  needed by the debuggers to extract shortest error-trace prefixes,
* state counting and enumeration in terms of the original multi-valued
  latch values.

After encode a machine's latches, conjuncts and initial states never
change.  A property monitor (paper §5.2's language-containment product)
is a :meth:`SymbolicFsm.product`, a new machine on the same encoding,
so any number of monitors share one machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set

from repro.bdd.manager import BDD
from repro.bdd.mdd import MddManager, MvVar
from repro.blifmv.ast import Model
from repro.blifmv.hierarchy import Elaboration
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.network.encode import EncodedNetwork, LatchVars, encode
from repro.network.quantify import Conjunct, QuantifyResult, multiply_and_quantify
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
    """The product machine of a flat BLIF-MV model, or of such a machine
    and a property monitor (:meth:`product`)."""

    def __init__(
        self,
        model: "Model | Elaboration",
        order_method: str = "affinity",
        config: EngineConfig = DEFAULT_CONFIG,
        tracer: Optional[Tracer] = None,
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
                config=config,
                elaboration=elaboration,
                stats=self.stats,
            )
        self._start(list(self.network.latches), list(self.network.conjuncts),
                    self.network.init)
        self.stats.bdd = self.bdd
        self.bdd.tracer = self.stats.tracer

    def _start(self, latches: List[LatchVars], conjuncts: List[Conjunct],
               init: int) -> None:
        """Fix the machine's latches, conjuncts and initial states."""
        self.mdd: MddManager = self.network.mdd
        self.bdd: BDD = self.mdd.bdd
        self.latches = latches
        self.conjuncts = conjuncts
        self.init = init
        self.trans: Optional[int] = None
        self.quantify_result: Optional[QuantifyResult] = None
        # Image cubes and rename maps, built on first use.
        self._x_cube: Optional[int] = None
        self._y_cube: Optional[int] = None
        self._x_to_y: Optional[Dict[int, int]] = None
        self._y_to_x: Optional[Dict[int, int]] = None
        # Watermark gating full GC sweeps inside reachable(); see there.
        self._hard_gc_rearm = 0
        # The reachable() run whose sets the machine holds: the last
        # converged one, else the last one.
        self._last_reach: Optional[ReachResult] = None
        self.bdd.keep(self.live_handles)

    def product(self, x: MvVar, y: MvVar, reset: Sequence[str], init: int,
                relation: int, label: str) -> "SymbolicFsm":
        """This machine with the latch ``x``/``y`` (reset values
        ``reset``), its conjunct ``relation`` and the initial states
        ``init``: a new machine on this one's encoding, manager and
        statistics (see :func:`repro.automata.attach`)."""
        product = object.__new__(SymbolicFsm)
        product.stats, product.network = self.stats, self.network
        latch = LatchVars(x.name, x, y, input_wire=y.name, reset=tuple(reset))
        conjunct = Conjunct(relation, frozenset(self.bdd.support(relation)), label)
        product._start([*self.latches, latch], [*self.conjuncts, conjunct], init)
        return product

    def live_handles(self) -> List[int]:
        """Every handle the machine holds long-term: init, the conjuncts,
        the relation, the image cubes, and the rings and reached set of
        its last converged :meth:`reachable` run, else of its last run."""
        handles = [self.init, *(c.node for c in self.conjuncts)]
        handles.extend(h for h in (self.trans, self._x_cube, self._y_cube)
                       if h is not None)
        if self._last_reach is not None:
            handles.append(self._last_reach.reached)
            handles.extend(self._last_reach.rings)
        return handles

    # ------------------------------------------------------------------
    # Variable bookkeeping
    # ------------------------------------------------------------------

    @property
    def model(self) -> Model:
        return self.network.model

    def var(self, name: str) -> MvVar:
        """Look up any encoded variable (state, next-state or wire)."""
        return self.mdd[name]

    def x_bits(self) -> List[int]:
        return [b for l in self.latches for b in l.x.bits]

    def y_bits(self) -> List[int]:
        return [b for l in self.latches for b in l.y.bits]

    def x_cube(self) -> int:
        if self._x_cube is None:
            self._x_cube = self.bdd.cube(self.x_bits())
        return self._x_cube

    def y_cube(self) -> int:
        if self._y_cube is None:
            self._y_cube = self.bdd.cube(self.y_bits())
        return self._y_cube

    def x_to_y(self) -> Dict[int, int]:
        if self._x_to_y is None:
            self._x_to_y = self.mdd.rename_map((l.x, l.y) for l in self.latches)
        return self._x_to_y

    def y_to_x(self) -> Dict[int, int]:
        if self._y_to_x is None:
            self._y_to_x = self.mdd.rename_map((l.y, l.x) for l in self.latches)
        return self._y_to_x

    def state_domain(self) -> int:
        """Conjunction of present-state domain constraints (valid codes)."""
        return self.mdd.domain_constraint(l.x for l in self.latches)

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
        return self.bdd.rename(nxt, self.y_to_x())

    def preimage(self, states: int, trans: Optional[int] = None) -> int:
        """Backward image: states with a successor in ``states``."""
        t = self.require_transition() if trans is None else trans
        primed = self.bdd.rename(states, self.x_to_y())
        return self.bdd.and_exists(t, primed, self.y_cube())

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------

    def reachable(
        self,
        init: Optional[int] = None,
        observer: Optional[Callable[[int, int, int], bool]] = None,
    ) -> ReachResult:
        """Breadth-first reachable states from ``init`` (default: reset states).

        ``rings[k]`` holds exactly the states first reached at depth ``k``
        (the BFS onion rings) — the debuggers walk these backwards to
        produce shortest counterexample prefixes.  ``observer(depth,
        frontier, reached)`` is called once per iteration, before the
        frontier's image (early failure detection); a true return ends
        the search there, with the rings up to ``depth``.  ``converged``
        tells whether a fixpoint was reached; a stopped search's sets are
        rooted only while the machine has no converged one
        (:meth:`live_handles`).
        """
        bdd = self.bdd
        tracer = self.stats.tracer
        self.require_transition()
        self._hard_gc_rearm = 0
        current = self.init if init is None else init
        reached = frontier = current
        rings = [current]
        iterations = 0
        converged = False
        # The observer and the loop's own GC run safe points, so the loop
        # holds its sets (current is rings[0]) throughout.
        hold = bdd.hold(lambda: [reached, frontier, *rings])
        with self.stats.phase("reach") as timer, hold:
            while frontier != bdd.false:
                if observer is not None and observer(iterations, frontier, reached):
                    break
                frontier = bdd.diff(self.image(frontier), reached)
                iterations += 1
                if frontier == bdd.false:
                    converged = True
                    break
                reached = bdd.or_(reached, frontier)
                rings.append(frontier)
                if tracer.enabled:
                    tracer.instant(
                        "reach.ring", cat="reach",
                        depth=iterations,
                        frontier_nodes=bdd.size(frontier),
                        reached_nodes=bdd.size(reached),
                        frontier_states=self.count_states(frontier),
                        reached_states=self.count_states(reached),
                    )
                if len(bdd) > GC_NODE_THRESHOLD and len(bdd) >= self._hard_gc_rearm:
                    freed = bdd.gc()
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
                    freed = bdd.maybe_gc()
                    if freed:
                        self.stats.bump("auto_gc_freed", freed)
        result = ReachResult(
            reached=reached,
            rings=rings,
            iterations=iterations,
            converged=converged,
            seconds=timer.seconds,
        )
        if converged or self._last_reach is None or not self._last_reach.converged:
            self._last_reach = result
        return result

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
