"""Fair-cycle detection: the BDD-based core of language emptiness and
fair CTL (paper §5.3).

Both language containment and fair CTL model checking reduce to *cycle
exploration*: does a reachable cycle exist that satisfies all fairness
constraints?  Following HSIS (which builds on Emerson-Lei [10] and the
efficient ω-regular containment operators of Hojati et al. [17]), the
engine works in two phases:

1. **Hull computation** (:func:`fair_hull`) — an Emerson-Lei-style
   greatest fixpoint that prunes the state space to an over-approximation
   of the states lying on fair cycles.  For pure (generalized) Büchi
   fairness the hull is exact: every hull state starts a fair path inside
   the hull.
2. **SCC refinement** — exact emptiness for Streett conditions.  One
   enumerator, :func:`nontrivial_sccs`, yields every non-trivial SCC of a
   region (Xie-Beerel forward/backward closure from a seed state, with
   trimming that relies on what each split already proves), and
   :func:`_check_scc` applies the classic Streett edge-removal recursion
   to each: an SCC containing ``E``-edges but no ``F``-edge cannot use
   those ``E``-edges, so they are deleted and the sub-SCCs re-enumerated.
   :func:`find_fair_scc` stops at the first accepted SCC;
   :func:`all_fair_states` takes the union of all of them.

Edge sets are BDDs over (present, next) state bits and are always
interpreted intersected with the transition relation.

Every fixpoint loop here is a GC/reorder safe point (:meth:`FairGraph.
safe_point`).  A function that holds handles across a callee with its own
safe points declares them with :meth:`FairGraph.hold`, so a collection
forced anywhere inside the search keeps everything the open frames still
need, including the callers' unrooted arguments.
"""

from __future__ import annotations

from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.automata.fairness import NormalizedFairness
from repro.bdd.manager import BDD
from repro.bdd.ops import minterm


class FairGraph:
    """Symbolic graph view of a :class:`~repro.network.fsm.SymbolicFsm`.

    Bundles the rename maps and quantification cubes needed for
    restricted forward/backward images over arbitrary sub-relations.
    """

    def __init__(self, fsm, trans: Optional[int] = None):
        self.fsm = fsm
        self.bdd: BDD = fsm.bdd
        self.trans: int = fsm.require_transition() if trans is None else trans
        self._x_cube = fsm.x_cube()
        self._y_cube = fsm.y_cube()
        self._x_to_y = fsm.x_to_y()
        self._y_to_x = fsm.y_to_x()
        self.space: int = fsm.state_domain()
        # The graph's fixed nodes must survive any auto-GC safe point.
        self.bdd.register_root("graph.trans", self.trans)
        self.bdd.register_root("graph.x_cube", self._x_cube)
        self.bdd.register_root("graph.y_cube", self._y_cube)
        self.bdd.register_root("graph.space", self.space)
        # Handle providers of the frames now open (see hold()).
        self._frames: List[Callable[[], Iterable[int]]] = []

    # -- GC safe points ----------------------------------------------------

    @contextmanager
    def hold(self, handles: Callable[[], Iterable[int]]) -> Iterator[None]:
        """Keep ``handles()`` alive at every safe point inside the block.

        ``handles`` is called only when a collection is due, so a closure
        over the caller's locals reports their values at that moment.
        """
        self._frames.append(handles)
        try:
            yield
        finally:
            self._frames.remove(handles)

    def safe_point(self, *handles: int) -> None:
        """Run a due GC/reorder; ``handles`` and every open frame survive."""
        held = chain.from_iterable(frame() for frame in self._frames)
        self.bdd.maybe_gc(extra_roots=chain(handles, held))

    # -- primitive images ------------------------------------------------

    def post(self, states: int, trans: Optional[int] = None) -> int:
        """Successor states of ``states`` under ``trans``."""
        t = self.trans if trans is None else trans
        nxt = self.bdd.and_exists(t, states, self._x_cube)
        return self.bdd.rename(nxt, self._y_to_x, strict=False)

    def pre(self, states: int, trans: Optional[int] = None) -> int:
        """Predecessor states of ``states`` under ``trans``."""
        t = self.trans if trans is None else trans
        primed = self.bdd.rename(states, self._x_to_y, strict=False)
        return self.bdd.and_exists(t, primed, self._y_cube)

    def restrict(self, trans: int, states: int) -> int:
        """Edges with both endpoints inside ``states``."""
        bdd = self.bdd
        primed = bdd.rename(states, self._x_to_y, strict=False)
        return bdd.and_(bdd.and_(trans, states), primed)

    def edge_sources(self, edges: int, trans: int) -> int:
        """States with an outgoing edge in ``edges`` (within ``trans``)."""
        return self.bdd.exist(self._y_cube, self.bdd.and_(trans, edges))

    def prime(self, states: int) -> int:
        return self.bdd.rename(states, self._x_to_y, strict=False)

    # -- closures ----------------------------------------------------------

    def backward_within(self, region: int, target: int, trans: int) -> int:
        """States of ``region`` with a path inside ``region`` to ``target``.

        Frontier-based: each step takes the preimage of the newly added
        states only, which keeps the per-iteration BDD work proportional
        to the frontier rather than the accumulated set.
        """
        bdd = self.bdd
        reach = bdd.and_(target, region)
        frontier = reach
        while frontier != bdd.false:
            frontier = bdd.diff(bdd.and_(self.pre(frontier, trans), region), reach)
            reach = bdd.or_(reach, frontier)
            self.safe_point(region, target, trans, reach, frontier)
        return reach

    def forward_within(self, region: int, source: int, trans: int) -> int:
        """States of ``region`` reachable from ``source`` inside ``region``."""
        bdd = self.bdd
        reach = bdd.and_(source, region)
        frontier = reach
        while frontier != bdd.false:
            frontier = bdd.diff(bdd.and_(self.post(frontier, trans), region), reach)
            reach = bdd.or_(reach, frontier)
            self.safe_point(region, source, trans, reach, frontier)
        return reach

    def invariant_core(self, region: int, trans: int) -> int:
        """Greatest subset of ``region`` where every state has a successor
        inside the subset (nu Z. region & pre(Z))."""
        return _trim(self, region, trans, pred=False)

    def pick_state(self, states: int) -> Optional[int]:
        """One concrete state of ``states`` as a minterm BDD (None if empty)."""
        bdd = self.bdd
        constrained = bdd.and_(states, self.space)
        cube = bdd.pick_cube(constrained, self.fsm.x_bits())
        if cube is None:
            return None
        return minterm(bdd, cube)


# ----------------------------------------------------------------------
# Hull (Emerson-Lei fixpoint)
# ----------------------------------------------------------------------


def effective_cycle_relation(
    graph: FairGraph, fairness: NormalizedFairness
) -> Tuple[int, NormalizedFairness]:
    """Preprocess fairness into ``(cycle_relation, residual_fairness)``.

    A Streett pair ``inf(E) -> inf(F)`` with ``F`` unsatisfiable means a
    fair cycle may not contain *any* ``E``-edge (it would occur
    infinitely often with no ``F`` to compensate), so those edges are
    deleted from the relation used for cycle detection — prefixes may
    still use them.  This is exact and collapses the search for the very
    common "complemented recurrence acceptance" case: instead of hull
    refinement over thousands of tiny SCCs, the constraint disappears
    into the graph.
    """
    bdd = graph.bdd
    t_eff = graph.trans
    residual = NormalizedFairness(buchi=list(fairness.buchi), streett=[])
    for e_set, f_set, label in fairness.streett:
        if bdd.and_(graph.trans, f_set) == bdd.false:
            t_eff = bdd.diff(t_eff, e_set)
        else:
            residual.streett.append((e_set, f_set, label))
    return t_eff, residual


def fair_hull(
    graph: FairGraph,
    fairness: NormalizedFairness,
    space: int,
    trans: Optional[int] = None,
) -> int:
    """Emerson-Lei hull: over-approximation of the fair-cycle states.

    Exact for generalized Büchi; an upper bound in the presence of
    Streett pairs (refined by :func:`find_fair_scc`).  With no fairness
    constraints at all this degenerates to "states on or leading to some
    cycle" (``nu Z . EX Z``), which is what plain infinite behaviour
    requires.

    Implementation notes: each fairness term's ``T & edges`` conjunction
    is precomputed once; paths "within Z" never materialize the
    restricted relation ``T & Z & Z'`` — preimages over the full relation
    intersected with ``Z`` are equivalent whenever the targets lie inside
    ``Z``, and much cheaper.
    """
    bdd = graph.bdd
    z = bdd.and_(space, graph.space)
    t = graph.trans if trans is None else trans
    buchi_trans = [bdd.and_(t, edges) for edges, _label in fairness.buchi]
    if any(tb == bdd.false for tb in buchi_trans):
        return bdd.false  # a required edge set has no edges at all
    streett_f_trans = [bdd.and_(t, f) for _e, f, _label in fairness.streett]
    streett_avoid_trans = [bdd.diff(t, e) for e, _f, _label in fairness.streett]

    def sources_within(trans_subset: int, region: int) -> int:
        """States of ``region`` with a ``trans_subset`` edge into ``region``."""
        return bdd.and_(region, graph.pre(region, trans_subset))

    old = z  # the frame reads it before the loop first sets it
    with graph.hold(lambda: [space, t, z, old, *buchi_trans, *streett_f_trans,
                             *streett_avoid_trans, *fairness.nodes()]):
        while True:
            old = z
            # Every hull state needs a successor inside the hull.
            z = bdd.and_(z, graph.pre(z, t))
            for tb in buchi_trans:
                target = sources_within(tb, z)
                z = graph.backward_within(z, target, t)
            for tf, t_avoid in zip(streett_f_trans, streett_avoid_trans):
                # avoid first: target_f is in no frame, so it must not be
                # held across invariant_core's safe points.
                avoid = graph.invariant_core(z, t_avoid)
                target_f = sources_within(tf, z)
                z = graph.backward_within(z, bdd.or_(target_f, avoid), t)
            if z == old:
                return z
            graph.safe_point()


# ----------------------------------------------------------------------
# Exact SCC-based search (Streett refinement, Xie-Beerel enumeration)
# ----------------------------------------------------------------------


@dataclass
class FairScc:
    """A fair strongly connected subgraph, with witness requirements.

    ``required_edges`` lists the symbolic edge sets a witness cycle must
    traverse (each Büchi set, plus the ``F`` side of every Streett pair
    whose ``E`` side occurs in the subgraph); the debugger threads a lasso
    through all of them.
    """

    states: int
    trans: int
    required_edges: List[Tuple[int, str]] = field(default_factory=list)


def _trim(
    graph: FairGraph,
    region: int,
    trans: int,
    succ: bool = True,
    pred: bool = True,
) -> int:
    """Shrink ``region`` to states with a successor (``succ``) and a
    predecessor (``pred``) inside it.

    Every SCC state has both within its own SCC, so no non-trivial SCC
    is lost, while transient fringe states — which would otherwise each
    cost a full seed-and-closure round — disappear in a cheap fixpoint.
    Removing a state without a successor never takes a predecessor away
    from a kept state (and vice versa), so a region that already has one
    property only needs the fixpoint for the other.
    """
    bdd = graph.bdd
    z = region
    while True:
        kept = z
        if succ:
            kept = bdd.and_(kept, graph.pre(kept, trans))
        if pred:
            kept = bdd.and_(kept, graph.post(kept, trans))
        if kept == z:
            return z
        z = kept
        graph.safe_point(region, trans, z)


def _self_loop(graph: FairGraph, state: int, trans: int) -> bool:
    """Whether the single state ``state`` has an edge to itself.  The edge
    is one minterm over both copies of the state bits, so the conjunction
    walks one path of ``trans``."""
    bdd = graph.bdd
    return bdd.and_(trans, bdd.and_(state, graph.prime(state))) != bdd.false


def nontrivial_sccs(graph: FairGraph, region: int, trans: int) -> Iterator[int]:
    """Yield every non-trivial SCC of ``region`` under ``trans``, once each.

    Xie-Beerel divide and conquer: from a seed state of a part, ``fwd``
    is its forward closure within the part and the SCC is the backward
    closure of the seed within ``fwd`` (the SCC lies inside ``fwd``).
    The rest splits into ``fwd \\ scc`` and ``part \\ fwd``, and no SCC
    spans both.

    Only the starting region is trimmed on both sides.  Each split keeps
    one side of the trim for free, so the next part needs the fixpoint
    for the other side only:

    * ``part \\ fwd`` keeps every predecessor: a predecessor inside
      ``fwd`` would have put the state in ``fwd``.  It may have lost
      successors, so only states without one are trimmed.
    * ``fwd \\ scc`` keeps every successor: a successor inside ``scc``
      would have put the state in ``scc``.  Only states without a
      predecessor are trimmed.

    Every popped part is a GC safe point.  The generator holds its work
    stack while suspended, so the caller may run safe points of its own
    between two SCCs; close it (or exhaust it) to release them.
    """
    bdd = graph.bdd
    # Work stack of (part, trim the successor side, trim the predecessor side).
    stack = [(bdd.and_(region, graph.space), True, True)]
    part = fwd = scc = bdd.false  # the frame reads them before they are set
    with graph.hold(lambda: [region, trans, part, fwd, scc,
                             *(entry[0] for entry in stack)]):
        while stack:
            part, succ, pred = stack.pop()
            graph.safe_point()
            part = _trim(graph, part, trans, succ=succ, pred=pred)
            if part == bdd.false:
                continue
            seed = graph.pick_state(part)
            fwd = graph.forward_within(part, seed, trans)
            scc = graph.backward_within(fwd, seed, trans)
            # A single state is an SCC only with a self-loop.
            if scc != seed or _self_loop(graph, seed, trans):
                yield scc
            stack.append((bdd.diff(fwd, scc), False, True))
            stack.append((bdd.diff(part, fwd), True, False))


def _first_fair_scc(
    graph: FairGraph,
    region: int,
    trans: int,
    fairness: NormalizedFairness,
) -> Optional[FairScc]:
    """The first SCC of ``region`` that :func:`_check_scc` accepts."""
    with closing(nontrivial_sccs(graph, region, trans)) as sccs:
        for scc in sccs:
            found = _check_scc(graph, scc, trans, fairness)
            if found is not None:
                return found
    return None


def _check_scc(
    graph: FairGraph,
    scc: int,
    trans: int,
    fairness: NormalizedFairness,
) -> Optional[FairScc]:
    """A fair subgraph of the non-trivial SCC ``scc`` (None if none)."""
    bdd = graph.bdd
    t_scc = graph.restrict(trans, scc)
    for edges, _label in fairness.buchi:
        if bdd.and_(t_scc, edges) == bdd.false:
            return None
    removable = bdd.false
    for e_set, f_set, _label in fairness.streett:
        if (
            bdd.and_(t_scc, e_set) != bdd.false
            and bdd.and_(t_scc, f_set) == bdd.false
        ):
            removable = bdd.or_(removable, e_set)
    if removable != bdd.false:
        # Offending E-edges cannot appear on any fair cycle here: delete
        # them and re-decompose.
        pruned = bdd.diff(t_scc, removable)
        return _first_fair_scc(graph, scc, pruned, fairness)
    required: List[Tuple[int, str]] = []
    for edges, label in fairness.buchi:
        required.append((bdd.and_(t_scc, edges), label))
    for e_set, f_set, label in fairness.streett:
        if bdd.and_(t_scc, e_set) != bdd.false:
            required.append((bdd.and_(t_scc, f_set), label))
    return FairScc(states=scc, trans=t_scc, required_edges=required)


def find_fair_scc(
    graph: FairGraph,
    fairness: NormalizedFairness,
    space: int,
    use_hull: bool = True,
) -> Optional[FairScc]:
    """Exact search for a fair strongly connected subgraph within ``space``.

    Returns None iff no cycle within ``space`` satisfies all fairness
    constraints — i.e. the language (restricted to ``space``) is empty.
    The witness cycle uses only the *effective* relation (unsatisfiable
    Streett pairs compiled into edge deletions); the caller's prefix may
    use the full relation.
    """
    bdd = graph.bdd
    t_eff, residual = effective_cycle_relation(graph, fairness)
    with graph.hold(lambda: [space, t_eff, *fairness.nodes()]):
        region = (
            fair_hull(graph, residual, space, trans=t_eff) if use_hull else space
        )
        region = bdd.and_(region, space)
        if region == bdd.false:
            return None
        return _first_fair_scc(graph, region, t_eff, residual)


def all_fair_states(
    graph: FairGraph,
    fairness: NormalizedFairness,
    space: int,
) -> int:
    """All states of ``space`` from which a fair path inside ``space`` exists.

    For pure Büchi fairness this is ``E[space U hull]`` with the exact
    Emerson-Lei hull.  With Streett pairs the hull may be strict, so the
    fair SCCs inside it are enumerated exhaustively and the backward
    closure taken from their union (exact, potentially slower — used by
    fair CTL only when Streett constraints are present).
    """
    bdd = graph.bdd
    t_eff, residual = effective_cycle_relation(graph, fairness)
    cores = bdd.false
    with graph.hold(lambda: [space, t_eff, cores, *fairness.nodes()]):
        hull = fair_hull(graph, residual, space, trans=t_eff)
        if not residual.streett:
            cores = hull
        else:
            for scc in nontrivial_sccs(graph, hull, t_eff):
                if _check_scc(graph, scc, t_eff, residual) is not None:
                    cores = bdd.or_(cores, scc)
        return graph.backward_within(
            bdd.and_(space, graph.space), cores, graph.trans
        )
