"""Fair-cycle detection: the BDD-based core of language emptiness and
fair CTL (paper §5.3).

Both language containment and fair CTL model checking reduce to *cycle
exploration*: does a reachable cycle exist that satisfies all fairness
constraints?  Following HSIS (which builds on Emerson-Lei [10] and the
efficient ω-regular containment operators of Hojati et al. [17]), the
engine decides it with fixpoints over the pair (region, relation):

1. **Hull** (:func:`fair_hull`) — an Emerson-Lei-style greatest fixpoint
   that prunes the state space to an over-approximation of the states
   lying on fair cycles.  For pure (generalized) Büchi fairness the hull
   is exact: every hull state starts a fair path inside the hull.
2. **Streett edge deletion** (:func:`fair_core`) — exact emptiness for
   Streett pairs ``inf(E) -> inf(F)``, an edge-deleting form of the
   Kesten-Pnueli-Raviv compassion fixpoint.  A hull state that cannot
   reach an ``F``-edge inside the hull lies on no fair cycle through one
   of its ``E``-edges, so those edges are deleted from the relation and
   the hull recomputed, until a round deletes nothing.  No edge of a fair
   cycle is ever deleted, and every bottom SCC of the final (hull,
   relation) is fair, so the final hull is empty iff no fair cycle
   exists.

:func:`all_fair_states` is the backward closure of that final hull under
the full relation.  :func:`find_fair_scc` needs an SCC only for its
witness: it returns one bottom SCC of the final hull.

Edge sets are BDDs over (present, next) state bits and are always
interpreted intersected with the transition relation.

Every fixpoint loop here is a GC/reorder safe point: it calls
:meth:`~repro.bdd.manager.BDD.maybe_gc` with the sets it holds.  A
function that holds handles across a callee with its own safe points
declares them with :meth:`~repro.bdd.manager.BDD.hold`, so a collection
forced anywhere inside the search keeps everything the open holds still
need, including the callers' unrooted arguments.  The graph's own
relation and space, and the machine's image cubes, are rooted for as
long as their owners live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.automata.fairness import NormalizedFairness
from repro.bdd.manager import BDD
from repro.bdd.ops import minterm


class FairGraph:
    """Symbolic graph view of a :class:`~repro.network.fsm.SymbolicFsm`:
    restricted forward/backward images over arbitrary sub-relations,
    through the machine's own image operators."""

    def __init__(self, fsm, trans: Optional[int] = None):
        self.fsm = fsm
        self.bdd: BDD = fsm.bdd
        self.trans: int = fsm.require_transition() if trans is None else trans
        # The machine's image cubes are built before the space: the
        # allocation order fixes node ids, and with them the computed
        # cache's collisions and every exact op count.
        fsm.x_cube()
        fsm.y_cube()
        self.space: int = fsm.state_domain()
        self.bdd.keep(self.live_handles)

    def live_handles(self) -> List[int]:
        """The graph's fixed nodes: relation and space."""
        return [self.trans, self.space]

    # -- primitive images ------------------------------------------------

    def post(self, states: int, trans: Optional[int] = None) -> int:
        """Successor states of ``states`` under ``trans``."""
        return self.fsm.image(states, self.trans if trans is None else trans)

    def pre(self, states: int, trans: Optional[int] = None) -> int:
        """Predecessor states of ``states`` under ``trans``."""
        return self.fsm.preimage(states, self.trans if trans is None else trans)

    def restrict(self, trans: int, states: int) -> int:
        """Edges with both endpoints inside ``states``."""
        bdd = self.bdd
        primed = bdd.rename(states, self.fsm.x_to_y())
        return bdd.and_(bdd.and_(trans, states), primed)

    def edge_sources(self, edges: int, trans: int) -> int:
        """States with an outgoing edge in ``edges`` (within ``trans``)."""
        return self.bdd.exist(self.fsm.y_cube(), self.bdd.and_(trans, edges))

    def sources_within(self, edges: int, region: int) -> int:
        """States of ``region`` with an edge of ``edges`` into ``region``."""
        return self.bdd.and_(region, self.pre(region, edges))

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
            bdd.maybe_gc(extra_roots=(region, target, trans, reach, frontier))
        return reach

    def forward_within(self, region: int, source: int, trans: int) -> int:
        """States of ``region`` reachable from ``source`` inside ``region``."""
        bdd = self.bdd
        reach = bdd.and_(source, region)
        frontier = reach
        while frontier != bdd.false:
            frontier = bdd.diff(bdd.and_(self.post(frontier, trans), region), reach)
            reach = bdd.or_(reach, frontier)
            bdd.maybe_gc(extra_roots=(region, source, trans, reach, frontier))
        return reach

    def invariant_core(self, region: int, trans: int) -> int:
        """Greatest subset of ``region`` where every state has a successor
        inside the subset (nu Z. region & pre(Z))."""
        bdd = self.bdd
        z = region
        while True:
            kept = bdd.and_(z, self.pre(z, trans))
            if kept == z:
                return z
            z = kept
            bdd.maybe_gc(extra_roots=(region, trans, z))

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
    Streett pairs (refined by :func:`fair_core`).  With no fairness
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
    old = z  # the hold reads it before the loop first sets it
    with bdd.hold(lambda: [space, t, z, old, *buchi_trans, *streett_f_trans,
                           *streett_avoid_trans, *fairness.nodes()]):
        while True:
            old = z
            # Every hull state needs a successor inside the hull.
            z = bdd.and_(z, graph.pre(z, t))
            for tb in buchi_trans:
                target = graph.sources_within(tb, z)
                z = graph.backward_within(z, target, t)
            for tf, t_avoid in zip(streett_f_trans, streett_avoid_trans):
                # avoid first: target_f is in no hold, so it must not be
                # held across invariant_core's safe points.
                avoid = graph.invariant_core(z, t_avoid)
                target_f = graph.sources_within(tf, z)
                z = graph.backward_within(z, bdd.or_(target_f, avoid), t)
            if z == old:
                return z
            bdd.maybe_gc()


# ----------------------------------------------------------------------
# Exact Streett refinement (edge deletion) and the witness SCC
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


def fair_core(
    graph: FairGraph,
    fairness: NormalizedFairness,
    space: int,
) -> Tuple[int, int]:
    """The exact fair-cycle region of ``space`` and its refined relation.

    Returns ``(region, trans)``: ``region`` is empty iff no cycle within
    ``space`` satisfies all fairness constraints.  Every state of
    ``region`` has a successor in it under ``trans`` (a sub-relation of
    the effective cycle relation), and every bottom SCC of ``region``
    under ``trans`` is fair.

    Starting from the converged :func:`fair_hull`, each round computes,
    for every residual Streett pair ``(E, F)``, the hull states that can
    reach the source of an ``F``-edge into the hull, and deletes every
    ``E``-edge whose source is a hull state outside that set: a cycle
    through such an edge never sees ``F``.  A fair cycle with an
    ``E``-edge has an ``F``-edge, which all its states reach, so it keeps
    all its edges, and the hull, recomputed under the pruned relation,
    keeps every fair cycle.  The rounds stop when one deletes nothing;
    then an ``E``-edge inside a bottom SCC starts at a state that reaches
    an ``F``-edge, and that path and edge stay inside the bottom SCC.
    """
    bdd = graph.bdd
    tracer = graph.fsm.stats.tracer
    trans, residual = effective_cycle_relation(graph, fairness)
    region = bdd.false  # the hold reads it before the hull sets it
    with bdd.hold(lambda: [space, trans, region, *fairness.nodes()]):
        region = fair_hull(graph, residual, space, trans=trans)
        rounds = 0
        while region != bdd.false and residual.streett:
            pruned = []
            for e_set, f_set, label in residual.streett:
                f_sources = graph.sources_within(bdd.and_(trans, f_set), region)
                reach_f = graph.backward_within(region, f_sources, trans)
                stuck = bdd.diff(region, reach_f)
                kept = bdd.diff(trans, bdd.and_(stuck, e_set))
                if kept != trans:
                    trans = kept
                    pruned.append(label)
            if not pruned:
                break
            rounds += 1
            if tracer.enabled:
                tracer.instant(
                    "lc.streett_prune", cat="lc",
                    round=rounds, pairs=pruned, hull_nodes=bdd.size(region),
                )
            region = fair_hull(graph, residual, region, trans=trans)
        return region, trans


def _bottom_scc(graph: FairGraph, region: int, trans: int) -> int:
    """One SCC of ``region`` under ``trans`` that no edge leaves inside
    ``region``.

    From a seed, ``fwd`` is its forward closure and the seed's SCC the
    backward closure within ``fwd``.  If the two differ, ``fwd \\ scc``
    is forward-closed inside ``region`` and holds a bottom SCC, so the
    search reseeds there.  Every ``region`` state must have a successor
    in ``region``, which makes the SCC found non-trivial.
    """
    bdd = graph.bdd
    part = region
    fwd = scc = bdd.false  # the hold reads them before they are set
    with bdd.hold(lambda: [region, trans, part, fwd, scc]):
        while True:
            seed = graph.pick_state(part)
            fwd = graph.forward_within(part, seed, trans)
            scc = graph.backward_within(fwd, seed, trans)
            if scc == fwd:
                return scc
            part = bdd.diff(fwd, scc)


def find_fair_scc(
    graph: FairGraph,
    fairness: NormalizedFairness,
    space: int,
) -> Optional[FairScc]:
    """Exact search for a fair strongly connected subgraph within ``space``.

    Returns None iff no cycle within ``space`` satisfies all fairness
    constraints — i.e. the language (restricted to ``space``) is empty.
    Otherwise the witness is a bottom SCC of :func:`fair_core`'s region
    under its refined relation.  The witness cycle uses only that
    relation (unsatisfiable Streett pairs compiled into edge deletions,
    and ``E``-edges that cannot see their ``F`` deleted); the caller's
    prefix may use the full relation.
    """
    bdd = graph.bdd
    with bdd.hold(lambda: [space, *fairness.nodes()]):
        region, trans = fair_core(graph, fairness, space)
        if region == bdd.false:
            return None
        scc = _bottom_scc(graph, region, trans)
    t_scc = graph.restrict(trans, scc)
    required: List[Tuple[int, str]] = []
    for edges, label in fairness.buchi:
        required.append((bdd.and_(t_scc, edges), label))
    for e_set, f_set, label in fairness.streett:
        if bdd.and_(t_scc, e_set) != bdd.false:
            required.append((bdd.and_(t_scc, f_set), label))
    return FairScc(states=scc, trans=t_scc, required_edges=required)


def all_fair_states(
    graph: FairGraph,
    fairness: NormalizedFairness,
    space: int,
) -> int:
    """All states of ``space`` from which a fair path inside ``space`` exists.

    Every state of :func:`fair_core`'s region reaches a fair bottom SCC
    inside it, and every state on a fair cycle is in the region, so the
    answer is the region's backward closure under the full relation.
    For pure Büchi fairness the region is the Emerson-Lei hull.
    """
    bdd = graph.bdd
    with bdd.hold(lambda: [space, *fairness.nodes()]):
        region, _trans = fair_core(graph, fairness, space)
        return graph.backward_within(
            bdd.and_(space, graph.space), region, graph.trans
        )
