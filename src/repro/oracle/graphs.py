"""Explicit-graph SCC decomposition and fair-cycle detection.

The reference counterpart of :mod:`repro.lc.faircycle`.  Fairness is a
list of Büchi edge predicates plus Streett (e, f) pairs, evaluated on
explicit ``(src, dst)`` edges.  A fair SCC is found by the classic
Streett edge-removal recursion over SCCs, which shares no logic with
the symbolic engine's edge-deleting fixpoint and so serves as an
independent reference for it:

* every Büchi predicate must be witnessed by an internal edge of the SCC
  (single-state SCCs need a self-loop),
* for every Streett pair, either no e-edge occurs inside the SCC, or
  some f-edge does; if e-edges occur without any f-edge, the e-edges are
  deleted and the remainder re-decomposed recursively.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Sequence,
    Set,
    Tuple,
)

Node = Hashable
Edge = Tuple[Node, Node]
EdgePred = Callable[[Node, Node], bool]


class ExplicitFairness:
    """Fairness constraints as predicates over explicit edges.

    ``buchi`` — each predicate must hold on infinitely many edges of a
    fair path (mirrors ``NormalizedFairness.buchi`` edge BDDs).
    ``streett`` — (e, f) pairs: if e-edges recur, f-edges must recur
    (mirrors ``NormalizedFairness.streett``).
    """

    def __init__(
        self,
        buchi: Sequence[EdgePred] = (),
        streett: Sequence[Tuple[EdgePred, EdgePred]] = (),
    ):
        self.buchi: List[EdgePred] = list(buchi)
        self.streett: List[Tuple[EdgePred, EdgePred]] = list(streett)

    @property
    def trivial(self) -> bool:
        return not self.buchi and not self.streett

    @staticmethod
    def state_buchi(member: Callable[[Node], bool]) -> EdgePred:
        """A Büchi state set S, read as "edge leaving an S-state"."""
        return lambda u, v: member(u)

    @staticmethod
    def negative_state(member: Callable[[Node], bool]) -> EdgePred:
        """A negative state set S: fair paths leave S infinitely often."""
        return lambda u, v: not member(u)


def sccs(
    nodes: Iterable[Node], succ: Callable[[Node], Iterable[Node]]
) -> List[Set[Node]]:
    """Strongly connected components (iterative Tarjan).

    ``succ`` must stay within ``nodes``.  Returned in reverse
    topological order; includes trivial single-node components.
    """
    nodes = list(nodes)
    node_set = set(nodes)
    index: Dict[Node, int] = {}
    lowlink: Dict[Node, int] = {}
    on_stack: Set[Node] = set()
    stack: List[Node] = []
    out: List[Set[Node]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        # Each frame: (node, iterator over successors).
        work: List[Tuple[Node, Iterable[Node]]] = [
            (root, iter([s for s in succ(root) if s in node_set]))
        ]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append(
                        (child, iter([s for s in succ(child) if s in node_set]))
                    )
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                comp: Set[Node] = set()
                while True:
                    w = stack.pop()
                    on_stack.remove(w)
                    comp.add(w)
                    if w == node:
                        break
                out.append(comp)
    return out


def _internal_edges(comp: Set[Node], edges: Set[Edge]) -> Set[Edge]:
    return {(u, v) for (u, v) in edges if u in comp and v in comp}


def _scc_is_fair(
    comp: Set[Node], edges: Set[Edge], fairness: ExplicitFairness
) -> bool:
    """Whether the component ``comp`` holds a fair cycle (Streett
    edge-removal recursion)."""
    internal = _internal_edges(comp, edges)
    if not internal:
        return False  # single state without a self-loop
    for pred in fairness.buchi:
        if not any(pred(u, v) for (u, v) in internal):
            return False
    removed: Set[Edge] = set()
    for e_pred, f_pred in fairness.streett:
        e_edges = {(u, v) for (u, v) in internal if e_pred(u, v)}
        if e_edges and not any(f_pred(u, v) for (u, v) in internal):
            removed |= e_edges
    if not removed:
        return True
    # Delete the offending e-edges and re-decompose what remains.  The
    # component may stay strongly connected; recursion still terminates
    # because each level strictly removes edges.
    remaining = internal - removed
    succ: Dict[Node, List[Node]] = {n: [] for n in comp}
    for u, v in remaining:
        succ[u].append(v)
    for sub in sccs(sorted(comp, key=repr), lambda n: succ[n]):
        if _scc_is_fair(sub, remaining, fairness):
            return True
    return False


def fair_sccs(
    nodes: Iterable[Node],
    edges: Set[Edge],
    fairness: ExplicitFairness,
) -> List[Set[Node]]:
    """All maximal SCCs (within ``nodes``) containing a fair cycle."""
    node_set = set(nodes)
    internal = {(u, v) for (u, v) in edges if u in node_set and v in node_set}
    succ: Dict[Node, List[Node]] = {n: [] for n in node_set}
    for u, v in internal:
        succ[u].append(v)
    out = []
    for comp in sccs(sorted(node_set, key=repr), lambda n: succ[n]):
        if _scc_is_fair(comp, internal, fairness):
            out.append(comp)
    return out


def backward_closure(
    targets: Set[Node], edges: Set[Edge], within: Set[Node]
) -> Set[Node]:
    """States in ``within`` that can reach ``targets`` via ``within``."""
    pred: Dict[Node, List[Node]] = {n: [] for n in within}
    for u, v in edges:
        if u in within and v in within:
            pred[v].append(u)
    reached = set(t for t in targets if t in within)
    frontier = list(reached)
    while frontier:
        node = frontier.pop()
        for p in pred[node]:
            if p not in reached:
                reached.add(p)
                frontier.append(p)
    return reached


def fair_path_states(
    region: Set[Node],
    edges: Set[Edge],
    fairness: ExplicitFairness,
) -> Set[Node]:
    """States in ``region`` with an infinite fair path staying in ``region``.

    The explicit counterpart of ``faircycle.all_fair_states``: find the
    fair SCCs of the region-restricted graph, then take the backward
    closure within the region.  With trivial fairness this degenerates
    to "can reach a cycle", matching EG over a possibly partial
    transition relation.
    """
    fair_cores: Set[Node] = set()
    for comp in fair_sccs(region, edges, fairness):
        fair_cores |= comp
    if not fair_cores:
        return set()
    return backward_closure(fair_cores, edges, region)
