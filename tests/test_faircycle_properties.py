"""Property-based tests: the symbolic fair-cycle engine against an
explicit-state reference.

Random small machines with random Büchi / negative / Streett constraints
are checked two ways:

* symbolically, through :func:`repro.lc.faircycle.find_fair_scc`;
* explicitly, by enumerating every strongly connected subgraph closure
  with networkx and applying the fairness semantics directly (including
  the Streett edge-removal recursion).

The verdicts must agree, and any witness SCC the symbolic engine returns
must itself satisfy all constraints.  With Streett pairs over explicit
edge sets, the verdict and witness of :func:`find_fair_scc` and
:func:`repro.lc.faircycle.all_fair_states` are checked against
:mod:`repro.oracle.graphs`, once with a default manager and once with a
collection at every safe point; the witness is also checked to be a
bottom SCC of the refined relation :func:`repro.lc.faircycle.fair_core`
returns.
"""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.fairness import (
    BuchiEdge,
    BuchiState,
    FairnessSpec,
    NegativeStateSet,
    StreettPair,
)
from repro.blifmv import flatten, parse
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.lc.faircycle import (
    FairGraph,
    all_fair_states,
    fair_core,
    find_fair_scc,
)
from repro.debug.trace import thread_fair_cycle
from repro.network import SymbolicFsm
from repro.oracle.graphs import (
    ExplicitFairness,
    fair_path_states,
    fair_sccs,
    sccs,
)

N_STATES = 5
VALUES = [str(i) for i in range(N_STATES)]
# Every value of the machine's latch (the edges use the first N_STATES).
DOMAIN = [str(i) for i in range(8)]


def build_machine(edges, config=DEFAULT_CONFIG):
    """One-latch machine with the given explicit edge list."""
    by_src = {}
    for src, dst in edges:
        by_src.setdefault(src, set()).add(dst)
    rows = []
    for src, dsts in sorted(by_src.items()):
        targets = sorted(dsts)
        entry = targets[0] if len(targets) == 1 else "({})".format(",".join(targets))
        rows.append(f"{src} {entry}")
    body = "\n".join(rows) if rows else "0 0"
    text = f"""
.model g
.mv s,n 8
.table s -> n
{body}
.latch n s
.reset s
0
"""
    fsm = SymbolicFsm(flatten(parse(text)), config=config)
    fsm.build_transition()
    return fsm


def decode(fsm, states):
    """The latch values of a state set."""
    return frozenset(s["s"] for s in fsm.states_iter(states))


def edge_bdd(fsm, edge_set):
    """The edge set ``{(src, dst), ...}`` over present and next state."""
    bdd = fsm.bdd
    s, sn = fsm.var("s"), fsm.var("s#n")
    out = bdd.false
    for u, v in sorted(edge_set):
        out = bdd.or_(out, bdd.and_(s.literal(u), sn.literal(v)))
    return out


def decode_edges(fsm, rel):
    """The explicit ``(src, dst)`` edges of a relation BDD."""
    bdd = fsm.bdd
    s, sn = fsm.var("s"), fsm.var("s#n")
    return {
        (u, v) for u in DOMAIN for v in DOMAIN
        if bdd.and_(rel, bdd.and_(s.literal(u), sn.literal(v))) != bdd.false
    }


def replays(fair_graph, scc):
    """A cycle threaded through ``scc`` steps along ``scc.trans`` and
    hits every required edge set."""
    bdd = fair_graph.bdd
    x_to_y = fair_graph.fsm.x_to_y()
    anchor = fair_graph.pick_state(scc.states)
    assert anchor is not None
    cycle = thread_fair_cycle(fair_graph, scc, anchor)
    assert len(cycle) >= 1
    steps = [bdd.and_(a, bdd.rename(b, x_to_y))
             for a, b in zip(cycle, cycle[1:] + [cycle[0]])]
    for step in steps:
        assert bdd.and_(scc.trans, step) != bdd.false
    for required, label in scc.required_edges:
        if required == bdd.false:
            continue
        assert any(bdd.and_(required, step) != bdd.false for step in steps), (
            f"cycle misses required edge set {label}")


# -- explicit reference ----------------------------------------------------


def explicit_fair_cycle_exists(edges, buchi_sets, neg_sets, streett_pairs):
    """Reference semantics on the explicit graph.

    A fair cycle is a strongly connected edge-subgraph C (non-empty set
    of edges, mutually reachable) such that:
    * for each Büchi set B: C has an edge leaving a B-state;
    * for each negative set S: C has an edge leaving a non-S state;
    * for each Streett pair (E, F) over source states: if C contains an
      edge from an E-state then it contains an edge from an F-state —
      with the edge-removal subtlety: offending E-edges may simply be
      *avoided*, so the check recurses on the pruned graph.
    """

    def check_region(edge_set):
        graph = nx.DiGraph(list(edge_set))
        for component in nx.strongly_connected_components(graph):
            inside = {
                (u, v) for (u, v) in edge_set if u in component and v in component
            }
            if not inside:
                continue
            if _check_scc_explicit(inside, buchi_sets, neg_sets, streett_pairs,
                                    check_region):
                return True
        return False

    return check_region(set(edges))


def _check_scc_explicit(inside, buchi_sets, neg_sets, streett_pairs, recurse):
    for b in buchi_sets:
        if not any(u in b for (u, v) in inside):
            return False
    for s in neg_sets:
        if not any(u not in s for (u, v) in inside):
            return False
    removable = set()
    for (e_states, f_states) in streett_pairs:
        has_e = any(u in e_states for (u, v) in inside)
        has_f = any(u in f_states for (u, v) in inside)
        if has_e and not has_f:
            removable |= {(u, v) for (u, v) in inside if u in e_states}
    if removable:
        pruned = inside - removable
        return recurse(pruned)
    return True


# -- strategies --------------------------------------------------------------


def edges_strategy():
    all_edges = [(a, b) for a in VALUES for b in VALUES]
    return st.lists(st.sampled_from(all_edges), min_size=1, max_size=12,
                    unique=True)


def subset_strategy():
    return st.sets(st.sampled_from(VALUES), max_size=3)


@settings(max_examples=60, deadline=None)
@given(
    edges_strategy(),
    st.lists(subset_strategy(), max_size=2),
    st.lists(subset_strategy(), max_size=2),
    st.lists(st.tuples(subset_strategy(), subset_strategy()), max_size=2),
)
def test_symbolic_agrees_with_explicit(edges, buchi_sets, neg_sets, streett):
    # Restrict to the reachable part from state 0 (the engine searches
    # within the reached set, mirroring real use).
    graph = nx.DiGraph(edges)
    graph.add_node("0")
    reachable = nx.descendants(graph, "0") | {"0"}
    edges = [(u, v) for (u, v) in edges if u in reachable and v in reachable]
    if not edges:
        return

    fsm = build_machine(edges)
    fair_graph = FairGraph(fsm)
    var = fsm.var("s")
    constraints = []
    for b in buchi_sets:
        constraints.append(
            BuchiState(var.literal(sorted(b)) if b else fsm.bdd.false))
    for s in neg_sets:
        constraints.append(
            NegativeStateSet(var.literal(sorted(s)) if s else fsm.bdd.false))
    for e, f in streett:
        constraints.append(StreettPair(
            e=var.literal(sorted(e)) if e else fsm.bdd.false,
            f=var.literal(sorted(f)) if f else fsm.bdd.false,
        ))
    spec = FairnessSpec(constraints).normalize(fsm.bdd, fsm.bdd.true)
    reached = fsm.reachable().reached
    scc = find_fair_scc(fair_graph, spec, reached)

    expected = explicit_fair_cycle_exists(edges, buchi_sets, neg_sets, streett)
    assert (scc is not None) == expected, (
        f"edges={edges} buchi={buchi_sets} neg={neg_sets} streett={streett}"
    )

    if scc is not None:
        # The witness SCC must be non-trivial and internally consistent:
        # a threaded cycle exists and visits every required edge set.
        replays(fair_graph, scc)


# -- edge-set Streett pairs against repro.oracle ------------------------


@st.composite
def edge_fairness(draw):
    """Edges, Büchi edge sets and one to three Streett pairs whose ``E``
    and ``F`` are explicit edge sets drawn from those edges."""
    edges = draw(edges_strategy())
    edge_set = st.frozensets(st.sampled_from(sorted(edges)), max_size=3)
    buchi = draw(st.lists(edge_set, max_size=2))
    streett = draw(st.lists(st.tuples(edge_set, edge_set),
                            min_size=1, max_size=3))
    return edges, buchi, streett


def edge_spec(fsm, buchi, streett):
    return FairnessSpec(
        [BuchiEdge(edge_bdd(fsm, b)) for b in buchi]
        + [StreettPair(e=edge_bdd(fsm, e), f=edge_bdd(fsm, f))
           for e, f in streett]
    ).normalize(fsm.bdd, fsm.bdd.true)


def explicit_edge_fairness(buchi, streett):
    return ExplicitFairness(
        buchi=[lambda u, v, b=b: (u, v) in b for b in buchi],
        streett=[(lambda u, v, e=e: (u, v) in e, lambda u, v, f=f: (u, v) in f)
                 for e, f in streett],
    )


def reachable_from_zero(edges):
    graph = nx.DiGraph(edges)
    graph.add_node("0")
    return nx.descendants(graph, "0") | {"0"}


@settings(max_examples=60, deadline=None)
@given(edge_fairness())
def test_edge_streett_pairs_match_oracle(case):
    edges, buchi, streett = case
    fairness = explicit_edge_fairness(buchi, streett)
    reachable = reachable_from_zero(edges)
    oracle_sccs = [frozenset(c) for c in fair_sccs(reachable, set(edges), fairness)]
    oracle_fair = fair_path_states(set(DOMAIN), set(edges), fairness)
    what = f"edges={edges} buchi={buchi} streett={streett}"
    for config in (DEFAULT_CONFIG, EngineConfig(auto_gc=1)):
        fsm = build_machine(edges, config)
        graph = FairGraph(fsm)
        # Reachability runs safe points of its own: the fairness terms
        # are built after it.
        reached = fsm.reachable().reached
        spec = edge_spec(fsm, buchi, streett)
        scc = find_fair_scc(graph, spec, reached)
        assert (scc is not None) == bool(oracle_sccs), f"{what} {config}"
        if scc is not None:
            # The witness is a fair subgraph of one of the oracle's fair
            # SCCs: strongly connected, with every Büchi set, and an F-edge
            # for each pair whose E-edge it uses.
            witness = decode(fsm, scc.states)
            inside = decode_edges(fsm, scc.trans)
            assert inside <= set(edges)
            assert all(u in witness and v in witness for u, v in inside)
            assert any(witness <= comp for comp in oracle_sccs), what
            (component,) = sccs(sorted(witness),
                                lambda n: [v for u, v in inside if u == n])
            assert component == witness and inside, what
            for b in buchi:
                assert inside & b, what
            for e, f in streett:
                assert not inside & e or inside & f, what
            replays(graph, scc)
        fair = all_fair_states(graph, spec, graph.space)
        assert decode(fsm, fair) == oracle_fair, f"{what} {config}"


@settings(max_examples=60, deadline=None)
@given(edge_fairness())
def test_witness_is_a_bottom_scc_of_the_refined_relation(case):
    edges, buchi, streett = case
    fsm = build_machine(edges)
    graph = FairGraph(fsm)
    spec = edge_spec(fsm, buchi, streett)
    region, trans = fair_core(graph, spec, graph.space)
    inside = decode(fsm, region)
    refined = {(u, v) for u, v in decode_edges(fsm, trans)
               if u in inside and v in inside}
    scc = find_fair_scc(graph, spec, graph.space)
    assert (scc is None) == (not inside)
    if scc is None:
        return
    witness = decode(fsm, scc.states)
    components = sccs(sorted(inside),
                      lambda n: [v for u, v in refined if u == n])
    assert witness in [frozenset(c) for c in components]
    assert not [(u, v) for u, v in refined if u in witness and v not in witness]
    assert decode_edges(fsm, scc.trans) == {
        (u, v) for u, v in refined if u in witness}


# -- state-set Streett pairs: all_fair_states against repro.oracle ----------


@settings(max_examples=60, deadline=None)
@given(
    edges_strategy(),
    st.lists(subset_strategy(), max_size=2),
    st.lists(st.tuples(subset_strategy(), subset_strategy()),
             min_size=1, max_size=2),
)
def test_all_fair_states_streett_matches_oracle(edges, buchi_sets, streett):
    member = ExplicitFairness.state_buchi
    fairness = ExplicitFairness(
        buchi=[member(b.__contains__) for b in buchi_sets],
        streett=[(member(e.__contains__), member(f.__contains__))
                 for e, f in streett],
    )
    expected = fair_path_states(set(DOMAIN), set(edges), fairness)
    for config in (DEFAULT_CONFIG, EngineConfig(auto_gc=1)):
        fsm = build_machine(edges, config)
        graph = FairGraph(fsm)
        var = fsm.var("s")

        def states(values):
            return var.literal(sorted(values)) if values else fsm.bdd.false

        spec = FairnessSpec(
            [BuchiState(states(b)) for b in buchi_sets]
            + [StreettPair(e=states(e), f=states(f)) for e, f in streett]
        ).normalize(fsm.bdd, fsm.bdd.true)
        fair = all_fair_states(graph, spec, graph.space)
        assert decode(fsm, fair) == expected, (
            f"edges={edges} buchi={buchi_sets} streett={streett} {config}"
        )
