"""Tests for the static variable-ordering heuristics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BDD
from repro.bdd.ordering import (
    affinity_order,
    interacting_fsm_order,
    population_order,
)
from repro.models import TABLE1, get_spec
from repro.network import variable_order


def cubic_affinity_order(groups, all_items):
    """The earlier cubic formulation of :func:`affinity_order` (a rescan
    of every remaining item and an ``index`` tie-break per placement),
    kept as the reference the heap-driven one must reproduce.  A
    repeated item has one attraction, which each placement raises once,
    however many of its occurrences remain."""
    affinity = {}
    weight = {name: 0 for name in all_items}
    items_set = set(all_items)
    for group in groups:
        members = sorted(group & items_set)
        for i, a in enumerate(members):
            weight[a] += len(members) - 1
            for b in members[i + 1:]:
                affinity[(a, b)] = affinity.get((a, b), 0) + 1

    def pair_affinity(a, b):
        if a > b:
            a, b = b, a
        return affinity.get((a, b), 0)

    remaining = list(all_items)
    placed = []
    attraction = {name: 0 for name in all_items}
    while remaining:
        if not placed:
            best = max(remaining, key=lambda n: (weight[n], -all_items.index(n)))
        else:
            best = max(
                remaining,
                key=lambda n: (attraction[n], weight[n], -all_items.index(n)),
            )
        placed.append(best)
        remaining.remove(best)
        for n in set(remaining):
            attraction[n] += pair_affinity(best, n)
    return placed


class TestAffinityOrder:
    def test_groups_cluster(self):
        order = affinity_order(
            groups=[{"a", "b"}, {"a", "b"}, {"c", "d"}],
            all_items=["a", "c", "b", "d"],
        )
        # a and b co-occur twice: they must be adjacent.
        ia, ib = order.index("a"), order.index("b")
        assert abs(ia - ib) == 1

    def test_all_items_present_once(self):
        items = ["x", "y", "z", "w"]
        order = affinity_order([{"x", "z"}], items)
        assert sorted(order) == sorted(items)

    def test_isolated_items_kept(self):
        order = affinity_order([], ["p", "q"])
        assert sorted(order) == ["p", "q"]

    def test_items_not_in_groups_ignored_in_affinity(self):
        order = affinity_order([{"a", "b", "zz"}], ["a", "b"])
        assert sorted(order) == ["a", "b"]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_cubic_reference(self, data):
        n = data.draw(st.integers(0, 14))
        ids = data.draw(st.permutations(range(n)))
        # A few items may repeat; each occurrence is placed.
        ids += data.draw(st.lists(st.sampled_from(ids), max_size=4)) if ids else []
        ids = data.draw(st.permutations(ids))
        # Items are names or positions, as the callers pass them; ids n
        # and n + 1 stand for group members that are not items.
        name = (lambda i: f"v{i}") if data.draw(st.booleans()) else (lambda i: i)
        items = [name(i) for i in ids]
        groups = data.draw(st.lists(st.sets(st.integers(0, n + 1)), max_size=10))
        groups = [{name(i) for i in group} for group in groups]
        assert affinity_order(groups, items) == cubic_affinity_order(groups, items)

    @pytest.mark.parametrize("design", TABLE1)
    def test_table1_orders_match_cubic_reference(self, design):
        flat = get_spec(design).flat()
        groups = [set(t.variables) for t in flat.tables]
        groups += [{l.input, l.output} for l in flat.latches]
        assert variable_order(flat) == cubic_affinity_order(
            groups, flat.declared_variables()
        )


class TestInteractingFsmOrder:
    def test_communicating_latches_adjacent(self):
        order = interacting_fsm_order(
            {"l1": {"l2"}, "l2": {"l1"}, "l3": set(), "l4": {"l3"}},
        )
        i1, i2 = order.index("l1"), order.index("l2")
        assert abs(i1 - i2) == 1

    def test_nonstate_vars_attached_to_users(self):
        order = interacting_fsm_order(
            {"l1": {"w"}, "l2": set()},
            nonstate_vars=["w", "unused"],
        )
        assert order.index("w") == order.index("l1") + 1
        assert order[-1] == "unused"


def _comparator(names):
    """``x_i == y_i`` for all i, with variables declared in ``names`` order."""
    bdd = BDD()
    for name in names:
        bdd.add_var(name)
    eq = bdd.true
    for i in range(len(names) // 2):
        eq = bdd.and_(eq, bdd.xnor(bdd.var(f"x{i}"), bdd.var(f"y{i}")))
    return bdd, eq


def test_interleaved_order_smaller_for_comparator():
    # The classic example: x1..xn,y1..yn ordering blows up equality,
    # interleaving keeps it linear.
    n = 6
    blocked, blocked_eq = _comparator(
        [f"x{i}" for i in range(n)] + [f"y{i}" for i in range(n)]
    )
    interleaved, interleaved_eq = _comparator(
        [name for i in range(n) for name in (f"x{i}", f"y{i}")]
    )
    assert interleaved.size(interleaved_eq) < blocked.size(blocked_eq)


class TestPopulationOrder:
    def test_most_populous_first(self):
        bdd = BDD()
        a = bdd.add_var("a")
        b = bdd.add_var("b")
        c = bdd.add_var("c")
        # a labels two nodes (literal + conjunction root), b one, c none.
        bdd.and_(bdd.var(a), bdd.var(b))
        order = population_order(bdd)
        assert order[0] == a
        assert order[1] == b
        assert order[2] == c
        assert bdd.var_population(a) > bdd.var_population(b) > bdd.var_population(c)

    def test_ties_break_by_level(self):
        bdd = BDD()
        names = [bdd.add_var(n) for n in ("p", "q", "r")]
        # No nodes at all: every population is 0, so the order falls back
        # to top-to-bottom levels.
        assert population_order(bdd) == list(bdd.order)
